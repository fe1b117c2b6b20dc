//! Table I: the partitioning-scheme taxonomy.
//!
//! Eight schemes combine {Rearranged, Filtered} indexing × {Untagged,
//! Tagged} × {Way, Set} partitioning. This module measures, on a
//! conflict-heavy synthetic metadata trace, each scheme's correlation
//! hit rate at a small (0.25 MB) and a big (1 MB) partition, plus the
//! metadata blocks that must be shuffled when the partition is resized.
//! Only FTS — Streamline's filtered tagged set-partitioning — combines
//! high associativity at both sizes with free repartitioning.

use tpharness::report::Table;
use tpsim::LLC_SLICE_SETS as LLC_SETS;
use tptrace::Scale;

const ENTRIES_PER_WAY: usize = 4;
const MAX_WAYS: usize = 8;

#[derive(Clone, Copy, Debug, PartialEq, Eq)]
struct Scheme {
    filtered: bool,
    tagged: bool,
    set_partitioned: bool,
}

impl Scheme {
    fn name(&self) -> String {
        format!(
            "{}{}{}",
            if self.filtered { 'F' } else { 'R' },
            if self.tagged { 'T' } else { 'U' },
            if self.set_partitioned { 'S' } else { 'W' },
        )
    }
}

/// A miniature metadata store implementing one scheme.
struct SchemeStore {
    scheme: Scheme,
    /// Fraction of the max partition in eighths (2 = 0.25MB, 8 = 1MB).
    size_eighths: usize,
    /// `slots[set]` holds (trigger, lru) pairs.
    slots: Vec<Vec<(u64, u64)>>,
    clock: u64,
    moved_blocks: u64,
}

impl SchemeStore {
    fn new(scheme: Scheme, size_eighths: usize) -> Self {
        SchemeStore {
            scheme,
            size_eighths,
            slots: vec![Vec::new(); LLC_SETS],
            clock: 0,
            moved_blocks: 0,
        }
    }

    fn hash(x: u64) -> u64 {
        let mut v = x.wrapping_add(0x9e3779b97f4a7c15);
        v = (v ^ (v >> 30)).wrapping_mul(0xbf58476d1ce4e5b9);
        v ^ (v >> 27)
    }

    /// (set, capacity, group) for a trigger under the current geometry.
    /// `group` restricts placement for untagged schemes (a single way).
    fn locate(&self, trigger: u64) -> Option<(usize, usize, Option<usize>)> {
        let h = Self::hash(trigger);
        if self.scheme.set_partitioned {
            // Set partitioning: `size_eighths/8` of the sets, 8 ways.
            let allocated = LLC_SETS * self.size_eighths / 8;
            let (set, filtered_out);
            if self.scheme.filtered {
                // Fixed (max-size) index; out-of-partition sets filter.
                let s = (h as usize) % LLC_SETS;
                filtered_out = s >= allocated;
                set = s;
            } else {
                set = (h as usize) % allocated.max(1);
                filtered_out = false;
            }
            if filtered_out {
                return None;
            }
            let cap = MAX_WAYS * ENTRIES_PER_WAY;
            let group = if self.scheme.tagged {
                None
            } else {
                Some(((h >> 24) as usize) % MAX_WAYS)
            };
            Some((set, cap, group))
        } else {
            // Way partitioning: all sets, `size_eighths` ways.
            let ways = self.size_eighths.max(1);
            let set = (h as usize) % LLC_SETS;
            if self.scheme.filtered {
                // Fixed max-size way index; ways beyond the partition
                // filter the entry out.
                let way = ((h >> 24) as usize) % MAX_WAYS;
                if way >= ways {
                    return None;
                }
                let group = if self.scheme.tagged { None } else { Some(way) };
                return Some((set, ways * ENTRIES_PER_WAY, group));
            }
            let group = if self.scheme.tagged {
                None
            } else {
                Some(((h >> 24) as usize) % ways)
            };
            Some((set, ways * ENTRIES_PER_WAY, group))
        }
    }

    /// `None` = filtered out (not a hit-rate event; filtering loss is
    /// measured separately in Figure 15), `Some(hit)` otherwise.
    fn access(&mut self, trigger: u64) -> Option<bool> {
        self.clock += 1;
        let (set, cap, group) = self.locate(trigger)?;
        let bucket = &mut self.slots[set];
        // Untagged: only entries within the hash-selected way group are
        // reachable (effective associativity = one way).
        let reachable = |i: usize, b: &Vec<(u64, u64)>| match group {
            None => true,
            Some(g) => {
                (Self::hash(b[i].0) >> 24) as usize % MAX_WAYS.min(cap / ENTRIES_PER_WAY).max(1)
                    == g
            }
        };
        if let Some(i) = (0..bucket.len()).find(|&i| bucket[i].0 == trigger && reachable(i, bucket))
        {
            bucket[i].1 = self.clock;
            return Some(true);
        }
        // Miss: insert, evicting LRU among reachable entries when the
        // group (untagged) or whole set (tagged) is full.
        let in_group: Vec<usize> = (0..bucket.len())
            .filter(|&i| reachable(i, bucket))
            .collect();
        let group_cap = match group {
            None => cap,
            Some(_) => ENTRIES_PER_WAY,
        };
        if in_group.len() >= group_cap || bucket.len() >= cap {
            let victim = in_group
                .iter()
                .copied()
                .min_by_key(|&i| bucket[i].1)
                .unwrap_or(0);
            if victim < bucket.len() {
                bucket.remove(victim);
            }
        }
        self.slots[set].push((trigger, self.clock));
        Some(false)
    }

    fn resize(&mut self, size_eighths: usize) {
        let old = std::mem::take(&mut self.slots);
        self.size_eighths = size_eighths;
        self.slots = vec![Vec::new(); LLC_SETS];
        let entries: Vec<(u64, u64)> = old.into_iter().flatten().collect();
        if self.scheme.filtered {
            // Filtered: index unchanged; entries whose location left the
            // partition are dropped, nothing moves.
            for (t, l) in entries {
                if let Some((set, cap, _)) = self.locate(t) {
                    if self.slots[set].len() < cap {
                        self.slots[set].push((t, l));
                    }
                }
            }
        } else {
            // Rearranged: the index function changed; every survivor
            // must be shuffled to its new location.
            self.moved_blocks += (entries.len() / ENTRIES_PER_WAY) as u64;
            for (t, l) in entries {
                if let Some((set, cap, _)) = self.locate(t) {
                    if self.slots[set].len() < cap {
                        self.slots[set].push((t, l));
                    }
                }
            }
        }
    }
}

/// Hit rate on a conflict-heavy trace: per-set working sets larger than
/// one way but smaller than a full set.
fn hit_rate(scheme: Scheme, size_eighths: usize) -> f64 {
    let mut store = SchemeStore::new(scheme, size_eighths);
    // Working set: 75% of the partition's entry capacity *post filter*,
    // so every scheme faces identical per-set pressure and the hit-rate
    // differences isolate effective associativity (capacity and
    // filtering loss are studied elsewhere: Figures 13a and 15).
    let storable = LLC_SETS * size_eighths * ENTRIES_PER_WAY * 3 / 4;
    let triggers_per_round = if scheme.filtered {
        storable * 8 / size_eighths
    } else {
        storable
    };
    let mut hits = 0u64;
    let mut accesses = 0u64;
    for round in 0..4 {
        for t in 0..triggers_per_round as u64 {
            let outcome = store.access(t * 131 + 7);
            if round > 0 {
                if let Some(hit) = outcome {
                    accesses += 1;
                    hits += hit as u64;
                }
            }
        }
    }
    hits as f64 / accesses.max(1) as f64
}

fn resize_cost(scheme: Scheme) -> u64 {
    let mut store = SchemeStore::new(scheme, 8);
    for t in 0..60_000u64 {
        let _ = store.access(t * 131 + 7);
    }
    store.resize(4);
    store.resize(8);
    store.moved_blocks
}

pub fn render(_: Scale) -> String {
    let mut out = String::new();
    let mut t = Table::new(
        "Table I: Partitioning Schemes (measured)",
        &[
            "scheme",
            "hit rate @0.25MB",
            "hit rate @1MB",
            "resize shuffle (blocks)",
        ],
    );
    for &filtered in &[false, true] {
        for &tagged in &[false, true] {
            for &set_partitioned in &[false, true] {
                let s = Scheme {
                    filtered,
                    tagged,
                    set_partitioned,
                };
                t.row(&[
                    s.name(),
                    format!("{:.1}%", hit_rate(s, 2) * 100.0),
                    format!("{:.1}%", hit_rate(s, 8) * 100.0),
                    resize_cost(s).to_string(),
                ]);
            }
        }
    }
    out += &t.render();
    out += "\npaper shape: only FTS keeps associativity at both sizes AND shuffles nothing on resize.\n";
    out
}
