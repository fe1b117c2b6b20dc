//! Op-trace digest of `StreamStore` over the ablation configurations.
//!
//! `golden_snapshot` only runs default Streamline, so `tsp` / `tpmj` /
//! `filtering` off, `skewed`, `hybrid` and `stream_len != 4` (Figures
//! 12, 14 and 15) are pinned byte-for-byte nowhere else. For each seed
//! this test draws one such configuration, drives a few thousand seeded
//! operations through the store's public API only, and folds every
//! value the store returns into one FNV-1a digest. The store is a pure
//! function of (config, op sequence), so the digest must reproduce
//! exactly: a change that moves it changed what some ablation stores,
//! evicts, filters or reports.

use streamline_repro::prelude::*;
use streamline_repro::streamline_core::store::ALL_SIZES;
use streamline_repro::streamline_core::{StoreInsert, StreamEntry, StreamStore, META_WAYS};
use streamline_repro::tptrace::record::Line;
use streamline_repro::tptrace::rng::SmallRng;

/// Recorded history. 4cd6e86, on the per-set `Vec<Option<Slot>>` store:
/// `0xda17_2a70_c7ab_6bd9`, which the single-table rewrite reproduced.
/// Re-recorded once, alone, by the fix that derives the "0 MB" stride
/// from `llc_sets` — the old constant stride of 32 sets suited only
/// 2048-set domains, and every domain drawn here is smaller. (The same
/// 64 op traces at `llc_sets: 2048` digest to `0xf27a_b5a6_f4a8_0842`
/// on both sides of that fix.)
const DIGEST: u64 = 0x3dea_ace7_fccb_12f1;

const SEEDS: u64 = 64;
const OPS: usize = 6_000;
/// Triggers are drawn from lines that index into the first few sets, so
/// sets fill, evict and alias within a few thousand operations, and the
/// sets differ in which partition sizes allocate them.
const HOT_SETS: usize = 8;

struct Fnv(u64);

impl Fnv {
    fn fold(&mut self, v: u64) {
        for b in v.to_le_bytes() {
            self.0 = (self.0 ^ b as u64).wrapping_mul(0x0000_0100_0000_01b3);
        }
    }
}

fn draw_config(rng: &mut SmallRng) -> StreamlineConfig {
    StreamlineConfig {
        llc_sets: 32 << rng.gen_range(0..5u32),
        stream_len: [2, 3, 4, 8, 16][rng.gen_range(0..5usize)],
        tsp: rng.gen_bool(0.5),
        tpmj: rng.gen_bool(0.5),
        filtering: rng.gen_bool(0.5),
        skewed: rng.gen_bool(0.5),
        hybrid: rng.gen_bool(0.5),
        fixed_size: match rng.gen_range(0..6u32) {
            0 => Some(PartitionSize::Half),
            1 => Some(PartitionSize::Quarter),
            _ => None,
        },
        ..Default::default()
    }
}

fn run_seed(seed: u64, d: &mut Fnv) {
    let mut rng = SmallRng::seed_from_u64(0x5107_e000 + seed);
    let cfg = draw_config(&mut rng);
    let mut store = StreamStore::new(cfg);

    // A colliding trigger universe: twice the hot sets' capacity.
    let cap = META_WAYS
        * (StreamlineConfig::correlations_per_block(cfg.stream_len) / cfg.stream_len).max(1);
    let universe: Vec<Line> = (1u64..)
        .map(|i| Line(i * 0x9e5))
        .filter(|&t| store.set_of(t) < HOT_SETS)
        .take(HOT_SETS * cap * 2)
        .collect();
    let trigger = |rng: &mut SmallRng| {
        if rng.gen_ratio(1, 10) {
            Line(rng.gen_range(1u64..1 << 30)) // anywhere in the store
        } else {
            universe[rng.gen_range(0..universe.len())]
        }
    };

    let mut last: Option<(StreamEntry, u8)> = None;
    for _ in 0..OPS {
        match rng.gen_range(0..1000u32) {
            0..=449 => {
                // Targets are runs on a 64-line ring, so different
                // entries of one set share correlation pairs.
                let (entry, pc) = match &last {
                    Some(l) if rng.gen_ratio(1, 20) => l.clone(), // identical rewrite
                    _ => {
                        let start = rng.gen_range(0u64..64);
                        let n = rng.gen_range(1..=cfg.stream_len) as u64;
                        let targets: Vec<Line> = (1..=n)
                            .map(|j| Line(0x4000_0000 + (start + j) % 64))
                            .collect();
                        let pc = rng.gen_range(0u8..16);
                        (StreamEntry::new(trigger(&mut rng), targets), pc)
                    }
                };
                match store.insert(entry.clone(), pc) {
                    StoreInsert::Stored { redundant_pairs } => {
                        d.fold(1);
                        d.fold(redundant_pairs as u64);
                    }
                    StoreInsert::Filtered => d.fold(2),
                }
                last = Some((entry, pc));
            }
            450..=849 => {
                let t = trigger(&mut rng);
                fold_lookup(d, &mut store, t, rng.gen_range(0u8..16));
            }
            850..=946 => {
                let t = trigger(&mut rng);
                d.fold(store.peek_first_target(t).map_or(u64::MAX, |l| l.0));
                d.fold(store.would_filter(t) as u64);
            }
            947..=949 => {
                let r = store.set_size(ALL_SIZES[rng.gen_range(0..ALL_SIZES.len())]);
                d.fold(r.dropped_entries as u64);
                d.fold(r.moved_blocks as u64);
            }
            _ => {
                for s in ALL_SIZES {
                    d.fold(store.hits_at(s));
                }
                d.fold(store.lookups());
                d.fold(store.alias_conflicts());
                d.fold(store.valid_entries() as u64);
                d.fold(store.valid_blocks() as u64);
                if rng.gen_ratio(1, 4) {
                    store.reset_epoch();
                }
            }
        }
    }
    // What is resident at the end, in full.
    for &t in &universe {
        fold_lookup(d, &mut store, t, 0);
    }
}

fn fold_lookup(d: &mut Fnv, store: &mut StreamStore, trigger: Line, pc: u8) {
    match store.lookup(trigger, pc) {
        Some(targets) => {
            d.fold(targets.len() as u64);
            targets.iter().for_each(|t| d.fold(t.0));
        }
        None => d.fold(u64::MAX),
    }
}

#[test]
fn ablation_op_traces_reproduce_the_recorded_digest() {
    let mut d = Fnv(0xcbf2_9ce4_8422_2325);
    for seed in 0..SEEDS {
        run_seed(seed, &mut d);
    }
    assert_eq!(
        d.0, DIGEST,
        "StreamStore op-trace digest moved: {:#018x} (recorded {DIGEST:#018x})",
        d.0
    );
}
