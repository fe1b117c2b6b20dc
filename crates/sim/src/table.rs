//! Fixed-capacity open-addressed hash table keyed by [`Line`].
//!
//! Off the demand path: the simulator itself keeps no per-line table
//! (a prefetched block's record lives in its own cache way, see
//! [`crate::cache`]). The type is retained only because the benchmark's
//! `tpsim.table.linemap_op_ns` kernel measures it. Against
//! `std::collections::HashMap`, where every operation pays SipHash plus
//! the occasional rehash-and-reallocate, it offers:
//!
//! * **Multiplicative hashing** (FxHash-style): a cache-line address is
//!   already close to uniform in its low bits, so one Fibonacci
//!   multiply and a shift spread it over the slot array. No per-access
//!   hasher state, no SipHash rounds.
//! * **Fixed capacity, linear probing**: a caller that knows its
//!   population bound sizes the table once at construction, scaled to
//!   a ≤50% load factor, and it never reallocates afterwards. A growth
//!   path exists as a safety valve but is unreachable under that
//!   sizing (see [`LineMap::with_capacity_for`]).
//! * **Backward-shift deletion**: removals compact the probe cluster in
//!   place instead of leaving tombstones, so long-running simulations
//!   keep short probe sequences without periodic rebuilds.
//!
//! Equivalence with a `HashMap` reference model is machine-checked by
//! the tpcheck property suite in this module's tests and, on real
//! address streams, by `tests/hot_path_equivalence.rs` at the
//! workspace root.

use tptrace::record::Line;

/// 2^64 / phi — the Fibonacci-hashing multiplier (also used by FxHash).
const MULT: u64 = 0x9E37_79B9_7F4A_7C15;

/// An open-addressed `Line -> V` map with linear probing.
///
/// Values are `Copy`, which keeps slots `Option<(u64, V)>` and every
/// operation free of drop glue.
#[derive(Clone, Debug)]
pub struct LineMap<V: Copy> {
    slots: Vec<Option<(u64, V)>>,
    /// `slots.len() - 1`; the slot count is a power of two.
    mask: usize,
    /// `64 - log2(slots.len())`: the multiplicative-hash shift.
    shift: u32,
    len: usize,
}

impl<V: Copy> LineMap<V> {
    /// Creates a map that holds at least `expected` entries without
    /// growing: the slot count is the next power of two at or above
    /// `2 * expected` (≤50% load factor), with a floor of 16.
    pub fn with_capacity_for(expected: usize) -> Self {
        let slots = (2 * expected.max(8)).next_power_of_two();
        LineMap {
            slots: vec![None; slots],
            mask: slots - 1,
            shift: 64 - slots.trailing_zeros(),
            len: 0,
        }
    }

    /// Entries currently stored.
    pub fn len(&self) -> usize {
        self.len
    }

    /// True when no entries are stored.
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// Slot count (fixed between growths).
    pub fn capacity(&self) -> usize {
        self.slots.len()
    }

    #[inline]
    fn home(&self, key: u64) -> usize {
        (key.wrapping_mul(MULT) >> self.shift) as usize
    }

    /// Index of `key`'s slot, if present.
    #[inline]
    fn find(&self, key: u64) -> Option<usize> {
        let mut i = self.home(key);
        while let Some((k, _)) = self.slots[i] {
            if k == key {
                return Some(i);
            }
            i = (i + 1) & self.mask;
        }
        None
    }

    /// The value stored for `line`, if any.
    #[inline]
    pub fn get(&self, line: Line) -> Option<V> {
        self.find(line.0).map(|i| self.slots[i].expect("found").1)
    }

    /// True when `line` has an entry.
    #[inline]
    pub fn contains(&self, line: Line) -> bool {
        self.find(line.0).is_some()
    }

    /// Inserts or overwrites; returns the previous value, if any.
    #[inline]
    pub fn insert(&mut self, line: Line, value: V) -> Option<V> {
        let key = line.0;
        let mut i = self.home(key);
        loop {
            match self.slots[i] {
                Some((k, old)) if k == key => {
                    self.slots[i] = Some((key, value));
                    return Some(old);
                }
                Some(_) => i = (i + 1) & self.mask,
                None => {
                    self.slots[i] = Some((key, value));
                    self.len += 1;
                    // Safety valve: a mis-sized caller degrades to a
                    // rehash instead of an infinite probe loop.
                    if self.len * 2 > self.slots.len() {
                        self.grow();
                    }
                    return None;
                }
            }
        }
    }

    /// Removes `line`'s entry, compacting the probe cluster
    /// (backward-shift deletion). Returns the removed value, if any.
    #[inline]
    pub fn remove(&mut self, line: Line) -> Option<V> {
        let mut i = self.find(line.0)?;
        let removed = self.slots[i].take().expect("found").1;
        self.len -= 1;
        // Re-place every element in the cluster after `i`: an element at
        // `j` whose home slot lies cyclically outside `(i, j]` would
        // become unreachable through the hole, so it slides into it.
        let mut j = i;
        loop {
            j = (j + 1) & self.mask;
            let Some((k, _)) = self.slots[j] else { break };
            let h = self.home(k);
            let reachable_through_hole = if i < j {
                h <= i || h > j
            } else {
                h <= i && h > j
            };
            if reachable_through_hole {
                self.slots[i] = self.slots[j].take();
                i = j;
            }
        }
        Some(removed)
    }

    /// Iterates over `(Line, value)` pairs (arbitrary order).
    pub fn iter(&self) -> impl Iterator<Item = (Line, &V)> {
        self.slots.iter().flatten().map(|(k, v)| (Line(*k), v))
    }

    /// Doubles the slot array and rehashes (cold path; unreachable when
    /// the capacity hint covers the true population bound).
    #[cold]
    fn grow(&mut self) {
        let new_slots = self.slots.len() * 2;
        let old = std::mem::replace(&mut self.slots, vec![None; new_slots]);
        self.mask = new_slots - 1;
        self.shift = 64 - new_slots.trailing_zeros();
        self.len = 0;
        for (k, v) in old.into_iter().flatten() {
            self.insert(Line(k), v);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::collections::HashMap;

    #[test]
    fn insert_get_remove_round_trip() {
        let mut m = LineMap::with_capacity_for(16);
        assert_eq!(m.insert(Line(7), 70u64), None);
        assert_eq!(m.insert(Line(7), 71), Some(70));
        assert_eq!(m.get(Line(7)), Some(71));
        assert!(m.contains(Line(7)));
        assert_eq!(m.remove(Line(7)), Some(71));
        assert_eq!(m.remove(Line(7)), None);
        assert!(m.is_empty());
    }

    #[test]
    fn line_zero_is_a_valid_key() {
        let mut m = LineMap::with_capacity_for(4);
        m.insert(Line(0), 1u8);
        assert_eq!(m.get(Line(0)), Some(1));
        assert_eq!(m.remove(Line(0)), Some(1));
    }

    #[test]
    fn colliding_cluster_survives_middle_removal() {
        // Force collisions by exceeding any spread: tiny table, many
        // keys, then delete from the middle of a probe cluster and
        // check every survivor is still reachable.
        let mut m = LineMap::with_capacity_for(8);
        for k in 0..12u64 {
            m.insert(Line(k * 64), k);
        }
        m.remove(Line(5 * 64));
        m.remove(Line(2 * 64));
        for k in 0..12u64 {
            let want = if k == 5 || k == 2 { None } else { Some(k) };
            assert_eq!(m.get(Line(k * 64)), want, "key {k}");
        }
    }

    #[test]
    fn growth_valve_keeps_all_entries() {
        let mut m = LineMap::with_capacity_for(4);
        for k in 0..1000u64 {
            m.insert(Line(k * 131), k);
        }
        assert_eq!(m.len(), 1000);
        for k in 0..1000u64 {
            assert_eq!(m.get(Line(k * 131)), Some(k));
        }
    }

    #[test]
    fn sized_table_never_grows_within_bound() {
        let mut m = LineMap::<u64>::with_capacity_for(768);
        let cap = m.capacity();
        for k in 0..768u64 {
            m.insert(Line(k), k);
        }
        assert_eq!(m.capacity(), cap, "growth valve must not trip at the bound");
    }

    /// The tpcheck equivalence property: a random operation sequence
    /// (insert / remove / get, adversarially clustered keys) agrees
    /// with `std::collections::HashMap` at every step — the reference
    /// model the open-addressed rewrite is pinned against.
    #[test]
    fn random_ops_agree_with_hashmap_reference() {
        tpcheck::check("LineMap == HashMap under random ops", 256, |g| {
            let mut m = LineMap::with_capacity_for(g.usize_in(1..64));
            let mut reference: HashMap<u64, u64> = HashMap::new();
            // Small key universe + strided keys maximise collisions.
            let stride = [1u64, 64, 4096, 1 << 52][g.usize_in(0..4)];
            let universe = g.u64_in(1..64);
            for _ in 0..g.usize_in(1..400) {
                let key = g.u64_in(0..universe) * stride;
                match g.usize_in(0..4) {
                    0 | 1 => {
                        let v = g.next_u64();
                        let a = m.insert(Line(key), v);
                        let b = reference.insert(key, v);
                        tpcheck::ensure!(a == b, "insert({key}) returned {a:?} want {b:?}");
                    }
                    2 => {
                        let a = m.remove(Line(key));
                        let b = reference.remove(&key);
                        tpcheck::ensure!(a == b, "remove({key}) returned {a:?} want {b:?}");
                    }
                    _ => {
                        let a = m.get(Line(key));
                        let b = reference.get(&key).copied();
                        tpcheck::ensure!(a == b, "get({key}) returned {a:?} want {b:?}");
                    }
                }
                tpcheck::ensure!(
                    m.len() == reference.len(),
                    "len {} diverged from reference {}",
                    m.len(),
                    reference.len()
                );
            }
            // Full-state agreement at the end.
            let mut got: Vec<(u64, u64)> = m.iter().map(|(l, &v)| (l.0, v)).collect();
            let mut want: Vec<(u64, u64)> = reference.iter().map(|(&k, &v)| (k, v)).collect();
            got.sort_unstable();
            want.sort_unstable();
            tpcheck::ensure!(got == want, "final contents diverged");
            Ok(())
        });
    }
}
