//! Stream entries — the paper's core metadata representation — and the
//! stream-alignment operation (Section IV-B2, Figures 3 and 4).
//!
//! ## Inline target storage
//!
//! A [`StreamEntry`] used to hold its targets in a `Vec<Line>`, which
//! put one heap allocation (often several, counting clones and the
//! alignment scratch) on every training event — the dominant residual
//! allocation source on the simulator's demand path. Targets now live
//! in a fixed-capacity inline array ([`TargetList`]): the hardware
//! proposal bounds streams at a few correlations per entry, so
//! [`MAX_STREAM_LEN`] covers every configuration the repo sweeps
//! (Figure 12 tops out at `stream_len = 16`) and entry construction,
//! cloning, and [`align`] are allocation-free.

use tptrace::record::Line;

/// Upper bound on `stream_len`: the number of correlated targets a
/// [`StreamEntry`] can hold inline. The Figure 12 sweep's largest
/// configuration is 16; [`crate::StreamlineConfig`] validation rejects
/// anything larger.
pub const MAX_STREAM_LEN: usize = 16;

/// A fixed-capacity inline list of correlated target lines.
///
/// Behaves like a small `Vec<Line>` bounded by [`MAX_STREAM_LEN`]:
/// dereferences to `&[Line]`, compares by its valid prefix only, and
/// clones by `memcpy`. Pushing beyond capacity panics — callers clamp
/// to `stream_len`, which config validation keeps within bounds.
#[derive(Clone)]
pub struct TargetList {
    len: u8,
    buf: [Line; MAX_STREAM_LEN],
}

impl TargetList {
    /// Creates an empty list.
    pub fn new() -> Self {
        TargetList {
            len: 0,
            buf: [Line(0); MAX_STREAM_LEN],
        }
    }

    /// Appends a target.
    ///
    /// # Panics
    /// Panics if the list already holds [`MAX_STREAM_LEN`] targets.
    #[inline]
    pub fn push(&mut self, line: Line) {
        assert!(
            (self.len as usize) < MAX_STREAM_LEN,
            "TargetList overflow (MAX_STREAM_LEN = {MAX_STREAM_LEN})"
        );
        self.buf[self.len as usize] = line;
        self.len += 1;
    }

    /// Removes all targets (capacity is inline, nothing to free).
    #[inline]
    pub fn clear(&mut self) {
        self.len = 0;
    }

    /// Shortens the list to at most `n` targets.
    #[inline]
    pub fn truncate(&mut self, n: usize) {
        self.len = self.len.min(n.min(MAX_STREAM_LEN) as u8);
    }

    /// The valid targets as a slice.
    #[inline]
    pub fn as_slice(&self) -> &[Line] {
        &self.buf[..self.len as usize]
    }
}

impl Default for TargetList {
    fn default() -> Self {
        TargetList::new()
    }
}

impl std::ops::Deref for TargetList {
    type Target = [Line];

    #[inline]
    fn deref(&self) -> &[Line] {
        self.as_slice()
    }
}

impl std::fmt::Debug for TargetList {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_list().entries(self.as_slice()).finish()
    }
}

impl PartialEq for TargetList {
    fn eq(&self, other: &Self) -> bool {
        self.as_slice() == other.as_slice()
    }
}

impl Eq for TargetList {}

impl PartialEq<Vec<Line>> for TargetList {
    fn eq(&self, other: &Vec<Line>) -> bool {
        self.as_slice() == other.as_slice()
    }
}

impl PartialEq<TargetList> for Vec<Line> {
    fn eq(&self, other: &TargetList) -> bool {
        self.as_slice() == other.as_slice()
    }
}

impl From<&[Line]> for TargetList {
    fn from(lines: &[Line]) -> Self {
        let mut t = TargetList::new();
        for &l in lines {
            t.push(l);
        }
        t
    }
}

impl From<Vec<Line>> for TargetList {
    fn from(lines: Vec<Line>) -> Self {
        TargetList::from(lines.as_slice())
    }
}

impl FromIterator<Line> for TargetList {
    fn from_iter<I: IntoIterator<Item = Line>>(iter: I) -> Self {
        let mut t = TargetList::new();
        for l in iter {
            t.push(l);
        }
        t
    }
}

/// One stream-based metadata entry: a trigger address followed by up to
/// `stream_len` correlated targets.
///
/// An entry for the access stream `[A, B, C, D, E]` is
/// `trigger = A, targets = [B, C, D, E]` and represents the four
/// correlations A→B, B→C, C→D, D→E — where a pairwise store would spend
/// eight address slots, the stream entry spends five.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct StreamEntry {
    /// Trigger address.
    pub trigger: Line,
    /// Correlated targets, in stream order (inline storage; see
    /// [`TargetList`]).
    pub targets: TargetList,
}

impl StreamEntry {
    /// Creates an entry. Accepts anything convertible to a
    /// [`TargetList`] — a `Vec<Line>`, a slice, or a list moved from
    /// another entry.
    pub fn new(trigger: Line, targets: impl Into<TargetList>) -> Self {
        StreamEntry {
            trigger,
            targets: targets.into(),
        }
    }

    /// All addresses in stream order (trigger first).
    pub fn addresses(&self) -> impl Iterator<Item = Line> + '_ {
        std::iter::once(self.trigger).chain(self.targets.iter().copied())
    }

    /// Number of correlations the entry holds.
    pub fn correlations(&self) -> usize {
        self.targets.len()
    }

    /// The final address of the stream.
    pub fn last(&self) -> Line {
        self.targets.last().copied().unwrap_or(self.trigger)
    }

    /// Position of `line` in the entry (0 = trigger), if present.
    pub fn position_of(&self, line: Line) -> Option<usize> {
        self.addresses().position(|a| a == line)
    }

    /// The targets that follow `line` within this entry.
    pub fn successors_of(&self, line: Line) -> &[Line] {
        match self.position_of(line) {
            Some(0) => &self.targets,
            Some(p) => &self.targets[p..],
            None => &[],
        }
    }

    /// The correlation pairs `(a, b)` the entry encodes.
    pub fn pairs(&self) -> Vec<(Line, Line)> {
        self.pair_iter().collect()
    }

    /// Iterates the correlation pairs without allocating (the store's
    /// per-insert redundancy scan runs this on every resident entry).
    pub fn pair_iter(&self) -> impl Iterator<Item = (Line, Line)> + '_ {
        // Addresses are [trigger, t0, t1, ...]; consecutive pairs are
        // exactly addresses zipped with targets.
        self.addresses().zip(self.targets.iter().copied())
    }
}

/// Result of [`align`]: the merged entry plus the leftover targets that
/// bootstrap the next stream.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct Alignment {
    /// The aligned entry (old trigger, updated correlations).
    pub aligned: StreamEntry,
    /// New-entry targets that did not fit; they seed the next stream.
    pub leftover: TargetList,
}

/// Performs stream alignment between an `old` entry and a freshly
/// completed `new` entry whose trigger appears inside `old`
/// (Figures 3b and 4b).
///
/// The aligned entry keeps `old`'s trigger and the prefix of `old` up to
/// `new`'s trigger, then takes **`new`'s updated correlations** — fixing
/// stale metadata (Figure 4: `[A,B,C,D,E]` + new `[B,C,X,Y,…]` →
/// `[A,B,C,X,Y]`). Targets that no longer fit are returned as leftovers.
///
/// Returns `None` when `new.trigger` is not in `old`, or only appears as
/// `old`'s final address (no overlap to merge — the paper skips these).
///
/// Allocation-free: the merged sequence (≤ `2 * MAX_STREAM_LEN + 1`
/// addresses) is assembled on the stack.
pub fn align(old: &StreamEntry, new: &StreamEntry, stream_len: usize) -> Option<Alignment> {
    let pos = old.position_of(new.trigger)?;
    if pos == old.correlations() {
        return None; // trigger is old's final address: no overlap
    }
    // Merged address sequence: old prefix through new.trigger, then
    // new's targets (the up-to-date continuation).
    let mut merged = [Line(0); 2 * MAX_STREAM_LEN + 1];
    let mut n = 0usize;
    for a in old.addresses().take(pos + 1) {
        merged[n] = a;
        n += 1;
    }
    for &t in new.targets.iter() {
        merged[n] = t;
        n += 1;
    }
    let keep = (stream_len + 1).min(n);
    let aligned = StreamEntry::new(merged[0], &merged[1..keep]);
    let leftover = TargetList::from(&merged[keep..n]);
    Some(Alignment { aligned, leftover })
}

#[cfg(test)]
mod tests {
    use super::*;

    fn e(trigger: u64, targets: &[u64]) -> StreamEntry {
        StreamEntry::new(
            Line(trigger),
            targets.iter().map(|&t| Line(t)).collect::<TargetList>(),
        )
    }

    #[test]
    fn entry_accessors() {
        let s = e(1, &[2, 3, 4, 5]);
        assert_eq!(s.correlations(), 4);
        assert_eq!(s.last(), Line(5));
        assert_eq!(s.position_of(Line(3)), Some(2));
        assert_eq!(s.successors_of(Line(3)), &[Line(4), Line(5)]);
        assert_eq!(s.successors_of(Line(1)).len(), 4);
        assert_eq!(s.successors_of(Line(99)), &[] as &[Line]);
        assert_eq!(s.pairs().len(), 4);
    }

    #[test]
    fn target_list_behaves_like_a_bounded_vec() {
        let mut t = TargetList::new();
        assert!(t.is_empty());
        for i in 0..MAX_STREAM_LEN as u64 {
            t.push(Line(i));
        }
        assert_eq!(t.len(), MAX_STREAM_LEN);
        assert_eq!(t[3], Line(3));
        // Equality ignores storage beyond the valid prefix.
        t.truncate(2);
        assert_eq!(t, vec![Line(0), Line(1)]);
        let u: TargetList = vec![Line(0), Line(1)].into();
        assert_eq!(t, u);
        t.clear();
        assert!(t.is_empty());
        assert_eq!(format!("{t:?}"), "[]");
    }

    #[test]
    #[should_panic(expected = "TargetList overflow")]
    fn target_list_overflow_panics() {
        let mut t = TargetList::new();
        for i in 0..=MAX_STREAM_LEN as u64 {
            t.push(Line(i));
        }
    }

    #[test]
    fn figure3_alignment_merges_overlap() {
        // Old [A,B,C,D,E], new [B,C,D,E,F] -> aligned [A,B,C,D,E],
        // leftover [F].
        let old = e(10, &[20, 30, 40, 50]);
        let new = e(20, &[30, 40, 50, 60]);
        let a = align(&old, &new, 4).expect("aligns");
        assert_eq!(a.aligned, e(10, &[20, 30, 40, 50]));
        assert_eq!(a.leftover, vec![Line(60)]);
    }

    #[test]
    fn figure4_alignment_fixes_stale_metadata() {
        // Old [A,B,C,D,E]; the stream changed to [A,B,C,X,Y]. New entry
        // completed as [B,C,X,Y,Z]? Use the paper's smaller case:
        // new [B | C,X,Y] -> aligned [A | B,C,X,Y].
        let old = e(1, &[2, 3, 4, 5]);
        let new = e(2, &[3, 40, 50]);
        let a = align(&old, &new, 4).expect("aligns");
        assert_eq!(a.aligned, e(1, &[2, 3, 40, 50]));
        assert!(a.leftover.is_empty());
        // The stale correlations 3->4, 4->5 are gone.
        assert!(!a.aligned.pairs().contains(&(Line(3), Line(4))));
    }

    #[test]
    fn trigger_as_final_address_is_skipped() {
        // Old [A,B,C,D,E], new triggered by E: no overlap to merge.
        let old = e(1, &[2, 3, 4, 5]);
        let new = e(5, &[6, 7, 8, 9]);
        assert!(align(&old, &new, 4).is_none());
    }

    #[test]
    fn unrelated_entries_do_not_align() {
        let old = e(1, &[2, 3, 4, 5]);
        let new = e(100, &[101, 102, 103, 104]);
        assert!(align(&old, &new, 4).is_none());
    }

    #[test]
    fn deep_overlap_produces_more_leftovers() {
        // New trigger sits early in old: most of new spills over.
        let old = e(1, &[2, 3, 4, 5]);
        let new = e(2, &[30, 40, 50, 60]);
        let a = align(&old, &new, 4).expect("aligns");
        assert_eq!(a.aligned, e(1, &[2, 30, 40, 50]));
        assert_eq!(a.leftover, vec![Line(60)]);
    }

    #[test]
    fn alignment_never_loses_new_correlations() {
        // Every pair of the new entry must appear in aligned+leftover
        // (with the leftover chain continuing from aligned's last).
        let old = e(1, &[2, 3, 4, 5]);
        let new = e(3, &[41, 51, 61, 71]);
        let a = align(&old, &new, 4).expect("aligns");
        let mut chain: Vec<Line> = a.aligned.addresses().collect();
        chain.extend(a.leftover.iter().copied());
        let merged_pairs: Vec<(Line, Line)> = chain.windows(2).map(|w| (w[0], w[1])).collect();
        for p in new.pairs() {
            assert!(merged_pairs.contains(&p), "lost correlation {p:?}");
        }
    }

    #[test]
    fn max_length_alignment_stays_in_bounds() {
        // Both entries at MAX_STREAM_LEN with a deep overlap: the
        // merged stack buffer and leftover list must absorb the worst
        // case without panicking.
        let old_targets: Vec<u64> = (2..2 + MAX_STREAM_LEN as u64).collect();
        let old = e(1, &old_targets);
        let new_targets: Vec<u64> = (100..100 + MAX_STREAM_LEN as u64).collect();
        let new = e(2, &new_targets);
        let a = align(&old, &new, MAX_STREAM_LEN).expect("aligns");
        assert_eq!(a.aligned.correlations(), MAX_STREAM_LEN);
        assert_eq!(a.leftover.len(), 1);
    }
}
