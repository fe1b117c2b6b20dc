//! Streamline's training unit: per-PC stream construction, the per-PC
//! stream metadata buffer, and stability-based degree control
//! (paper Sections IV-E2 and IV-E6).

use crate::config::{StreamlineConfig, INSTABILITY_EPOCH, TU_ENTRIES};
use crate::stream::{StreamEntry, TargetList, MAX_STREAM_LEN};
use tptrace::record::{Line, Pc};

/// Result of recording one access in the training unit.
#[derive(Clone, Debug, Default)]
pub struct TuObservation {
    /// A stream entry completed by this access, ready for alignment and
    /// store insertion.
    pub completed: Option<StreamEntry>,
    /// The address that preceded the completed entry's trigger in the
    /// PC's stream (used by realignment to shift the window back).
    pub prev_tail: Option<Line>,
}

#[derive(Clone, Debug, Default)]
struct TuSlot {
    tag: u64,
    valid: bool,
    trigger: Option<Line>,
    targets: TargetList,
    /// Final address of the previously completed stream entry.
    prev_tail: Option<Line>,
    /// Entries in this slot's metadata buffer.
    buffered: usize,
    /// Metadata-buffer insertions this instability epoch.
    insertions: u32,
    /// Accesses this instability epoch.
    accesses: u32,
    degree: usize,
}

/// The Streamline training unit (256 entries; ~17.8 KB in hardware).
#[derive(Clone, Debug)]
pub struct StreamTu {
    slots: Vec<TuSlot>,
    /// Every slot's per-PC stream metadata buffer, MRU first: slot `i`
    /// owns `buffer_entries` entries from index `i * buffer_entries`,
    /// the first `buffered` of them valid.
    buffers: Vec<StreamEntry>,
    stream_len: usize,
    buffer_entries: usize,
    max_degree: usize,
}

impl StreamTu {
    /// Builds the training unit from the prefetcher configuration. It
    /// allocates here only: the demand path never grows a buffer.
    pub fn new(cfg: &StreamlineConfig) -> Self {
        assert!(cfg.stream_len > 0);
        assert!(
            cfg.stream_len <= MAX_STREAM_LEN,
            "stream_len {} exceeds MAX_STREAM_LEN {}",
            cfg.stream_len,
            MAX_STREAM_LEN
        );
        let vacant = StreamEntry::new(Line(0), TargetList::new());
        StreamTu {
            slots: vec![TuSlot::default(); TU_ENTRIES],
            buffers: vec![vacant; TU_ENTRIES * cfg.buffer_entries],
            stream_len: cfg.stream_len,
            buffer_entries: cfg.buffer_entries,
            max_degree: cfg.stream_len,
        }
    }

    fn index(&self, pc: Pc) -> usize {
        (pc.0 as usize ^ (pc.0 >> 7) as usize ^ (pc.0 >> 15) as usize) % TU_ENTRIES
    }

    /// The slot tracking `pc`, if any, and its whole metadata buffer
    /// (MRU first, the slot's first `buffered` entries valid).
    fn tracked(&mut self, pc: Pc) -> Option<(&mut TuSlot, &mut [StreamEntry])> {
        let idx = self.index(pc);
        let s = &mut self.slots[idx];
        let n = self.buffer_entries;
        (s.valid && s.tag == pc.0).then(|| (s, &mut self.buffers[idx * n..][..n]))
    }

    /// Appends `line` to `pc`'s current stream; returns a completed
    /// entry when the stream reaches its length. Consecutive stream
    /// entries share their boundary address (the completed entry's last
    /// target becomes the next entry's trigger), so no correlation is
    /// lost between entries.
    pub fn observe(&mut self, pc: Pc, line: Line) -> TuObservation {
        let idx = self.index(pc);
        let s = &mut self.slots[idx];
        if !s.valid || s.tag != pc.0 {
            *s = TuSlot {
                tag: pc.0,
                valid: true,
                trigger: Some(line),
                ..TuSlot::default()
            };
            return TuObservation::default();
        }
        // Degree epoch bookkeeping.
        s.accesses += 1;
        if s.accesses >= INSTABILITY_EPOCH {
            s.degree = degree_for(s.insertions, self.max_degree);
            s.accesses = 0;
            s.insertions = 0;
        }

        let Some(trigger) = s.trigger else {
            s.trigger = Some(line);
            return TuObservation::default();
        };
        if line == s.targets.last().copied().unwrap_or(trigger) {
            return TuObservation::default(); // same-line repeat: ignore
        }
        s.targets.push(line);
        if s.targets.len() < self.stream_len {
            return TuObservation::default();
        }
        let completed = StreamEntry::new(trigger, std::mem::take(&mut s.targets));
        let prev_tail = s.prev_tail;
        // Boundary sharing: the last target triggers the next entry.
        s.trigger = Some(completed.last());
        // prev_tail for the *next* entry is the address just before its
        // trigger, i.e. this entry's second-to-last address.
        s.prev_tail = Some(if completed.targets.len() >= 2 {
            completed.targets[completed.targets.len() - 2]
        } else {
            completed.trigger
        });
        TuObservation {
            completed: Some(completed),
            prev_tail,
        }
    }

    /// Overrides `pc`'s in-flight stream (used by alignment
    /// bootstrapping: the aligned entry's tail plus leftovers seed the
    /// next stream).
    pub fn bootstrap(&mut self, pc: Pc, trigger: Line, targets: impl Into<TargetList>) {
        let idx = self.index(pc);
        let s = &mut self.slots[idx];
        if s.valid && s.tag == pc.0 {
            s.trigger = Some(trigger);
            s.targets = targets.into();
        }
    }

    /// Looks up `line` in `pc`'s metadata buffer; on a hit appends the
    /// covering entry's remaining successors to `out` (MRU entry
    /// refreshed) and returns `true`. The prefetch hot path reuses one
    /// scratch buffer across chase steps, so this never allocates.
    pub fn buffer_lookup_into(&mut self, pc: Pc, line: Line, out: &mut Vec<Line>) -> bool {
        let Some((s, buf)) = self.tracked(pc) else {
            return false;
        };
        let Some(pos) = buf[..s.buffered]
            .iter()
            .position(|e| e.position_of(line).is_some_and(|p| p < e.correlations()))
        else {
            return false;
        };
        out.extend_from_slice(buf[pos].successors_of(line));
        buf[..=pos].rotate_right(1);
        true
    }

    /// Finds a buffer entry containing `trigger` at a non-final position
    /// (the stream-alignment candidate). Returns a clone.
    pub fn buffer_align_candidate(&self, pc: Pc, trigger: Line) -> Option<StreamEntry> {
        let idx = self.index(pc);
        let s = &self.slots[idx];
        if !s.valid || s.tag != pc.0 {
            return None;
        }
        self.buffers[idx * self.buffer_entries..][..s.buffered]
            .iter()
            .find(|e| e.position_of(trigger).is_some_and(|p| p < e.correlations()))
            .cloned()
    }

    /// Inserts (or replaces, keyed by trigger) an entry in `pc`'s
    /// metadata buffer, counting the insertion for instability tracking.
    pub fn buffer_insert(&mut self, pc: Pc, entry: StreamEntry) {
        let Some((s, buf)) = self.tracked(pc) else {
            return;
        };
        if buf.is_empty() {
            return;
        }
        // The entry it replaces makes way, else the first vacant one,
        // else the LRU one.
        let n = buf[..s.buffered]
            .iter()
            .position(|e| e.trigger == entry.trigger)
            .unwrap_or(s.buffered.min(buf.len() - 1));
        buf[..=n].rotate_right(1);
        buf[0] = entry;
        s.buffered = s.buffered.max(n + 1);
        s.insertions += 1;
    }

    /// Current stability-based degree for `pc`.
    pub fn degree(&self, pc: Pc) -> usize {
        let idx = self.index(pc);
        let s = &self.slots[idx];
        if s.valid && s.tag == pc.0 && s.degree > 0 {
            s.degree
        } else {
            self.max_degree // optimistic before the first epoch completes
        }
    }
}

/// Paper Section IV-E6: per-1024-access epochs, degree 4 below 400
/// insertions, 3 below 600, 2 below 800, else 1.
fn degree_for(insertions: u32, max_degree: usize) -> usize {
    let d = match insertions {
        0..=399 => 4,
        400..=599 => 3,
        600..=799 => 2,
        _ => 1,
    };
    d.min(max_degree)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn cfg() -> StreamlineConfig {
        StreamlineConfig::default()
    }

    #[test]
    fn streams_complete_every_len_accesses_with_shared_boundary() {
        let mut tu = StreamTu::new(&cfg());
        let mut completed = Vec::new();
        for i in 0..13u64 {
            if let Some(e) = tu.observe(Pc(1), Line(100 + i)).completed {
                completed.push(e);
            }
        }
        assert_eq!(completed.len(), 3);
        assert_eq!(completed[0].trigger, Line(100));
        assert_eq!(completed[0].last(), Line(104));
        // Boundary sharing: next entry triggered by the previous last.
        assert_eq!(completed[1].trigger, Line(104));
        assert_eq!(completed[1].last(), Line(108));
    }

    #[test]
    fn prev_tail_points_just_before_trigger() {
        let mut tu = StreamTu::new(&cfg());
        let mut obs = Vec::new();
        for i in 0..9u64 {
            let o = tu.observe(Pc(1), Line(200 + i));
            if o.completed.is_some() {
                obs.push(o);
            }
        }
        // Second completed entry's trigger is 204; the address before it
        // in the stream is 203.
        assert_eq!(obs[1].completed.as_ref().unwrap().trigger, Line(204));
        assert_eq!(obs[1].prev_tail, Some(Line(203)));
    }

    #[test]
    fn buffer_lookup_returns_successors() {
        let mut tu = StreamTu::new(&cfg());
        tu.observe(Pc(1), Line(0)); // initialise slot
        let e = StreamEntry::new(Line(10), vec![Line(11), Line(12), Line(13), Line(14)]);
        tu.buffer_insert(Pc(1), e);
        let mut out = Vec::new();
        assert!(tu.buffer_lookup_into(Pc(1), Line(12), &mut out));
        assert_eq!(out, [Line(13), Line(14)]);
        // Final address has no successors -> miss, nothing appended.
        assert!(!tu.buffer_lookup_into(Pc(1), Line(14), &mut out));
        assert!(!tu.buffer_lookup_into(Pc(1), Line(99), &mut out));
        assert_eq!(out.len(), 2);
    }

    #[test]
    fn buffer_is_bounded_and_lru() {
        let mut tu = StreamTu::new(&cfg());
        tu.observe(Pc(1), Line(0));
        for k in 0..5u64 {
            let base = 100 * (k + 1);
            tu.buffer_insert(
                Pc(1),
                StreamEntry::new(
                    Line(base),
                    vec![
                        Line(base + 1),
                        Line(base + 2),
                        Line(base + 3),
                        Line(base + 4),
                    ],
                ),
            );
        }
        // Capacity 3: entries 100 and 200 evicted.
        let mut out = Vec::new();
        assert!(!tu.buffer_lookup_into(Pc(1), Line(101), &mut out));
        assert!(tu.buffer_lookup_into(Pc(1), Line(301), &mut out));
    }

    #[test]
    fn degree_tracks_instability() {
        assert_eq!(degree_for(100, 4), 4);
        assert_eq!(degree_for(450, 4), 3);
        assert_eq!(degree_for(700, 4), 2);
        assert_eq!(degree_for(900, 4), 1);
        // Stable PC: one buffer insertion every stream_len accesses
        // (256/1024) -> degree 4, as the paper argues.
        assert_eq!(degree_for(256, 4), 4);
    }

    #[test]
    fn degree_epoch_updates_per_pc() {
        let mut tu = StreamTu::new(&cfg());
        tu.observe(Pc(1), Line(0));
        // Unstable: insert on every access, for over one epoch.
        for i in 0..INSTABILITY_EPOCH as u64 + 8 {
            tu.observe(Pc(1), Line(1000 + i * 3));
            tu.buffer_insert(Pc(1), StreamEntry::new(Line(i), vec![Line(i + 1)]));
        }
        assert_eq!(tu.degree(Pc(1)), 1, "unstable PC should drop to degree 1");
    }

    #[test]
    fn bootstrap_overrides_current_stream() {
        let mut tu = StreamTu::new(&cfg());
        tu.observe(Pc(1), Line(0));
        tu.bootstrap(Pc(1), Line(50), vec![Line(51)]);
        // Three more accesses complete the bootstrapped stream (len 4).
        assert!(tu.observe(Pc(1), Line(52)).completed.is_none());
        assert!(tu.observe(Pc(1), Line(53)).completed.is_none());
        let o = tu.observe(Pc(1), Line(54)).completed;
        let e = o.expect("completed");
        assert_eq!(e.trigger, Line(50));
        assert_eq!(e.targets, vec![Line(51), Line(52), Line(53), Line(54)]);
    }

    #[test]
    fn zero_buffer_config_disables_buffer() {
        let mut c = cfg();
        c.buffer_entries = 0;
        let mut tu = StreamTu::new(&c);
        tu.observe(Pc(1), Line(0));
        tu.buffer_insert(Pc(1), StreamEntry::new(Line(1), vec![Line(2)]));
        assert!(!tu.buffer_lookup_into(Pc(1), Line(1), &mut Vec::new()));
    }
}
