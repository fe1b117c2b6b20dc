//! Timing wrappers: the traced pass's view of the prefetcher layers.
//!
//! The engine takes its prefetchers as boxed trait objects, so a
//! wrapper that implements the same trait and forwards every call can
//! time a layer without touching it. A wrapper changes nothing the
//! engine can see — the wrapped run's report is byte-identical to the
//! unwrapped one, which the traced pass checks on every cell.
//!
//! Calls are summed in plain fields and handed to the shared [`Tally`]
//! once, when the engine drops the wrapper at the end of `run`.

use std::sync::{Arc, Mutex};
use std::time::Instant;
use tpsim::{
    AccessPrefetcher, MetaCtx, PartitionSpec, TemporalEvent, TemporalPrefetcher, TemporalStats,
};
use tptrace::record::{Line, Pc};

/// Calls, summed host time and items produced at one boundary.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct Tally {
    /// Calls made.
    pub calls: u64,
    /// Host ns spent inside them.
    pub ns: u64,
    /// Lines the calls appended to the engine's scratch buffer.
    pub items: u64,
}

impl Tally {
    /// Adds `other`'s sums to these.
    pub fn add(&mut self, other: Tally) {
        self.calls += other.calls;
        self.ns += other.ns;
        self.items += other.items;
    }

    /// Mean ns per call net of the timer's own cost (0 with no calls).
    /// The interval between a wrapper's two clock reads contains about
    /// one read, which on a cheap call is most of what it measures.
    pub fn ns_per_call(&self, timer_ns: f64) -> f64 {
        if self.calls == 0 {
            0.0
        } else {
            (self.ns as f64 / self.calls as f64 - timer_ns).max(0.0)
        }
    }
}

/// What one `Instant::now()` costs here, in ns: the fastest of a few
/// batches of back-to-back reads.
pub fn timer_ns() -> f64 {
    const READS: usize = 100_000;
    (0..5)
        .map(|_| {
            let start = Instant::now();
            for _ in 0..READS {
                std::hint::black_box(Instant::now());
            }
            start.elapsed().as_nanos() as f64 / READS as f64
        })
        .fold(f64::INFINITY, f64::min)
}

/// Where a wrapper leaves its sums.
pub type Sink<T> = Arc<Mutex<T>>;

/// Wraps a regular (L1 or L2) prefetcher.
pub struct TimedAccess {
    inner: Box<dyn AccessPrefetcher>,
    tally: Tally,
    sink: Sink<Tally>,
}

impl TimedAccess {
    /// Wraps `inner`; its sums are added to `sink` on drop.
    pub fn boxed(
        inner: Box<dyn AccessPrefetcher>,
        sink: &Sink<Tally>,
    ) -> Box<dyn AccessPrefetcher> {
        Box::new(TimedAccess {
            inner,
            tally: Tally::default(),
            sink: Arc::clone(sink),
        })
    }
}

impl AccessPrefetcher for TimedAccess {
    fn name(&self) -> &'static str {
        self.inner.name()
    }

    fn on_access(&mut self, pc: Pc, line: Line, hit: bool, out: &mut Vec<Line>) {
        let t = Instant::now();
        self.inner.on_access(pc, line, hit, out);
        self.tally.ns += t.elapsed().as_nanos() as u64;
        self.tally.calls += 1;
        self.tally.items += out.len() as u64;
    }
}

impl Drop for TimedAccess {
    fn drop(&mut self) {
        if let Ok(mut s) = self.sink.lock() {
            s.add(self.tally);
        }
    }
}

/// One call the engine made into a temporal prefetcher, with the inputs
/// needed to make it again.
#[derive(Clone, Copy, Debug)]
pub enum TemporalCall {
    /// `on_event` with the context the engine built for it.
    Event {
        /// `MetaCtx::global_accuracy` at the call.
        accuracy: f64,
        /// The event itself (carries `now`).
        ev: TemporalEvent,
    },
    /// `on_feedback(line, useful)`.
    Feedback(Line, bool),
    /// `observe_llc(line)`.
    Llc(Line),
}

/// What a [`TimedTemporal`] leaves behind.
#[derive(Debug, Default)]
pub struct TemporalTally {
    /// `on_event` calls; `items` counts the prefetches they produced.
    pub event: Tally,
    /// `on_feedback` calls.
    pub feedback: Tally,
    /// `observe_llc` calls.
    pub llc: Tally,
    /// Every call in order, when the wrapper was asked to keep a log.
    pub log: Vec<TemporalCall>,
}

/// Wraps a temporal prefetcher.
pub struct TimedTemporal {
    inner: Box<dyn TemporalPrefetcher>,
    tally: TemporalTally,
    keep_log: bool,
    sink: Sink<TemporalTally>,
}

impl TimedTemporal {
    /// Wraps `inner`; sums (and the call log, if `keep_log`) are added
    /// to `sink` on drop.
    pub fn boxed(
        inner: Box<dyn TemporalPrefetcher>,
        keep_log: bool,
        sink: &Sink<TemporalTally>,
    ) -> Box<dyn TemporalPrefetcher> {
        Box::new(TimedTemporal {
            inner,
            tally: TemporalTally::default(),
            keep_log,
            sink: Arc::clone(sink),
        })
    }
}

impl TemporalPrefetcher for TimedTemporal {
    fn name(&self) -> &'static str {
        self.inner.name()
    }

    fn on_event(&mut self, ctx: &mut MetaCtx, ev: TemporalEvent, out: &mut Vec<Line>) {
        if self.keep_log {
            self.tally.log.push(TemporalCall::Event {
                accuracy: ctx.global_accuracy,
                ev,
            });
        }
        let t = Instant::now();
        self.inner.on_event(ctx, ev, out);
        self.tally.event.ns += t.elapsed().as_nanos() as u64;
        self.tally.event.calls += 1;
        self.tally.event.items += out.len() as u64;
    }

    fn on_feedback(&mut self, line: Line, useful: bool) {
        if self.keep_log {
            self.tally.log.push(TemporalCall::Feedback(line, useful));
        }
        let t = Instant::now();
        self.inner.on_feedback(line, useful);
        self.tally.feedback.ns += t.elapsed().as_nanos() as u64;
        self.tally.feedback.calls += 1;
    }

    fn observe_llc(&mut self, line: Line) {
        if self.keep_log {
            self.tally.log.push(TemporalCall::Llc(line));
        }
        let t = Instant::now();
        self.inner.observe_llc(line);
        self.tally.llc.ns += t.elapsed().as_nanos() as u64;
        self.tally.llc.calls += 1;
    }

    fn partition(&self) -> PartitionSpec {
        self.inner.partition()
    }

    fn stats(&self) -> TemporalStats {
        self.inner.stats()
    }
}

impl Drop for TimedTemporal {
    fn drop(&mut self) {
        if let Ok(mut s) = self.sink.lock() {
            s.event.add(self.tally.event);
            s.feedback.add(self.tally.feedback);
            s.llc.add(self.tally.llc);
            s.log.append(&mut self.tally.log);
        }
    }
}

/// Replays a recorded call log into `fresh` with one timer around the
/// whole log and none per call; returns the ns it took. The gap between
/// this and the wrapper's own sums is what per-call timing costs.
pub fn replay_log(fresh: &mut dyn TemporalPrefetcher, log: &[TemporalCall]) -> u64 {
    let mut out = Vec::new();
    let t = Instant::now();
    for call in log {
        match *call {
            TemporalCall::Event { accuracy, ev } => {
                let mut ctx = MetaCtx::new(ev.now, accuracy);
                out.clear();
                fresh.on_event(&mut ctx, ev, &mut out);
            }
            TemporalCall::Feedback(line, useful) => fresh.on_feedback(line, useful),
            TemporalCall::Llc(line) => fresh.observe_llc(line),
        }
    }
    let ns = t.elapsed().as_nanos() as u64;
    std::hint::black_box(&out);
    ns
}

#[cfg(test)]
mod tests {
    use super::*;
    use tpharness::wire::encode_sim_report;
    use tpharness::{L1Kind, L2Kind, TemporalKind};
    use tpsim::{CorePlan, Engine, SystemConfig};
    use tptrace::{workloads, Scale};

    fn run(wrapped: bool, temporal: TemporalKind) -> (String, Tally, Tally, TemporalTally) {
        let trace = workloads::by_name("spec06.mcf")
            .unwrap()
            .generate_shared(Scale::Test);
        let (l1, l2) = (Sink::<Tally>::default(), Sink::<Tally>::default());
        let tp = Sink::<TemporalTally>::default();
        let mut plan = CorePlan::bare(trace);
        let (p1, p2, pt) = (
            L1Kind::Stride.build().unwrap(),
            L2Kind::Ipcp.build().unwrap(),
            temporal.build().unwrap(),
        );
        plan = if wrapped {
            plan.with_l1(TimedAccess::boxed(p1, &l1))
                .with_l2(TimedAccess::boxed(p2, &l2))
                .with_temporal(TimedTemporal::boxed(pt, true, &tp))
        } else {
            plan.with_l1(p1).with_l2(p2).with_temporal(pt)
        };
        let report = Engine::new(SystemConfig::single_core(), vec![plan]).run();
        let tallies = (*l1.lock().unwrap(), *l2.lock().unwrap());
        let tp = std::mem::take(&mut *tp.lock().unwrap());
        (encode_sim_report(&report), tallies.0, tallies.1, tp)
    }

    #[test]
    fn wrapped_run_is_byte_identical_to_unwrapped() {
        for kind in [TemporalKind::Streamline, TemporalKind::Triangel] {
            let (plain, ..) = run(false, kind);
            let (wrapped, l1, l2, tp) = run(true, kind);
            assert_eq!(
                plain,
                wrapped,
                "{} report changed under the wrappers",
                kind.name()
            );
            // The L1 prefetcher sees every access, the L2 one only L1
            // misses, the temporal one only L2 events.
            assert!(l1.calls > l2.calls && l2.calls >= tp.event.calls);
            assert!(tp.event.calls > 0 && tp.event.ns > 0);
            assert_eq!(
                tp.log.len() as u64,
                tp.event.calls + tp.feedback.calls + tp.llc.calls
            );
        }
    }

    #[test]
    fn replayed_log_reproduces_the_prefetcher_state() {
        let (_, _, _, tp) = run(true, TemporalKind::Streamline);
        let mut a = TemporalKind::Streamline.build().unwrap();
        let mut b = TemporalKind::Streamline.build().unwrap();
        assert!(replay_log(a.as_mut(), &tp.log) > 0);
        replay_log(b.as_mut(), &tp.log);
        assert_eq!(a.stats(), b.stats());
        // The replay issues exactly the prefetches the wrapped run saw.
        assert_eq!(a.stats().prefetches_issued, tp.event.items);
    }
}
