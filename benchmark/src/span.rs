//! In-memory spans for the traced pass.
//!
//! Every span is recorded from the benchmark's own files, around a call
//! into a layer's public function; nothing inside the crates is
//! instrumented. Spans of one repetition (or one request) share a
//! `root`. They stay in memory until the run ends and are then written
//! to `benchmark/out/trace.json`.

use std::sync::Mutex;
use std::time::Instant;
use tpharness::wire::Value;

/// One recorded interval.
#[derive(Clone, Debug, PartialEq)]
pub struct Span {
    /// Index of this span in the tracer.
    pub id: usize,
    /// The span that caused this one.
    pub parent: Option<usize>,
    /// The root span of the repetition or request this belongs to.
    pub root: usize,
    /// Layer boundary, e.g. `engine.run` or `client.wait`.
    pub name: String,
    /// Start, in ns since the tracer was created.
    pub start_ns: u64,
    /// End, in ns since the tracer was created.
    pub end_ns: u64,
    /// Calls folded into this span (1 for an ordinary span; the call
    /// count for an aggregate recorded by a timing wrapper).
    pub count: u64,
}

impl Span {
    /// The span's duration.
    pub fn dur_ns(&self) -> u64 {
        self.end_ns - self.start_ns
    }
}

/// Collects spans from any thread.
pub struct Tracer {
    t0: Instant,
    spans: Mutex<Vec<Span>>,
}

impl Default for Tracer {
    fn default() -> Self {
        Tracer {
            t0: Instant::now(),
            spans: Mutex::new(Vec::new()),
        }
    }
}

impl Tracer {
    fn now_ns(&self) -> u64 {
        self.t0.elapsed().as_nanos() as u64
    }

    /// Opens a span under `parent` (`None` starts a new root) and
    /// returns its id; close it with [`Tracer::close`].
    pub fn open(&self, name: &str, parent: Option<usize>) -> usize {
        let start_ns = self.now_ns();
        let mut spans = self.spans.lock().expect("span lock");
        let id = spans.len();
        let root = parent.map_or(id, |p| spans[p].root);
        spans.push(Span {
            id,
            parent,
            root,
            name: name.to_string(),
            start_ns,
            end_ns: start_ns,
            count: 1,
        });
        id
    }

    /// Closes a span and returns its duration in ns.
    pub fn close(&self, id: usize) -> u64 {
        let end_ns = self.now_ns();
        let mut spans = self.spans.lock().expect("span lock");
        spans[id].end_ns = end_ns;
        spans[id].dur_ns()
    }

    /// Records `count` calls that together took `ns` as one child of
    /// `parent`. A timing wrapper sums its calls and reports them here
    /// once per run, so the child covers `ns` of its parent's interval
    /// without one span per simulated access.
    pub fn aggregate(&self, parent: usize, name: &str, count: u64, ns: u64) -> usize {
        let mut spans = self.spans.lock().expect("span lock");
        let id = spans.len();
        let (root, start_ns) = (spans[parent].root, spans[parent].start_ns);
        spans.push(Span {
            id,
            parent: Some(parent),
            root,
            name: name.to_string(),
            start_ns,
            end_ns: start_ns + ns,
            count,
        });
        id
    }

    /// A copy of every span recorded so far.
    pub fn snapshot(&self) -> Vec<Span> {
        self.spans.lock().expect("span lock").clone()
    }

    /// All spans as one JSON array.
    pub fn to_json(&self) -> String {
        let spans = self.snapshot();
        let items = spans
            .iter()
            .map(|s| {
                Value::Obj(vec![
                    ("id".into(), Value::u64(s.id as u64)),
                    (
                        "parent".into(),
                        s.parent.map_or(Value::Null, |p| Value::u64(p as u64)),
                    ),
                    ("root".into(), Value::u64(s.root as u64)),
                    ("name".into(), Value::Str(s.name.clone())),
                    ("start_ns".into(), Value::u64(s.start_ns)),
                    ("end_ns".into(), Value::u64(s.end_ns)),
                    ("count".into(), Value::u64(s.count)),
                    ("self_ns".into(), Value::u64(self_ns(&spans, s.id))),
                ])
            })
            .collect();
        Value::Arr(items).encode()
    }
}

/// A span's self time: its duration minus the part its children cover.
pub fn self_ns(spans: &[Span], id: usize) -> u64 {
    let children: u64 = spans
        .iter()
        .filter(|s| s.parent == Some(id))
        .map(Span::dur_ns)
        .sum();
    spans[id].dur_ns().saturating_sub(children)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn self_time_is_duration_minus_children() {
        let t = Tracer::default();
        let root = t.open("rep", None);
        let run = t.open("engine.run", Some(root));
        t.close(run);
        t.close(root);
        // Pin the clock-dependent fields, then fold two wrappers in.
        {
            let mut s = t.spans.lock().unwrap();
            s[root].start_ns = 0;
            s[root].end_ns = 1_000;
            s[run].start_ns = 100;
            s[run].end_ns = 900;
        }
        let a = t.aggregate(run, "l1.on_access", 50, 300);
        let b = t.aggregate(run, "temporal.on_event", 7, 200);
        let spans = t.snapshot();
        assert_eq!(spans[a].root, root);
        assert_eq!(spans[b].count, 7);
        assert_eq!(self_ns(&spans, run), 800 - 300 - 200);
        assert_eq!(self_ns(&spans, root), 1_000 - 800);
        // engine.self + the children sum to the engine.run span.
        assert_eq!(
            self_ns(&spans, run) + spans[a].dur_ns() + spans[b].dur_ns(),
            spans[run].dur_ns()
        );
        // Children that overrun their parent clamp at zero.
        t.aggregate(b, "overrun", 1, 10_000);
        assert_eq!(self_ns(&t.snapshot(), b), 0);
    }

    #[test]
    fn spans_of_one_repetition_share_a_root_and_encode_as_json() {
        let t = Tracer::default();
        let r0 = t.open("rep", None);
        let c0 = t.open("client.submit", Some(r0));
        let r1 = t.open("rep", None);
        let c1 = t.open("client.wait", Some(r1));
        for id in [c0, c1, r0, r1] {
            t.close(id);
        }
        let s = t.snapshot();
        assert_eq!((s[c0].root, s[c1].root), (r0, r1));
        let parsed = tpharness::wire::parse(&t.to_json()).expect("valid json");
        assert_eq!(parsed.as_arr().unwrap().len(), 4);
        assert_eq!(
            parsed.as_arr().unwrap()[1].get("name").unwrap().as_str(),
            Some("client.submit")
        );
    }
}
