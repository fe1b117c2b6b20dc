//! The request side of the wire protocol: strict parsing, validation,
//! and canonicalization of experiment requests.
//!
//! The verbs are `SUBMIT {json}`, `WAIT <ticket>`, `POLL <ticket>`,
//! `STATS`, `PING` and `SHUTDOWN`; this module turns a `SUBMIT`'s JSON
//! payload into a validated [`Request`] or a precise rejection reason.
//! Validation is strict on purpose — unknown fields, unknown workload
//! or prefetcher names, non-finite numbers, and out-of-range warmup
//! fractions are all rejected *before* the request touches the queue,
//! so a malformed client can never make a worker panic.
//!
//! [`Request::canonical`] renders the simulation-relevant fields (and
//! only those) in a fixed order; the canonical string is the
//! content-address for the response cache and hashes to the request
//! `key` shown to clients. Execution-policy fields (`deadline_ms`,
//! `audit`) are deliberately excluded: they change how a request is
//! *run*, not what its report *is*.

use std::fmt::Write as _;
use std::io::{self, BufRead};
use tpharness::baselines::{L1Kind, L2Kind, TemporalKind};
use tpharness::experiment::Experiment;
use tpharness::sweep::SweepJob;
use tpharness::wire::{escape_into, fnv1a, Value};
use tpsim::{CancelToken, SimReport};
use tptrace::{workloads, Mix, Scale, Workload};

/// Hard cap on one protocol line (requests *and* responses). Reports
/// for the largest mixes are ~20 KiB; anything bigger than this is a
/// framing bug or an attack, not a request.
pub const MAX_LINE_BYTES: usize = 64 * 1024;

/// Largest mix (core count) a request may ask for.
pub const MAX_MIX_CORES: usize = 16;

/// Largest `mix_index` a request may carry (the `mixNN[...]` label has
/// two digits).
pub const MAX_MIX_INDEX: usize = 99;

/// What a request simulates: one workload or a multi-core mix.
#[derive(Clone, Debug)]
pub enum Target {
    /// Single-core run of one registry workload.
    Single(Workload),
    /// Multi-programmed mix, one workload per core.
    MixOf {
        /// Per-core workloads, in core order.
        workloads: Vec<Workload>,
        /// Mix index (feeds the `mixNN[...]` label and nothing else).
        index: usize,
    },
}

/// A validated experiment request: a [`SweepJob`] the wire can express
/// ([`Request::job`], [`Request::from_job`]) plus execution policy.
#[derive(Clone, Debug)]
pub struct Request {
    /// What to simulate, as registry workloads (canonical seeds).
    pub target: Target,
    /// Scale, prefetchers (parameterless temporal kinds only —
    /// ablation configs are not expressible over the wire), bandwidth
    /// factor and warmup fraction.
    pub exp: Experiment,
    /// Trace seed override (single-workload requests only). `None`
    /// keeps the registry's canonical seed; spelling that seed out is
    /// the same request and parses to `None`.
    pub seed: Option<u64>,
    /// Per-request deadline; the run is cancelled at the next engine
    /// epoch boundary once it expires.
    pub deadline_ms: Option<u64>,
    /// Ask the server to reject the result if the conservation-law
    /// audit fails (in addition to any server-wide `--audit`).
    pub audit: bool,
}

/// A prefetcher-kind field: absent means `default`, a name must be one
/// `from_name` knows.
fn kind<T>(
    name: Option<&str>,
    what: &str,
    from_name: fn(&str) -> Option<T>,
    default: T,
) -> Result<T, String> {
    name.map_or(Ok(default), |s| {
        from_name(s).ok_or_else(|| format!("unknown {what} prefetcher {s:?}"))
    })
}

/// The range checks every experiment passes before it may reach an
/// engine (which would panic on them).
fn check_experiment(exp: &Experiment) -> Result<(), String> {
    let bandwidth = exp.bandwidth_factor;
    if !bandwidth.is_finite() || bandwidth <= 0.0 {
        return Err(format!("bandwidth must be finite and positive, got {bandwidth}"));
    }
    tpsim::validate_warmup_fraction(exp.warmup).map_err(|e| e.to_string())
}

const KNOWN_FIELDS: &[&str] = &[
    "workload", "mix", "mix_index", "scale", "l1", "l2", "temporal", "bandwidth", "warmup",
    "seed", "deadline_ms", "audit",
];

impl Request {
    /// Parses and validates a request payload (the JSON after `SUBMIT`).
    ///
    /// # Errors
    /// A human-readable reason suitable for a `rejected`/`error`
    /// response; the message names the offending field.
    pub fn from_value(v: &Value) -> Result<Request, String> {
        let fields = match v {
            Value::Obj(fields) => fields,
            _ => return Err("request must be a JSON object".into()),
        };
        for (k, _) in fields {
            if !KNOWN_FIELDS.contains(&k.as_str()) {
                return Err(format!("unknown field {k:?}"));
            }
        }

        let get_str = |k: &str| -> Result<Option<&str>, String> {
            match v.get(k) {
                None | Some(Value::Null) => Ok(None),
                Some(Value::Str(s)) => Ok(Some(s)),
                Some(_) => Err(format!("{k} must be a string")),
            }
        };
        let get_u64 = |k: &str| -> Result<Option<u64>, String> {
            match v.get(k) {
                None | Some(Value::Null) => Ok(None),
                Some(n @ Value::Num(_)) => {
                    n.as_u64().ok_or_else(|| format!("{k} must be a u64")).map(Some)
                }
                Some(_) => Err(format!("{k} must be a u64")),
            }
        };
        let get_f64 = |k: &str| -> Result<Option<f64>, String> {
            match v.get(k) {
                None | Some(Value::Null) => Ok(None),
                Some(n @ Value::Num(_)) => {
                    n.as_f64().ok_or_else(|| format!("{k} must be a number")).map(Some)
                }
                Some(_) => Err(format!("{k} must be a number")),
            }
        };

        let workload = get_str("workload")?;
        let mix_field = v.get("mix");
        let target = match (workload, mix_field) {
            (Some(_), Some(_)) => {
                return Err("request has both \"workload\" and \"mix\"; pick one".into())
            }
            (None, None) => return Err("request needs \"workload\" or \"mix\"".into()),
            (Some(name), None) => {
                if v.get("mix_index").is_some() {
                    return Err("mix_index is only valid with \"mix\"".into());
                }
                Target::Single(
                    workloads::by_name(name)
                        .ok_or_else(|| format!("unknown workload {name:?}"))?,
                )
            }
            (None, Some(m)) => {
                let names = m.as_arr().ok_or("mix must be an array of workload names")?;
                if names.is_empty() {
                    return Err("mix must name at least one workload".into());
                }
                if names.len() > MAX_MIX_CORES {
                    return Err(format!("mix is limited to {MAX_MIX_CORES} cores"));
                }
                let mut ws = Vec::with_capacity(names.len());
                for n in names {
                    let name = n.as_str().ok_or("mix entries must be strings")?;
                    ws.push(
                        workloads::by_name(name)
                            .ok_or_else(|| format!("unknown workload {name:?}"))?,
                    );
                }
                let index = get_u64("mix_index")?.unwrap_or(0);
                if index > MAX_MIX_INDEX as u64 {
                    return Err(format!("mix_index must be at most {MAX_MIX_INDEX}"));
                }
                Target::MixOf {
                    workloads: ws,
                    index: index as usize,
                }
            }
        };

        let scale = get_str("scale")?.map_or(Ok(Scale::Small), str::parse)?;
        let mut exp = Experiment::new(scale)
            .l1(kind(get_str("l1")?, "l1", L1Kind::from_name, L1Kind::Stride)?)
            .l2(kind(get_str("l2")?, "l2", L2Kind::from_name, L2Kind::None)?)
            .temporal(kind(
                get_str("temporal")?,
                "temporal",
                TemporalKind::from_name,
                TemporalKind::None,
            )?)
            .bandwidth(get_f64("bandwidth")?.unwrap_or(1.0));
        exp.warmup = get_f64("warmup")?.unwrap_or(0.2);
        check_experiment(&exp)?;

        let seed = match (&target, get_u64("seed")?) {
            (Target::MixOf { .. }, Some(_)) => {
                return Err(
                    "seed overrides are only supported for single-workload requests".into(),
                )
            }
            (Target::Single(w), seed) => seed.filter(|&s| s != w.seed),
            (Target::MixOf { .. }, None) => None,
        };
        let deadline_ms = get_u64("deadline_ms")?;
        if deadline_ms == Some(0) {
            return Err("deadline_ms must be at least 1".into());
        }
        let audit = match v.get("audit") {
            None | Some(Value::Null) => false,
            Some(Value::Bool(b)) => *b,
            Some(_) => return Err("audit must be a boolean".into()),
        };

        Ok(Request {
            target,
            exp,
            seed,
            deadline_ms,
            audit,
        })
    }

    /// The request that [`Request::job`] turns back into `job`, or
    /// `None` if the wire cannot express it: a parameterized temporal
    /// kind, a reseeded mix (the protocol carries one seed, for
    /// single-workload requests), a mix beyond the protocol's size and
    /// index limits, a workload outside the registry, or an experiment
    /// out of range. No execution policy is set.
    pub fn from_job(job: &SweepJob) -> Option<Request> {
        let exp = job.exp();
        TemporalKind::from_name(exp.temporal.name())?;
        check_experiment(exp).ok()?;
        let (target, seed) = match job {
            SweepJob::Single { workload, .. } => {
                let registry = workloads::by_name(workload.name)?;
                let seed = (workload.seed != registry.seed).then_some(workload.seed);
                (Target::Single(registry), seed)
            }
            SweepJob::Mix { mix, .. } => {
                let cores = 1..=MAX_MIX_CORES;
                if mix.index > MAX_MIX_INDEX || !cores.contains(&mix.cores()) {
                    return None;
                }
                let registry =
                    |w: &Workload| workloads::by_name(w.name).filter(|r| r.seed == w.seed);
                let workloads = mix.workloads.iter().map(registry).collect::<Option<_>>()?;
                let index = mix.index;
                (Target::MixOf { workloads, index }, None)
            }
        };
        Some(Request {
            target,
            exp: exp.clone(),
            seed,
            deadline_ms: None,
            audit: false,
        })
    }

    /// The canonical content-address string: every simulation-relevant
    /// field in a fixed order, execution-policy fields excluded. Two
    /// requests with equal canonical strings produce byte-identical
    /// reports, which is what the response cache keys on. The canonical
    /// string is itself a valid request payload.
    pub fn canonical(&self) -> String {
        // Written straight out, byte for byte what `wire`'s encoder
        // gives the same nine fields: names go through its escape, the
        // kinds and the scale are bare identifiers.
        let mut out = String::with_capacity(256);
        match &self.target {
            Target::Single(w) => {
                out.push_str(r#"{"workload":"#);
                escape_into(w.name, &mut out);
            }
            Target::MixOf { workloads, index } => {
                out.push_str(r#"{"mix":["#);
                for (i, w) in workloads.iter().enumerate() {
                    if i > 0 {
                        out.push(',');
                    }
                    escape_into(w.name, &mut out);
                }
                let _ = write!(out, r#"],"mix_index":{index}"#);
            }
        }
        let exp = &self.exp;
        let _ = write!(
            out,
            r#","scale":"{}","l1":"{}","l2":"{}","temporal":"{}","bandwidth":{:?},"warmup":{:?},"seed":"#,
            exp.scale,
            exp.l1.name(),
            exp.l2.name(),
            exp.temporal.name(),
            exp.bandwidth_factor,
            exp.warmup
        );
        match self.seed {
            Some(seed) => {
                let _ = write!(out, "{seed}}}");
            }
            None => out.push_str("null}"),
        }
        out
    }

    /// FNV-1a hash of the canonical string — the short `key` clients
    /// see. Display only; caches key on the full canonical string.
    pub fn key(&self) -> u64 {
        fnv1a(self.canonical().as_bytes())
    }

    /// The experiment configuration this request describes.
    pub fn experiment(&self) -> Experiment {
        self.exp.clone()
    }

    /// The request as the sweep job it describes; a seed override rides
    /// on the job's workload, so the job means the same thing wherever
    /// it runs.
    pub fn job(&self) -> SweepJob {
        match &self.target {
            Target::Single(w) => {
                SweepJob::single(w.with_seed(self.seed.unwrap_or(w.seed)), self.exp.clone())
            }
            Target::MixOf { workloads, index } => SweepJob::mix(
                Mix {
                    index: *index,
                    workloads: workloads.clone(),
                },
                self.exp.clone(),
            ),
        }
    }

    /// Simulates the request on the calling thread — how every service
    /// worker executes. `None` means `cancel` fired at an engine epoch
    /// boundary.
    pub fn run(&self, cancel: &CancelToken) -> Option<SimReport> {
        self.job().run(Some(cancel))
    }
}

/// Reads one newline-terminated frame with the [`MAX_LINE_BYTES`] cap
/// enforced *while reading* (an oversized line errors without being
/// buffered whole). Partial data survives in `scratch` across timeout
/// errors (`WouldBlock`/`TimedOut`), so callers with read timeouts can
/// retry without losing bytes. `Ok(None)` means clean EOF; EOF after a
/// partial line delivers that partial as a final frame. `scratch` keeps
/// its capacity: a frame costs one exact-size `String`.
///
/// # Errors
/// I/O errors from the underlying reader, `InvalidData` for oversized
/// lines or non-UTF-8 content.
pub fn read_frame<R: BufRead>(r: &mut R, scratch: &mut Vec<u8>) -> io::Result<Option<String>> {
    loop {
        let available = r.fill_buf()?;
        if available.is_empty() {
            if scratch.is_empty() {
                return Ok(None);
            }
            return take_frame(scratch).map(Some);
        }
        let newline = available.iter().position(|&b| b == b'\n');
        let take = newline.unwrap_or(available.len());
        if scratch.len() + take > MAX_LINE_BYTES {
            scratch.clear();
            r.consume(take);
            return Err(io::Error::new(
                io::ErrorKind::InvalidData,
                format!("line exceeds {MAX_LINE_BYTES} bytes"),
            ));
        }
        scratch.extend_from_slice(&available[..take]);
        match newline {
            Some(i) => {
                r.consume(i + 1);
                if scratch.last() == Some(&b'\r') {
                    scratch.pop();
                }
                return take_frame(scratch).map(Some);
            }
            None => r.consume(take),
        }
    }
}

/// A copy of the frame in `scratch`, which is left empty.
fn take_frame(scratch: &mut Vec<u8>) -> io::Result<String> {
    let frame = std::str::from_utf8(scratch).map(str::to_owned);
    scratch.clear();
    frame.map_err(|_| io::Error::new(io::ErrorKind::InvalidData, "frame is not UTF-8"))
}

#[cfg(test)]
mod tests {
    use super::*;
    use tpharness::wire::parse;

    fn req(json: &str) -> Result<Request, String> {
        Request::from_value(&parse(json).expect("test payload parses"))
    }

    #[test]
    fn minimal_request_gets_cli_defaults() {
        let r = req(r#"{"workload":"spec06.mcf"}"#).unwrap();
        assert_eq!(r.exp.scale, Scale::Small);
        assert_eq!(r.exp.l1, L1Kind::Stride);
        assert_eq!(r.exp.l2, L2Kind::None);
        assert!(matches!(r.exp.temporal, TemporalKind::None));
        assert_eq!(r.exp.bandwidth_factor, 1.0);
        assert_eq!(r.exp.warmup, 0.2);
        assert!(r.seed.is_none() && r.deadline_ms.is_none() && !r.audit);
    }

    #[test]
    fn canonical_is_stable_and_reparseable() {
        let r = req(r#"{"workload":"gap.bfs","temporal":"streamline","scale":"test"}"#).unwrap();
        let canon = r.canonical();
        assert_eq!(
            canon,
            r#"{"workload":"gap.bfs","scale":"test","l1":"stride","l2":"none","temporal":"streamline","bandwidth":1.0,"warmup":0.2,"seed":null}"#
        );
        // Round trip: the canonical string is itself a valid request
        // with the same canonical form (fixed point).
        let back = req(&canon).unwrap();
        assert_eq!(back.canonical(), canon);
        assert_eq!(back.key(), r.key());
        // Field order and number spelling don't change the address.
        let shuffled =
            req(r#"{"scale":"test","temporal":"streamline","workload":"gap.bfs","bandwidth":1}"#)
                .unwrap();
        assert_eq!(shuffled.canonical(), canon);
    }

    #[test]
    fn policy_fields_do_not_change_the_address() {
        let plain = req(r#"{"workload":"gap.bfs","scale":"test"}"#).unwrap();
        let policy =
            req(r#"{"workload":"gap.bfs","scale":"test","deadline_ms":5,"audit":true}"#).unwrap();
        assert_eq!(plain.canonical(), policy.canonical());
        // But the seed does.
        let seeded = req(r#"{"workload":"gap.bfs","scale":"test","seed":7}"#).unwrap();
        assert_ne!(plain.canonical(), seeded.canonical());
        assert_ne!(plain.job().key(), seeded.job().key(), "the job's key sees the seed");
        assert_eq!(seeded.job().workloads()[0].seed, 7);
        // Spelling out the registry's own seed is the plain request.
        let registry_seed = plain.job().workloads()[0].seed;
        let spelled = req(&format!(
            r#"{{"workload":"gap.bfs","scale":"test","seed":{registry_seed}}}"#
        ))
        .unwrap();
        assert_eq!(spelled.canonical(), plain.canonical());
    }

    #[test]
    fn mix_requests_validate_and_label() {
        let r = req(r#"{"mix":["gap.bfs","spec06.mcf"],"mix_index":3,"scale":"test"}"#).unwrap();
        match &r.target {
            Target::MixOf { workloads, index } => {
                assert_eq!(workloads.len(), 2);
                assert_eq!(*index, 3);
            }
            _ => panic!("expected mix target"),
        }
        assert!(r.job().key().starts_with("mix:mix03[gap.bfs+spec06.mcf]@"));
    }

    /// A valid request drawn field by field: single or mix, every named
    /// kind, seeded singles, bandwidth and warmup off their defaults.
    fn random_request(g: &mut tpcheck::Gen) -> Request {
        let pool = workloads::memory_intensive();
        let mut pick = |g: &mut tpcheck::Gen| pool[g.usize_in(0..pool.len())].clone();
        let (target, seed) = if g.bool() {
            let w = pick(g);
            let seed = g.bool().then(|| g.next_u64()).filter(|&s| s != w.seed);
            (Target::Single(w), seed)
        } else {
            let workloads = g.vec(1..MAX_MIX_CORES + 1, &mut pick);
            let index = g.usize_in(0..MAX_MIX_INDEX + 1);
            (Target::MixOf { workloads, index }, None)
        };
        let scale = [Scale::Test, Scale::Small, Scale::Full][g.usize_in(0..3)];
        let mut exp = Experiment::new(scale)
            .l1(L1Kind::ALL[g.usize_in(0..L1Kind::ALL.len())])
            .l2(L2Kind::ALL[g.usize_in(0..L2Kind::ALL.len())])
            .temporal(TemporalKind::NAMED[g.usize_in(0..TemporalKind::NAMED.len())])
            .bandwidth([0.25, 1.0, 2.0][g.usize_in(0..3)]);
        exp.warmup = [0.0, 0.2, 0.5][g.usize_in(0..3)];
        Request {
            target,
            exp,
            seed,
            deadline_ms: None,
            audit: false,
        }
    }

    #[test]
    fn from_job_inverts_job_and_the_canonical_form_round_trips() {
        tpcheck::check("from_job . job == id", 256, |g| {
            let r = random_request(g);
            let canon = r.canonical();
            let back = Request::from_job(&r.job()).ok_or("an expressible job came back None")?;
            tpcheck::ensure!(back.canonical() == canon, "{} != {canon}", back.canonical());
            tpcheck::ensure!(back.job().key() == r.job().key(), "job keys differ for {canon}");
            let reparsed = req(&canon)?;
            tpcheck::ensure!(reparsed.canonical() == canon, "{canon} is not a fixed point");
            tpcheck::ensure!(reparsed.job().key() == r.job().key(), "{canon} parses to another job");
            Ok(())
        });
    }

    #[test]
    fn jobs_the_wire_cannot_carry_have_no_request() {
        let bfs = workloads::by_name("gap.bfs").unwrap();
        let mcf = workloads::by_name("spec06.mcf").unwrap();
        let exp = Experiment::new(Scale::Test).l1(L1Kind::Stride);
        let mix = |index, workloads| SweepJob::mix(Mix { index, workloads }, exp.clone());
        let cfg = TemporalKind::StreamlineCfg(Default::default());
        for (why, job) in [
            (
                "a fixed-way Triangel",
                SweepJob::single(bfs.clone(), exp.clone().temporal(TemporalKind::TriangelFixed(4))),
            ),
            ("a Streamline config", SweepJob::single(bfs.clone(), exp.clone().temporal(cfg))),
            ("a reseeded mix", mix(7, vec![bfs.clone(), mcf.with_seed(42)])),
            ("mix_index 100", mix(100, vec![bfs.clone(), mcf.clone()])),
            ("an empty mix", mix(0, vec![])),
            ("an out-of-range bandwidth", SweepJob::single(bfs.clone(), exp.clone().bandwidth(0.0))),
        ] {
            assert!(Request::from_job(&job).is_none(), "{why} must stay local");
        }
        // The same shapes inside the limits are expressible, and a
        // reseeded single carries its seed.
        let seeded = Request::from_job(&SweepJob::single(bfs.with_seed(42), exp.clone())).unwrap();
        assert_eq!(seeded.seed, Some(42));
        let plain = Request::from_job(&mix(7, vec![bfs, mcf])).unwrap();
        assert!(plain.canonical().starts_with(r#"{"mix":["gap.bfs","spec06.mcf"],"mix_index":7,"#));
    }

    #[test]
    fn malformed_requests_name_the_offending_field() {
        for (json, needle) in [
            (r#"{}"#, "needs"),
            (r#"{"workload":"no.such"}"#, "unknown workload"),
            (r#"{"workload":"gap.bfs","mix":["gap.bfs"]}"#, "pick one"),
            (r#"{"workload":"gap.bfs","typo":1}"#, "unknown field"),
            (r#"{"workload":"gap.bfs","scale":"huge"}"#, "unknown scale"),
            (r#"{"workload":"gap.bfs","l1":"magic"}"#, "unknown l1"),
            (r#"{"workload":"gap.bfs","temporal":"triangel-fixed"}"#, "unknown temporal"),
            (r#"{"workload":"gap.bfs","bandwidth":-1}"#, "bandwidth"),
            (r#"{"workload":"gap.bfs","warmup":1.5}"#, "warmup"),
            (r#"{"workload":"gap.bfs","seed":-3}"#, "seed"),
            (r#"{"workload":"gap.bfs","deadline_ms":0}"#, "deadline_ms"),
            (r#"{"mix":[],"scale":"test"}"#, "at least one"),
            (r#"{"mix":["gap.bfs"],"seed":9}"#, "single-workload"),
            (r#"{"workload":"gap.bfs","mix_index":1}"#, "mix_index"),
        ] {
            let err = req(json).unwrap_err();
            assert!(
                err.contains(needle),
                "{json} should mention {needle:?}, got: {err}"
            );
        }
    }

    #[test]
    fn pipelined_frames_come_back_line_for_line_through_any_buffer() {
        use std::io::BufReader;
        let long = |g: &mut tpcheck::Gen| "L".repeat(g.usize_in(1000..5000));
        let line = |g: &mut tpcheck::Gen| {
            const PIECES: [&str; 6] = ["x", r#"{"k":1}"#, " ", "é", "日本", "SUBMIT"];
            match g.usize_in(0..8) {
                0 => String::new(),
                1 => long(g),
                _ => g.vec(1..12, |g| PIECES[g.usize_in(0..PIECES.len())]).concat(),
            }
        };
        tpcheck::check("read_frame gives back each pipelined line", 128, |g| {
            // One scratch for both streams: the second starts right
            // after the first's oversized line failed.
            let mut scratch = Vec::new();
            for oversized in [true, false] {
                // A long line first, so short frames follow a grown buffer.
                let mut lines = vec![long(g)];
                lines.extend(g.vec(1..16, line));
                let mut stream = Vec::new();
                for l in &lines {
                    stream.extend_from_slice(l.as_bytes());
                    stream.extend_from_slice(if g.bool() { b"\r\n" } else { b"\n" });
                }
                if oversized {
                    stream.extend(std::iter::repeat_n(b'y', MAX_LINE_BYTES + 1));
                    stream.push(b'\n');
                }
                let mut r = BufReader::with_capacity(g.usize_in(1..64), &stream[..]);
                for (i, l) in lines.iter().enumerate() {
                    let frame = read_frame(&mut r, &mut scratch).map_err(|e| e.to_string())?;
                    let (got, want) = (frame.as_ref().map(String::len), l.len());
                    tpcheck::ensure!(frame.as_ref() == Some(l), "frame {i}: {got:?} B, not {want}");
                }
                let end = read_frame(&mut r, &mut scratch).map(|f| f.map(|f| f.len()));
                if oversized {
                    let invalid = |e: &io::Error| e.kind() == io::ErrorKind::InvalidData;
                    tpcheck::ensure!(end.as_ref().is_err_and(invalid), "oversized line: {end:?}");
                } else {
                    tpcheck::ensure!(matches!(end, Ok(None)), "past the last line: {end:?}");
                }
            }
            Ok(())
        });
    }

    #[test]
    fn read_frame_enforces_the_line_cap() {
        use std::io::BufReader;
        let mut scratch = Vec::new();
        let ok = format!("{}\n", "x".repeat(100));
        let mut r = BufReader::new(ok.as_bytes());
        assert_eq!(
            read_frame(&mut r, &mut scratch).unwrap().unwrap().len(),
            100
        );

        let oversized = format!("{}\n", "y".repeat(MAX_LINE_BYTES + 1));
        let mut r = BufReader::new(oversized.as_bytes());
        assert!(read_frame(&mut r, &mut scratch).is_err());

        // Clean EOF, CRLF tolerance, EOF-terminated final frame.
        let mut scratch = Vec::new();
        let mut r = BufReader::new(&b"a\r\nb"[..]);
        assert_eq!(read_frame(&mut r, &mut scratch).unwrap().as_deref(), Some("a"));
        assert_eq!(read_frame(&mut r, &mut scratch).unwrap().as_deref(), Some("b"));
        assert_eq!(read_frame(&mut r, &mut scratch).unwrap(), None);
    }
}
