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

use std::io::{self, BufRead};
use tpharness::baselines::{L1Kind, L2Kind, TemporalKind};
use tpharness::experiment::{run_mix_cancellable, run_single_cancellable, Experiment};
use tpharness::sweep::SweepJob;
use tpharness::wire::{fnv1a, Value};
use tpsim::{CancelToken, SimReport};
use tptrace::{workloads, Mix, Scale, Workload};

/// Hard cap on one protocol line (requests *and* responses). Reports
/// for the largest mixes are ~20 KiB; anything bigger than this is a
/// framing bug or an attack, not a request.
pub const MAX_LINE_BYTES: usize = 64 * 1024;

/// Largest mix (core count) a request may ask for.
pub const MAX_MIX_CORES: usize = 16;

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

/// A validated experiment request.
#[derive(Clone, Debug)]
pub struct Request {
    /// What to simulate.
    pub target: Target,
    /// Trace scale.
    pub scale: Scale,
    /// L1D prefetcher.
    pub l1: L1Kind,
    /// Regular L2 prefetcher.
    pub l2: L2Kind,
    /// Temporal prefetcher (named kinds only — parameterized ablation
    /// configs are not expressible over the wire).
    pub temporal: TemporalKind,
    /// DRAM bandwidth factor.
    pub bandwidth: f64,
    /// Warmup fraction in `[0, 1)`.
    pub warmup: f64,
    /// Trace seed override (single-workload requests only). `None`
    /// keeps the registry's canonical seed.
    pub seed: Option<u64>,
    /// Per-request deadline; the run is cancelled at the next engine
    /// epoch boundary once it expires.
    pub deadline_ms: Option<u64>,
    /// Ask the server to reject the result if the conservation-law
    /// audit fails (in addition to any server-wide `--audit`).
    pub audit: bool,
}

fn parse_scale(s: &str) -> Result<Scale, String> {
    match s {
        "test" => Ok(Scale::Test),
        "small" => Ok(Scale::Small),
        "full" => Ok(Scale::Full),
        other => Err(format!("unknown scale {other:?} (test|small|full)")),
    }
}

fn parse_l1(s: &str) -> Result<L1Kind, String> {
    match s {
        "none" => Ok(L1Kind::None),
        "stride" => Ok(L1Kind::Stride),
        "berti" => Ok(L1Kind::Berti),
        other => Err(format!("unknown l1 prefetcher {other:?} (none|stride|berti)")),
    }
}

fn parse_l2(s: &str) -> Result<L2Kind, String> {
    match s {
        "none" => Ok(L2Kind::None),
        "ipcp" => Ok(L2Kind::Ipcp),
        "bingo" => Ok(L2Kind::Bingo),
        "spp-ppf" => Ok(L2Kind::SppPpf),
        other => Err(format!(
            "unknown l2 prefetcher {other:?} (none|ipcp|bingo|spp-ppf)"
        )),
    }
}

fn parse_temporal(s: &str) -> Result<TemporalKind, String> {
    match s {
        "none" => Ok(TemporalKind::None),
        "ideal" => Ok(TemporalKind::Ideal),
        "triage" => Ok(TemporalKind::Triage),
        "triangel" => Ok(TemporalKind::Triangel),
        "triangel-ideal" => Ok(TemporalKind::TriangelIdeal),
        "streamline" => Ok(TemporalKind::Streamline),
        other => Err(format!(
            "unknown temporal prefetcher {other:?} \
             (none|ideal|triage|triangel|triangel-ideal|streamline)"
        )),
    }
}

fn mix_of(workloads: &[Workload], index: usize) -> Mix {
    Mix {
        index,
        workloads: workloads.to_vec(),
    }
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
                if index > 99 {
                    return Err("mix_index must be at most 99".into());
                }
                Target::MixOf {
                    workloads: ws,
                    index: index as usize,
                }
            }
        };

        let scale = match get_str("scale")? {
            Some(s) => parse_scale(s)?,
            None => Scale::Small,
        };
        let l1 = match get_str("l1")? {
            Some(s) => parse_l1(s)?,
            None => L1Kind::Stride,
        };
        let l2 = match get_str("l2")? {
            Some(s) => parse_l2(s)?,
            None => L2Kind::None,
        };
        let temporal = match get_str("temporal")? {
            Some(s) => parse_temporal(s)?,
            None => TemporalKind::None,
        };

        let bandwidth = get_f64("bandwidth")?.unwrap_or(1.0);
        if !bandwidth.is_finite() || bandwidth <= 0.0 {
            return Err(format!("bandwidth must be finite and positive, got {bandwidth}"));
        }
        let warmup = get_f64("warmup")?.unwrap_or(0.2);
        tpsim::validate_warmup_fraction(warmup).map_err(|e| e.to_string())?;

        let seed = get_u64("seed")?;
        if seed.is_some() && matches!(target, Target::MixOf { .. }) {
            return Err("seed overrides are only supported for single-workload requests".into());
        }
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
            scale,
            l1,
            l2,
            temporal,
            bandwidth,
            warmup,
            seed,
            deadline_ms,
            audit,
        })
    }

    /// The canonical content-address string: every simulation-relevant
    /// field in a fixed order, execution-policy fields excluded. Two
    /// requests with equal canonical strings produce byte-identical
    /// reports, which is what the response cache keys on. The canonical
    /// string is itself a valid request payload.
    pub fn canonical(&self) -> String {
        let mut fields: Vec<(String, Value)> = Vec::with_capacity(9);
        match &self.target {
            Target::Single(w) => {
                fields.push(("workload".into(), Value::Str(w.name.into())));
            }
            Target::MixOf { workloads, index } => {
                fields.push((
                    "mix".into(),
                    Value::Arr(
                        workloads
                            .iter()
                            .map(|w| Value::Str(w.name.into()))
                            .collect(),
                    ),
                ));
                fields.push(("mix_index".into(), Value::u64(*index as u64)));
            }
        }
        fields.push(("scale".into(), Value::Str(self.scale.to_string())));
        fields.push(("l1".into(), Value::Str(self.l1.name().into())));
        fields.push(("l2".into(), Value::Str(self.l2.name().into())));
        fields.push(("temporal".into(), Value::Str(self.temporal.name().into())));
        fields.push(("bandwidth".into(), Value::f64(self.bandwidth)));
        fields.push(("warmup".into(), Value::f64(self.warmup)));
        fields.push((
            "seed".into(),
            match self.seed {
                Some(s) => Value::u64(s),
                None => Value::Null,
            },
        ));
        Value::Obj(fields).encode()
    }

    /// FNV-1a hash of the canonical string — the short `key` clients
    /// see. Display only; caches key on the full canonical string.
    pub fn key(&self) -> u64 {
        fnv1a(self.canonical().as_bytes())
    }

    /// The experiment configuration this request describes.
    pub fn experiment(&self) -> Experiment {
        let mut exp = Experiment::new(self.scale)
            .l1(self.l1)
            .l2(self.l2)
            .temporal(self.temporal)
            .bandwidth(self.bandwidth);
        exp.warmup = self.warmup;
        exp
    }

    /// Simulates the request on the calling thread — how every service
    /// worker executes, seeded or not. `None` means `cancel` fired at an
    /// engine epoch boundary; otherwise the report is byte-identical to
    /// a direct `run_single`/`run_mix` of the same configuration.
    pub fn run(&self, cancel: &CancelToken) -> Option<SimReport> {
        let exp = self.experiment();
        match &self.target {
            Target::Single(w) => {
                let w = self.seed.map_or_else(|| w.clone(), |seed| w.with_seed(seed));
                run_single_cancellable(&w, &exp, cancel)
            }
            Target::MixOf { workloads, index } => {
                run_mix_cancellable(&mix_of(workloads, *index), &exp, cancel)
            }
        }
    }

    /// The request as a sweep job with **canonical** seeds, or `None`
    /// for seed-overriding requests: the sweep cache keys on workload
    /// *name* and experiment fingerprint (deliberately excluding seeds),
    /// so a reseeded run must not go through it. The service itself
    /// executes through [`Request::run`]; this is the independent
    /// reference path `tpclient sweep --local-check` compares against.
    pub fn sweep_job(&self) -> Option<SweepJob> {
        if self.seed.is_some() {
            return None;
        }
        Some(match &self.target {
            Target::Single(w) => SweepJob::single(w.clone(), self.experiment()),
            Target::MixOf { workloads, index } => {
                SweepJob::mix(mix_of(workloads, *index), self.experiment())
            }
        })
    }
}

/// Reads one newline-terminated frame with the [`MAX_LINE_BYTES`] cap
/// enforced *while reading* (an oversized line errors without being
/// buffered whole). Partial data survives in `scratch` across timeout
/// errors (`WouldBlock`/`TimedOut`), so callers with read timeouts can
/// retry without losing bytes. `Ok(None)` means clean EOF; EOF after a
/// partial line delivers that partial as a final frame.
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
            let line = std::mem::take(scratch);
            return String::from_utf8(line)
                .map(Some)
                .map_err(|_| io::Error::new(io::ErrorKind::InvalidData, "frame is not UTF-8"));
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
                let mut line = std::mem::take(scratch);
                if line.last() == Some(&b'\r') {
                    line.pop();
                }
                return String::from_utf8(line).map(Some).map_err(|_| {
                    io::Error::new(io::ErrorKind::InvalidData, "frame is not UTF-8")
                });
            }
            None => r.consume(take),
        }
    }
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
        assert_eq!(r.scale, Scale::Small);
        assert_eq!(r.l1, L1Kind::Stride);
        assert_eq!(r.l2, L2Kind::None);
        assert!(matches!(r.temporal, TemporalKind::None));
        assert_eq!(r.bandwidth, 1.0);
        assert_eq!(r.warmup, 0.2);
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
        assert!(seeded.sweep_job().is_none(), "seeded runs bypass the sweep cache");
        assert!(plain.sweep_job().is_some());
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
        let job = r.sweep_job().unwrap();
        assert!(job.key().starts_with("mix:mix03[gap.bfs+spec06.mcf]#"));
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
