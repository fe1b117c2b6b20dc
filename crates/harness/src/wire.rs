//! Wire serialization for reports and service messages.
//!
//! The workspace is dependency-free, so this module carries the small
//! JSON-ish slice the simulation service needs: a [`Value`] tree, a
//! strict single-line parser, an escaping encoder, and a **canonical**
//! encoding of [`SimReport`] in which every counter appears in a fixed
//! order. Canonical means byte-comparable: two reports are equal iff
//! their encodings are equal, which is how the integration tests prove
//! that a report served by `tpserve` is *byte-identical* to the same
//! experiment run directly through the sweep runner.
//!
//! Numbers are kept as their literal text (`Value::Num(Numeral)`) rather
//! than eagerly converted to `f64`, so 64-bit counters round-trip
//! exactly — no 2^53 precision cliff. The parser needs no numeral's
//! value, only that it is one: it checks the literal against the
//! grammar `f64::from_str` accepts and computes nothing. A [`Numeral`]
//! holds every `u64` in place, so parsing a one-core `done` reply
//! allocates 83 times (keys, strings, containers), not 138.
//!
//! The encoder's output is a fixed point — `parse(e).encode() == e` —
//! which is the test `tpserve` applies to bytes it did not encode
//! before splicing them, unparsed, into a reply. One parser serves
//! every reader; its test module keeps the one it replaced as reference.

use std::fmt::{self, Write as _};
use tpsim::{CacheStats, CoreReport, DramStats, SimReport, TemporalStats};

const INLINE: usize = 22;

/// A numeric literal's text: up to 22 bytes in place, a longer one in
/// an exact-size box. Keeps [`Value`] at 32 bytes.
#[derive(Clone, PartialEq)]
pub struct Numeral(Repr);

/// Inline bytes past the length stay zero: derived equality is text's.
#[derive(Clone, PartialEq)]
enum Repr {
    Inline(u8, [u8; INLINE]),
    Boxed(Box<str>),
}

impl Numeral {
    /// The literal's text.
    pub fn as_str(&self) -> &str {
        match &self.0 {
            Repr::Inline(len, bytes) => {
                std::str::from_utf8(&bytes[..*len as usize]).expect("a whole str was copied in")
            }
            Repr::Boxed(text) => text,
        }
    }
}

impl From<&str> for Numeral {
    fn from(text: &str) -> Numeral {
        let mut bytes = [0; INLINE];
        let Some(head) = bytes.get_mut(..text.len()) else {
            return Numeral(Repr::Boxed(text.into()));
        };
        head.copy_from_slice(text.as_bytes());
        Numeral(Repr::Inline(text.len() as u8, bytes))
    }
}

impl fmt::Debug for Numeral {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        fmt::Debug::fmt(self.as_str(), f)
    }
}

/// A JSON-ish value tree.
#[derive(Clone, Debug, PartialEq)]
pub enum Value {
    /// `null`.
    Null,
    /// `true` / `false`.
    Bool(bool),
    /// A numeric literal, kept as text for lossless round-trips.
    Num(Numeral),
    /// A string.
    Str(String),
    /// An array.
    Arr(Vec<Value>),
    /// An object with insertion-ordered keys.
    Obj(Vec<(String, Value)>),
}

impl Value {
    /// Builds a number from a `u64` (exact).
    pub fn u64(v: u64) -> Value {
        let mut digits = [0; INLINE];
        let len = v.checked_ilog10().map_or(1, |l| l as usize + 1);
        let mut rest = v;
        for d in digits[..len].iter_mut().rev() {
            *d = b'0' + (rest % 10) as u8;
            rest /= 10;
        }
        Value::Num(Numeral(Repr::Inline(len as u8, digits)))
    }

    /// Builds a number from an `f64` via Rust's shortest-round-trip
    /// formatting (deterministic and parseable).
    pub fn f64(v: f64) -> Value {
        Value::Num(Numeral::from(format!("{v:?}").as_str()))
    }

    /// Object field lookup (first match).
    pub fn get(&self, key: &str) -> Option<&Value> {
        match self {
            Value::Obj(fields) => fields.iter().find(|(k, _)| k == key).map(|(_, v)| v),
            _ => None,
        }
    }

    /// The value as a string slice, if it is one.
    pub fn as_str(&self) -> Option<&str> {
        match self {
            Value::Str(s) => Some(s),
            _ => None,
        }
    }

    /// The value as `u64`, if it is an exactly-representable numeral.
    pub fn as_u64(&self) -> Option<u64> {
        match self {
            Value::Num(n) => n.as_str().parse().ok(),
            _ => None,
        }
    }

    /// The value as `f64`, if numeric.
    pub fn as_f64(&self) -> Option<f64> {
        match self {
            Value::Num(n) => n.as_str().parse().ok(),
            _ => None,
        }
    }

    /// The value as `bool`, if boolean.
    pub fn as_bool(&self) -> Option<bool> {
        match self {
            Value::Bool(b) => Some(*b),
            _ => None,
        }
    }

    /// The value as an array slice, if it is one.
    pub fn as_arr(&self) -> Option<&[Value]> {
        match self {
            Value::Arr(v) => Some(v),
            _ => None,
        }
    }

    /// Encodes the value as a single JSON line (no trailing newline).
    pub fn encode(&self) -> String {
        let mut out = String::new();
        self.encode_into(&mut out);
        out
    }

    fn encode_into(&self, out: &mut String) {
        match self {
            Value::Null => out.push_str("null"),
            Value::Bool(true) => out.push_str("true"),
            Value::Bool(false) => out.push_str("false"),
            Value::Num(n) => out.push_str(n.as_str()),
            Value::Str(s) => escape_into(s, out),
            Value::Arr(items) => {
                out.push('[');
                for (i, v) in items.iter().enumerate() {
                    if i > 0 {
                        out.push(',');
                    }
                    v.encode_into(out);
                }
                out.push(']');
            }
            Value::Obj(fields) => {
                out.push('{');
                for (i, (k, v)) in fields.iter().enumerate() {
                    if i > 0 {
                        out.push(',');
                    }
                    escape_into(k, out);
                    out.push(':');
                    v.encode_into(out);
                }
                out.push('}');
            }
        }
    }
}

/// Appends `s` as the encoder writes every string and object key:
/// quoted, with `"`, `\\` and control characters escaped.
pub fn escape_into(s: &str, out: &mut String) {
    out.push('"');
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\r' => out.push_str("\\r"),
            '\t' => out.push_str("\\t"),
            c if (c as u32) < 0x20 => {
                let _ = write!(out, "\\u{:04x}", c as u32);
            }
            c => out.push(c),
        }
    }
    out.push('"');
}

/// Parses a JSON-ish document. Trailing garbage after the value is an
/// error, as are unterminated strings/containers.
///
/// # Errors
/// Returns a human-readable description of the first syntax error.
pub fn parse(s: &str) -> Result<Value, String> {
    let mut pos = 0usize;
    let v = parse_value(s, &mut pos, 0)?;
    skip_ws(s.as_bytes(), &mut pos);
    if pos != s.len() {
        return Err(format!("trailing data at byte {pos}"));
    }
    Ok(v)
}

/// Containers deeper than this are rejected (stack-depth bound for
/// untrusted input).
const MAX_DEPTH: usize = 16;

fn skip_ws(b: &[u8], pos: &mut usize) {
    while *pos < b.len() && matches!(b[*pos], b' ' | b'\t' | b'\n' | b'\r') {
        *pos += 1;
    }
}

/// Whether `lit`, drawn from the number alphabet `0-9 . e E + -`, is a
/// literal `f64::from_str` accepts:
/// `[+-] (digits [. digits*] | . digits) [(e|E) [+-] digits]`.
/// Numerals stay text, so the grammar is checked and no float computed.
fn is_number(lit: &[u8]) -> bool {
    fn unsigned(s: &[u8]) -> &[u8] {
        s.strip_prefix(b"+").or_else(|| s.strip_prefix(b"-")).unwrap_or(s)
    }
    let digits = |s: &[u8]| s.iter().take_while(|c| c.is_ascii_digit()).count();
    let (mantissa, exponent) = match lit.iter().position(|c| matches!(c, b'e' | b'E')) {
        Some(e) => (&lit[..e], Some(unsigned(&lit[e + 1..]))),
        None => (lit, None),
    };
    let mantissa = unsigned(mantissa);
    let whole = digits(mantissa);
    let fraction = match &mantissa[whole..] {
        [] => 0,
        [b'.', rest @ ..] if digits(rest) == rest.len() => rest.len(),
        _ => return false,
    };
    whole + fraction > 0 && exponent.is_none_or(|e| !e.is_empty() && digits(e) == e.len())
}

fn parse_value(s: &str, pos: &mut usize, depth: usize) -> Result<Value, String> {
    if depth > MAX_DEPTH {
        return Err("nesting too deep".into());
    }
    let b = s.as_bytes();
    skip_ws(b, pos);
    match b.get(*pos) {
        None => Err("unexpected end of input".into()),
        Some(b'{') => {
            *pos += 1;
            let mut fields = Vec::new();
            skip_ws(b, pos);
            if b.get(*pos) == Some(&b'}') {
                *pos += 1;
                return Ok(Value::Obj(fields));
            }
            loop {
                skip_ws(b, pos);
                let key = match b.get(*pos) {
                    Some(b'"') if depth < MAX_DEPTH => parse_string(s, pos)?,
                    // Else (or past the depth bound) fail as a value would.
                    _ => {
                        parse_value(s, pos, depth + 1)?;
                        return Err(format!("object key at byte {pos} is not a string"));
                    }
                };
                skip_ws(b, pos);
                if b.get(*pos) != Some(&b':') {
                    return Err(format!("expected ':' at byte {pos}"));
                }
                *pos += 1;
                let val = parse_value(s, pos, depth + 1)?;
                fields.push((key, val));
                skip_ws(b, pos);
                match b.get(*pos) {
                    Some(b',') => *pos += 1,
                    Some(b'}') => {
                        *pos += 1;
                        return Ok(Value::Obj(fields));
                    }
                    _ => return Err(format!("expected ',' or '}}' at byte {pos}")),
                }
            }
        }
        Some(b'[') => {
            *pos += 1;
            let mut items = Vec::new();
            skip_ws(b, pos);
            if b.get(*pos) == Some(&b']') {
                *pos += 1;
                return Ok(Value::Arr(items));
            }
            loop {
                items.push(parse_value(s, pos, depth + 1)?);
                skip_ws(b, pos);
                match b.get(*pos) {
                    Some(b',') => *pos += 1,
                    Some(b']') => {
                        *pos += 1;
                        return Ok(Value::Arr(items));
                    }
                    _ => return Err(format!("expected ',' or ']' at byte {pos}")),
                }
            }
        }
        Some(b'"') => parse_string(s, pos).map(Value::Str),
        Some(c) if c.is_ascii_digit() || *c == b'-' || *c == b'+' => {
            let start = *pos;
            *pos += 1;
            while matches!(b.get(*pos), Some(b'0'..=b'9' | b'.' | b'e' | b'E' | b'+' | b'-')) {
                *pos += 1;
            }
            // Checked now, so `Num` is always a well-formed literal.
            let lit = &s[start..*pos];
            if !is_number(lit.as_bytes()) {
                return Err(format!("bad number {lit:?}"));
            }
            Ok(Value::Num(Numeral::from(lit)))
        }
        Some(_) => {
            for (lit, v) in [
                ("null", Value::Null),
                ("true", Value::Bool(true)),
                ("false", Value::Bool(false)),
            ] {
                if b[*pos..].starts_with(lit.as_bytes()) {
                    *pos += lit.len();
                    return Ok(v);
                }
            }
            Err(format!("unexpected byte {:?} at {}", b[*pos] as char, pos))
        }
    }
}

/// The string opening at `*pos`, unescaped; `*pos` ends past its close.
fn parse_string(s: &str, pos: &mut usize) -> Result<String, String> {
    let b = s.as_bytes();
    *pos += 1;
    let mut out = String::new();
    loop {
        // Copy the run up to the next quote or backslash whole.
        // Both are ASCII, so the run ends on a scalar boundary.
        let run = *pos;
        while !matches!(b.get(*pos), None | Some(b'"' | b'\\')) {
            *pos += 1;
        }
        out.push_str(&s[run..*pos]);
        match b.get(*pos) {
            None => return Err("unterminated string".into()),
            Some(b'"') => {
                *pos += 1;
                return Ok(out);
            }
            // A backslash: the run stops at nothing else.
            Some(_) => {
                *pos += 1;
                match b.get(*pos) {
                    Some(b'"') => out.push('"'),
                    Some(b'\\') => out.push('\\'),
                    Some(b'/') => out.push('/'),
                    Some(b'n') => out.push('\n'),
                    Some(b'r') => out.push('\r'),
                    Some(b't') => out.push('\t'),
                    Some(b'u') => {
                        let hex = b.get(*pos + 1..*pos + 5).ok_or("truncated \\u escape")?;
                        let code = std::str::from_utf8(hex)
                            .ok()
                            .and_then(|h| u32::from_str_radix(h, 16).ok())
                            .ok_or("bad \\u escape")?;
                        out.push(char::from_u32(code).unwrap_or('\u{fffd}'));
                        *pos += 4;
                    }
                    _ => return Err("bad escape".into()),
                }
                *pos += 1;
            }
        }
    }
}

// ---------------------------------------------------------------------
// Canonical SimReport encoding
// ---------------------------------------------------------------------

fn cache_stats_value(c: &CacheStats) -> Value {
    Value::Obj(vec![
        ("accesses".into(), Value::u64(c.accesses)),
        ("hits".into(), Value::u64(c.hits)),
        ("misses".into(), Value::u64(c.misses)),
        ("useful_prefetches".into(), Value::u64(c.useful_prefetches)),
        ("late_prefetches".into(), Value::u64(c.late_prefetches)),
        ("prefetch_fills".into(), Value::u64(c.prefetch_fills)),
        (
            "useless_prefetch_evictions".into(),
            Value::u64(c.useless_prefetch_evictions),
        ),
        ("writebacks".into(), Value::u64(c.writebacks)),
    ])
}

fn cache_stats_from(v: &Value) -> Result<CacheStats, String> {
    let f = |k: &str| -> Result<u64, String> {
        v.get(k)
            .and_then(Value::as_u64)
            .ok_or_else(|| format!("missing cache counter {k:?}"))
    };
    Ok(CacheStats {
        accesses: f("accesses")?,
        hits: f("hits")?,
        misses: f("misses")?,
        useful_prefetches: f("useful_prefetches")?,
        late_prefetches: f("late_prefetches")?,
        prefetch_fills: f("prefetch_fills")?,
        useless_prefetch_evictions: f("useless_prefetch_evictions")?,
        writebacks: f("writebacks")?,
    })
}

fn temporal_stats_value(t: &TemporalStats) -> Value {
    Value::Obj(vec![
        ("meta_reads".into(), Value::u64(t.meta_reads)),
        ("meta_writes".into(), Value::u64(t.meta_writes)),
        ("rearranged_blocks".into(), Value::u64(t.rearranged_blocks)),
        ("trigger_lookups".into(), Value::u64(t.trigger_lookups)),
        ("trigger_hits".into(), Value::u64(t.trigger_hits)),
        ("correlation_hits".into(), Value::u64(t.correlation_hits)),
        ("inserts".into(), Value::u64(t.inserts)),
        ("redundant_inserts".into(), Value::u64(t.redundant_inserts)),
        ("aligned_inserts".into(), Value::u64(t.aligned_inserts)),
        ("filtered".into(), Value::u64(t.filtered)),
        ("realigned".into(), Value::u64(t.realigned)),
        ("resizes".into(), Value::u64(t.resizes)),
        ("prefetches_issued".into(), Value::u64(t.prefetches_issued)),
    ])
}

fn temporal_stats_from(v: &Value) -> Result<TemporalStats, String> {
    let f = |k: &str| -> Result<u64, String> {
        v.get(k)
            .and_then(Value::as_u64)
            .ok_or_else(|| format!("missing temporal counter {k:?}"))
    };
    Ok(TemporalStats {
        meta_reads: f("meta_reads")?,
        meta_writes: f("meta_writes")?,
        rearranged_blocks: f("rearranged_blocks")?,
        trigger_lookups: f("trigger_lookups")?,
        trigger_hits: f("trigger_hits")?,
        correlation_hits: f("correlation_hits")?,
        inserts: f("inserts")?,
        redundant_inserts: f("redundant_inserts")?,
        aligned_inserts: f("aligned_inserts")?,
        filtered: f("filtered")?,
        realigned: f("realigned")?,
        resizes: f("resizes")?,
        prefetches_issued: f("prefetches_issued")?,
    })
}

fn origin_value(a: &[u64; 3]) -> Value {
    Value::Arr(a.iter().map(|&v| Value::u64(v)).collect())
}

fn origin_from(v: &Value, key: &str) -> Result<[u64; 3], String> {
    let arr = v.as_arr().ok_or_else(|| format!("{key} is not an array"))?;
    if arr.len() != 3 {
        return Err(format!("{key} must have 3 entries"));
    }
    let mut out = [0u64; 3];
    for (i, x) in arr.iter().enumerate() {
        out[i] = x.as_u64().ok_or_else(|| format!("{key}[{i}] not a u64"))?;
    }
    Ok(out)
}

/// Encodes a [`SimReport`] as one canonical JSON line (see module docs).
///
/// The audit is summarized as a single `audit_passed` boolean: the wire
/// format carries results, and audit enforcement happens where the
/// simulation ran.
pub fn encode_sim_report(r: &SimReport) -> String {
    let cores: Vec<Value> = r
        .cores
        .iter()
        .map(|c| {
            Value::Obj(vec![
                ("workload".into(), Value::Str(c.workload.clone())),
                ("instructions".into(), Value::u64(c.instructions)),
                ("cycles".into(), Value::u64(c.cycles)),
                ("l1d".into(), cache_stats_value(&c.l1d)),
                ("l2".into(), cache_stats_value(&c.l2)),
                ("temporal".into(), temporal_stats_value(&c.temporal)),
                ("l1_prefetches".into(), Value::u64(c.l1_prefetches)),
                ("l2_prefetches".into(), Value::u64(c.l2_prefetches)),
                ("temporal_pf_issued".into(), Value::u64(c.temporal_pf_issued)),
                ("temporal_pf_dropped".into(), Value::u64(c.temporal_pf_dropped)),
                ("l2_fills_by_origin".into(), origin_value(&c.l2_fills_by_origin)),
                ("l2_useful_by_origin".into(), origin_value(&c.l2_useful_by_origin)),
                ("l2_useless_by_origin".into(), origin_value(&c.l2_useless_by_origin)),
            ])
        })
        .collect();
    Value::Obj(vec![
        ("cores".into(), Value::Arr(cores)),
        ("llc".into(), cache_stats_value(&r.llc)),
        (
            "dram".into(),
            Value::Obj(vec![
                ("reads".into(), Value::u64(r.dram.reads)),
                ("writes".into(), Value::u64(r.dram.writes)),
                ("row_hits".into(), Value::u64(r.dram.row_hits)),
            ]),
        ),
        ("audit_passed".into(), Value::Bool(r.audit.passed())),
    ])
    .encode()
}

/// Decodes a report produced by [`encode_sim_report`].
///
/// The reconstructed report carries a default (passing) audit: audit
/// violations are enforced at the simulation site and reported there,
/// not shipped across the wire.
///
/// # Errors
/// Returns a description of the first missing or malformed field.
pub fn decode_sim_report(s: &str) -> Result<SimReport, String> {
    sim_report_from_value(&parse(s)?)
}

/// [`decode_sim_report`] for a tree already parsed, such as a reply's
/// `report` field.
///
/// # Errors
/// Returns a description of the first missing or malformed field.
pub fn sim_report_from_value(v: &Value) -> Result<SimReport, String> {
    let cores_v = v
        .get("cores")
        .and_then(Value::as_arr)
        .ok_or("missing cores array")?;
    let mut cores = Vec::with_capacity(cores_v.len());
    for (i, c) in cores_v.iter().enumerate() {
        let f = |k: &str| -> Result<u64, String> {
            c.get(k)
                .and_then(Value::as_u64)
                .ok_or_else(|| format!("core {i}: missing {k:?}"))
        };
        cores.push(CoreReport {
            workload: c
                .get("workload")
                .and_then(Value::as_str)
                .ok_or_else(|| format!("core {i}: missing workload"))?
                .to_string(),
            instructions: f("instructions")?,
            cycles: f("cycles")?,
            l1d: cache_stats_from(c.get("l1d").ok_or_else(|| format!("core {i}: missing l1d"))?)?,
            l2: cache_stats_from(c.get("l2").ok_or_else(|| format!("core {i}: missing l2"))?)?,
            temporal: temporal_stats_from(
                c.get("temporal").ok_or_else(|| format!("core {i}: missing temporal"))?,
            )?,
            l1_prefetches: f("l1_prefetches")?,
            l2_prefetches: f("l2_prefetches")?,
            temporal_pf_issued: f("temporal_pf_issued")?,
            temporal_pf_dropped: f("temporal_pf_dropped")?,
            l2_fills_by_origin: origin_from(
                c.get("l2_fills_by_origin").ok_or("missing l2_fills_by_origin")?,
                "l2_fills_by_origin",
            )?,
            l2_useful_by_origin: origin_from(
                c.get("l2_useful_by_origin").ok_or("missing l2_useful_by_origin")?,
                "l2_useful_by_origin",
            )?,
            l2_useless_by_origin: origin_from(
                c.get("l2_useless_by_origin").ok_or("missing l2_useless_by_origin")?,
                "l2_useless_by_origin",
            )?,
        });
    }
    let llc = cache_stats_from(v.get("llc").ok_or("missing llc")?)?;
    let dram_v = v.get("dram").ok_or("missing dram")?;
    let df = |k: &str| -> Result<u64, String> {
        dram_v
            .get(k)
            .and_then(Value::as_u64)
            .ok_or_else(|| format!("missing dram counter {k:?}"))
    };
    Ok(SimReport {
        cores,
        llc,
        dram: DramStats {
            reads: df("reads")?,
            writes: df("writes")?,
            row_hits: df("row_hits")?,
        },
        audit: Default::default(),
    })
}

/// FNV-1a over a byte string, the content-address hash for canonical
/// requests (stable across platforms and runs; collisions are guarded
/// by keying caches on the full canonical text, not the hash).
pub fn fnv1a(bytes: &[u8]) -> u64 {
    let mut h = 0xcbf2_9ce4_8422_2325u64;
    for &b in bytes {
        h ^= b as u64;
        h = h.wrapping_mul(0x100_0000_01b3);
    }
    h
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::baselines::{L1Kind, TemporalKind};
    use crate::experiment::{run_single, Experiment};
    use tptrace::{workloads, Scale};

    #[test]
    fn values_round_trip() {
        let v = Value::Obj(vec![
            ("s".into(), Value::Str("a\"b\\c\nd".into())),
            ("n".into(), Value::u64(u64::MAX)),
            ("f".into(), Value::f64(0.25)),
            ("b".into(), Value::Bool(true)),
            ("z".into(), Value::Null),
            ("a".into(), Value::Arr(vec![Value::u64(1), Value::Str("x".into())])),
        ]);
        let text = v.encode();
        assert_eq!(parse(&text).unwrap(), v);
        assert_eq!(
            parse(&text).unwrap().get("n").unwrap().as_u64(),
            Some(u64::MAX)
        );
    }

    #[test]
    fn parser_rejects_malformed_input() {
        for bad in [
            "", "{", "[1,", "{\"a\":}", "{\"a\"1}", "\"unterminated", "tru", "{} garbage",
            "{1:2}", "nan",
        ] {
            assert!(parse(bad).is_err(), "{bad:?} should fail");
        }
        // Depth bound trips instead of recursing unboundedly.
        let deep = "[".repeat(100) + &"]".repeat(100);
        assert!(parse(&deep).is_err());
    }

    /// The parser before its string and number arms were rewritten —
    /// one scalar per `push_str`, numerals through `str::parse::<f64>` —
    /// kept as the reference the live one is pinned against.
    fn reference_parse(s: &str) -> Result<Value, String> {
        let bytes = s.as_bytes();
        let mut pos = 0usize;
        let v = reference_value(bytes, &mut pos, 0)?;
        skip_ws(bytes, &mut pos);
        if pos != bytes.len() {
            return Err(format!("trailing data at byte {pos}"));
        }
        Ok(v)
    }

    fn reference_value(b: &[u8], pos: &mut usize, depth: usize) -> Result<Value, String> {
        if depth > MAX_DEPTH {
            return Err("nesting too deep".into());
        }
        skip_ws(b, pos);
        match b.get(*pos) {
            None => Err("unexpected end of input".into()),
            Some(b'{') => {
                *pos += 1;
                let mut fields = Vec::new();
                skip_ws(b, pos);
                if b.get(*pos) == Some(&b'}') {
                    *pos += 1;
                    return Ok(Value::Obj(fields));
                }
                loop {
                    skip_ws(b, pos);
                    let key = match reference_value(b, pos, depth + 1)? {
                        Value::Str(s) => s,
                        _ => return Err(format!("object key at byte {pos} is not a string")),
                    };
                    skip_ws(b, pos);
                    if b.get(*pos) != Some(&b':') {
                        return Err(format!("expected ':' at byte {pos}"));
                    }
                    *pos += 1;
                    let val = reference_value(b, pos, depth + 1)?;
                    fields.push((key, val));
                    skip_ws(b, pos);
                    match b.get(*pos) {
                        Some(b',') => *pos += 1,
                        Some(b'}') => {
                            *pos += 1;
                            return Ok(Value::Obj(fields));
                        }
                        _ => return Err(format!("expected ',' or '}}' at byte {pos}")),
                    }
                }
            }
            Some(b'[') => {
                *pos += 1;
                let mut items = Vec::new();
                skip_ws(b, pos);
                if b.get(*pos) == Some(&b']') {
                    *pos += 1;
                    return Ok(Value::Arr(items));
                }
                loop {
                    items.push(reference_value(b, pos, depth + 1)?);
                    skip_ws(b, pos);
                    match b.get(*pos) {
                        Some(b',') => *pos += 1,
                        Some(b']') => {
                            *pos += 1;
                            return Ok(Value::Arr(items));
                        }
                        _ => return Err(format!("expected ',' or ']' at byte {pos}")),
                    }
                }
            }
            Some(b'"') => {
                *pos += 1;
                let mut out = String::new();
                loop {
                    match b.get(*pos) {
                        None => return Err("unterminated string".into()),
                        Some(b'"') => {
                            *pos += 1;
                            return Ok(Value::Str(out));
                        }
                        Some(b'\\') => {
                            *pos += 1;
                            match b.get(*pos) {
                                Some(b'"') => out.push('"'),
                                Some(b'\\') => out.push('\\'),
                                Some(b'/') => out.push('/'),
                                Some(b'n') => out.push('\n'),
                                Some(b'r') => out.push('\r'),
                                Some(b't') => out.push('\t'),
                                Some(b'u') => {
                                    let hex = b
                                        .get(*pos + 1..*pos + 5)
                                        .ok_or("truncated \\u escape")?;
                                    let code = std::str::from_utf8(hex)
                                        .ok()
                                        .and_then(|h| u32::from_str_radix(h, 16).ok())
                                        .ok_or("bad \\u escape")?;
                                    out.push(char::from_u32(code).unwrap_or('\u{fffd}'));
                                    *pos += 4;
                                }
                                _ => return Err("bad escape".into()),
                            }
                            *pos += 1;
                        }
                        Some(_) => {
                            // Consume one UTF-8 scalar (input is a &str, so
                            // boundaries are valid).
                            let start = *pos;
                            *pos += 1;
                            while *pos < b.len() && (b[*pos] & 0xc0) == 0x80 {
                                *pos += 1;
                            }
                            out.push_str(
                                std::str::from_utf8(&b[start..*pos]).map_err(|_| "bad utf-8")?,
                            );
                        }
                    }
                }
            }
            Some(c) if c.is_ascii_digit() || *c == b'-' || *c == b'+' => {
                let start = *pos;
                *pos += 1;
                while *pos < b.len()
                    && matches!(b[*pos], b'0'..=b'9' | b'.' | b'e' | b'E' | b'+' | b'-')
                {
                    *pos += 1;
                }
                let lit = std::str::from_utf8(&b[start..*pos]).map_err(|_| "bad utf-8")?;
                // Validate it parses as a number now, so `Num` is always a
                // well-formed literal.
                lit.parse::<f64>().map_err(|_| format!("bad number {lit:?}"))?;
                Ok(Value::Num(Numeral::from(lit)))
            }
            Some(_) => {
                for (lit, v) in [
                    ("null", Value::Null),
                    ("true", Value::Bool(true)),
                    ("false", Value::Bool(false)),
                ] {
                    if b[*pos..].starts_with(lit.as_bytes()) {
                        *pos += lit.len();
                        return Ok(v);
                    }
                }
                Err(format!("unexpected byte {:?} at {}", b[*pos] as char, pos))
            }
        }
    }

    /// A tree that exercises every escape the encoder emits, `\u00XX`,
    /// multi-byte UTF-8, the numerals that matter, and nesting down to
    /// `depth` levels below this value.
    fn random_value(g: &mut tpcheck::Gen, depth: usize) -> Value {
        const NUMS: [&str; 9] = [
            "18446744073709551615", "-0.0", "1e-7", "0", "-17", "2.5E+3", "1.", "+4",
            "-1.2345678901234567e-300",
        ];
        const PIECES: [&str; 12] =
            ["plain", "\"", "\\", "\n", "\r", "\t", "\u{1}", "\u{1f}", "/", "é", "日本", "🦀"];
        let string = |g: &mut tpcheck::Gen| g.vec(0..5, |g| PIECES[g.usize_in(0..12)]).concat();
        match g.usize_in(0..if depth == 0 { 5 } else { 7 }) {
            0 => Value::Null,
            1 => Value::Bool(g.bool()),
            2 => Value::Num(Numeral::from(NUMS[g.usize_in(0..NUMS.len())])),
            3 => Value::u64(g.next_u64()),
            4 => Value::Str(string(g)),
            5 => Value::Arr(g.vec(0..4, |g| random_value(g, depth - 1))),
            _ => Value::Obj(g.vec(0..4, |g| (string(g), random_value(g, depth - 1)))),
        }
    }

    #[test]
    fn parse_agrees_with_the_parser_it_replaces() {
        const HOSTILE: [&str; 16] = [
            "\\", "\\u12", "\\uzzzz", "\\ud800", "\\u+041", "\\x", "\"", "1e", "+", ".", "1.", "-.5e+3",
            "--1", "1e+-2", "é", " ",
        ];
        let agree = |doc: &str| {
            let (live, reference) = (parse(doc), reference_parse(doc));
            tpcheck::ensure!(live == reference, "{doc:?}: {live:?} != {reference:?}");
            Ok(())
        };
        tpcheck::check("parse == reference_parse", 256, |g| {
            let depth = g.usize_in(0..MAX_DEPTH + 1);
            let value = random_value(g, depth);
            let doc = value.encode();
            tpcheck::ensure!(parse(&doc) == Ok(value), "{doc} does not round-trip");
            // Truncated at every byte that leaves a `&str`.
            for cut in (0..=doc.len()).filter(|&i| doc.is_char_boundary(i)) {
                agree(&doc[..cut])?;
                // A hostile fragment spliced in at one cut in eight.
                if g.usize_in(0..8) == 0 {
                    let fragment = HOSTILE[g.usize_in(0..HOSTILE.len())];
                    agree(&format!("{}{fragment}{}", &doc[..cut], &doc[cut..]))?;
                }
            }
            Ok(())
        });
        // Nesting to the bound and past it, with the same tree inside.
        tpcheck::check("parse == reference_parse, nested", 16, |g| {
            let doc = random_value(g, 2).encode();
            for wraps in MAX_DEPTH - 3..MAX_DEPTH + 3 {
                agree(&format!("{}{doc}{}", "[".repeat(wraps), "]".repeat(wraps)))?;
                agree(&format!("{}{doc}{}", "{\"k\":".repeat(wraps), "}".repeat(wraps)))?;
            }
            Ok(())
        });
    }

    #[test]
    fn is_number_is_the_f64_literal_grammar_over_the_number_alphabet() {
        const ALPHABET: &[u8; 15] = b"0123456789.eE+-";
        for len in 0..=5u32 {
            for mut n in 0..15usize.pow(len) {
                let mut lit = String::new();
                for _ in 0..len {
                    lit.push(ALPHABET[n % 15] as char);
                    n /= 15;
                }
                let accepted = lit.parse::<f64>().is_ok();
                assert_eq!(is_number(lit.as_bytes()), accepted, "{lit:?}");
            }
        }
        for long in ["1e99999999999999999999", "-0.000000000000000000000000000001E-400", "1.e5"] {
            assert!(is_number(long.as_bytes()) && long.parse::<f64>().is_ok(), "{long}");
        }
    }

    #[test]
    fn numerals_keep_their_text_in_place_and_boxed() {
        assert_eq!(std::mem::size_of::<Value>(), 32);
        tpcheck::check("Value::u64 is n.to_string()", 256, |g| {
            let shifted = g.next_u64() >> g.usize_in(0..64);
            let n = [0, u64::MAX, g.next_u64(), shifted][g.usize_in(0..4)];
            let v = Value::u64(n);
            tpcheck::ensure!(v.encode() == n.to_string(), "{n}: {}", v.encode());
            tpcheck::ensure!(v.as_u64() == Some(n), "{n}: as_u64 gave {:?}", v.as_u64());
            Ok(())
        });
        // Literals just below, at and just above the inline capacity.
        tpcheck::check("numerals around the inline capacity survive parse", 256, |g| {
            let len = g.usize_in(INLINE - 2..INLINE + 3);
            let digit = |g: &mut tpcheck::Gen| (b'0' + g.usize_in(0..10) as u8) as char;
            let digits: String = (0..len).map(|_| digit(g)).collect();
            let signed = format!("-{}", &digits[1..]);
            let exponent = format!("{}e-9", &digits[3..]);
            for lit in [digits, signed, exponent] {
                let v = parse(&lit).map_err(|e| format!("{lit}: {e}"))?;
                tpcheck::ensure!(v.encode() == lit, "{lit} came back {}", v.encode());
                tpcheck::ensure!(v.as_f64() == lit.parse().ok(), "{lit}: as_f64 {:?}", v.as_f64());
                tpcheck::ensure!(v.as_u64() == lit.parse().ok(), "{lit}: as_u64 {:?}", v.as_u64());
            }
            Ok(())
        });
    }

    #[test]
    fn sim_report_round_trips_exactly() {
        let w = workloads::by_name("spec06.mcf").unwrap();
        let exp = Experiment::new(Scale::Test)
            .l1(L1Kind::Stride)
            .temporal(TemporalKind::Streamline);
        let r = run_single(&w, &exp);
        let text = encode_sim_report(&r);
        let back = decode_sim_report(&text).unwrap();
        // Canonical encoding: round-trip must be byte-identical.
        assert_eq!(encode_sim_report(&back), text);
        let from_tree = sim_report_from_value(&parse(&text).unwrap()).unwrap();
        assert_eq!(encode_sim_report(&from_tree), text);
        assert_eq!(back.cores[0].cycles, r.cores[0].cycles);
        assert_eq!(back.cores[0].temporal, r.cores[0].temporal);
        assert_eq!(back.llc, r.llc);
        assert_eq!(back.dram, r.dram);
    }

    #[test]
    fn fnv_is_stable() {
        assert_eq!(fnv1a(b""), 0xcbf2_9ce4_8422_2325);
        assert_eq!(fnv1a(b"abc"), fnv1a(b"abc"));
        assert_ne!(fnv1a(b"abc"), fnv1a(b"abd"));
    }
}
