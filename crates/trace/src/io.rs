//! Compact binary trace serialization.
//!
//! Generating the larger traces takes seconds; serializing them lets
//! experiment sweeps and external tools reuse them. The format is a
//! simple little-endian stream with per-access delta compression:
//! repeated PCs and small line deltas (the overwhelmingly common case)
//! cost two bytes.
//!
//! ```
//! use tptrace::{io, TraceBuilder, Suite};
//! let mut b = TraceBuilder::new("t", Suite::Gap);
//! b.load(0x400, 0x1000).dep_load(0x404, 0x1040).store(0x400, 0x2000);
//! let t = b.finish();
//! let bytes = io::to_bytes(&t);
//! let back = io::from_bytes(&bytes).unwrap();
//! assert_eq!(t.accesses(), back.accesses());
//! assert_eq!(t.name(), back.name());
//! ```

use crate::record::{Access, AccessKind, Addr, Dep, Pc};
use crate::trace::{Trace, TraceBuilder, MAX_GAP};
use crate::workloads::Suite;
use std::fmt;

/// Magic bytes identifying the format.
const MAGIC: &[u8; 4] = b"TPT1";

/// Errors returned by [`from_bytes`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum DecodeError {
    /// The buffer does not start with the expected magic bytes.
    BadMagic,
    /// The buffer ended in the middle of a record.
    Truncated,
    /// An enum discriminant was out of range.
    BadTag(u8),
    /// The embedded name is not valid UTF-8.
    BadName,
}

impl fmt::Display for DecodeError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            DecodeError::BadMagic => write!(f, "not a TPT1 trace"),
            DecodeError::Truncated => write!(f, "unexpected end of trace data"),
            DecodeError::BadTag(t) => write!(f, "invalid record tag {t:#x}"),
            DecodeError::BadName => write!(f, "trace name is not valid utf-8"),
        }
    }
}

impl std::error::Error for DecodeError {}

fn put_varint(out: &mut Vec<u8>, mut v: u64) {
    loop {
        let b = (v & 0x7f) as u8;
        v >>= 7;
        if v == 0 {
            out.push(b);
            break;
        }
        out.push(b | 0x80);
    }
}

fn get_varint(buf: &[u8], pos: &mut usize) -> Result<u64, DecodeError> {
    let mut v = 0u64;
    let mut shift = 0;
    loop {
        let b = *buf.get(*pos).ok_or(DecodeError::Truncated)?;
        *pos += 1;
        v |= ((b & 0x7f) as u64) << shift;
        if b & 0x80 == 0 {
            return Ok(v);
        }
        shift += 7;
        if shift > 63 {
            return Err(DecodeError::Truncated);
        }
    }
}

fn zigzag(v: i64) -> u64 {
    // Shift in the unsigned domain: `i64 << 1` overflows (and panics in
    // debug builds) for deltas with the top bit set, which arbitrary
    // 64-bit addresses can produce.
    ((v as u64) << 1) ^ ((v >> 63) as u64)
}

fn unzigzag(v: u64) -> i64 {
    ((v >> 1) as i64) ^ -((v & 1) as i64)
}

/// Serializes a trace to bytes.
pub fn to_bytes(trace: &Trace) -> Vec<u8> {
    let mut out = Vec::with_capacity(trace.len() * 3 + 64);
    out.extend_from_slice(MAGIC);
    out.push(match trace.suite() {
        Suite::Spec06 => 0,
        Suite::Spec17 => 1,
        Suite::Gap => 2,
    });
    let name = trace.name().as_bytes();
    put_varint(&mut out, name.len() as u64);
    out.extend_from_slice(name);
    put_varint(&mut out, trace.len() as u64);

    let mut last_pc = 0u64;
    // Per-PC last address: streams are PC-local, so deltas against the
    // same PC's previous access are tiny even when PCs interleave.
    let mut last_addr: std::collections::HashMap<u64, i64> = std::collections::HashMap::new();
    for a in trace.iter() {
        // Flag byte: bit0 store, bit1 dep, bit2 same-pc, bits 3.. gap.
        let same_pc = a.pc.0 == last_pc;
        let flags: u64 = (a.kind == AccessKind::Store) as u64
            | ((a.dep == Dep::PrevLoad) as u64) << 1
            | (same_pc as u64) << 2
            | (a.gap as u64) << 3;
        put_varint(&mut out, flags);
        if !same_pc {
            put_varint(
                &mut out,
                zigzag((a.pc.0 as i64).wrapping_sub(last_pc as i64)),
            );
            last_pc = a.pc.0;
        }
        let prev = last_addr.entry(a.pc.0).or_insert(0);
        let delta = (a.addr.0 as i64).wrapping_sub(*prev);
        put_varint(&mut out, zigzag(delta));
        *prev = a.addr.0 as i64;
    }
    out
}

/// Deserializes a trace from bytes.
///
/// The decoder is hardened for **untrusted input** (`tpcli inspect`
/// loads whatever file it is given, through [`load`]): every length field
/// is validated against the bytes actually present before any
/// allocation, so a hostile header can neither panic the process nor
/// make it overallocate, and all delta reconstruction uses wrapping
/// arithmetic so adversarial deltas cannot trip debug overflow checks.
/// Gaps above [`MAX_GAP`] saturate, as [`TraceBuilder::push`] does.
///
/// # Errors
/// Returns a [`DecodeError`] on malformed input; never panics.
pub fn from_bytes(buf: &[u8]) -> Result<Trace, DecodeError> {
    if buf.len() < 4 || &buf[..4] != MAGIC {
        return Err(DecodeError::BadMagic);
    }
    let mut pos = 4;
    let suite = match *buf.get(pos).ok_or(DecodeError::Truncated)? {
        0 => Suite::Spec06,
        1 => Suite::Spec17,
        2 => Suite::Gap,
        t => return Err(DecodeError::BadTag(t)),
    };
    pos += 1;
    let name_len = get_varint(buf, &mut pos)? as usize;
    // `pos + name_len` must not overflow usize (32-bit hosts) and the
    // name must be fully present before slicing.
    let name_end = pos.checked_add(name_len).ok_or(DecodeError::Truncated)?;
    let name_bytes = buf.get(pos..name_end).ok_or(DecodeError::Truncated)?;
    let name = std::str::from_utf8(name_bytes)
        .map_err(|_| DecodeError::BadName)?
        .to_string();
    pos = name_end;
    let count = get_varint(buf, &mut pos)? as usize;

    // Every access costs at least two bytes (a flags varint and an
    // address-delta varint), so a count claiming more records than the
    // remaining bytes could possibly hold is hostile or truncated.
    // Rejecting it here spares decoding a prefix of a forged 2^60-record
    // trace; the builder below only grows with records actually read.
    let remaining = buf.len() - pos;
    if count > remaining / 2 {
        return Err(DecodeError::Truncated);
    }

    let mut b = TraceBuilder::new(name, suite);
    let mut last_pc = 0u64;
    let mut last_addr: std::collections::HashMap<u64, i64> = std::collections::HashMap::new();
    for _ in 0..count {
        let flags = get_varint(buf, &mut pos)?;
        let kind = if flags & 1 != 0 {
            AccessKind::Store
        } else {
            AccessKind::Load
        };
        let dep = if flags & 2 != 0 {
            Dep::PrevLoad
        } else {
            Dep::None
        };
        let pc = if flags & 4 != 0 {
            last_pc
        } else {
            let d = unzigzag(get_varint(buf, &mut pos)?);
            last_pc = (last_pc as i64).wrapping_add(d) as u64;
            last_pc
        };
        // Saturate as `TraceBuilder::push` does (a cast wraps mod 2^32).
        let gap = (flags >> 3).min(u64::from(MAX_GAP)) as u32;
        let delta = unzigzag(get_varint(buf, &mut pos)?);
        let prev = last_addr.entry(pc).or_insert(0);
        let addr = (*prev).wrapping_add(delta) as u64;
        *prev = addr as i64;
        b.push(Access {
            pc: Pc(pc),
            addr: Addr(addr),
            kind,
            dep,
            gap,
        });
    }
    Ok(b.finish())
}

/// Writes a trace to a file.
///
/// # Errors
/// Propagates I/O errors.
pub fn save(trace: &Trace, path: impl AsRef<std::path::Path>) -> std::io::Result<()> {
    std::fs::write(path, to_bytes(trace))
}

/// Reads a trace from a file.
///
/// # Errors
/// Propagates I/O errors; decode failures surface as
/// [`std::io::ErrorKind::InvalidData`].
pub fn load(path: impl AsRef<std::path::Path>) -> std::io::Result<Trace> {
    let bytes = std::fs::read(path)?;
    from_bytes(&bytes)
        .map_err(|e| std::io::Error::new(std::io::ErrorKind::InvalidData, e.to_string()))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::workloads::{by_name, Scale};

    #[test]
    fn round_trips_a_generated_trace() {
        let t = by_name("spec06.bzip2").unwrap().generate(Scale::Test);
        let bytes = to_bytes(&t);
        let back = from_bytes(&bytes).unwrap();
        assert_eq!(t.name(), back.name());
        assert_eq!(t.suite(), back.suite());
        assert_eq!(t.accesses(), back.accesses());
    }

    #[test]
    fn compression_beats_naive_encoding() {
        let t = by_name("spec06.libquantum").unwrap().generate(Scale::Test);
        let bytes = to_bytes(&t);
        // Naive: 8B pc + 8B addr + 1B kind + 4B gap per access.
        let naive = t.len() * 21;
        assert!(
            bytes.len() * 3 < naive,
            "compression too weak: {} vs naive {naive}",
            bytes.len()
        );
    }

    #[test]
    fn bad_magic_is_rejected() {
        assert_eq!(from_bytes(b"NOPE").unwrap_err(), DecodeError::BadMagic);
        assert_eq!(from_bytes(b"TP"), Err(DecodeError::BadMagic));
    }

    #[test]
    fn truncated_buffers_are_rejected() {
        let t = by_name("gap.tc").unwrap().generate(Scale::Test);
        let bytes = to_bytes(&t);
        for cut in [5usize, 10, bytes.len() / 2] {
            let r = from_bytes(&bytes[..cut]);
            assert!(r.is_err(), "cut at {cut} should fail");
        }
    }

    #[test]
    fn bad_suite_tag_is_rejected() {
        let mut bytes = to_bytes(&by_name("gap.tc").unwrap().generate(Scale::Test));
        bytes[4] = 9;
        assert_eq!(from_bytes(&bytes).unwrap_err(), DecodeError::BadTag(9));
    }

    #[test]
    fn file_round_trip() {
        let t = by_name("gap.tc").unwrap().generate(Scale::Test);
        let dir = std::env::temp_dir().join("tptrace_io_test.tpt");
        save(&t, &dir).unwrap();
        let back = load(&dir).unwrap();
        assert_eq!(t.accesses(), back.accesses());
        let _ = std::fs::remove_file(&dir);
    }
}
