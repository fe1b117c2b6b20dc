//! Fuzzing the trace decoder with hostile input.
//!
//! `tptrace::io::from_bytes` is the one boundary where serialized bytes
//! from outside the process (trace files on disk, which `tpcli inspect`
//! loads through `io::load`) become in-memory structures, so it must be total:
//! for *any* byte string it either returns a decoded trace or a
//! [`DecodeError`](tptrace::io::DecodeError) — never a panic, never an
//! attacker-sized allocation. These properties drive the decoder with
//! random truncations, flipped bytes, and forged length fields. The
//! tests run in debug mode, so arithmetic overflow and capacity bugs
//! that would be silent in release abort the property immediately.

use tptrace::io::{from_bytes, to_bytes, DecodeError};
use tptrace::record::{Access, AccessKind, Addr, Dep, Pc};
use tptrace::trace::MAX_GAP;
use tptrace::{Suite, Trace};

/// A random but *valid* trace: arbitrary 64-bit PCs and addresses
/// (including top-bit-set values that stress the delta arithmetic),
/// random kinds/deps/gaps.
fn random_trace(g: &mut tpcheck::Gen) -> Trace {
    let accesses = g.vec(0..64, |g| Access {
        pc: Pc(g.next_u64()),
        addr: Addr(g.next_u64()),
        kind: if g.bool() {
            AccessKind::Store
        } else {
            AccessKind::Load
        },
        dep: if g.bool() { Dep::PrevLoad } else { Dep::None },
        gap: g.u64_in(0..1 << 20) as u32,
    });
    let suite = match g.u64_in(0..3) {
        0 => Suite::Spec06,
        1 => Suite::Spec17,
        _ => Suite::Gap,
    };
    Trace::new("fuzz", suite, accesses)
}

#[test]
fn round_trips_arbitrary_addresses_and_pcs() {
    tpcheck::check("io round-trip on hostile-shaped traces", 128, |g| {
        let t = random_trace(g);
        let bytes = to_bytes(&t);
        let back = from_bytes(&bytes).map_err(|e| format!("decode failed: {e}"))?;
        tpcheck::ensure!(back.accesses() == t.accesses(), "accesses changed");
        tpcheck::ensure!(back.suite() == t.suite(), "suite changed");
        // The decoder packs through the same builder as `Trace::new`:
        // same PC dictionary, same columns, and the same bytes again.
        tpcheck::ensure!(back == t, "decoded trace differs in its packed columns");
        tpcheck::ensure!(
            to_bytes(&back) == bytes,
            "write -> read -> write changed the bytes"
        );
        Ok(())
    });
}

#[test]
fn random_truncations_never_panic() {
    tpcheck::check("io truncation totality", 128, |g| {
        let bytes = to_bytes(&random_trace(g));
        let cut = g.usize_in(0..bytes.len() + 1);
        // Any prefix must decode cleanly or error cleanly.
        let _ = from_bytes(&bytes[..cut]);
        Ok(())
    });
}

#[test]
fn flipped_bytes_never_panic() {
    tpcheck::check("io bit-flip totality", 256, |g| {
        let mut bytes = to_bytes(&random_trace(g));
        if bytes.is_empty() {
            return Ok(());
        }
        for _ in 0..g.usize_in(1..8) {
            let i = g.usize_in(0..bytes.len());
            bytes[i] ^= g.u64_in(1..256) as u8;
        }
        let _ = from_bytes(&bytes);
        Ok(())
    });
}

#[test]
fn pure_random_bytes_never_panic() {
    tpcheck::check("io garbage totality", 256, |g| {
        let mut bytes = g.vec(0..256, |g| g.next_u64() as u8);
        // Half the cases keep a valid magic so the fuzz reaches the
        // header and record parsing instead of bailing at byte 0.
        if g.bool() && bytes.len() >= 4 {
            bytes[..4].copy_from_slice(b"TPT1");
        }
        let _ = from_bytes(&bytes);
        Ok(())
    });
}

#[test]
fn forged_count_is_rejected_without_overallocating() {
    // Header claims 2^60 accesses backed by almost no bytes. A decoder
    // that trusts the count would try to reserve ~2^64 bytes for the
    // access vector and abort; ours must return Truncated.
    let mut bytes = Vec::new();
    bytes.extend_from_slice(b"TPT1");
    bytes.push(0); // suite
    bytes.push(1); // name_len = 1
    bytes.push(b'x');
    // varint(2^60)
    let mut v: u64 = 1 << 60;
    while v >= 0x80 {
        bytes.push((v & 0x7f) as u8 | 0x80);
        v >>= 7;
    }
    bytes.push(v as u8);
    bytes.push(0); // one stray payload byte
    assert_eq!(from_bytes(&bytes), Err(DecodeError::Truncated));
}

#[test]
fn forged_name_length_is_rejected() {
    tpcheck::check("io forged name length", 64, |g| {
        let mut bytes = Vec::new();
        bytes.extend_from_slice(b"TPT1");
        bytes.push(0);
        // A name length far beyond the buffer (sometimes usize::MAX-ish
        // to probe the overflow path).
        let len: u64 = if g.bool() {
            u64::MAX / 2
        } else {
            g.u64_in(256..1 << 40)
        };
        let mut v = len;
        while v >= 0x80 {
            bytes.push((v & 0x7f) as u8 | 0x80);
            v >>= 7;
        }
        bytes.push(v as u8);
        bytes.extend(g.vec(0..32, |g| g.next_u64() as u8));
        tpcheck::ensure!(
            from_bytes(&bytes) == Err(DecodeError::Truncated),
            "forged name length must be Truncated"
        );
        Ok(())
    });
}

#[test]
fn count_exceeding_payload_bound_is_rejected() {
    // A syntactically valid header whose count is just over the
    // two-bytes-per-access floor must be rejected up front.
    let t = Trace::new("x", Suite::Gap, vec![]);
    let mut bytes = to_bytes(&t);
    // Patch the count varint (last byte of the empty-trace encoding,
    // which is `0`) to claim more accesses than the buffer holds.
    assert_eq!(*bytes.last().unwrap(), 0);
    *bytes.last_mut().unwrap() = 5; // claims 5 accesses, 0 payload bytes
    assert_eq!(from_bytes(&bytes), Err(DecodeError::Truncated));
}

fn put_varint(out: &mut Vec<u8>, mut v: u64) {
    while v >= 0x80 {
        out.push((v & 0x7f) as u8 | 0x80);
        v >>= 7;
    }
    out.push(v as u8);
}

#[test]
fn a_gap_past_u32_saturates_instead_of_wrapping() {
    // One record whose gap bits are 2^32 + 5: flags = gap << 3 with the
    // same-PC bit set (PC 0), then a zero address delta.
    let mut bytes = b"TPT1".to_vec();
    bytes.extend_from_slice(&[2, 1, b'x', 1]); // suite Gap, name "x", 1 access
    put_varint(&mut bytes, (((1u64 << 32) + 5) << 3) | 4);
    put_varint(&mut bytes, 0);
    let t = from_bytes(&bytes).expect("a well-formed record");
    assert_eq!(t.get(0).gap, MAX_GAP, "gap must saturate, not wrap to 5");
    let want = Access {
        gap: MAX_GAP,
        ..Access::load(0, 0)
    };
    assert_eq!(t, Trace::new("x", Suite::Gap, vec![want]));
}

#[test]
fn a_fresh_shape_per_access_round_trips_within_the_old_worst_case() {
    // Every access has a PC and a high address word no other access
    // has, so the shape table holds one entry per access: the most a
    // hostile file can make a decoded trace cost.
    tpcheck::check("io worst-case shape dictionary", 32, |g| {
        let (pc0, step, hi0) = (g.next_u64(), g.next_u64() | 1, g.next_u64());
        let accesses: Vec<Access> = (0..g.u64_in(1..2000))
            .map(|i| Access {
                pc: Pc(pc0.wrapping_add(i.wrapping_mul(step))),
                addr: Addr((hi0.wrapping_add(i << 32) & !0xffff_ffff) | g.u64_in(0..1 << 32)),
                kind: if g.bool() {
                    AccessKind::Store
                } else {
                    AccessKind::Load
                },
                dep: if g.bool() { Dep::PrevLoad } else { Dep::None },
                gap: g.u64_in(0..1 << 20) as u32,
            })
            .collect();
        let t = Trace::new("worst", Suite::Spec17, accesses);
        let bytes = to_bytes(&t);
        let back = from_bytes(&bytes).map_err(|e| format!("decode failed: {e}"))?;
        tpcheck::ensure!(back == t, "decoded trace differs");
        tpcheck::ensure!(
            to_bytes(&back) == bytes,
            "write -> read -> write changed the bytes"
        );
        // Past 256 shapes the index column is widened to 4 B: 8 B of
        // columns plus a 16 B shape per access, the 16 B columns plus
        // 8 B PC entry per access this layout's predecessor cost.
        let fixed = std::mem::size_of::<Trace>() + back.name().len();
        let (resident, len) = (back.resident_bytes(), back.len());
        tpcheck::ensure!(
            resident <= 24 * len + fixed,
            "{resident} resident bytes for {len} accesses exceeds 24 B/access"
        );
        Ok(())
    });
}
