//! Tag rows: one-byte fingerprints searched eight at a time.
//!
//! The hardware being modelled compares every tag of a set at once; a
//! way-by-way loop spends two data-dependent branches per way instead. A
//! tag row is the set's occupancy record and a filter in front of its
//! full tags, one byte per slot: `0` when the slot is empty, otherwise
//! [`fingerprint`] of the slot's full key. [`find`] compares eight bytes
//! per step and offers each candidate to the caller, who checks the full
//! key — the short-fingerprint-then-verify bucket probe of a cuckoo
//! filter. A fingerprint only ever rules slots out, so no lookup result
//! can depend on it.

/// `0x01` in every byte.
const LANES: u64 = 0x0101_0101_0101_0101;
/// The top bit of every byte.
const TOPS: u64 = 0x8080_8080_8080_8080;

/// The row byte of an occupied slot holding `key`: the top byte of a
/// Fibonacci multiply, forced odd so that it is never the empty byte.
#[inline]
pub fn fingerprint(key: u64) -> u8 {
    (key.wrapping_mul(0x9e37_79b9_7f4a_7c15) >> 56) as u8 | 1
}

/// Bit `8j + 7` is set for every `j` with `row[base + j] == byte`, and
/// for no `j` at or past the end of the row. Bytes above a match may be
/// flagged too (the subtraction's borrow); the lowest flag is exact.
#[inline]
fn flags(row: &[u8], base: usize, byte: u8) -> u64 {
    let (word, live) = match row.get(base..base + 8) {
        Some(w) => (
            u64::from_le_bytes(w.try_into().expect("eight bytes")),
            u64::MAX,
        ),
        None => {
            let tail = &row[base..];
            let word = tail.iter().rev().fold(0, |w, &b| w << 8 | u64::from(b));
            (word, !(u64::MAX << (8 * tail.len())))
        }
    };
    let x = word ^ (u64::from(byte) * LANES);
    x.wrapping_sub(LANES) & !x & TOPS & live
}

/// The first slot of `row` whose byte is `fp` and that `verify` accepts.
/// `verify` sees exactly the slots whose byte is `fp`, in ascending
/// order, until it accepts one.
#[inline]
pub fn find(row: &[u8], fp: u8, mut verify: impl FnMut(usize) -> bool) -> Option<usize> {
    for base in (0..row.len()).step_by(8) {
        let mut m = flags(row, base, fp);
        while m != 0 {
            let slot = base + m.trailing_zeros() as usize / 8;
            // A flag above a match may be the borrow's, not a match.
            if row[slot] == fp && verify(slot) {
                return Some(slot);
            }
            m &= m - 1;
        }
    }
    None
}

/// The first empty slot of `row`.
#[inline]
pub fn first_empty(row: &[u8]) -> Option<usize> {
    (0..row.len()).step_by(8).find_map(|base| {
        let m = flags(row, base, 0);
        (m != 0).then(|| base + m.trailing_zeros() as usize / 8)
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn a_fingerprint_is_never_the_empty_byte() {
        tpcheck::check("fingerprint != 0", 4096, |g| {
            let key = g.next_u64();
            tpcheck::ensure!(fingerprint(key) != 0, "key {key:#x}");
            Ok(())
        });
        assert_ne!(fingerprint(0), 0);
        // The byte depends on the high half of the product: keys a set
        // apart (equal low bits) still spread.
        let distinct: std::collections::HashSet<u8> =
            (0..256u64).map(|i| fingerprint(i << 11)).collect();
        assert!(
            distinct.len() > 64,
            "{} distinct fingerprints",
            distinct.len()
        );
    }

    /// For every byte and every row length 0–24: the slots offered are
    /// exactly the slots holding the byte, in ascending order — none
    /// past the row's end, and never an empty slot for a fingerprint;
    /// the first accepted one is returned; `first_empty` is the first
    /// zero byte.
    #[test]
    fn find_offers_exactly_the_matches_in_order_and_first_empty_is_exact() {
        tpcheck::check("tagrow::find vs position", 64, |g| {
            for len in 0..=24usize {
                // Few distinct byte values, 0 and 1 among them, so rows
                // hold runs of matches, empties and borrow neighbours.
                let palette = [0u8, 1, 2, 0x7f, 0x80, 0x81, 0xff, g.next_u64() as u8];
                let row: Vec<u8> = (0..len).map(|_| palette[g.usize_in(0..8)]).collect();
                for fp in 0..=255u8 {
                    let mut offered = Vec::new();
                    let none = find(&row, fp, |i| {
                        offered.push(i);
                        false
                    });
                    tpcheck::ensure!(none.is_none(), "nothing accepted, {none:?} returned");
                    let exact: Vec<usize> = (0..len).filter(|&i| row[i] == fp).collect();
                    tpcheck::ensure!(
                        offered == exact,
                        "row {row:?} fp {fp}: offered {offered:?}, matches {exact:?}"
                    );
                    // Accepting everything makes `find` a `position`.
                    let got = find(&row, fp, |_| true);
                    tpcheck::ensure!(
                        got == exact.first().copied(),
                        "row {row:?} fp {fp}: {got:?}"
                    );
                    // Rejecting the first match moves on to the second.
                    let second = find(&row, fp, |i| Some(&i) != exact.first());
                    tpcheck::ensure!(
                        second == exact.get(1).copied(),
                        "row {row:?} fp {fp}: {second:?}"
                    );
                }
                let want = row.iter().position(|&b| b == 0);
                tpcheck::ensure!(
                    first_empty(&row) == want,
                    "row {row:?}: {:?}",
                    first_empty(&row)
                );
            }
            Ok(())
        });
    }
}
