//! The decoder's preset mask table (§IV-C1).
//!
//! The paper's decoder "generates an N bits mask code, which marks the
//! tuples to be processed. It then outputs the positions and the number of
//! tuples to be processed according to a preset table with the mask code as
//! input." This module materialises exactly that table: indexed by the
//! N-bit mask, each entry stores the count and slot positions, so the
//! filter's extraction is a single lookup — the property that lets the
//! hardware run at II = 1.

/// Preset decode table for wide words of up to `N` slots.
///
/// # Example
///
/// ```
/// use ditto_core::MaskTable;
///
/// let table = MaskTable::new(4);
/// let (count, positions) = table.decode(0b1010);
/// assert_eq!(count, 2);
/// assert_eq!(&positions[..2], &[1, 3]);
/// ```
#[derive(Debug, Clone)]
pub struct MaskTable {
    n: u32,
    /// `counts[mask]` = number of set bits.
    counts: Vec<u8>,
    /// `positions[mask * n .. mask * n + counts[mask]]` = set-bit indices.
    positions: Vec<u8>,
}

/// Largest lane count for which the full 2^N table is materialised; wider
/// words would need a hierarchical decoder in hardware too.
pub const MAX_TABLE_LANES: u32 = 16;

impl MaskTable {
    /// Builds the table for `n`-slot wide words.
    ///
    /// # Panics
    ///
    /// Panics unless `1 <= n <= 16` (a 2^16-entry table is the largest a
    /// single BRAM-backed decoder stage would realistically hold).
    pub fn new(n: u32) -> Self {
        assert!(
            (1..=MAX_TABLE_LANES).contains(&n),
            "mask table supports 1..=16 lanes"
        );
        let entries = 1usize << n;
        let mut counts = vec![0u8; entries];
        let mut positions = vec![0u8; entries * n as usize];
        for mask in 0..entries {
            let mut c = 0u8;
            for bit in 0..n {
                if mask & (1 << bit) != 0 {
                    positions[mask * n as usize + c as usize] = bit as u8;
                    c += 1;
                }
            }
            counts[mask] = c;
        }
        MaskTable {
            n,
            counts,
            positions,
        }
    }

    /// Lane count N.
    pub fn lanes(&self) -> u32 {
        self.n
    }

    /// Looks up `(count, positions)` for `mask`; `positions` has `n` slots,
    /// of which the first `count` are valid.
    ///
    /// # Panics
    ///
    /// Panics if `mask` has bits above lane `n`.
    pub fn decode(&self, mask: u32) -> (u8, &[u8]) {
        assert!(mask < (1u32 << self.n), "mask wider than table");
        let m = mask as usize;
        (
            self.counts[m],
            &self.positions[m * self.n as usize..(m + 1) * self.n as usize],
        )
    }

    /// Number of table entries (2^N) — feeds the resource model.
    pub fn entries(&self) -> usize {
        self.counts.len()
    }
}

/// The low `n` bits set (`n <= 64`).
pub(crate) fn mask_of(n: usize) -> u64 {
    if n == 0 {
        0
    } else {
        u64::MAX >> (64 - n)
    }
}

/// Iterates the indices of the set bits of `mask`, lowest first.
pub(crate) fn bits(mut mask: u64) -> impl Iterator<Item = usize> {
    std::iter::from_fn(move || {
        (mask != 0).then(|| {
            let i = mask.trailing_zeros() as usize;
            mask &= mask - 1;
            i
        })
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn decodes_all_masks_for_small_n() {
        let t = MaskTable::new(6);
        for mask in 0u32..64 {
            let (count, pos) = t.decode(mask);
            assert_eq!(u32::from(count), mask.count_ones());
            for &p in &pos[..count as usize] {
                assert!(mask & (1 << p) != 0, "mask {mask:#b} pos {p}");
            }
            // positions are strictly increasing
            for w in pos[..count as usize].windows(2) {
                assert!(w[0] < w[1]);
            }
        }
    }

    #[test]
    fn full_and_empty_masks() {
        let t = MaskTable::new(8);
        assert_eq!(t.decode(0).0, 0);
        let (c, p) = t.decode(0xff);
        assert_eq!(c, 8);
        assert_eq!(&p[..8], &[0, 1, 2, 3, 4, 5, 6, 7]);
    }

    #[test]
    fn entries_scale_with_lanes() {
        assert_eq!(MaskTable::new(4).entries(), 16);
        assert_eq!(MaskTable::new(8).entries(), 256);
    }

    #[test]
    #[should_panic(expected = "wider than table")]
    fn wide_mask_rejected() {
        MaskTable::new(4).decode(0x10);
    }
}
