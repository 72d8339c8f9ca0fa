//! Morton (Z-order) keys.
//!
//! A Morton key bit-interleaves the quantized coordinates of a point, so
//! the points of any aligned grid cell occupy one contiguous range of the
//! sorted keys ([ORE 86]). sjpl-core's sorted-Morton BOPS engine sorts the
//! keys once and reads every coarser grid level off them by truncation.

/// An unsigned integer wide enough to hold `D · bits` interleaved bits —
/// the key type of a Morton (Z-order) code. Implemented for `u64` and
/// `u128`; callers pick the narrowest type that fits so the hot sort/scan
/// paths avoid 128-bit arithmetic when 64 bits suffice (e.g. the BOPS
/// sorted-Morton engine in `sjpl-core`).
pub trait MortonKey: Copy + Ord + Send + Sync + Default {
    /// Total key width in bits.
    const WIDTH: u32;

    /// Bit-interleaves `idx` (low `bits` bits of each axis), axis 0 in the
    /// most significant position of each digit, so cells that share a
    /// coarser-grid ancestor share a key prefix.
    fn interleave<const D: usize>(idx: &[u32; D], bits: u32) -> Self;

    /// Logical shift right — truncating a key by `D·k` bits yields the key
    /// of the enclosing cell `k` dyadic levels coarser.
    fn shr(self, shift: u32) -> Self;
}

/// Spreads the low 32 bits of `x` so a zero bit separates consecutive
/// bits ("Part1By1" magic masks) — the 2-d interleave building block.
#[inline]
fn spread_bits_2d(x: u64) -> u64 {
    let mut x = x & 0xffff_ffff;
    x = (x | (x << 16)) & 0x0000_ffff_0000_ffff;
    x = (x | (x << 8)) & 0x00ff_00ff_00ff_00ff;
    x = (x | (x << 4)) & 0x0f0f_0f0f_0f0f_0f0f;
    x = (x | (x << 2)) & 0x3333_3333_3333_3333;
    (x | (x << 1)) & 0x5555_5555_5555_5555
}

/// Generic bit-by-bit interleave, shared by both key widths.
#[inline]
fn interleave_loop<const D: usize>(idx: &[u32; D], bits: u32) -> u128 {
    let mut key = 0u128;
    for bit in (0..bits).rev() {
        for &v in idx.iter() {
            key = (key << 1) | (((v >> bit) & 1) as u128);
        }
    }
    key
}

impl MortonKey for u64 {
    const WIDTH: u32 = 64;

    #[inline]
    fn interleave<const D: usize>(idx: &[u32; D], bits: u32) -> u64 {
        debug_assert!(D as u32 * bits <= 64);
        match D {
            1 => idx[0] as u64,
            // Axis 0 occupies the higher bit of each 2-bit digit.
            2 => (spread_bits_2d(idx[0] as u64) << 1) | spread_bits_2d(idx[1] as u64),
            _ => interleave_loop(idx, bits) as u64,
        }
    }

    #[inline]
    fn shr(self, shift: u32) -> u64 {
        self >> shift
    }
}

impl MortonKey for u128 {
    const WIDTH: u32 = 128;

    #[inline]
    fn interleave<const D: usize>(idx: &[u32; D], bits: u32) -> u128 {
        debug_assert!(D as u32 * bits <= 128);
        interleave_loop(idx, bits)
    }

    #[inline]
    fn shr(self, shift: u32) -> u128 {
        self >> shift
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::{Rng, SeedableRng};

    /// Random cell coordinates that fit in `bits` bits per axis.
    fn random_idx<const D: usize>(rng: &mut StdRng, bits: u32) -> [u32; D] {
        let mask = ((1u64 << bits) - 1) as u32;
        let mut idx = [0u32; D];
        for v in idx.iter_mut() {
            *v = rng.gen::<u32>() & mask;
        }
        idx
    }

    /// The cell coordinates of `p` (in `[0, 1)^D`) on a grid of `2^bits`
    /// cells per axis.
    fn quantize<const D: usize>(p: &[f64; D], bits: u32) -> [u32; D] {
        let cells = (1u64 << bits) as f64;
        let mut idx = [0u32; D];
        for (v, &x) in idx.iter_mut().zip(p) {
            *v = (x * cells) as u32;
        }
        idx
    }

    fn u64_matches_u128<const D: usize>(seed: u64) {
        let mut rng = StdRng::seed_from_u64(seed);
        for bits in 0..=(64 / D as u32).min(32) {
            for _ in 0..200 {
                let idx = random_idx::<D>(&mut rng, bits);
                assert_eq!(
                    u64::interleave(&idx, bits) as u128,
                    u128::interleave(&idx, bits),
                    "D {D} bits {bits} idx {idx:?}"
                );
            }
        }
    }

    #[test]
    fn u64_keys_equal_u128_keys_when_they_fit() {
        // D = 1 and D = 2 take the u64 fast paths (identity, Part1By1);
        // D = 3 takes the shared loop.
        u64_matches_u128::<1>(1);
        u64_matches_u128::<2>(2);
        u64_matches_u128::<3>(3);
    }

    fn shift_is_coarser_level<K: MortonKey + std::fmt::Debug, const D: usize>(
        bits: u32,
        seed: u64,
    ) {
        let mut rng = StdRng::seed_from_u64(seed);
        for _ in 0..200 {
            let mut p = [0.0f64; D];
            for x in p.iter_mut() {
                *x = rng.gen();
            }
            let fine = K::interleave(&quantize(&p, bits), bits);
            // Stop short of shifting by the whole key width.
            for k in (0..=bits).take_while(|k| D as u32 * k < K::WIDTH) {
                let coarse = K::interleave(&quantize(&p, bits - k), bits - k);
                assert_eq!(fine.shr(D as u32 * k), coarse, "D {D} bits {bits} k {k}");
            }
        }
    }

    #[test]
    fn shifting_a_key_gives_the_coarser_cell_key() {
        shift_is_coarser_level::<u64, 1>(32, 4);
        shift_is_coarser_level::<u64, 2>(32, 5);
        shift_is_coarser_level::<u64, 3>(21, 6);
        shift_is_coarser_level::<u128, 2>(32, 7);
        shift_is_coarser_level::<u128, 3>(32, 8);
        shift_is_coarser_level::<u128, 16>(8, 9);
    }

    #[test]
    fn axis_zero_is_the_high_bit_of_each_digit() {
        // (lo,lo) < (lo,hi) < (hi,lo) < (hi,hi) with one bit per axis.
        let k = |x: u32, y: u32| u64::interleave(&[x, y], 1);
        assert_eq!([k(0, 0), k(0, 1), k(1, 0), k(1, 1)], [0, 1, 2, 3]);
    }
}
