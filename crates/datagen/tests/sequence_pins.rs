//! The generated sequences, pinned by value. Every simulated count and
//! golden in the workspace stands on these streams, so a change to how a
//! rank is drawn must leave each of these hashes unmodified. The values
//! were computed with the whole-table CDF search of 4b9b2b3.

use datagen::{EvolvingZipfStream, Tuple, ZipfGenerator};
use hls_sim::StreamSource;

fn fold(acc: u64, t: Tuple) -> u64 {
    (acc.rotate_left(23) ^ t.key ^ t.value.wrapping_mul(0x9e37_79b9_7f4a_7c15))
        .wrapping_mul(0xbf58_476d_1ce4_e5b9)
}

fn first_million(alpha: f64, universe: u64, seed: u64) -> u64 {
    ZipfGenerator::new(alpha, universe, seed)
        .take(1_000_000)
        .fold(0, fold)
}

#[test]
fn zipf_sequences_are_pinned() {
    assert_eq!(first_million(3.0, 1 << 22, 1), 0x182f_ddba_8e53_82e2);
    assert_eq!(first_million(1.0, 1 << 18, 9001), 0xbd98_37ec_b8f2_89d7);
    assert_eq!(first_million(0.0, 1000, 5), 0x3e32_7c2c_f0aa_7228);
}

/// The Fig. 9 stream over 200 000 cycles, across two hot-set rotations.
#[test]
fn evolving_stream_is_pinned() {
    let mut s = EvolvingZipfStream::new(3.0, 1 << 22, 1, 80_000, 8.0, None);
    let (mut acc, mut pulled) = (0, 0);
    let mut buf = Vec::new();
    for cy in 0..200_000 {
        buf.clear();
        pulled += s.pull(cy, 64, &mut buf);
        acc = buf.iter().copied().fold(acc, fold);
    }
    assert_eq!((pulled, s.epochs_seen()), (1_600_000, 3));
    assert_eq!(acc, 0x3a65_8d10_42aa_96f0);
}
