//! The evolving-skew online stream of the paper's Fig. 9.

use hls_sim::{Cycle, RateLimiter, StreamSource};
use sketches::hash::splitmix64;

use crate::{Tuple, ZipfGenerator};

/// A rate-limited, never-ending tuple stream whose skew *rotates*: the rank
/// distribution is a fixed Zipf(α), but the rank→key mapping is re-salted
/// every `interval_cycles`, so the hot keys — and therefore the overloaded
/// PEs — change each epoch.
///
/// This reproduces the paper's Fig. 9 methodology: "We set the Zipf factor
/// to three and vary the seeds of the dataset generator for generating
/// different workload distributions. The memory interface is used to
/// simulate the 100 Gbps network interface."
///
/// # Example
///
/// ```
/// use datagen::EvolvingZipfStream;
/// use hls_sim::StreamSource;
///
/// // 8 tuples/cycle, epoch rotates every 1000 cycles.
/// let mut s = EvolvingZipfStream::new(3.0, 1 << 16, 99, 1000, 8.0, Some(50_000));
/// let mut out = Vec::new();
/// s.pull(1, 64, &mut out);
/// assert!(!out.is_empty());
/// assert_eq!(s.epoch_at(999), 0);
/// assert_eq!(s.epoch_at(1000), 1);
/// ```
#[derive(Debug)]
pub struct EvolvingZipfStream {
    ranks: ZipfGenerator,
    base_seed: u64,
    interval_cycles: u64,
    limiter: RateLimiter,
    produced: u64,
    limit: Option<u64>,
    epochs_seen: u64,
}

impl EvolvingZipfStream {
    /// Creates a stream with Zipf factor `alpha` over `universe` keys.
    ///
    /// * `interval_cycles` — hot-set rotation period Δt, in cycles;
    /// * `rate` — average tuples per cycle the "network" delivers;
    /// * `limit` — optional total tuple budget (`None` = unbounded).
    ///
    /// # Panics
    ///
    /// Panics if `interval_cycles` is zero, or on invalid `alpha`/`universe`
    /// (see [`ZipfGenerator::new`]) or `rate` (see [`RateLimiter::new`]).
    pub fn new(
        alpha: f64,
        universe: u64,
        base_seed: u64,
        interval_cycles: u64,
        rate: f64,
        limit: Option<u64>,
    ) -> Self {
        assert!(interval_cycles > 0, "rotation interval must be nonzero");
        EvolvingZipfStream {
            ranks: ZipfGenerator::new(alpha, universe, base_seed),
            base_seed,
            interval_cycles,
            limiter: RateLimiter::new(rate, rate.ceil() as usize * 2),
            produced: 0,
            limit,
            epochs_seen: 0,
        }
    }

    /// The epoch index active at cycle `cy`.
    pub fn epoch_at(&self, cy: Cycle) -> u64 {
        cy / self.interval_cycles
    }

    /// The rank→key salt for `epoch`.
    fn salt(&self, epoch: u64) -> u64 {
        splitmix64(self.base_seed.wrapping_add(epoch.wrapping_mul(0x9e37_79b9)))
    }

    /// The hot key (rank 1) during `epoch` — used by tests and by the Fig. 9
    /// harness to verify that the hot PE moves.
    pub fn hot_key(&self, epoch: u64) -> u64 {
        splitmix64(1 ^ self.salt(epoch))
    }

    /// Number of distinct epochs that produced at least one tuple.
    pub fn epochs_seen(&self) -> u64 {
        self.epochs_seen
    }

    /// The rotation interval in cycles.
    pub fn interval_cycles(&self) -> u64 {
        self.interval_cycles
    }
}

impl StreamSource<Tuple> for EvolvingZipfStream {
    fn pull(&mut self, cy: Cycle, max: usize, out: &mut Vec<Tuple>) -> usize {
        if self.exhausted() {
            return 0;
        }
        let budget = match self.limit {
            Some(l) => ((l - self.produced) as usize).min(max),
            None => max,
        };
        let granted = self.limiter.grant(cy, budget);
        if granted == 0 {
            return 0;
        }
        let epoch = self.epoch_at(cy);
        self.epochs_seen = self.epochs_seen.max(epoch + 1);
        let salt = self.salt(epoch);
        for _ in 0..granted {
            let rank = self.ranks.next_rank();
            out.push(Tuple::new(splitmix64(rank ^ salt), rank));
        }
        self.produced += granted as u64;
        granted
    }

    fn exhausted(&self) -> bool {
        matches!(self.limit, Some(l) if self.produced >= l)
    }

    fn produced(&self) -> u64 {
        self.produced
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn drain(s: &mut EvolvingZipfStream, upto_cycle: u64) -> Vec<(Cycle, Tuple)> {
        let mut all = Vec::new();
        let mut buf = Vec::new();
        for cy in 0..upto_cycle {
            buf.clear();
            s.pull(cy, 64, &mut buf);
            for &t in &buf {
                all.push((cy, t));
            }
        }
        all
    }

    #[test]
    fn respects_rate_limit() {
        let mut s = EvolvingZipfStream::new(3.0, 1 << 12, 1, 100, 2.0, None);
        let got = drain(&mut s, 1000).len();
        // 2 tuples/cycle over 1000 cycles, small slack for the initial burst.
        assert!((1990..=2010).contains(&got), "{got}");
    }

    #[test]
    fn hot_key_rotates_each_epoch() {
        let s = EvolvingZipfStream::new(3.0, 1 << 12, 5, 1000, 8.0, None);
        let h0 = s.hot_key(0);
        let h1 = s.hot_key(1);
        let h2 = s.hot_key(2);
        assert_ne!(h0, h1);
        assert_ne!(h1, h2);
    }

    #[test]
    fn dominant_key_matches_epoch_hot_key() {
        let mut s = EvolvingZipfStream::new(3.0, 1 << 16, 9, 10_000, 8.0, None);
        let tuples = drain(&mut s, 5_000); // stays within epoch 0
        let hot = s.hot_key(0);
        let share =
            tuples.iter().filter(|(_, t)| t.key == hot).count() as f64 / tuples.len() as f64;
        assert!(share > 0.7, "hot share {share}");
    }

    #[test]
    fn limit_bounds_production() {
        let mut s = EvolvingZipfStream::new(1.0, 256, 2, 10, 8.0, Some(100));
        let got = drain(&mut s, 1000).len();
        assert_eq!(got, 100);
        assert!(s.exhausted());
        assert_eq!(s.produced(), 100);
    }

    #[test]
    fn debug_does_not_dump_the_table() {
        let s = EvolvingZipfStream::new(3.0, 1 << 22, 1, 80_000, 8.0, None);
        let text = format!("{s:?}");
        assert!(text.len() < 512, "{} bytes: {text}", text.len());
    }

    #[test]
    fn epochs_seen_counts_rotations() {
        let mut s = EvolvingZipfStream::new(2.0, 256, 3, 50, 1.0, None);
        drain(&mut s, 500);
        assert_eq!(s.epochs_seen(), 10);
    }
}
