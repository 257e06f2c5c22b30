//! The skew-aware shard balancer.
//!
//! The paper's runtime profiler detects hot *PEs* from live workload
//! counters and reschedules SecPEs (§IV-B); the balancer lifts the same
//! loop one level up: it watches per-shard processed-tuple windows (summed
//! from each shard's per-PE counters), runs the skew analyzer's Equation 2
//! ([`SkewAnalyzer::recommend_from_workloads`]) over the *shard* population
//! to decide whether the cluster is skewed, smooths the signal with the
//! [`StreamSkewPredictor`], and when skew persists migrates hash slots from
//! the hottest shard to the coldest.
//!
//! Migration granularity matters: a single hot *key* cannot be split by
//! routing (all its tuples share one slot) — absorbing intra-shard key skew
//! is the job of each shard's own SecPEs, exactly as in the paper. What the
//! balancer fixes is the *shard-level* skew of everything else: it moves the
//! heaviest movable slots off the overloaded shard until its expected load
//! is back near the cluster mean.

use ditto_core::SkewAnalyzer;

use crate::predictor::StreamSkewPredictor;
use crate::router::{RoutingTable, SlotMove};

/// Balancer tuning.
#[derive(Debug, Clone)]
pub struct BalancerConfig {
    /// Equation 2 tolerance at shard granularity (the paper's PE-level
    /// evaluation uses 0.01; shards are coarser, so the default accepts a
    /// 25 % overshoot before declaring skew).
    pub tolerance: f64,
    /// EWMA smoothing factor of the skew predictor, in `(0, 1]`.
    pub alpha: f64,
    /// Predictor safety margin in standard deviations.
    pub margin_sigmas: f64,
    /// Ignore observation windows smaller than this many tuples (sampling
    /// noise guard on top of the analyzer's own 3σ floor).
    pub min_window_tuples: u64,
    /// Maximum slot moves per rebalance round.
    pub max_moves: usize,
}

impl Default for BalancerConfig {
    fn default() -> Self {
        BalancerConfig {
            tolerance: 0.25,
            alpha: 0.5,
            margin_sigmas: 1.0,
            min_window_tuples: 256,
            max_moves: 8,
        }
    }
}

/// Decides slot migrations from live shard-load windows.
pub struct ShardBalancer {
    config: BalancerConfig,
    analyzer: SkewAnalyzer,
    predictor: StreamSkewPredictor,
    shards: u32,
    migrations: u64,
}

impl ShardBalancer {
    /// Creates a balancer for a `shards`-shard cluster.
    ///
    /// # Panics
    ///
    /// Panics if `shards` is zero or the config's `alpha`/`margin_sigmas`
    /// are out of range (see [`StreamSkewPredictor::new`]).
    pub fn new(shards: usize, config: BalancerConfig) -> Self {
        assert!(shards > 0, "need at least one shard");
        let shards = shards as u32;
        ShardBalancer {
            analyzer: SkewAnalyzer::new(1.0, config.tolerance, 0),
            predictor: StreamSkewPredictor::new(shards, config.alpha, config.margin_sigmas),
            config,
            shards,
            migrations: 0,
        }
    }

    /// Slot moves applied so far.
    pub fn migrations(&self) -> u64 {
        self.migrations
    }

    /// Observations fed to the predictor so far.
    pub fn observations(&self) -> u64 {
        self.predictor.observations()
    }

    /// One balancing round: observe this window's per-shard processed
    /// counts, and if skew persists return the slot moves to apply — all
    /// off the round's one hot shard.
    ///
    /// `shard_window` holds tuples processed per shard since the last round
    /// (from the shards' live per-PE counters); `table` supplies per-slot
    /// admitted loads for choosing *which* slots to move. The caller applies
    /// the returned moves to its routing table; this method already counts
    /// them as migrations.
    ///
    /// # Panics
    ///
    /// Panics if `shard_window` length differs from the configured shard
    /// count.
    pub fn rebalance(&mut self, shard_window: &[u64], table: &mut RoutingTable) -> Vec<SlotMove> {
        assert_eq!(
            shard_window.len(),
            self.shards as usize,
            "one load entry per shard"
        );
        let total: u64 = shard_window.iter().sum();
        let slot_window = table.take_window();
        if total < self.config.min_window_tuples {
            return Vec::new();
        }
        self.predictor.observe_workloads(shard_window);
        let immediate = self
            .analyzer
            .recommend_from_workloads(shard_window, self.shards);
        // Both the smoothed trend and the instantaneous Equation 2 must see
        // skew: the predictor's memory stops one noisy window from migrating
        // key ranges, and the instantaneous check stops stale history from
        // migrating an already-recovered cluster.
        if immediate == 0 || self.predictor.predict() == 0 {
            return Vec::new();
        }

        let hot = (0..shard_window.len())
            .max_by_key(|&s| shard_window[s])
            .expect("non-empty");
        let mean = total as f64 / self.shards as f64;
        let mut excess = shard_window[hot] as f64 - mean;
        if excess <= 0.0 {
            return Vec::new();
        }

        // Scale the admitted-side slot loads onto the processed-side window
        // so "move slot s" predicts its share of the shard's processed load.
        let mut hot_slots: Vec<(usize, u64)> = table
            .slots_of(hot)
            .into_iter()
            .map(|s| (s, slot_window[s]))
            .collect();
        hot_slots.sort_by(|a, b| b.1.cmp(&a.1).then(a.0.cmp(&b.0)));
        let admitted_hot: u64 = hot_slots.iter().map(|&(_, n)| n).sum();
        if admitted_hot == 0 {
            return Vec::new();
        }
        let scale = shard_window[hot] as f64 / admitted_hot as f64;

        let mut loads: Vec<f64> = shard_window.iter().map(|&w| w as f64).collect();
        let mut moves = Vec::new();
        let mut remaining_slots = hot_slots.len();
        for (slot, admitted) in hot_slots {
            if moves.len() >= self.config.max_moves || remaining_slots <= 1 {
                break;
            }
            let slot_load = admitted as f64 * scale;
            // Moving a slot heavier than the remaining excess would just
            // relocate the hot spot (a dominant single-key slot stays put —
            // the shard's SecPEs absorb it, as the paper's Fig. 4 does
            // per-PE).
            if slot_load > excess || slot_load == 0.0 {
                continue;
            }
            // A shard owning zero slots was retired by failure recovery
            // (`reassign_all` stripped it bare): its load window reads 0
            // forever, so it would always look coldest — never route new
            // key ranges at a corpse.
            let Some(cold) = (0..loads.len())
                .filter(|&s| !table.slots_of(s).is_empty())
                .min_by(|&a, &b| loads[a].total_cmp(&loads[b]))
            else {
                break;
            };
            if cold == hot {
                break;
            }
            moves.push(SlotMove {
                slot,
                from: hot,
                to: cold,
            });
            loads[hot] -= slot_load;
            loads[cold] += slot_load;
            excess -= slot_load;
            remaining_slots -= 1;
            if excess <= mean * self.config.tolerance {
                break;
            }
        }
        self.migrations += moves.len() as u64;
        moves
    }
}

impl std::fmt::Debug for ShardBalancer {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("ShardBalancer")
            .field("shards", &self.shards)
            .field("migrations", &self.migrations)
            .field("observations", &self.predictor.observations())
            .finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use datagen::Tuple;

    /// Routes `n` tuples for each key in `keys` through the table so the
    /// slot window reflects the load.
    fn admit(table: &mut RoutingTable, keys: &[u64], n: usize) {
        let mut batch = Vec::new();
        for &k in keys {
            batch.extend(std::iter::repeat_n(Tuple::from_key(k), n));
        }
        table.split(batch);
    }

    /// Keys that currently route to `shard`, drawn from a counter scan.
    fn keys_on_shard(table: &RoutingTable, shard: usize, want: usize) -> Vec<u64> {
        (0u64..)
            .filter(|&k| table.shard_of_key(k) == shard)
            .take(want)
            .collect()
    }

    #[test]
    fn balanced_load_never_migrates() {
        let mut table = RoutingTable::new(4, 32);
        let mut balancer = ShardBalancer::new(4, BalancerConfig::default());
        for _ in 0..10 {
            admit(&mut table, &(0..64).collect::<Vec<_>>(), 32);
            let window = table.shard_window();
            let moves = balancer.rebalance(&window, &mut table);
            assert!(moves.is_empty(), "balanced cluster migrated: {moves:?}");
        }
        assert_eq!(balancer.migrations(), 0);
    }

    #[test]
    fn hot_shard_triggers_slot_moves_toward_cold() {
        let mut table = RoutingTable::new(4, 32);
        let mut balancer = ShardBalancer::new(4, BalancerConfig::default());
        // Many distinct warm keys all landing on shard 0's slots.
        let hot_keys = keys_on_shard(&table, 0, 24);
        let mut moved = Vec::new();
        for _ in 0..6 {
            admit(&mut table, &hot_keys, 100);
            let window = table.shard_window();
            let moves = balancer.rebalance(&window, &mut table);
            for mv in &moves {
                assert_eq!(mv.from, 0, "moves must come off the hot shard");
                table.apply(*mv);
            }
            moved.extend(moves);
        }
        assert!(!moved.is_empty(), "hot shard must shed slots");
        assert_eq!(balancer.migrations(), moved.len() as u64);
        // Re-routing worked: some of the hot keys now land elsewhere.
        let relocated = hot_keys
            .iter()
            .filter(|&&k| table.shard_of_key(k) != 0)
            .count();
        assert!(relocated > 0, "no key range actually moved");
    }

    #[test]
    fn tiny_windows_are_ignored() {
        let mut table = RoutingTable::new(2, 8);
        let mut balancer = ShardBalancer::new(2, BalancerConfig::default());
        let hot_keys = keys_on_shard(&table, 0, 4);
        admit(&mut table, &hot_keys, 10); // 40 tuples < min_window_tuples
        let window = table.shard_window();
        assert!(balancer.rebalance(&window, &mut table).is_empty());
        assert_eq!(balancer.observations(), 0, "window below the noise guard");
    }

    #[test]
    fn retired_shards_never_receive_slots() {
        let mut table = RoutingTable::new(3, 24);
        let mut balancer = ShardBalancer::new(3, BalancerConfig::default());
        // Retire shard 2 the way failure recovery does: strip it bare.
        table.reassign_all(2, 1);
        let hot_keys = keys_on_shard(&table, 0, 16);
        for _ in 0..6 {
            admit(&mut table, &hot_keys, 100);
            let window = table.shard_window();
            for mv in balancer.rebalance(&window, &mut table) {
                assert_ne!(mv.to, 2, "migrated a slot to the retired shard");
                table.apply(mv);
            }
        }
        assert!(table.slots_of(2).is_empty());
    }

    #[test]
    fn dominant_single_slot_stays_put() {
        let mut table = RoutingTable::new(2, 8);
        let mut balancer = ShardBalancer::new(2, BalancerConfig::default());
        // One extremely hot key: its slot dominates shard load; routing
        // cannot split a key, so no migration should bounce it around.
        let hot = keys_on_shard(&table, 0, 1)[0];
        let hot_slot = table.slot_of_key(hot);
        for _ in 0..6 {
            admit(&mut table, &[hot], 2_000);
            let window = table.shard_window();
            for mv in balancer.rebalance(&window, &mut table) {
                assert_ne!(mv.slot, hot_slot, "dominant slot must not move");
                table.apply(mv);
            }
        }
        assert_eq!(table.shard_of_key(hot), 0);
    }
}
