//! # ditto-ha — replication and failure recovery for the serve cluster
//!
//! The paper's decomposability argument — per-PE partial states merge
//! exactly into the global result — is usually read as a *throughput*
//! property. This crate reads it as a *durability* property: if state
//! merges exactly, it also extracts, transfers and replays exactly, so a
//! serving cluster can survive the death of a shard without losing a
//! tuple. Three mechanisms, all proven by bit-identical replay on the
//! deterministic engines:
//!
//! ```text
//!                 submit(batch)
//!                      │
//!            ┌─────────▼──────────┐   per-shard sub-batches
//!            │     HaCluster      ├──────────────┐
//!            └─────────┬──────────┘              │ (clones of the
//!               leader  │                        │  delivered parts)
//!            ┌─────────▼──────────┐     ┌────────▼────────┐
//!            │  Cluster (serve)   │     │ BatchLog[shard] │
//!            │ shard 0  1  2  ... │     └────────┬────────┘
//!            └─────────┬──────────┘     ┌────────▼────────┐
//!                      │                │ followers[shard]│  N replicas,
//!               ShardEvent::Failed      │ (1-shard serve  │  same parts,
//!                      │                │  clusters)      │  same order
//!            ┌─────────▼──────────┐     └────────┬────────┘
//!            │      promote       │◄─────────────┘
//!            │ drain follower →   │   extract replica slice →
//!            │ install on heir →  │   reassign slots → resubmit
//!            │ resume serving     │   raced sub-batches
//!            └────────────────────┘
//! ```
//!
//! * **Replicated state handoff** ([`HaCluster::rebalance`]): when the
//!   balancer migrates hot slots, the serve cluster's own handoff moves the
//!   source leader's accumulated slice with them — extracted at the
//!   admission watermark, installed on the target via the application's
//!   own `merge`. This crate then mirrors each applied handoff replica by
//!   replica: source follower `i`'s slice moves to target follower `i`.
//!   Because merge is associative and commutative, which shard folds the
//!   history is immaterial to the cluster-level result: the handoff run is
//!   bit-identical to the no-migration run.
//! * **N-way replication** ([`HaCluster::submit`]): every delivered
//!   per-shard sub-batch is appended to that shard's [`BatchLog`] and
//!   mirrored to its followers — independent 1-shard clusters fed the same
//!   parts in the same order. Deterministic engines make a follower a
//!   *proof-carrying* replica: replaying the leader's log from scratch
//!   reproduces its state bit for bit ([`BatchLog::replay`]).
//! * **Failure recovery** ([`HaCluster::heal`]): a dead shard thread (its
//!   drop-guard streams the panic payload immediately) is recovered by
//!   draining one follower, installing its slice on a live inheritor (and
//!   the inheritor's followers), reassigning every slot the corpse owned,
//!   resolving its in-flight batches (their tuples are in the replica) and
//!   resubmitting sub-batches that raced the death without ever reaching
//!   an engine. The cluster converges to the same final output as a run
//!   with no failure at all.
//!
//! Environment knobs (announced by `ditto_obs::env::log_active`):
//! `DITTO_REPLICAS` sets the follower count per shard; `DITTO_KILL_SHARD`
//! (`<shard>:<batches>`) arms the deterministic fault injection hook in
//! the serve layer.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod cluster;
mod log;

pub use cluster::{HaCluster, Promotion, RecoverySource};
pub use log::BatchLog;

/// Reads the `DITTO_REPLICAS` environment knob: the number of follower
/// replicas per shard. Returns `default` when unset.
///
/// # Panics
///
/// Panics when the variable is set but is not a follower count.
pub fn env_replicas(default: usize) -> usize {
    parse_replicas(std::env::var("DITTO_REPLICAS").ok().as_deref(), default)
}

/// `DITTO_REPLICAS`'s value as a follower count: `default` when unset, a
/// panic naming the variable, the value and the accepted form when
/// malformed.
fn parse_replicas(raw: Option<&str>, default: usize) -> usize {
    raw.map_or(default, |v| {
        v.trim().parse().unwrap_or_else(|_| {
            panic!(
                "DITTO_REPLICAS={v:?} does not parse: expected a follower count, e.g. `0` or `2`"
            )
        })
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn replicas_default_when_unset_and_parse_when_set() {
        assert_eq!(parse_replicas(None, 1), 1);
        assert_eq!(parse_replicas(Some("0"), 1), 0);
        assert_eq!(parse_replicas(Some(" 3 "), 1), 3);
    }

    #[test]
    #[should_panic(expected = "DITTO_REPLICAS=\"one\" does not parse: expected a follower count")]
    fn malformed_replicas_panic() {
        parse_replicas(Some("one"), 1);
    }
}
