//! Key-range routing across shards.
//!
//! The cluster's admission layer routes tuples by *hash slot*: the key
//! space is hashed into a fixed number of slots and each slot is owned by
//! one shard. Slots are the unit of migration — the balancer moves slot
//! ownership between shards, the way the paper's mapper redirects workload
//! between PEs at a finer grain (§IV-C2). Because every occurrence of a key
//! hashes to the same slot, a batch split by the router partitions the key
//! space: each key's tuples land on exactly one shard *per routing epoch*
//! (after a migration, a key's new tuples follow the new owner; states
//! merge exactly regardless, see the cluster docs).

use datagen::Tuple;
use sketches::murmur3_u64;

/// Hash seed decorrelating router slots from the applications' internal
/// routing hashes (HISTO bins use seed `0x4151`, HHD PE routing `0x77`).
/// Sharing a seed would make every shard see only the key range of its
/// same-indexed PEs, manufacturing intra-shard skew.
const ROUTER_SEED: u32 = 0x0005_ca1e;

/// Default slot count: enough granularity for the balancer to shave load in
/// ~1.5 % steps at 64 slots, while keeping tables tiny.
pub const DEFAULT_SLOTS: usize = 64;

/// A migration step: reassigning one slot between shards.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct SlotMove {
    /// The slot being moved.
    pub slot: usize,
    /// Previous owner.
    pub from: usize,
    /// New owner.
    pub to: usize,
}

/// The slot-ownership table plus per-slot admitted-tuple accounting.
///
/// # Example
///
/// ```
/// use ditto_serve::RoutingTable;
/// use datagen::Tuple;
///
/// let mut table = RoutingTable::new(4, 16);
/// let parts = table.split(vec![Tuple::from_key(1), Tuple::from_key(2)]);
/// assert_eq!(parts.len(), 4);
/// assert_eq!(parts.iter().map(Vec::len).sum::<usize>(), 2);
/// // A key always routes to its slot's current owner.
/// let s = table.shard_of_key(1);
/// assert!(s < 4);
/// ```
#[derive(Debug, Clone)]
pub struct RoutingTable {
    /// Owner shard of each slot.
    owner: Vec<usize>,
    shards: usize,
    /// Admitted tuples per slot since the last window reset — the balancer's
    /// per-slot load estimate.
    slot_window: Vec<u64>,
    /// Admitted tuples per slot over the table's lifetime.
    slot_total: Vec<u64>,
}

impl RoutingTable {
    /// Creates a table over `slots` slots dealt round-robin to `shards`
    /// shards.
    ///
    /// # Panics
    ///
    /// Panics if `shards` is zero or `slots < shards`.
    pub fn new(shards: usize, slots: usize) -> Self {
        assert!(shards > 0, "need at least one shard");
        assert!(
            slots >= shards,
            "need at least one slot per shard ({slots} < {shards})"
        );
        RoutingTable {
            owner: (0..slots).map(|s| s % shards).collect(),
            shards,
            slot_window: vec![0; slots],
            slot_total: vec![0; slots],
        }
    }

    /// Number of shards.
    pub fn shards(&self) -> usize {
        self.shards
    }

    /// Number of slots.
    pub fn slots(&self) -> usize {
        self.owner.len()
    }

    /// The slot a key hashes into.
    pub fn slot_of_key(&self, key: u64) -> usize {
        (murmur3_u64(key, ROUTER_SEED) % self.owner.len() as u64) as usize
    }

    /// The shard currently owning a key's slot.
    pub fn shard_of_key(&self, key: u64) -> usize {
        self.owner[self.slot_of_key(key)]
    }

    /// Current owner of `slot`.
    ///
    /// # Panics
    ///
    /// Panics if `slot` is out of range.
    pub fn owner_of(&self, slot: usize) -> usize {
        self.owner[slot]
    }

    /// Slots currently owned by `shard`.
    pub fn slots_of(&self, shard: usize) -> Vec<usize> {
        (0..self.owner.len())
            .filter(|&s| self.owner[s] == shard)
            .collect()
    }

    /// Splits a batch into per-shard sub-batches (index = shard), recording
    /// per-slot admitted counts. Tuple order within each sub-batch preserves
    /// the batch's order.
    pub fn split(&mut self, tuples: Vec<Tuple>) -> Vec<Vec<Tuple>> {
        let mut parts: Vec<Vec<Tuple>> = vec![Vec::new(); self.shards];
        for t in tuples {
            let slot = self.slot_of_key(t.key);
            self.slot_window[slot] += 1;
            self.slot_total[slot] += 1;
            parts[self.owner[slot]].push(t);
        }
        parts
    }

    /// Admitted tuples per slot since the last
    /// [`take_window`](Self::take_window) call.
    pub fn slot_window(&self) -> &[u64] {
        &self.slot_window
    }

    /// Returns the per-slot window counts and resets the window.
    pub fn take_window(&mut self) -> Vec<u64> {
        let w = self.slot_window.clone();
        self.slot_window.fill(0);
        w
    }

    /// Admitted tuples per shard over the current window, summing each
    /// shard's slots.
    pub fn shard_window(&self) -> Vec<u64> {
        let mut loads = vec![0u64; self.shards];
        for (slot, &n) in self.slot_window.iter().enumerate() {
            loads[self.owner[slot]] += n;
        }
        loads
    }

    /// Applies one migration.
    ///
    /// # Panics
    ///
    /// Panics if the move's `from` does not match the current owner, the
    /// target shard index is out of range, or the move would leave the
    /// source shard with no slots.
    pub fn apply(&mut self, mv: SlotMove) {
        assert_eq!(
            self.owner[mv.slot], mv.from,
            "stale migration: slot {} owned by {}",
            mv.slot, self.owner[mv.slot]
        );
        assert!(mv.to < self.shards, "target shard out of range");
        assert!(
            self.slots_of(mv.from).len() > 1,
            "cannot strip shard {} of its last slot",
            mv.from
        );
        self.owner[mv.slot] = mv.to;
    }

    /// Failure recovery: reassigns *every* slot owned by `from` to `to`,
    /// returning the moves applied. Unlike [`apply`](Self::apply) this
    /// deliberately strips the source bare — a dead shard serves nothing —
    /// and tolerates a source that already owns no slots (re-recovery is a
    /// no-op).
    ///
    /// # Panics
    ///
    /// Panics if `to` is out of range or equals `from`.
    pub fn reassign_all(&mut self, from: usize, to: usize) -> Vec<SlotMove> {
        assert!(to < self.shards, "target shard out of range");
        assert_ne!(from, to, "cannot reassign a shard's slots to itself");
        let moves: Vec<SlotMove> = self
            .slots_of(from)
            .into_iter()
            .map(|slot| SlotMove { slot, from, to })
            .collect();
        for mv in &moves {
            self.owner[mv.slot] = mv.to;
        }
        moves
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn routing_is_deterministic_and_total() {
        let mut table = RoutingTable::new(3, 12);
        let data: Vec<Tuple> = (0..1000).map(Tuple::from_key).collect();
        let parts = table.split(data.clone());
        assert_eq!(parts.iter().map(Vec::len).sum::<usize>(), 1000);
        // Same key, same shard — always.
        for t in &data {
            let s = table.shard_of_key(t.key);
            assert!(parts[s].contains(t));
        }
        // Hash routing spreads uniform keys roughly evenly.
        for p in &parts {
            assert!(p.len() > 200, "{}", p.len());
        }
    }

    #[test]
    fn migration_moves_future_traffic() {
        let mut table = RoutingTable::new(2, 4);
        let key = 42u64;
        let slot = table.slot_of_key(key);
        let from = table.owner_of(slot);
        let to = 1 - from;
        table.apply(SlotMove { slot, from, to });
        assert_eq!(table.shard_of_key(key), to);
    }

    #[test]
    #[should_panic(expected = "stale migration")]
    fn stale_moves_are_rejected() {
        let mut table = RoutingTable::new(2, 4);
        let from = table.owner_of(0);
        table.apply(SlotMove {
            slot: 0,
            from: 1 - from,
            to: from,
        });
    }

    #[test]
    fn windows_reset_totals_persist() {
        let mut table = RoutingTable::new(2, 4);
        table.split((0..100).map(Tuple::from_key).collect());
        assert_eq!(table.slot_window().iter().sum::<u64>(), 100);
        assert_eq!(table.shard_window().iter().sum::<u64>(), 100);
        let w = table.take_window();
        assert_eq!(w.iter().sum::<u64>(), 100);
        assert_eq!(table.slot_window().iter().sum::<u64>(), 0);
    }

    #[test]
    fn reassign_all_strips_the_source_bare() {
        let mut table = RoutingTable::new(3, 9);
        let before = table.slots_of(1);
        assert_eq!(before.len(), 3);
        let moves = table.reassign_all(1, 2);
        assert_eq!(moves.len(), 3);
        assert!(table.slots_of(1).is_empty());
        for mv in &moves {
            assert_eq!(table.owner_of(mv.slot), 2);
        }
        // Re-recovery of an already-bare shard is a no-op.
        assert!(table.reassign_all(1, 0).is_empty());
    }

    #[test]
    #[should_panic(expected = "last slot")]
    fn last_slot_is_protected() {
        let mut table = RoutingTable::new(2, 2);
        let slot0 = table.slots_of(0)[0];
        table.apply(SlotMove {
            slot: slot0,
            from: 0,
            to: 1,
        });
    }
}
