//! The [`DittoApp`] programming interface — the paper's Listing 2.

use crate::{PeId, Tuple};

/// A routed record: the `⟨dst, value⟩` pair a PrePE emits (§IV-A).
///
/// `dst` is always a *PriPE* id in `0..M`; the mapper may later redirect the
/// record to a SecPE according to the scheduling plan, but the application
/// never sees SecPE ids.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Routed<V> {
    /// Destination PriPE id, in `0..M`.
    pub dst: PeId,
    /// Application payload processed against the destination's buffer.
    pub value: V,
}

impl<V> Routed<V> {
    /// Creates a routed record.
    pub fn new(dst: PeId, value: V) -> Self {
        Routed { dst, value }
    }
}

/// High-level application specification (the paper's Listing 2).
///
/// With Ditto, "developers only need to write high-level specifications
/// without touching hardware design details". An implementation provides:
///
/// * [`preprocess`](DittoApp::preprocess) — the PrePE body: turn an input
///   tuple into `⟨dst, value⟩` where `dst ∈ 0..M` picks the PriPE whose
///   private buffer holds the tuple's key range;
/// * [`process`](DittoApp::process) — the PriPE/SecPE body: combine the
///   value with the private buffer (e.g. `hist[idx] += 1`);
/// * [`merge`](DittoApp::merge) — fold a SecPE's partial buffer into its
///   PriPE's (the merger module, §IV-B). Decomposable applications merge by
///   sum/max; non-decomposable ones (data partitioning) append staged
///   output, which is equivalent to "output results to their own memory
///   space of the global memory";
/// * [`finalize`](DittoApp::finalize) — assemble the M PriPE buffers into
///   the application output.
///
/// The initiation intervals feed Equation 1 (`ditto_plan`'s
/// `PlannerOptions::equation1`): a HISTO-style PE that reads and writes
/// its buffer each tuple has `ii_pri() == 2` (the paper's motivating
/// example).
pub trait DittoApp: Send + Sync {
    /// Payload type routed from PrePEs to destination PEs.
    type Value: Clone + Default + Send + 'static;
    /// Per-PE private buffer contents (the BRAM state).
    type State: Send + 'static;
    /// Final application output.
    type Output;

    /// Application name for reports.
    fn name(&self) -> &str;

    /// Initiation interval of the PrePE logic, in cycles per tuple.
    fn ii_pre(&self) -> u32 {
        1
    }

    /// Initiation interval of the PriPE/SecPE logic, in cycles per tuple.
    fn ii_pri(&self) -> u32 {
        2
    }

    /// PrePE body: compute the destination PriPE (`0..m_pri`) and payload.
    fn preprocess(&self, tuple: Tuple, m_pri: u32) -> Routed<Self::Value>;

    /// Allocates one destination PE's private buffer.
    ///
    /// `pe_entries` is the number of buffered entries this PE may own —
    /// the framework sizes it as `capacity / (M + X)` per §V-C.
    fn new_state(&self, pe_entries: usize) -> Self::State;

    /// PriPE/SecPE body: combine `value` with the private buffer.
    fn process(&self, state: &mut Self::State, value: &Self::Value);

    /// Folds a SecPE partial buffer into the PriPE buffer it helped.
    fn merge(&self, pri: &mut Self::State, sec: &Self::State);

    /// Assembles the M PriPE buffers (post-merge) into the output.
    fn finalize(&self, pri_states: Vec<Self::State>) -> Self::Output;
}

/// Applications whose *outputs* can be combined across independent pipeline
/// instances.
///
/// [`DittoApp::merge`] folds *states* (one SecPE partial into its PriPE
/// buffer, or one shard's PriPE buffer into another's — the cross-shard
/// merge path uses it for exact results). `MergeableOutput` additionally
/// folds *finalized outputs*, which is what a serving layer needs when each
/// shard finalizes locally (partial results streamed to clients, per-shard
/// result caching) and a combined view is assembled later.
///
/// For decomposable applications the two paths agree exactly (element-wise
/// sum/max commutes with `finalize`); for non-decomposable ones (data
/// partitioning) the combined output is order-insensitive — equal as
/// per-partition multisets.
pub trait MergeableOutput: DittoApp {
    /// Folds `part` (another instance's output over a disjoint share of the
    /// input) into `acc`.
    fn merge_outputs(&self, acc: &mut Self::Output, part: Self::Output);

    /// Combines any number of partial outputs; returns `None` for an empty
    /// set (no shards produced output).
    fn combine_outputs<I: IntoIterator<Item = Self::Output>>(
        &self,
        parts: I,
    ) -> Option<Self::Output> {
        let mut iter = parts.into_iter();
        let mut acc = iter.next()?;
        for part in iter {
            self.merge_outputs(&mut acc, part);
        }
        Some(acc)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::apps::CountPerKey;

    #[test]
    fn routed_constructor() {
        let r = Routed::new(3, 42u64);
        assert_eq!(r.dst, 3);
        assert_eq!(r.value, 42);
    }

    #[test]
    fn default_iis_match_the_papers_histo_example() {
        let app = CountPerKey::new(4);
        assert_eq!(app.ii_pre(), 1);
        assert_eq!(app.ii_pri(), 2);
    }
}
