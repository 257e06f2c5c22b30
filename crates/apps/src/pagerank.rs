//! PageRank (PR) — fixed-point rank scoring over graph edges (Table I).

use std::sync::Arc;

use ditto_core::{ArchConfig, DittoApp, ExecutionReport, Routed, SkewObliviousPipeline, Tuple};
use ditto_graph::Csr;
use sketches::Fixed;

/// One PageRank superstep as a Ditto application.
///
/// The edge list is streamed from global memory as `⟨dst, src⟩` tuples; the
/// PrePE looks up the source's precomputed contribution
/// (`d · rank[src] / outdeg[src]`, the gather stage of the FPGA designs the
/// paper builds on) and routes the update to the PE owning the destination
/// vertex (vertex `v` on PE `v mod M`). The PE accumulates into its private
/// next-rank slice; SecPE partials merge by fixed-point addition, which is
/// exact, so the pipeline result equals the host reference bit-for-bit.
///
/// High-degree vertices concentrate updates on one PE — the in-degree skew
/// that Fig. 8 shows plain data routing collapsing under.
#[derive(Debug, Clone)]
pub struct PageRankApp {
    contribs: Arc<Vec<Fixed>>,
    n_vertices: usize,
    m_pri: u32,
}

impl PageRankApp {
    /// Creates the superstep app from per-source contributions.
    ///
    /// # Panics
    ///
    /// Panics if `m_pri` is zero.
    pub fn new(contribs: Arc<Vec<Fixed>>, m_pri: u32) -> Self {
        assert!(m_pri > 0, "need at least one PriPE");
        PageRankApp {
            n_vertices: contribs.len(),
            contribs,
            m_pri,
        }
    }

    /// Next-rank accumulator entries each PE buffers (`⌈n/M⌉`).
    pub fn pe_entries(&self) -> usize {
        self.n_vertices.div_ceil(self.m_pri as usize)
    }

    /// The edge stream for `graph`: one `⟨dst, src⟩` tuple per edge, in CSR
    /// order — the order the memory access engine would burst-read.
    pub fn edge_tuples(graph: &Csr) -> Vec<Tuple> {
        graph
            .edges()
            .map(|(s, d)| Tuple::new(u64::from(d), u64::from(s)))
            .collect()
    }
}

impl DittoApp for PageRankApp {
    /// `(dst vertex, contribution)`.
    type Value = (u32, Fixed);
    /// This PE's slice of next-rank accumulators.
    type State = Vec<Fixed>;
    /// Gathered rank sums per vertex (before damping base term).
    type Output = Vec<Fixed>;

    fn name(&self) -> &str {
        "PR"
    }

    fn preprocess(&self, tuple: Tuple, m_pri: u32) -> Routed<(u32, Fixed)> {
        debug_assert_eq!(m_pri, self.m_pri, "pipeline M differs from app M");
        let dst = tuple.key as u32;
        let src = tuple.value as usize;
        Routed::new(dst % m_pri, (dst, self.contribs[src]))
    }

    fn new_state(&self, pe_entries: usize) -> Vec<Fixed> {
        vec![Fixed::ZERO; pe_entries]
    }

    fn process(&self, state: &mut Vec<Fixed>, value: &(u32, Fixed)) {
        let (dst, contrib) = *value;
        state[(dst / self.m_pri) as usize] += contrib;
    }

    fn merge(&self, pri: &mut Vec<Fixed>, sec: &Vec<Fixed>) {
        for (p, s) in pri.iter_mut().zip(sec) {
            *p += *s;
        }
    }

    fn finalize(&self, pri_states: Vec<Vec<Fixed>>) -> Vec<Fixed> {
        let m = pri_states.len();
        let mut sums = vec![Fixed::ZERO; self.n_vertices];
        for (pe, state) in pri_states.into_iter().enumerate() {
            for (local, acc) in state.into_iter().enumerate() {
                let v = local * m + pe;
                if v < self.n_vertices {
                    sums[v] = acc;
                }
            }
        }
        sums
    }
}

/// Result of a multi-iteration PageRank run on the pipeline.
#[derive(Debug)]
pub struct PageRankResult {
    /// Final ranks.
    pub ranks: Vec<Fixed>,
    /// One execution report per superstep.
    pub reports: Vec<ExecutionReport>,
}

impl PageRankResult {
    /// Average edges per cycle across supersteps — multiply by the clock
    /// (MHz) for Fig. 8's MTEPS.
    pub fn edges_per_cycle(&self) -> f64 {
        let edges: u64 = self.reports.iter().map(|r| r.tuples).sum();
        let cycles: u64 = self.reports.iter().map(|r| r.cycles).sum();
        if cycles == 0 {
            return 0.0;
        }
        edges as f64 / cycles as f64
    }
}

/// Runs `iterations` PageRank supersteps of `graph` on the skew-oblivious
/// pipeline configured by `config`, handling damping, dangling mass and
/// rank updates exactly like [`ditto_graph::pagerank`].
///
/// # Panics
///
/// Panics if the graph is empty.
pub fn run_pagerank(
    graph: &Csr,
    damping: f64,
    iterations: usize,
    config: &ArchConfig,
) -> PageRankResult {
    let n = graph.vertex_count();
    assert!(n > 0, "graph must have vertices");
    let d = Fixed::from_f64(damping);
    let n_fixed = Fixed::from_int(n as i32);
    let base = (Fixed::ONE - d) / n_fixed;

    let mut ranks = vec![Fixed::ONE / n_fixed; n];
    let mut reports = Vec::with_capacity(iterations);
    let edges = PageRankApp::edge_tuples(graph);

    for _ in 0..iterations {
        // Gather-side precomputation (the PrePE's rank fetch).
        let contribs: Vec<Fixed> = (0..n)
            .map(|v| {
                let deg = graph.out_degree(v);
                if deg == 0 {
                    Fixed::ZERO
                } else {
                    d * ranks[v] / Fixed::from_int(deg as i32)
                }
            })
            .collect();
        let dangling: Fixed = (0..n)
            .filter(|&v| graph.out_degree(v) == 0)
            .map(|v| ranks[v])
            .sum();
        let dangling_share = d * dangling / n_fixed;

        let app = PageRankApp::new(Arc::new(contribs), config.m_pri);
        let cfg = config.clone().with_pe_entries(app.pe_entries());
        let outcome = SkewObliviousPipeline::run_dataset(app, edges.clone(), &cfg);
        reports.push(outcome.report);

        ranks = outcome
            .output
            .into_iter()
            .map(|sum| base + dangling_share + sum)
            .collect();
    }
    PageRankResult { ranks, reports }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ditto_graph::{generate, pagerank as reference};

    #[test]
    fn pipeline_matches_reference_bit_for_bit() {
        let g = generate::uniform(200, 5.0, 3);
        let cfg = ArchConfig::new(4, 8, 0);
        let ours = run_pagerank(&g, 0.85, 5, &cfg);
        let refr = reference::pagerank(&g, 0.85, 5);
        assert_eq!(
            ours.ranks, refr,
            "fixed-point addition is exact; results must match"
        );
    }

    #[test]
    fn skewed_graph_with_secpes_matches_reference() {
        let g = generate::power_law(256, 8.0, 1.5, 7).to_undirected();
        let cfg = ArchConfig::new(4, 8, 7);
        let ours = run_pagerank(&g, 0.85, 3, &cfg);
        let refr = reference::pagerank(&g, 0.85, 3);
        assert_eq!(ours.ranks, refr);
        assert!(ours.reports.iter().all(|r| r.completed));
    }

    #[test]
    fn ranks_form_a_distribution() {
        let g = generate::power_law(500, 6.0, 1.0, 9);
        let cfg = ArchConfig::new(4, 8, 3);
        let res = run_pagerank(&g, 0.85, 10, &cfg);
        let sum: f64 = res.ranks.iter().map(|r| r.to_f64()).sum();
        assert!((sum - 1.0).abs() < 1e-3, "sum {sum}");
    }

    #[test]
    fn hub_heavy_graph_is_slower_without_secpes() {
        let g = generate::power_law(512, 12.0, 1.6, 11).to_undirected();
        let base = run_pagerank(&g, 0.85, 2, &ArchConfig::new(4, 8, 0));
        let full = run_pagerank(&g, 0.85, 2, &ArchConfig::new(4, 8, 7));
        assert!(
            full.edges_per_cycle() > base.edges_per_cycle() * 1.2,
            "SecPEs should speed up hub-heavy PR: {} vs {}",
            full.edges_per_cycle(),
            base.edges_per_cycle()
        );
    }

    #[test]
    fn edge_tuples_cover_graph() {
        let g = generate::uniform(50, 3.0, 1);
        assert_eq!(PageRankApp::edge_tuples(&g).len(), g.edge_count());
    }
}
