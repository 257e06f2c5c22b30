//! Minimal built-in applications used by tests, docs and benches.
//!
//! The five full applications of the paper live in the `ditto-apps` crate;
//! the specs here are deliberately tiny so `ditto-core` can be tested and
//! benchmarked in isolation.

use crate::{DittoApp, Routed, Tuple};

/// Counts tuples per destination PE — the simplest possible decomposable
/// application (a 1-bin histogram per PE). Routing is `key mod M`, exactly
/// Listing 2's `dst = tuple.key & 0xf` rule generalised to any M.
///
/// # Example
///
/// ```
/// use ditto_core::apps::CountPerKey;
/// use ditto_core::DittoApp;
/// use datagen::Tuple;
///
/// let app = CountPerKey::new(8);
/// let routed = app.preprocess(Tuple::from_key(13), 8);
/// assert_eq!(routed.dst, 5);
/// ```
#[derive(Debug, Clone)]
pub struct CountPerKey {
    m_pri: u32,
}

impl CountPerKey {
    /// Creates a counter app for `m_pri` PriPEs.
    ///
    /// # Panics
    ///
    /// Panics if `m_pri` is zero.
    pub fn new(m_pri: u32) -> Self {
        assert!(m_pri > 0, "need at least one PriPE");
        CountPerKey { m_pri }
    }
}

impl DittoApp for CountPerKey {
    type Value = ();
    type State = u64;
    type Output = Vec<u64>;

    fn name(&self) -> &str {
        "count-per-key"
    }

    fn preprocess(&self, tuple: Tuple, m_pri: u32) -> Routed<()> {
        debug_assert!(
            m_pri == self.m_pri || self.m_pri == 1,
            "pipeline M differs from app M"
        );
        Routed::new((tuple.key % u64::from(m_pri)) as u32, ())
    }

    fn new_state(&self, _pe_entries: usize) -> u64 {
        0
    }

    fn process(&self, state: &mut u64, _value: &()) {
        *state += 1;
    }

    fn merge(&self, pri: &mut u64, sec: &u64) {
        *pri += *sec;
    }

    fn finalize(&self, pri_states: Vec<u64>) -> Vec<u64> {
        pri_states
    }
}

/// A small modular histogram: `bins` bins interleaved across PEs
/// (bin `b` lives on PriPE `b mod M` at local index `b / M`). This is the
/// motivating HISTO of the paper's §II scaled down for tests.
#[derive(Debug, Clone)]
pub struct ModHistogram {
    bins: u64,
}

impl ModHistogram {
    /// Creates a histogram with `bins` bins.
    ///
    /// # Panics
    ///
    /// Panics if `bins` is zero.
    pub fn new(bins: u64) -> Self {
        assert!(bins > 0, "need at least one bin");
        ModHistogram { bins }
    }

    /// Number of bins.
    pub fn bins(&self) -> u64 {
        self.bins
    }
}

impl DittoApp for ModHistogram {
    /// The global bin index.
    type Value = u64;
    /// Local bin counts for this PE's residue class.
    type State = Vec<u64>;
    /// Global histogram.
    type Output = Vec<u64>;

    fn name(&self) -> &str {
        "mod-histogram"
    }

    fn preprocess(&self, tuple: Tuple, m_pri: u32) -> Routed<u64> {
        let bin = tuple.key % self.bins;
        Routed::new((bin % u64::from(m_pri)) as u32, bin)
    }

    fn new_state(&self, pe_entries: usize) -> Vec<u64> {
        vec![0; pe_entries]
    }

    fn process(&self, state: &mut Vec<u64>, bin: &u64) {
        let local = (*bin as usize) / crate::apps::infer_m(state.len(), self.bins as usize);
        state[local] += 1;
    }

    fn merge(&self, pri: &mut Vec<u64>, sec: &Vec<u64>) {
        for (p, s) in pri.iter_mut().zip(sec) {
            *p += *s;
        }
    }

    fn finalize(&self, pri_states: Vec<Vec<u64>>) -> Vec<u64> {
        let m = pri_states.len();
        let mut out = vec![0; self.bins as usize];
        for (pe, state) in pri_states.iter().enumerate() {
            for (local, &count) in state.iter().enumerate() {
                let global = local * m + pe;
                if global < out.len() {
                    out[global] = count;
                }
            }
        }
        out
    }
}

/// Recovers M from the per-PE entry count (`entries = ceil(bins / M)`).
///
/// Kept crate-public for the test apps only; real applications carry M in
/// their own state.
pub(crate) fn infer_m(entries: usize, bins: usize) -> usize {
    bins.div_ceil(entries)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn count_per_key_routes_by_modulo() {
        let app = CountPerKey::new(4);
        for k in 0..16u64 {
            assert_eq!(app.preprocess(Tuple::from_key(k), 4).dst, (k % 4) as u32);
        }
    }

    #[test]
    fn count_per_key_merge_adds() {
        let app = CountPerKey::new(4);
        let mut a = 5u64;
        app.merge(&mut a, &7);
        assert_eq!(a, 12);
    }

    #[test]
    fn histogram_round_trips_bin_indices() {
        let app = ModHistogram::new(32);
        let m = 8u32;
        // Simulate: 2 tuples to bin 9 (PE 1, local 1).
        let r = app.preprocess(Tuple::from_key(9), m);
        assert_eq!(r.dst, 1);
        let entries = 32 / 8;
        let mut state = app.new_state(entries);
        app.process(&mut state, &r.value);
        app.process(&mut state, &r.value);
        assert_eq!(state[1], 2);
    }

    #[test]
    fn histogram_finalize_interleaves() {
        let app = ModHistogram::new(8);
        let m = 4usize;
        let mut states: Vec<Vec<u64>> = (0..m).map(|_| app.new_state(2)).collect();
        // Put count = global bin index everywhere.
        for bin in 0..8u64 {
            let pe = (bin % 4) as usize;
            let local = (bin / 4) as usize;
            states[pe][local] = bin;
        }
        let out = app.finalize(states);
        assert_eq!(out, vec![0, 1, 2, 3, 4, 5, 6, 7]);
    }
}
