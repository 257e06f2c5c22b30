//! Data partitioning (DP) — radix partitioning with a hash fan-out.

use ditto_core::{DittoApp, Routed, Tuple};
use sketches::hash::radix_bits;

/// Radix data partitioning: splits the input into `fan_out` partitions by
/// the low radix bits of the key (Table I: "separates a big dataset into
/// many chunks with radix hash function").
///
/// Partitions are interleaved across PEs (partition `p` on PE `p mod M`);
/// each PE stages its partitions' tuples in its private buffer and, in the
/// real hardware, flushes them to its own region of global memory. DP is
/// the paper's *non-decomposable* example: a SecPE's staged output is
/// appended to — not numerically merged with — its PriPE's.
///
/// # Example
///
/// ```
/// use ditto_apps::DataPartitionApp;
/// use ditto_core::{DittoApp, Tuple};
///
/// let app = DataPartitionApp::new(64, 16);
/// let r = app.preprocess(Tuple::new(0b101101, 9), 16);
/// assert_eq!(r.value.0, 0b101101); // partition = low 6 bits
/// assert_eq!(r.dst, (0b101101 % 16) as u32);
/// ```
#[derive(Debug, Clone)]
pub struct DataPartitionApp {
    fan_out: u64,
    m_pri: u32,
    radix_bits: u32,
}

impl DataPartitionApp {
    /// Creates a partitioner with `fan_out` partitions (a power of two)
    /// for an `m_pri`-PriPE pipeline.
    ///
    /// # Panics
    ///
    /// Panics if `fan_out` is not a power of two, is smaller than `m_pri`,
    /// or is not a multiple of `m_pri`.
    pub fn new(fan_out: u64, m_pri: u32) -> Self {
        assert!(fan_out.is_power_of_two(), "fan-out must be a power of two");
        assert!(fan_out >= u64::from(m_pri), "fan-out must cover all PEs");
        assert!(
            fan_out.is_multiple_of(u64::from(m_pri)),
            "fan-out must be a multiple of M"
        );
        DataPartitionApp {
            fan_out,
            m_pri,
            radix_bits: fan_out.trailing_zeros(),
        }
    }

    /// The fan-out (number of output partitions).
    pub fn fan_out(&self) -> u64 {
        self.fan_out
    }

    /// Local partitions staged per PE.
    pub fn pe_entries(&self) -> usize {
        (self.fan_out / u64::from(self.m_pri)) as usize
    }

    /// The partition a key belongs to.
    pub fn partition_of(&self, key: u64) -> u64 {
        radix_bits(key, self.radix_bits)
    }

    /// Host-side reference partition sizes for validation.
    pub fn reference_sizes(&self, data: &[Tuple]) -> Vec<u64> {
        let mut sizes = vec![0u64; self.fan_out as usize];
        for t in data {
            sizes[self.partition_of(t.key) as usize] += 1;
        }
        sizes
    }
}

impl DittoApp for DataPartitionApp {
    /// `(partition, key, value)` of one tuple.
    type Value = (u64, u64, u64);
    /// Staged tuples per local partition.
    type State = Vec<Vec<(u64, u64)>>;
    /// The partitioned dataset: `fan_out` buckets of `(key, value)`.
    type Output = Vec<Vec<(u64, u64)>>;

    fn name(&self) -> &str {
        "DP"
    }

    /// DP's PE body only appends to a staging line, so it sustains one
    /// tuple per cycle (II = 1) — which is why Equation 1 gives it fewer
    /// PriPEs than HISTO on the same platform.
    fn ii_pri(&self) -> u32 {
        1
    }

    fn preprocess(&self, tuple: Tuple, m_pri: u32) -> Routed<(u64, u64, u64)> {
        debug_assert_eq!(m_pri, self.m_pri, "pipeline M differs from app M");
        let p = self.partition_of(tuple.key);
        Routed::new((p % u64::from(m_pri)) as u32, (p, tuple.key, tuple.value))
    }

    fn new_state(&self, pe_entries: usize) -> Self::State {
        vec![Vec::new(); pe_entries]
    }

    fn process(&self, state: &mut Self::State, value: &(u64, u64, u64)) {
        let (p, key, val) = *value;
        let local = (p / u64::from(self.m_pri)) as usize;
        state[local].push((key, val));
    }

    fn merge(&self, pri: &mut Self::State, sec: &Self::State) {
        // Non-decomposable: concatenate the SecPE's staged output (its "own
        // memory space") after the PriPE's.
        for (p, s) in pri.iter_mut().zip(sec) {
            p.extend_from_slice(s);
        }
    }

    fn finalize(&self, pri_states: Vec<Self::State>) -> Self::Output {
        let m = pri_states.len() as u64;
        let mut out = vec![Vec::new(); self.fan_out as usize];
        for (pe, state) in pri_states.into_iter().enumerate() {
            for (local, bucket) in state.into_iter().enumerate() {
                let global = local as u64 * m + pe as u64;
                if global < self.fan_out {
                    out[global as usize] = bucket;
                }
            }
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use datagen::{UniformGenerator, ZipfGenerator};
    use ditto_core::{ArchConfig, SkewObliviousPipeline};

    fn partition_sizes(out: &[Vec<(u64, u64)>]) -> Vec<u64> {
        out.iter().map(|b| b.len() as u64).collect()
    }

    #[test]
    fn partitions_are_complete_and_correct() {
        let app = DataPartitionApp::new(64, 8);
        let data = UniformGenerator::new(1 << 20, 5).take_vec(10_000);
        let expect = app.reference_sizes(&data);
        let cfg = ArchConfig::new(4, 8, 0).with_pe_entries(app.pe_entries());
        let out = SkewObliviousPipeline::run_dataset(app.clone(), data, &cfg);
        assert_eq!(partition_sizes(&out.output), expect);
        // Every tuple landed in the partition its radix bits dictate.
        for (p, bucket) in out.output.iter().enumerate() {
            for &(key, _) in bucket {
                assert_eq!(app.partition_of(key), p as u64);
            }
        }
    }

    #[test]
    fn skewed_partitioning_with_secpes_loses_nothing() {
        let app = DataPartitionApp::new(64, 8);
        // Low-bit-skewed keys: most tuples share one partition.
        let data: Vec<Tuple> = ZipfGenerator::new(2.5, 1 << 16, 3).take_vec(8_000);
        let expect = app.reference_sizes(&data);
        let cfg = ArchConfig::new(4, 8, 7).with_pe_entries(app.pe_entries());
        let out = SkewObliviousPipeline::run_dataset(app, data, &cfg);
        assert_eq!(partition_sizes(&out.output), expect);
    }

    #[test]
    fn higher_fan_out_with_data_routing() {
        // The BRAM saving lets data routing reach a higher fan-out: every
        // PE stages fan_out / M partitions, not fan_out.
        let app = DataPartitionApp::new(512, 16);
        assert_eq!(app.pe_entries(), 32);
    }

    #[test]
    #[should_panic(expected = "power of two")]
    fn fan_out_power_of_two() {
        let _ = DataPartitionApp::new(48, 8);
    }
}
