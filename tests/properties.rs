//! Property-style tests over the core invariants, driven by deterministic
//! case sweeps (the offline build has no proptest).

use ditto::core::apps::CountPerKey;
use ditto::core::mapper::Mapper;
use ditto::prelude::*;

/// Deterministic 64-bit generator for test-case synthesis.
fn splitmix(state: &mut u64) -> u64 {
    *state = state.wrapping_add(0x9e37_79b9_7f4a_7c15);
    let mut z = *state;
    z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    z ^ (z >> 31)
}

/// The pipeline never loses or duplicates tuples, for any key set and any
/// SecPE count.
#[test]
fn pipeline_conserves_tuples() {
    let mut s = 0x7u64;
    for x_sec in 0u32..8 {
        let len = 100 + (splitmix(&mut s) % 700) as usize;
        let data: Vec<Tuple> = (0..len)
            .map(|_| Tuple::from_key(splitmix(&mut s)))
            .collect();
        let n = data.len() as u64;
        let cfg = ArchConfig::new(4, 8, x_sec).with_pe_entries(8);
        let out = SkewObliviousPipeline::run_dataset(CountPerKey::new(8), data, &cfg);
        assert_eq!(out.report.tuples, n, "x_sec {x_sec}");
        assert_eq!(out.output.iter().sum::<u64>(), n, "x_sec {x_sec}");
    }
}

/// The histogram pipeline equals the host reference for arbitrary keys.
#[test]
fn histogram_matches_reference() {
    let mut s = 0x1157u64;
    for x_sec in 0u32..8 {
        let len = 200 + (splitmix(&mut s) % 400) as usize;
        let data: Vec<Tuple> = (0..len)
            .map(|_| Tuple::from_key(splitmix(&mut s)))
            .collect();
        let app = HistoApp::new(64, 8);
        let cfg = ArchConfig::new(4, 8, x_sec).with_pe_entries(app.pe_entries());
        let expect = app.reference(&data);
        let out = SkewObliviousPipeline::run_dataset(app, data, &cfg);
        assert_eq!(out.output, expect, "x_sec {x_sec}");
    }
}

/// Mapper round-robin is conservative: every redirect lands on the original
/// PriPE or one of its scheduled helpers, and the PriPE always stays in
/// rotation.
#[test]
fn mapper_redirects_stay_in_row() {
    let mut s = 0x3a9u64;
    for case in 0..64 {
        let n_pairs = (splitmix(&mut s) % 3) as usize;
        let pairs: Vec<u32> = (0..n_pairs)
            .map(|_| (splitmix(&mut s) % 4) as u32)
            .collect();
        let lookups = 1 + (splitmix(&mut s) % 63) as usize;
        let mut m = Mapper::new(4, 3);
        let mut helpers: Vec<Vec<u32>> = (0..4).map(|i| vec![i]).collect();
        for (i, &pri) in pairs.iter().enumerate() {
            let sec = 4 + i as u32;
            m.apply_pair(sec, pri);
            helpers[pri as usize].push(sec);
        }
        for dst in 0u32..4 {
            let mut saw_pri = false;
            for _ in 0..lookups {
                let got = m.redirect(dst);
                assert!(
                    helpers[dst as usize].contains(&got),
                    "case {case}: dst {dst} redirected to {got}"
                );
                saw_pri |= got == dst;
            }
            if lookups >= helpers[dst as usize].len() {
                assert!(saw_pri, "case {case}: PriPE {dst} never selected");
            }
        }
    }
}

/// The greedy plan never increases the maximum effective load as X grows,
/// and always schedules exactly X SecPEs.
#[test]
fn plan_monotone_and_complete() {
    let mut s = 0x9d2u64;
    for case in 0..64 {
        let m = 2 + (splitmix(&mut s) % 14) as u32;
        let workloads: Vec<u64> = (0..m).map(|_| splitmix(&mut s) % 10_000).collect();
        let mut prev = f64::INFINITY;
        for x in 0..m {
            let plan = SchedulingPlan::generate(&workloads, m, x);
            assert_eq!(plan.len(), x as usize, "case {case}");
            let max = plan
                .effective_loads(&workloads)
                .into_iter()
                .fold(0.0f64, f64::max);
            assert!(max <= prev + 1e-9, "case {case}: x {x}");
            prev = max;
        }
    }
}

/// Equation 2 is clamped, zero for uniform workloads and maximal for a
/// single hot PE, for any M.
#[test]
fn equation2_bounds() {
    let analyzer = SkewAnalyzer::paper();
    for m in 2u32..32 {
        for hot in [0u32, 1, m / 2, m - 1] {
            let uniform = vec![1_000u64; m as usize];
            assert_eq!(analyzer.recommend_from_workloads(&uniform, m), 0);
            let mut single = vec![0u64; m as usize];
            single[(hot % m) as usize] = 1_000_000;
            assert_eq!(analyzer.recommend_from_workloads(&single, m), m - 1);
        }
    }
}

/// Fixed-point addition is associative/commutative, so any processing order
/// of PR contributions yields identical ranks.
#[test]
fn fixed_point_sum_is_order_independent() {
    let mut s = 0xf1eedu64;
    for case in 0..64 {
        let len = 1 + (splitmix(&mut s) % 99) as usize;
        let fixed: Vec<Fixed> = (0..len)
            .map(|_| Fixed::from_bits((splitmix(&mut s) % 2_000_000) as i64 - 1_000_000))
            .collect();
        let forward: Fixed = fixed.iter().copied().sum();
        let mut shuffled = fixed.clone();
        // Deterministic shuffle from the case seed.
        let mut sh = splitmix(&mut s);
        for i in (1..shuffled.len()).rev() {
            sh = sh.wrapping_mul(6364136223846793005).wrapping_add(1);
            let j = (sh >> 33) as usize % (i + 1);
            shuffled.swap(i, j);
        }
        let backward: Fixed = shuffled.into_iter().sum();
        assert_eq!(forward, backward, "case {case}");
    }
}

/// The CMS never under-estimates, whatever the update mix.
#[test]
fn cms_upper_bounds_counts() {
    let mut s = 0xc35u64;
    for case in 0..64 {
        let len = 1 + (splitmix(&mut s) % 199) as usize;
        let updates: Vec<(u64, u64)> = (0..len)
            .map(|_| (splitmix(&mut s) % 64, 1 + splitmix(&mut s) % 15))
            .collect();
        let mut cms = CountMinSketch::new(4, 128);
        let mut truth = std::collections::HashMap::new();
        for &(k, c) in &updates {
            cms.update(k, c);
            *truth.entry(k).or_insert(0u64) += c;
        }
        for (&k, &c) in &truth {
            assert!(cms.query(k) >= c, "case {case}: key {k}");
        }
    }
}

/// HLL merge is idempotent and commutative (a lattice join).
#[test]
fn hll_merge_lattice() {
    let mut s = 0x1a77u64;
    for case in 0..64 {
        let a_keys: Vec<u64> = (0..(splitmix(&mut s) % 300))
            .map(|_| splitmix(&mut s))
            .collect();
        let b_keys: Vec<u64> = (0..(splitmix(&mut s) % 300))
            .map(|_| splitmix(&mut s))
            .collect();
        let mut a = HyperLogLog::new(8);
        let mut b = HyperLogLog::new(8);
        for k in &a_keys {
            a.insert_hash(murmur3_u64(*k, 1));
        }
        for k in &b_keys {
            b.insert_hash(murmur3_u64(*k, 1));
        }
        let mut ab = a.clone();
        ab.merge(&b);
        let mut ba = b.clone();
        ba.merge(&a);
        assert_eq!(&ab, &ba, "case {case}");
        let mut abb = ab.clone();
        abb.merge(&b);
        assert_eq!(&abb, &ab, "case {case}");
    }
}

/// Non-proptest structural check: the variant sweep covers the whole
/// BRAM-vs-robustness trade-off frontier.
#[test]
fn variant_frontier_is_monotone() {
    let app = HllApp::new(12, 16);
    let data = UniformGenerator::new(1 << 20, 5).take_vec(10_000);
    let opts = PlannerOptions::equation1(app.ii_pre(), app.ii_pri());
    let plan = Planner::new().select(
        &app,
        &data,
        &SkewAnalyzer::paper(),
        &AppCostProfile::hll(),
        &opts,
    );
    let xs: Vec<u32> = plan.candidates.iter().map(|c| c.shape.x_sec).collect();
    assert_eq!(xs, (0..16).collect::<Vec<_>>(), "X = 0..M-1 without gaps");
    for pair in plan.candidates.windows(2) {
        assert!(pair[1].estimate.ram_blocks >= pair[0].estimate.ram_blocks);
    }
}
