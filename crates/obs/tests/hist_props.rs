//! Property tests for the log2-bucketed histogram: quantiles stay within
//! the recorded range and one bucket of the true order statistic, merge
//! is associative and agrees with recording the concatenation.

// Gated behind the `proptest` feature; the strategies and macros come
// from the in-tree deterministic stand-in (`crates/proptest`). Run with
// `cargo test -p xsb-obs --features proptest`.
#![cfg(feature = "proptest")]

use proptest::prelude::*;
use xsb_obs::Histogram;

fn hist_of(vals: &[u64]) -> Histogram {
    let mut h = Histogram::new();
    for &v in vals {
        h.record(v);
    }
    h
}

/// Samples spanning many buckets: 0 .. ~2^40.
fn sample() -> impl Strategy<Value = u64> {
    (0u64..40).prop_map(|shift| 1u64 << shift).prop_map(|hi| hi)
}

fn samples(max_len: usize) -> impl Strategy<Value = Vec<u64>> {
    proptest::collection::vec(
        (0u64..40u64, 0u64..1000u64).prop_map(|(shift, off)| (1u64 << shift).wrapping_add(off)),
        0..max_len,
    )
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(128))]

    /// Every quantile lies within [min, max], and quantiles are monotone
    /// in q.
    #[test]
    fn quantiles_bounded_and_monotone(vals in samples(64)) {
        let h = hist_of(&vals);
        if vals.is_empty() {
            prop_assert_eq!(h.p50(), 0);
            prop_assert_eq!(h.p99(), 0);
        } else {
            let lo = *vals.iter().min().unwrap();
            let hi = *vals.iter().max().unwrap();
            let mut prev = 0u64;
            for q in [0.01, 0.25, 0.5, 0.75, 0.95, 0.99, 1.0] {
                let v = h.quantile(q);
                prop_assert!(v >= lo && v <= hi, "q={} v={} range=[{},{}]", q, v, lo, hi);
                prop_assert!(v >= prev, "quantile not monotone at q={}", q);
                prev = v;
            }
        }
    }

    /// The estimated quantile is within a factor of two of the true order
    /// statistic (the log2-bucket error bound).
    #[test]
    fn quantile_within_one_bucket_of_truth(vals in samples(64), qi in 1u64..100u64) {
        if vals.is_empty() {
            return Ok(());
        }
        let q = qi as f64 / 100.0;
        let h = hist_of(&vals);
        let mut sorted = vals.clone();
        sorted.sort_unstable();
        let rank = ((q * sorted.len() as f64).ceil() as usize).clamp(1, sorted.len());
        let truth = sorted[rank - 1];
        let est = h.quantile(q);
        // same log2 bucket ⇒ est/truth ratio < 2 (plus the 0/1 bucket)
        prop_assert!(
            est <= truth.saturating_mul(2).max(1) && truth <= est.saturating_mul(2).max(1),
            "q={} est={} truth={}",
            q, est, truth
        );
    }

    /// merge(a, b) has the same buckets/count/sum/min/max as recording
    /// the concatenated sample stream, and is associative.
    #[test]
    fn merge_agrees_with_concatenation(xs in samples(32), ys in samples(32), zs in samples(16)) {
        let mut merged = hist_of(&xs);
        merged.merge(&hist_of(&ys));
        let concat: Vec<u64> = xs.iter().chain(ys.iter()).copied().collect();
        let direct = hist_of(&concat);
        prop_assert_eq!(merged.count(), direct.count());
        prop_assert_eq!(merged.sum(), direct.sum());
        prop_assert_eq!(merged.min(), direct.min());
        prop_assert_eq!(merged.max(), direct.max());
        for q in [0.5, 0.95, 0.99] {
            prop_assert_eq!(merged.quantile(q), direct.quantile(q));
        }
        // associativity: (x+y)+z == x+(y+z) on every observable
        let mut left = hist_of(&xs);
        left.merge(&hist_of(&ys));
        left.merge(&hist_of(&zs));
        let mut yz = hist_of(&ys);
        yz.merge(&hist_of(&zs));
        let mut right = hist_of(&xs);
        right.merge(&yz);
        prop_assert_eq!(left.count(), right.count());
        prop_assert_eq!(left.sum(), right.sum());
        prop_assert_eq!(left.min(), right.min());
        prop_assert_eq!(left.max(), right.max());
        for q in [0.5, 0.95, 0.99] {
            prop_assert_eq!(left.quantile(q), right.quantile(q));
        }
    }

    /// A single sample pins every quantile exactly.
    #[test]
    fn single_sample_is_every_quantile(v in sample()) {
        let h = hist_of(&[v]);
        for q in [0.0, 0.5, 0.95, 0.99, 1.0] {
            prop_assert_eq!(h.quantile(q), v);
        }
    }
}
