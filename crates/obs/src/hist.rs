//! Log2-bucketed latency histograms.
//!
//! A [`Histogram`] keeps 64 power-of-two buckets: bucket 0 holds the
//! values 0 and 1, bucket `i` (i ≥ 1) the range `[2^(i-1), 2^i)` — wide
//! enough for nanosecond latencies up to centuries with a fixed 512-byte
//! footprint and an O(1) branch-free `record`. Quantiles interpolate
//! linearly inside the covering bucket and are clamped to the observed
//! `[min, max]`, so the relative error is bounded by the bucket width
//! (a factor of two) and is usually much smaller.
//!
//! Histograms are plain counters: they merge by bucketwise addition
//! (associative and commutative, the pool-aggregation requirement).

use crate::json::Json;

/// Number of log2 buckets; covers the full `u64` range.
pub const BUCKETS: usize = 64;

/// A log2-bucketed histogram of `u64` samples (typically nanoseconds).
#[derive(Debug, Clone)]
pub struct Histogram {
    buckets: [u64; BUCKETS],
    count: u64,
    sum: u64,
    min: u64,
    max: u64,
}

impl Default for Histogram {
    fn default() -> Histogram {
        Histogram {
            buckets: [0; BUCKETS],
            count: 0,
            sum: 0,
            min: u64::MAX,
            max: 0,
        }
    }
}

/// Bucket index of a value: 0 for 0 and 1, else `floor(log2(v)) + 1`.
#[inline]
fn bucket_of(v: u64) -> usize {
    if v <= 1 {
        0
    } else {
        (64 - v.leading_zeros()) as usize - 1
    }
}

/// Inclusive `[lo, hi]` range a bucket covers.
fn bucket_range(i: usize) -> (u64, u64) {
    if i == 0 {
        (0, 1)
    } else if i == BUCKETS - 1 {
        (1u64 << i, u64::MAX)
    } else {
        (1u64 << i, (1u64 << (i + 1)) - 1)
    }
}

impl Histogram {
    pub fn new() -> Histogram {
        Histogram::default()
    }

    /// Records one sample.
    #[inline]
    pub fn record(&mut self, v: u64) {
        self.buckets[bucket_of(v)] += 1;
        self.count += 1;
        self.sum = self.sum.saturating_add(v);
        if v < self.min {
            self.min = v;
        }
        if v > self.max {
            self.max = v;
        }
    }

    pub fn count(&self) -> u64 {
        self.count
    }

    pub fn sum(&self) -> u64 {
        self.sum
    }

    pub fn is_empty(&self) -> bool {
        self.count == 0
    }

    /// Smallest recorded sample (0 when empty).
    pub fn min(&self) -> u64 {
        if self.count == 0 {
            0
        } else {
            self.min
        }
    }

    /// Largest recorded sample (0 when empty).
    pub fn max(&self) -> u64 {
        self.max
    }

    /// Arithmetic mean (0 when empty).
    pub fn mean(&self) -> f64 {
        if self.count == 0 {
            0.0
        } else {
            self.sum as f64 / self.count as f64
        }
    }

    /// The `q`-quantile (`q` in `[0, 1]`): the value below which a `q`
    /// fraction of the samples fall, interpolated within its log2 bucket
    /// and clamped to the observed `[min, max]`. Returns 0 when empty.
    pub fn quantile(&self, q: f64) -> u64 {
        if self.count == 0 {
            return 0;
        }
        // 1-based rank of the requested sample
        let rank = ((q * self.count as f64).ceil() as u64).clamp(1, self.count);
        let mut seen = 0u64;
        for (i, &n) in self.buckets.iter().enumerate() {
            if n == 0 {
                continue;
            }
            if seen + n >= rank {
                let (lo, hi) = bucket_range(i);
                // position of the rank inside this bucket, in [0, 1]
                let frac = (rank - seen) as f64 / n as f64;
                let est = lo as f64 + (hi - lo) as f64 * frac;
                return (est as u64).clamp(self.min(), self.max);
            }
            seen += n;
        }
        self.max
    }

    pub fn p50(&self) -> u64 {
        self.quantile(0.50)
    }

    pub fn p95(&self) -> u64 {
        self.quantile(0.95)
    }

    pub fn p99(&self) -> u64 {
        self.quantile(0.99)
    }

    /// Bucketwise addition — associative, commutative, with the empty
    /// histogram as identity. The pool-level aggregation primitive.
    pub fn merge(&mut self, other: &Histogram) {
        for (b, o) in self.buckets.iter_mut().zip(other.buckets.iter()) {
            *b += o;
        }
        self.count += other.count;
        self.sum = self.sum.saturating_add(other.sum);
        if other.count > 0 {
            if other.min < self.min {
                self.min = other.min;
            }
            if other.max > self.max {
                self.max = other.max;
            }
        }
    }

    /// Zeroes all samples.
    pub fn reset(&mut self) {
        *self = Histogram::default();
    }

    /// `{count, sum, min, max, mean, p50, p95, p99}` summary object.
    pub fn to_json(&self) -> Json {
        Json::obj([
            ("count", Json::Int(self.count as i64)),
            ("sum", Json::Int(self.sum as i64)),
            ("min", Json::Int(self.min() as i64)),
            ("max", Json::Int(self.max as i64)),
            ("mean", Json::Num(self.mean())),
            ("p50", Json::Int(self.p50() as i64)),
            ("p95", Json::Int(self.p95() as i64)),
            ("p99", Json::Int(self.p99() as i64)),
        ])
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn bucket_boundaries() {
        assert_eq!(bucket_of(0), 0);
        assert_eq!(bucket_of(1), 0);
        assert_eq!(bucket_of(2), 1);
        assert_eq!(bucket_of(3), 1);
        assert_eq!(bucket_of(4), 2);
        assert_eq!(bucket_of(7), 2);
        assert_eq!(bucket_of(8), 3);
        assert_eq!(bucket_of(1023), 9);
        assert_eq!(bucket_of(1024), 10);
        assert_eq!(bucket_of(u64::MAX), 63);
        // every bucket's range maps back to that bucket
        for i in 0..BUCKETS {
            let (lo, hi) = bucket_range(i);
            assert_eq!(bucket_of(lo), i, "lo of bucket {i}");
            assert_eq!(bucket_of(hi), i, "hi of bucket {i}");
        }
    }

    #[test]
    fn empty_histogram_edge_cases() {
        let h = Histogram::new();
        assert!(h.is_empty());
        assert_eq!(h.count(), 0);
        assert_eq!(h.min(), 0);
        assert_eq!(h.max(), 0);
        assert_eq!(h.mean(), 0.0);
        assert_eq!(h.p50(), 0);
        assert_eq!(h.p99(), 0);
        let j = h.to_json().to_string();
        assert!(Json::parse(&j).is_ok());
    }

    #[test]
    fn single_sample_quantiles_are_exact() {
        let mut h = Histogram::new();
        h.record(777);
        for q in [0.0, 0.5, 0.95, 0.99, 1.0] {
            assert_eq!(h.quantile(q), 777, "q={q}");
        }
        assert_eq!(h.min(), 777);
        assert_eq!(h.max(), 777);
    }

    #[test]
    fn quantiles_on_known_uniform_distribution() {
        // 1..=1000 once each: p50 ≈ 500, p95 ≈ 950, p99 ≈ 990, within
        // one log2 bucket's interpolation error
        let mut h = Histogram::new();
        for v in 1..=1000u64 {
            h.record(v);
        }
        assert_eq!(h.count(), 1000);
        assert_eq!(h.min(), 1);
        assert_eq!(h.max(), 1000);
        let p50 = h.p50();
        assert!((400..=600).contains(&p50), "p50={p50}");
        let p95 = h.p95();
        assert!((880..=1000).contains(&p95), "p95={p95}");
        let p99 = h.p99();
        assert!((920..=1000).contains(&p99), "p99={p99}");
        // monotone in q
        assert!(h.quantile(0.1) <= p50 && p50 <= p95 && p95 <= p99);
        assert!(p99 <= h.quantile(1.0));
    }

    #[test]
    fn bimodal_distribution_p99_sees_the_tail() {
        // 99 fast samples at 100ns, 1 slow at 1ms: p50 stays in the fast
        // mode's bucket, p99+ reaches the slow one
        let mut h = Histogram::new();
        for _ in 0..99 {
            h.record(100);
        }
        h.record(1_000_000);
        assert!(h.p50() < 200, "p50={}", h.p50());
        assert!(h.quantile(1.0) >= 524_288, "tail={}", h.quantile(1.0));
    }

    #[test]
    fn merge_is_associative_and_has_identity() {
        let mk = |vals: &[u64]| {
            let mut h = Histogram::new();
            for &v in vals {
                h.record(v);
            }
            h
        };
        let a = mk(&[1, 5, 9]);
        let b = mk(&[100, 200]);
        let c = mk(&[7]);
        // (a+b)+c
        let mut l = a.clone();
        l.merge(&b);
        l.merge(&c);
        // a+(b+c)
        let mut bc = b.clone();
        bc.merge(&c);
        let mut r = a.clone();
        r.merge(&bc);
        assert_eq!(l.buckets, r.buckets);
        assert_eq!(l.count(), r.count());
        assert_eq!(l.sum(), r.sum());
        assert_eq!(l.min(), r.min());
        assert_eq!(l.max(), r.max());
        assert_eq!(l.count(), 6);
        // identity
        let mut i = a.clone();
        i.merge(&Histogram::new());
        assert_eq!(i.buckets, a.buckets);
        assert_eq!(i.min(), a.min());
        let mut e = Histogram::new();
        e.merge(&a);
        assert_eq!(e.buckets, a.buckets);
        assert_eq!(e.max(), a.max());
    }

    #[test]
    fn json_summary_round_trips() {
        let mut h = Histogram::new();
        for v in [3, 3, 3, 50, 700] {
            h.record(v);
        }
        let j = Json::parse(&h.to_json().to_string()).unwrap();
        assert_eq!(j.get("count"), Some(&Json::Int(5)));
        assert_eq!(j.get("min"), Some(&Json::Int(3)));
        assert_eq!(j.get("max"), Some(&Json::Int(700)));
        assert!(j.get("p50").is_some() && j.get("p99").is_some());
    }
}
