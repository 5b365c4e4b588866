//! Per-phase run-time measurement (paper §III "time efficiency" and the
//! breakdown analysis of Figures 7–9).
//!
//! Blocking workflows report block building / purging / filtering /
//! comparison-cleaning times; NN methods report pre-processing / indexing /
//! querying times. A [`PhaseBreakdown`] is an ordered list of named phase
//! durations that sums to the method's RT.

use std::time::{Duration, Instant};

/// A simple monotonic stopwatch.
#[derive(Debug, Clone, Copy)]
pub struct Stopwatch {
    started: Instant,
}

impl Stopwatch {
    /// Starts timing now.
    pub fn start() -> Self {
        Self {
            started: Instant::now(),
        }
    }

    /// Elapsed time since start.
    pub fn elapsed(&self) -> Duration {
        self.started.elapsed()
    }

    /// Restarts the stopwatch and returns the lap time.
    pub fn lap(&mut self) -> Duration {
        let now = Instant::now();
        let lap = now - self.started;
        self.started = now;
        lap
    }
}

/// The pipeline stage a phase belongs to (paper §V: preparation work is
/// amortizable across a method's configuration grid, query work is not).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Stage {
    /// Representation-dependent work: tokenization, embedding, index
    /// construction. Shareable across grid points via the artifact cache.
    Prepare,
    /// Configuration-dependent work: thresholding, probing, pruning.
    Query,
}

/// Named phase durations of a single filter execution, each tagged with the
/// [`Stage`] it belongs to.
#[derive(Debug, Clone, Default)]
pub struct PhaseBreakdown {
    phases: Vec<(String, Duration, Stage)>,
    /// Prepare time attributed to this execution once artifact reuse is
    /// accounted for (prepare wall time divided by the number of grid
    /// points sharing the artifact). `None` until a cache assigns it.
    amortized_prepare: Option<Duration>,
}

impl PhaseBreakdown {
    /// Creates an empty breakdown.
    pub fn new() -> Self {
        Self::default()
    }

    /// Records a query-stage phase; durations for repeated names
    /// accumulate (the stage of the first record wins).
    pub fn record(&mut self, name: &str, d: Duration) {
        self.record_in(Stage::Query, name, d);
    }

    /// Records a phase in an explicit stage; durations for repeated names
    /// accumulate (the stage of the first record wins).
    pub fn record_in(&mut self, stage: Stage, name: &str, d: Duration) {
        if let Some(entry) = self.phases.iter_mut().find(|(n, _, _)| n == name) {
            entry.1 += d;
        } else {
            self.phases.push((name.to_owned(), d, stage));
        }
    }

    /// Times `f` and records its duration as a query-stage phase under
    /// `name`, returning `f`'s output.
    pub fn time<T>(&mut self, name: &str, f: impl FnOnce() -> T) -> T {
        self.time_in(Stage::Query, name, f)
    }

    /// Times `f` and records its duration under `name` in `stage`,
    /// returning `f`'s output.
    pub fn time_in<T>(&mut self, stage: Stage, name: &str, f: impl FnOnce() -> T) -> T {
        let sw = Stopwatch::start();
        let out = f();
        self.record_in(stage, name, sw.elapsed());
        out
    }

    /// The duration recorded for `name`, if any.
    pub fn get(&self, name: &str) -> Option<Duration> {
        self.phases
            .iter()
            .find(|(n, _, _)| n == name)
            .map(|(_, d, _)| *d)
    }

    /// Ordered `(phase, duration)` view.
    pub fn phases(&self) -> Vec<(String, Duration)> {
        self.phases
            .iter()
            .map(|(n, d, _)| (n.clone(), *d))
            .collect()
    }

    /// Ordered `(phase, duration, stage)` view for stage-aware consumers.
    pub fn entries(&self) -> &[(String, Duration, Stage)] {
        &self.phases
    }

    /// The overall run-time: the sum of all phases.
    pub fn total(&self) -> Duration {
        self.phases.iter().map(|(_, d, _)| *d).sum()
    }

    /// The sum of prepare-stage phases (wall time, not amortized).
    pub fn prepare_total(&self) -> Duration {
        self.stage_total(Stage::Prepare)
    }

    /// The sum of query-stage phases.
    pub fn query_total(&self) -> Duration {
        self.stage_total(Stage::Query)
    }

    fn stage_total(&self, stage: Stage) -> Duration {
        self.phases
            .iter()
            .filter(|(_, _, s)| *s == stage)
            .map(|(_, d, _)| *d)
            .sum()
    }

    /// Sets the amortized prepare time (see the field docs).
    pub fn set_amortized_prepare(&mut self, d: Duration) {
        self.amortized_prepare = Some(d);
    }

    /// Amortized prepare time, when an artifact cache assigned one.
    pub fn amortized_prepare(&self) -> Option<Duration> {
        self.amortized_prepare
    }

    /// Merges another breakdown into this one (phase-wise accumulation;
    /// new phases keep their stage, the amortized prepare times add up).
    pub fn merge(&mut self, other: &PhaseBreakdown) {
        for (name, d, stage) in &other.phases {
            self.record_in(*stage, name, *d);
        }
        if let Some(d) = other.amortized_prepare {
            self.amortized_prepare = Some(self.amortized_prepare.unwrap_or(Duration::ZERO) + d);
        }
    }

    /// Fraction of the total attributed to `name` (0 when the total is 0).
    pub fn fraction(&self, name: &str) -> f64 {
        let total = self.total().as_secs_f64();
        if total == 0.0 {
            return 0.0;
        }
        self.get(name).map_or(0.0, |d| d.as_secs_f64() / total)
    }
}

/// Number of buckets in a [`LatencyHistogram`]: powers of two from 1 µs
/// up to ~2³⁰ µs (≈ 18 minutes), with the last bucket absorbing anything
/// slower.
const HISTOGRAM_BUCKETS: usize = 32;

/// A log-bucketed latency histogram: bucket `i` counts samples whose
/// microsecond value has `i` significant bits, i.e. falls in
/// `[2^(i-1), 2^i)` µs (bucket 0 is exactly 0 µs). Recording is O(1) with
/// no allocation, quantiles are read from bucket upper bounds, so p99 over
/// millions of requests costs 32 words of memory — the shape the serve
/// daemon's `/stats` endpoint reports.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct LatencyHistogram {
    counts: Vec<u64>,
    total: u64,
}

impl Default for LatencyHistogram {
    fn default() -> Self {
        Self::new()
    }
}

impl LatencyHistogram {
    /// An empty histogram.
    pub fn new() -> Self {
        Self {
            counts: vec![0; HISTOGRAM_BUCKETS],
            total: 0,
        }
    }

    /// Records one sample.
    pub fn record(&mut self, d: Duration) {
        let us = u64::try_from(d.as_micros()).unwrap_or(u64::MAX);
        let idx = (64 - us.leading_zeros() as usize).min(HISTOGRAM_BUCKETS - 1);
        self.counts[idx] += 1;
        self.total += 1;
    }

    /// Number of recorded samples.
    pub fn len(&self) -> u64 {
        self.total
    }

    /// True with no samples recorded.
    pub fn is_empty(&self) -> bool {
        self.total == 0
    }

    /// The inclusive upper bound of bucket `idx`, in microseconds.
    fn bucket_bound_us(idx: usize) -> u64 {
        if idx == 0 {
            0
        } else {
            (1u64 << idx) - 1
        }
    }

    /// The `q`-quantile (0 ≤ q ≤ 1) as the upper bound of the bucket the
    /// rank lands in — an over-estimate by less than 2×, which is what a
    /// log-bucketed histogram promises. Zero with no samples.
    pub fn quantile(&self, q: f64) -> Duration {
        if self.total == 0 {
            return Duration::ZERO;
        }
        let rank = ((q.clamp(0.0, 1.0) * self.total as f64).ceil() as u64).max(1);
        let mut seen = 0u64;
        for (idx, &count) in self.counts.iter().enumerate() {
            seen += count;
            if seen >= rank {
                return Duration::from_micros(Self::bucket_bound_us(idx));
            }
        }
        Duration::from_micros(Self::bucket_bound_us(HISTOGRAM_BUCKETS - 1))
    }

    /// Adds another histogram's samples into this one.
    pub fn merge(&mut self, other: &LatencyHistogram) {
        for (mine, theirs) in self.counts.iter_mut().zip(&other.counts) {
            *mine += theirs;
        }
        self.total += other.total;
    }

    /// Rebuilds a histogram from a [`buckets`](Self::buckets) snapshot —
    /// how the merge proxy reconstitutes each child's stats histogram
    /// from its wire-serialized `(upper_bound_µs, count)` pairs before
    /// merging. Errors on a bound that is not a real bucket bound, so a
    /// corrupted snapshot cannot silently shift quantiles.
    pub fn from_buckets(buckets: &[(u64, u64)]) -> Result<Self, String> {
        let mut h = Self::new();
        for &(bound, count) in buckets {
            let idx = match bound {
                0 => 0,
                b => {
                    let idx = 64 - b.leading_zeros() as usize;
                    let idx = idx.min(HISTOGRAM_BUCKETS - 1);
                    if Self::bucket_bound_us(idx) != b {
                        return Err(format!("{b} µs is not a histogram bucket bound"));
                    }
                    idx
                }
            };
            h.counts[idx] += count;
            h.total += count;
        }
        Ok(h)
    }

    /// Non-empty `(upper_bound_µs, count)` buckets, in ascending order —
    /// the snapshot the serve stats endpoint serializes.
    pub fn buckets(&self) -> Vec<(u64, u64)> {
        self.counts
            .iter()
            .enumerate()
            .filter(|(_, &c)| c > 0)
            .map(|(idx, &c)| (Self::bucket_bound_us(idx), c))
            .collect()
    }
}

/// Formats a duration the way the paper's Table VII does: `"316 ms"` below
/// a second, `"3.5 s"` from a second up, `"1.6 m"` from a minute up.
pub fn format_runtime(d: Duration) -> String {
    let ms = d.as_secs_f64() * 1e3;
    if ms < 1000.0 {
        format!("{ms:.0} ms")
    } else if ms < 60_000.0 {
        format!("{:.1} s", ms / 1e3)
    } else {
        format!("{:.1} m", ms / 6e4)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn record_accumulates_repeated_phases() {
        let mut b = PhaseBreakdown::new();
        b.record("query", Duration::from_millis(5));
        b.record("query", Duration::from_millis(7));
        assert_eq!(b.get("query"), Some(Duration::from_millis(12)));
        assert_eq!(b.phases().len(), 1);
    }

    #[test]
    fn total_sums_phases() {
        let mut b = PhaseBreakdown::new();
        b.record("a", Duration::from_millis(3));
        b.record("b", Duration::from_millis(4));
        assert_eq!(b.total(), Duration::from_millis(7));
    }

    #[test]
    fn time_captures_closure_output() {
        let mut b = PhaseBreakdown::new();
        let v = b.time("work", || 21 * 2);
        assert_eq!(v, 42);
        assert!(b.get("work").is_some());
    }

    #[test]
    fn merge_combines_breakdowns() {
        let mut a = PhaseBreakdown::new();
        a.record("x", Duration::from_millis(1));
        let mut b = PhaseBreakdown::new();
        b.record("x", Duration::from_millis(2));
        b.record("y", Duration::from_millis(3));
        a.merge(&b);
        assert_eq!(a.get("x"), Some(Duration::from_millis(3)));
        assert_eq!(a.get("y"), Some(Duration::from_millis(3)));
    }

    #[test]
    fn fraction_is_normalized() {
        let mut b = PhaseBreakdown::new();
        b.record("a", Duration::from_millis(25));
        b.record("b", Duration::from_millis(75));
        assert!((b.fraction("b") - 0.75).abs() < 1e-9);
        assert_eq!(PhaseBreakdown::new().fraction("a"), 0.0);
    }

    #[test]
    fn stages_partition_the_total() {
        let mut b = PhaseBreakdown::new();
        b.record_in(Stage::Prepare, "index", Duration::from_millis(30));
        b.record_in(Stage::Query, "query", Duration::from_millis(10));
        assert_eq!(b.prepare_total(), Duration::from_millis(30));
        assert_eq!(b.query_total(), Duration::from_millis(10));
        assert_eq!(b.total(), Duration::from_millis(40));
        // Plain `record` defaults to the query stage.
        b.record("post", Duration::from_millis(5));
        assert_eq!(b.query_total(), Duration::from_millis(15));
    }

    #[test]
    fn merge_preserves_stages_and_amortization() {
        let mut a = PhaseBreakdown::new();
        a.record_in(Stage::Prepare, "index", Duration::from_millis(8));
        let mut b = PhaseBreakdown::new();
        b.record_in(Stage::Prepare, "index", Duration::from_millis(2));
        b.set_amortized_prepare(Duration::from_millis(1));
        a.merge(&b);
        assert_eq!(a.prepare_total(), Duration::from_millis(10));
        assert_eq!(a.amortized_prepare(), Some(Duration::from_millis(1)));
        let mut c = PhaseBreakdown::new();
        c.set_amortized_prepare(Duration::from_millis(4));
        a.merge(&c);
        assert_eq!(a.amortized_prepare(), Some(Duration::from_millis(5)));
    }

    #[test]
    fn first_record_wins_the_stage() {
        let mut b = PhaseBreakdown::new();
        b.record_in(Stage::Prepare, "index", Duration::from_millis(1));
        b.record_in(Stage::Query, "index", Duration::from_millis(2));
        assert_eq!(b.prepare_total(), Duration::from_millis(3));
        assert_eq!(b.query_total(), Duration::ZERO);
    }

    #[test]
    fn runtime_formatting_matches_paper_style() {
        assert_eq!(format_runtime(Duration::from_millis(316)), "316 ms");
        assert_eq!(format_runtime(Duration::from_millis(3500)), "3.5 s");
        assert_eq!(format_runtime(Duration::from_secs(96)), "1.6 m");
    }

    #[test]
    fn histogram_buckets_by_power_of_two_microseconds() {
        let mut h = LatencyHistogram::new();
        h.record(Duration::ZERO); // bucket 0 (bound 0)
        h.record(Duration::from_micros(1)); // bucket 1 (bound 1)
        h.record(Duration::from_micros(3)); // bucket 2 (bound 3)
        h.record(Duration::from_micros(900)); // bucket 10 (bound 1023)
        assert_eq!(h.len(), 4);
        assert_eq!(h.buckets(), vec![(0, 1), (1, 1), (3, 1), (1023, 1)]);
    }

    #[test]
    fn histogram_quantiles_read_bucket_bounds() {
        let mut h = LatencyHistogram::new();
        assert_eq!(h.quantile(0.5), Duration::ZERO);
        for _ in 0..98 {
            h.record(Duration::from_micros(100)); // bucket bound 127
        }
        h.record(Duration::from_micros(5_000)); // bound 8191
        h.record(Duration::from_micros(200_000)); // bound 262143
        assert_eq!(h.quantile(0.5), Duration::from_micros(127));
        assert_eq!(h.quantile(0.99), Duration::from_micros(8191));
        assert_eq!(h.quantile(1.0), Duration::from_micros(262_143));
    }

    #[test]
    fn histogram_clamps_huge_samples_and_merges() {
        let mut h = LatencyHistogram::new();
        h.record(Duration::from_secs(86_400)); // beyond the last bound
        let mut other = LatencyHistogram::new();
        other.record(Duration::from_micros(2));
        h.merge(&other);
        assert_eq!(h.len(), 2);
        let buckets = h.buckets();
        assert_eq!(buckets.len(), 2);
        assert_eq!(buckets[0], (3, 1));
    }

    #[test]
    fn histogram_merge_matches_union_of_samples() {
        // The quantiles of a merged histogram must equal those of one
        // histogram fed the union of both sample sets — the property the
        // multi-process stats aggregation leans on.
        let samples_a: Vec<u64> = (0..500).map(|i| (i * 37) % 900).collect();
        let samples_b: Vec<u64> = (0..300).map(|i| 1_000 + (i * 91) % 50_000).collect();
        let mut a = LatencyHistogram::new();
        let mut b = LatencyHistogram::new();
        let mut union = LatencyHistogram::new();
        for &us in &samples_a {
            a.record(Duration::from_micros(us));
            union.record(Duration::from_micros(us));
        }
        for &us in &samples_b {
            b.record(Duration::from_micros(us));
            union.record(Duration::from_micros(us));
        }
        a.merge(&b);
        assert_eq!(a.len(), union.len());
        assert_eq!(a.buckets(), union.buckets());
        for q in [0.0, 0.5, 0.9, 0.99, 1.0] {
            assert_eq!(a.quantile(q), union.quantile(q), "q={q}");
        }
    }

    #[test]
    fn histogram_merge_with_empty_is_identity() {
        let mut h = LatencyHistogram::new();
        h.record(Duration::from_micros(42));
        let before = h.clone();
        h.merge(&LatencyHistogram::new());
        assert_eq!(h, before);
        let mut empty = LatencyHistogram::new();
        empty.merge(&before);
        assert_eq!(empty, before);
    }

    #[test]
    fn from_buckets_roundtrips_snapshots() {
        let mut h = LatencyHistogram::new();
        for us in [0u64, 1, 3, 900, 5_000, 200_000] {
            h.record(Duration::from_micros(us));
        }
        let rebuilt = LatencyHistogram::from_buckets(&h.buckets()).expect("valid bounds");
        assert_eq!(rebuilt, h);
        assert_eq!(
            LatencyHistogram::from_buckets(&[]).unwrap(),
            LatencyHistogram::new()
        );
        assert!(
            LatencyHistogram::from_buckets(&[(100, 1)]).is_err(),
            "100 µs is not a power-of-two-minus-one bound"
        );
    }

    #[test]
    fn stopwatch_lap_resets() {
        let mut sw = Stopwatch::start();
        std::thread::sleep(Duration::from_millis(2));
        let lap = sw.lap();
        assert!(lap >= Duration::from_millis(1));
        assert!(sw.elapsed() < lap + Duration::from_millis(50));
    }
}
