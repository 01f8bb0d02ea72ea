//! Online statistics used by the metrics layer.
//!
//! * [`Samples`] — exact quantiles over a retained sample set.
//! * [`P2Quantile`] — constant-memory streaming quantile estimate (the P²
//!   algorithm), for facility-scale runs where retaining samples is not
//!   an option.
//! * [`TimeWeighted`] — exact time integrals of piecewise-constant signals,
//!   the workhorse behind every utilization number in the experiments.

use crate::time::{SimDuration, SimTime};
use serde::{Deserialize, Serialize};

/// A retained sample set with exact quantiles.
///
/// Scheduling experiments are small enough (≤ millions of jobs) that keeping
/// the samples is cheaper and more trustworthy than quantile sketches.
#[derive(Debug, Clone, Default, PartialEq, Serialize, Deserialize)]
pub struct Samples {
    values: Vec<f64>,
    sorted: bool,
}

impl Samples {
    /// Creates an empty sample set.
    pub fn new() -> Self {
        Samples {
            values: Vec::new(),
            sorted: true,
        }
    }

    /// Records one observation.
    pub fn record(&mut self, x: f64) {
        self.values.push(x);
        self.sorted = false;
    }

    /// Number of observations.
    pub fn len(&self) -> usize {
        self.values.len()
    }

    /// `true` if no observations were recorded.
    pub fn is_empty(&self) -> bool {
        self.values.is_empty()
    }

    /// Sample mean (0.0 when empty).
    pub fn mean(&self) -> f64 {
        if self.values.is_empty() {
            0.0
        } else {
            self.values.iter().sum::<f64>() / self.values.len() as f64
        }
    }

    /// Exact `q`-quantile by linear interpolation (`q` in `[0,1]`).
    ///
    /// Returns `None` when empty.
    ///
    /// # Panics
    ///
    /// Panics if `q` is outside `[0, 1]`.
    pub fn quantile(&mut self, q: f64) -> Option<f64> {
        assert!(
            (0.0..=1.0).contains(&q),
            "quantile: q must be in [0,1], got {q}"
        );
        if self.values.is_empty() {
            return None;
        }
        if !self.sorted {
            self.values.sort_by(f64::total_cmp);
            self.sorted = true;
        }
        let n = self.values.len();
        if n == 1 {
            return Some(self.values[0]);
        }
        let pos = q * (n - 1) as f64;
        let lo = pos.floor() as usize;
        let hi = pos.ceil() as usize;
        let frac = pos - lo as f64;
        Some(self.values[lo] * (1.0 - frac) + self.values[hi] * frac)
    }

    /// Median (p50).
    pub fn median(&mut self) -> Option<f64> {
        self.quantile(0.5)
    }

    /// 95th percentile.
    pub fn p95(&mut self) -> Option<f64> {
        self.quantile(0.95)
    }

    /// 99th percentile.
    pub fn p99(&mut self) -> Option<f64> {
        self.quantile(0.99)
    }

    /// Largest observation.
    pub fn max(&mut self) -> Option<f64> {
        self.quantile(1.0)
    }

    /// Immutable view of the recorded values (unsorted order not guaranteed).
    pub fn values(&self) -> &[f64] {
        &self.values
    }
}

impl Extend<f64> for Samples {
    fn extend<T: IntoIterator<Item = f64>>(&mut self, iter: T) {
        for v in iter {
            self.record(v);
        }
    }
}

impl FromIterator<f64> for Samples {
    fn from_iter<T: IntoIterator<Item = f64>>(iter: T) -> Self {
        let mut s = Samples::new();
        s.extend(iter);
        s
    }
}

/// Streaming quantile estimation with five markers: the P² algorithm
/// (Jain & Chlamtáč, 1985).
///
/// Exact quantiles need the whole sample set; [`Samples`] retains it, which
/// is fine for thousands of jobs and fatal for millions. `P2Quantile` keeps
/// **five** marker heights and positions — O(1) memory, O(1) update — and
/// converges on the true quantile for any stationary input. It is fully
/// deterministic (no sampling), so streamed simulations stay replayable.
///
/// Until five observations have arrived the estimate is exact (computed
/// from the retained handful).
///
/// # Examples
///
/// ```
/// use hpcqc_simcore::stats::P2Quantile;
///
/// // Track the 95th percentile of a million-observation stream in
/// // constant memory.
/// let mut p95 = P2Quantile::new(0.95);
/// for i in 0..10_000 {
///     // A deterministic pseudo-uniform ramble over [0, 1000).
///     p95.record(f64::from((i * 7919) % 10_000) / 10.0);
/// }
/// let est = p95.estimate().unwrap();
/// assert!((est - 950.0).abs() < 15.0, "estimate {est}");
/// assert_eq!(p95.count(), 10_000);
/// ```
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct P2Quantile {
    q: f64,
    /// Marker heights (estimated quantile curve), 5 entries once primed.
    heights: Vec<f64>,
    /// Actual marker positions, 1-based ranks.
    positions: Vec<f64>,
    /// Desired marker positions.
    desired: Vec<f64>,
    /// Per-observation increments of the desired positions.
    rates: Vec<f64>,
    count: u64,
}

impl P2Quantile {
    /// Creates an estimator for quantile `q`.
    ///
    /// # Panics
    ///
    /// Panics unless `0 < q < 1`.
    pub fn new(q: f64) -> Self {
        assert!(
            q > 0.0 && q < 1.0,
            "P2Quantile: q must be in (0, 1), got {q}"
        );
        P2Quantile {
            q,
            heights: Vec::with_capacity(5),
            positions: vec![1.0, 2.0, 3.0, 4.0, 5.0],
            desired: vec![1.0, 1.0 + 2.0 * q, 1.0 + 4.0 * q, 3.0 + 2.0 * q, 5.0],
            rates: vec![0.0, q / 2.0, q, (1.0 + q) / 2.0, 1.0],
            count: 0,
        }
    }

    /// The quantile this estimator tracks.
    pub fn q(&self) -> f64 {
        self.q
    }

    /// Number of observations recorded.
    pub fn count(&self) -> u64 {
        self.count
    }

    /// Records one observation in O(1) time and memory.
    pub fn record(&mut self, x: f64) {
        self.count += 1;
        if self.heights.len() < 5 {
            // Priming phase: retain and sort the first five observations.
            let at = self.heights.partition_point(|&h| h < x);
            self.heights.insert(at, x);
            return;
        }
        // Locate the cell containing x, clamping the extreme markers.
        let k = if x < self.heights[0] {
            self.heights[0] = x;
            0
        } else if x >= self.heights[4] {
            self.heights[4] = x;
            3
        } else {
            // First marker whose height exceeds x, minus one.
            (1..4).find(|&i| x < self.heights[i]).unwrap_or(4) - 1
        };
        for position in self.positions.iter_mut().skip(k + 1) {
            *position += 1.0;
        }
        for (desired, rate) in self.desired.iter_mut().zip(&self.rates) {
            *desired += rate;
        }
        // Adjust the three interior markers toward their desired positions
        // with the piecewise-parabolic (P²) update, falling back to linear
        // interpolation when the parabola would leave the bracket.
        for i in 1..4 {
            let d = self.desired[i] - self.positions[i];
            let ahead = self.positions[i + 1] - self.positions[i];
            let behind = self.positions[i - 1] - self.positions[i];
            if (d >= 1.0 && ahead > 1.0) || (d <= -1.0 && behind < -1.0) {
                let d = d.signum();
                let candidate = self.parabolic(i, d);
                self.heights[i] =
                    if self.heights[i - 1] < candidate && candidate < self.heights[i + 1] {
                        candidate
                    } else {
                        self.linear(i, d)
                    };
                self.positions[i] += d;
            }
        }
    }

    fn parabolic(&self, i: usize, d: f64) -> f64 {
        let (hm, h, hp) = (self.heights[i - 1], self.heights[i], self.heights[i + 1]);
        let (nm, n, np) = (
            self.positions[i - 1],
            self.positions[i],
            self.positions[i + 1],
        );
        h + d / (np - nm)
            * ((n - nm + d) * (hp - h) / (np - n) + (np - n - d) * (h - hm) / (n - nm))
    }

    fn linear(&self, i: usize, d: f64) -> f64 {
        let j = if d > 0.0 { i + 1 } else { i - 1 };
        self.heights[i]
            + d * (self.heights[j] - self.heights[i]) / (self.positions[j] - self.positions[i])
    }

    /// The current quantile estimate (`None` before any observation).
    ///
    /// Exact while fewer than five observations have arrived; the P²
    /// approximation afterwards.
    pub fn estimate(&self) -> Option<f64> {
        if self.heights.is_empty() {
            return None;
        }
        if self.heights.len() < 5 {
            // Exact nearest-rank-with-interpolation over the primed handful,
            // matching `Samples::quantile`.
            let n = self.heights.len();
            if n == 1 {
                return Some(self.heights[0]);
            }
            let pos = self.q * (n - 1) as f64;
            let lo = pos.floor() as usize;
            let hi = pos.ceil() as usize;
            let frac = pos - lo as f64;
            return Some(self.heights[lo] * (1.0 - frac) + self.heights[hi] * frac);
        }
        Some(self.heights[2])
    }
}

/// Exact time integral of a piecewise-constant signal.
///
/// Utilization, queue depth and allocated-node counts are all step
/// functions of simulation time; `TimeWeighted` integrates them exactly
/// between updates.
///
/// # Examples
///
/// ```
/// use hpcqc_simcore::stats::TimeWeighted;
/// use hpcqc_simcore::time::SimTime;
///
/// let mut tw = TimeWeighted::new(SimTime::ZERO, 0.0);
/// tw.set(SimTime::from_secs(10), 4.0);   // 0 for 10 s
/// tw.set(SimTime::from_secs(20), 0.0);   // 4 for 10 s
/// let avg = tw.time_average(SimTime::from_secs(20));
/// assert_eq!(avg, 2.0);
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct TimeWeighted {
    last_time: SimTime,
    value: f64,
    integral: f64, // value × seconds
    max: f64,
    start: SimTime,
}

impl TimeWeighted {
    /// Starts tracking at `start` with initial `value`.
    pub fn new(start: SimTime, value: f64) -> Self {
        TimeWeighted {
            last_time: start,
            value,
            integral: 0.0,
            max: value,
            start,
        }
    }

    /// Sets the signal to `value` from time `now` on.
    ///
    /// # Panics
    ///
    /// Panics if `now` precedes the previous update (simulation-logic bug).
    pub fn set(&mut self, now: SimTime, value: f64) {
        let dt = now.since(self.last_time).as_secs_f64();
        self.integral += self.value * dt;
        self.last_time = now;
        self.value = value;
        self.max = self.max.max(value);
    }

    /// Adds `delta` to the current value at time `now`.
    pub fn add(&mut self, now: SimTime, delta: f64) {
        let v = self.value + delta;
        self.set(now, v);
    }

    /// The current value of the signal.
    pub fn current(&self) -> f64 {
        self.value
    }

    /// The maximum value the signal has reached.
    pub fn max(&self) -> f64 {
        self.max
    }

    /// Integral of the signal from `start` to `until` (value × seconds).
    ///
    /// # Panics
    ///
    /// Panics if `until` precedes the last update.
    pub fn integral(&self, until: SimTime) -> f64 {
        self.integral + self.value * until.since(self.last_time).as_secs_f64()
    }

    /// Time average over `[start, until]`; 0.0 when the window is empty.
    pub fn time_average(&self, until: SimTime) -> f64 {
        let span = until.since(self.start).as_secs_f64();
        if span <= 0.0 {
            0.0
        } else {
            self.integral(until) / span
        }
    }
}

/// Bounded slowdown of a job, the standard batch-scheduling metric:
/// `max(1, (wait + run) / max(run, tau))` with threshold `tau` guarding
/// against division-by-tiny-runtime explosions.
pub fn bounded_slowdown(wait: SimDuration, run: SimDuration, tau: SimDuration) -> f64 {
    let denom = run.max_of(tau).as_secs_f64();
    let num = (wait + run).as_secs_f64();
    (num / denom).max(1.0)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn samples_quantiles() {
        let mut s: Samples = (1..=100).map(|i| i as f64).collect();
        assert_eq!(s.median(), Some(50.5));
        assert_eq!(s.quantile(0.0), Some(1.0));
        assert_eq!(s.max(), Some(100.0));
        assert!((s.p99().unwrap() - 99.01).abs() < 1e-9);
        assert_eq!(s.mean(), 50.5);
    }

    #[test]
    fn samples_single_value() {
        let mut s = Samples::new();
        s.record(42.0);
        assert_eq!(s.median(), Some(42.0));
        assert_eq!(s.quantile(0.99), Some(42.0));
    }

    #[test]
    fn samples_empty() {
        let mut s = Samples::new();
        assert_eq!(s.median(), None);
        assert!(s.is_empty());
        assert_eq!(s.mean(), 0.0);
    }

    #[test]
    fn p2_empty_and_tiny() {
        let mut p = P2Quantile::new(0.5);
        assert_eq!(p.estimate(), None);
        p.record(7.0);
        assert_eq!(p.estimate(), Some(7.0));
        p.record(1.0);
        p.record(3.0);
        // Exact interpolated median of {1, 3, 7}.
        assert_eq!(p.estimate(), Some(3.0));
        assert_eq!(p.count(), 3);
    }

    #[test]
    fn p2_tracks_uniform_quantiles() {
        // A deterministic low-discrepancy stream over [0, 1).
        let mut golden = 0.0f64;
        let mut p50 = P2Quantile::new(0.5);
        let mut p95 = P2Quantile::new(0.95);
        let mut p99 = P2Quantile::new(0.99);
        for _ in 0..100_000 {
            golden = (golden + 0.618_033_988_749_894_9) % 1.0;
            p50.record(golden);
            p95.record(golden);
            p99.record(golden);
        }
        assert!((p50.estimate().unwrap() - 0.5).abs() < 0.02);
        assert!((p95.estimate().unwrap() - 0.95).abs() < 0.02);
        assert!((p99.estimate().unwrap() - 0.99).abs() < 0.01);
    }

    #[test]
    fn p2_matches_exact_on_exponential_tail() {
        // Heavier-tailed input: compare against the exact quantile.
        let mut rng = crate::rng::SimRng::seed_from(17);
        let dist = crate::dist::Dist::exponential(100.0);
        let mut sketch = P2Quantile::new(0.95);
        let mut exact = Samples::new();
        for _ in 0..50_000 {
            let x = dist.sample(&mut rng);
            sketch.record(x);
            exact.record(x);
        }
        let truth = exact.p95().unwrap();
        let est = sketch.estimate().unwrap();
        assert!(
            (est - truth).abs() / truth < 0.05,
            "P² {est} vs exact {truth}"
        );
    }

    #[test]
    fn p2_is_deterministic() {
        let feed = |p: &mut P2Quantile| {
            for i in 0..10_000u64 {
                p.record(((i * 2_654_435_761) % 1_000_003) as f64);
            }
        };
        let mut a = P2Quantile::new(0.9);
        let mut b = P2Quantile::new(0.9);
        feed(&mut a);
        feed(&mut b);
        assert_eq!(a, b);
        assert_eq!(a.estimate(), b.estimate());
    }

    #[test]
    #[should_panic(expected = "(0, 1)")]
    fn p2_rejects_degenerate_quantile() {
        let _ = P2Quantile::new(1.0);
    }

    #[test]
    fn time_weighted_integral_exact() {
        let mut tw = TimeWeighted::new(SimTime::ZERO, 1.0);
        tw.set(SimTime::from_secs(5), 3.0);
        tw.set(SimTime::from_secs(10), 0.0);
        // 1×5 + 3×5 = 20 unit-seconds
        assert_eq!(tw.integral(SimTime::from_secs(10)), 20.0);
        assert_eq!(tw.time_average(SimTime::from_secs(10)), 2.0);
        assert_eq!(tw.max(), 3.0);
        // Integral keeps accruing with the final value.
        assert_eq!(tw.integral(SimTime::from_secs(20)), 20.0);
    }

    #[test]
    fn time_weighted_add() {
        let mut tw = TimeWeighted::new(SimTime::ZERO, 0.0);
        tw.add(SimTime::from_secs(1), 2.0);
        tw.add(SimTime::from_secs(2), -1.0);
        assert_eq!(tw.current(), 1.0);
    }

    #[test]
    fn bounded_slowdown_values() {
        let tau = SimDuration::from_secs(10);
        // wait 90, run 10 → (100)/10 = 10
        assert_eq!(
            bounded_slowdown(SimDuration::from_secs(90), SimDuration::from_secs(10), tau),
            10.0
        );
        // tiny runtime is bounded by tau
        assert_eq!(
            bounded_slowdown(SimDuration::from_secs(10), SimDuration::from_secs(1), tau),
            1.1
        );
        // never below 1
        assert_eq!(
            bounded_slowdown(SimDuration::ZERO, SimDuration::from_secs(1), tau),
            1.0
        );
    }
}
