//! Property tests of the DES kernel invariants.

use hpcqc_simcore::dist::Dist;
use hpcqc_simcore::events::EventQueue;
use hpcqc_simcore::rng::SimRng;
use hpcqc_simcore::stats::{Samples, TimeWeighted};
use hpcqc_simcore::time::{SimDuration, SimTime};
use proptest::prelude::*;

proptest! {
    #![proptest_config(ProptestConfig::with_cases(128))]

    /// Events pop in nondecreasing time order regardless of push order.
    #[test]
    fn event_queue_total_order(times in prop::collection::vec(0u64..1_000_000, 1..200)) {
        let mut q = EventQueue::new();
        for (i, t) in times.iter().enumerate() {
            q.schedule(SimTime::from_nanos(*t), i);
        }
        let mut last = SimTime::ZERO;
        let mut seen = 0;
        while let Some(ev) = q.pop() {
            prop_assert!(ev.time >= last, "time went backwards");
            last = ev.time;
            seen += 1;
        }
        prop_assert_eq!(seen, times.len());
    }

    /// Same-timestamp events pop in insertion (FIFO) order.
    #[test]
    fn event_queue_fifo_ties(groups in prop::collection::vec((0u64..100, 1usize..10), 1..30)) {
        let mut q = EventQueue::new();
        let mut expected: Vec<(u64, usize)> = Vec::new();
        let mut seq = 0usize;
        for (t, n) in &groups {
            for _ in 0..*n {
                q.schedule(SimTime::from_secs(*t), seq);
                expected.push((*t, seq));
                seq += 1;
            }
        }
        expected.sort_by_key(|(t, s)| (*t, *s));
        let mut popped = Vec::new();
        while let Some(ev) = q.pop() {
            popped.push((ev.time.as_nanos() / 1_000_000_000, ev.payload));
        }
        prop_assert_eq!(popped, expected);
    }

    /// Every distribution sample is non-negative and finite.
    #[test]
    fn dist_samples_nonnegative(seed in any::<u64>(), mean in 0.001f64..1e6) {
        let mut rng = SimRng::seed_from(seed);
        for dist in [
            Dist::constant(mean),
            Dist::uniform(0.0, mean),
            Dist::exponential(mean),
            Dist::log_normal_mean_cv(mean, 1.0),
            Dist::weibull(1.5, mean),
            Dist::erlang(3, mean),
            Dist::normal_clamped(mean, mean),
        ] {
            for _ in 0..50 {
                let v = dist.sample(&mut rng);
                prop_assert!(v.is_finite() && v >= 0.0, "{dist} produced {v}");
            }
        }
    }

    /// Clamped distributions respect their bounds exactly.
    #[test]
    fn clamp_bounds_hold(seed in any::<u64>(), lo in 0.0f64..10.0, width in 0.1f64..100.0) {
        let hi = lo + width;
        let dist = Dist::exponential(50.0).clamped(lo, hi);
        let mut rng = SimRng::seed_from(seed);
        for _ in 0..100 {
            let v = dist.sample(&mut rng);
            prop_assert!((lo..=hi).contains(&v));
        }
    }

    /// Forked RNG streams are reproducible and order-independent.
    #[test]
    fn rng_fork_reproducible(seed in any::<u64>(), label in "[a-z]{1,12}") {
        let a = SimRng::seed_from(seed).fork(&label).f64();
        let b = SimRng::seed_from(seed).fork(&label).f64();
        prop_assert_eq!(a, b);
    }

    /// Quantiles are monotone in q and bounded by min/max.
    #[test]
    fn quantiles_monotone(xs in prop::collection::vec(0.0f64..1e9, 2..200)) {
        let mut s: Samples = xs.iter().copied().collect();
        let q25 = s.quantile(0.25).unwrap();
        let q50 = s.quantile(0.5).unwrap();
        let q75 = s.quantile(0.75).unwrap();
        prop_assert!(q25 <= q50 && q50 <= q75);
        let lo = xs.iter().cloned().fold(f64::INFINITY, f64::min);
        let hi = xs.iter().cloned().fold(f64::NEG_INFINITY, f64::max);
        prop_assert!(q25 >= lo && q75 <= hi);
    }

    /// The time-weighted integral equals the hand-computed step sum.
    #[test]
    fn time_weighted_matches_manual(steps in prop::collection::vec((1u64..1_000, 0.0f64..100.0), 1..50)) {
        let mut tw = TimeWeighted::new(SimTime::ZERO, 0.0);
        let mut manual = 0.0;
        let mut now = SimTime::ZERO;
        let mut current = 0.0;
        for (dt, value) in &steps {
            let next = now + SimDuration::from_secs(*dt);
            manual += current * *dt as f64;
            tw.set(next, *value);
            now = next;
            current = *value;
        }
        prop_assert!((tw.integral(now) - manual).abs() < 1e-6 * (1.0 + manual.abs()));
    }

    /// Duration arithmetic: (t + d) − t == d for all representable pairs.
    #[test]
    fn time_roundtrip(t in 0u64..u64::MAX / 4, d in 0u64..u64::MAX / 4) {
        let base = SimTime::from_nanos(t);
        let dur = SimDuration::from_nanos(d);
        prop_assert_eq!((base + dur).since(base), dur);
    }
}
