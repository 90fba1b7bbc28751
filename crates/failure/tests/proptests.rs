//! Property-based tests of failure generation and prediction.

use proptest::prelude::*;

use pckpt_failure::{
    FailureDistribution, FailureTrace, LeadTimeModel, Predictor, Projection, RateEstimator,
    TraceConfig,
};
use pckpt_simrng::SimRng;

fn arb_distribution() -> impl Strategy<Value = FailureDistribution> {
    prop_oneof![
        Just(FailureDistribution::LANL_SYSTEM_8),
        Just(FailureDistribution::LANL_SYSTEM_18),
        Just(FailureDistribution::OLCF_TITAN),
    ]
}

proptest! {
    /// Traces are well-formed for any distribution × job size × horizon:
    /// sorted times inside the horizon, nodes inside the job, leads
    /// non-negative.
    #[test]
    fn traces_always_well_formed(
        dist in arb_distribution(),
        job_nodes in 1u64..5000,
        horizon in 10.0f64..5000.0,
        lead_scale in 0.1f64..2.0,
        seed in any::<u64>(),
    ) {
        let projection = if job_nodes <= dist.system_nodes {
            Projection::Thinning
        } else {
            Projection::MinStability
        };
        let cfg = TraceConfig::new(dist, job_nodes, horizon)
            .with_lead_scale(lead_scale)
            .with_projection(projection);
        let leads = LeadTimeModel::desh_default();
        let predictor = Predictor::aarohi_default();
        let mut rng = SimRng::seed_from(seed);
        let trace = FailureTrace::generate(&cfg, &leads, &predictor, &mut rng);
        prop_assert!(trace.failures.windows(2).all(|w| w[0].time_hours <= w[1].time_hours));
        prop_assert!(trace.failures.iter().all(|f| f.time_hours < horizon));
        prop_assert!(trace.failures.iter().all(|f| (f.node as u64) < job_nodes));
        prop_assert!(trace.failures.iter().all(|f| f.lead_secs >= 0.0));
        prop_assert!(trace.failures.iter().all(|f| (1..=10).contains(&f.sequence_id)));
        prop_assert!(trace.false_positives.windows(2).all(|w| w[0].at_hours <= w[1].at_hours));
        prop_assert!(trace.false_positives.iter().all(|p| !p.genuine));
        prop_assert!(trace.predicted_count() <= trace.failure_count());
    }

    /// The same seed always yields the same trace; the projection rate
    /// ordering holds: a bigger job never sees fewer failures in
    /// expectation (checked on a paired seed for thinning, where the
    /// coupling is exact).
    #[test]
    fn trace_determinism(seed in any::<u64>()) {
        let dist = FailureDistribution::OLCF_TITAN;
        let cfg = TraceConfig::new(dist, 1000, 2000.0).with_projection(Projection::Thinning);
        let leads = LeadTimeModel::desh_default();
        let predictor = Predictor::aarohi_default();
        let mut a = SimRng::seed_from(seed);
        let mut b = SimRng::seed_from(seed);
        let ta = FailureTrace::generate(&cfg, &leads, &predictor, &mut a);
        let tb = FailureTrace::generate(&cfg, &leads, &predictor, &mut b);
        prop_assert_eq!(ta, tb);
    }

    /// Weibull job projections: the job's mean inter-arrival exceeds the
    /// system's whenever the job is a strict subset.
    #[test]
    fn job_weibull_slower_than_system(
        dist in arb_distribution(),
        frac in 0.01f64..0.99,
    ) {
        use pckpt_simrng::Distribution;
        let job_nodes = ((dist.system_nodes as f64 * frac) as u64).max(1);
        let sys_mean = dist.system_weibull().mean().unwrap();
        let job_mean = dist.job_weibull(job_nodes).mean().unwrap();
        prop_assert!(job_mean >= sys_mean * (1.0 - 1e-9));
        // Rates: job_rate scales linearly with nodes.
        let r1 = dist.job_rate(job_nodes);
        let r2 = dist.job_rate(job_nodes * 2);
        prop_assert!((r2 / r1 - 2.0).abs() < 1e-9);
    }

    /// Predictor arithmetic: usable lead never negative, never exceeds
    /// the raw lead; FN constructor round-trips.
    #[test]
    fn predictor_arithmetic(recall in 0.0f64..=1.0, fp in 0.0f64..0.99, raw in 0.0f64..1e4) {
        let p = Predictor::new(recall, fp, 0.31e-3);
        let usable = p.usable_lead_secs(raw);
        prop_assert!(usable >= 0.0 && usable <= raw);
        prop_assert!((p.false_negative_rate() - (1.0 - recall)).abs() < 1e-12);
        let q = p.with_false_negative_rate(0.25);
        prop_assert!((q.recall() - 0.75).abs() < 1e-12);
        prop_assert_eq!(q.fp_share(), p.fp_share());
        if fp > 0.0 {
            prop_assert!(p.fp_per_true_prediction() > 0.0);
        }
    }

    /// Rate estimator: never negative, respects the prior with no data,
    /// and the empirical rate reflects in-window counts.
    #[test]
    fn rate_estimator_sane(
        window in 1.0f64..1000.0,
        prior in 0.001f64..10.0,
        gaps in proptest::collection::vec(0.01f64..50.0, 0..40),
    ) {
        let mut est = RateEstimator::new(window, prior, 3);
        prop_assert_eq!(est.rate(0.0), prior);
        let mut t = 0.0;
        for g in &gaps {
            t += g;
            est.record(t);
        }
        let r = est.rate(t);
        prop_assert!(r > 0.0);
        if est.in_window() >= 3 {
            let expected = est.in_window() as f64 / window.min(t.max(f64::EPSILON));
            prop_assert!((r - expected).abs() < 1e-9);
        } else {
            prop_assert_eq!(r, prior);
        }
    }

    /// A `rate` call made while fewer than `min_events` failures sit in
    /// the window returns the prior and can be skipped: an estimator that
    /// drops every such call returns the same value from every `rate`
    /// call it keeps, and reads the same `in_window` after every call it
    /// keeps, as one that makes them all.
    #[test]
    fn rate_calls_below_min_events_can_be_skipped(
        window in 1.0f64..100.0,
        prior in 0.001f64..10.0,
        min_events in 1usize..5,
        ops in proptest::collection::vec((0.0f64..40.0, any::<bool>()), 0..60),
    ) {
        let mut all = RateEstimator::new(window, prior, min_events);
        let mut kept = RateEstimator::new(window, prior, min_events);
        prop_assert_eq!(kept.min_events(), min_events);
        let mut t = 0.0;
        let mut skipped = 0;
        for &(gap, is_failure) in &ops {
            t += gap;
            if is_failure {
                all.record(t);
                kept.record(t);
            } else {
                let rate = all.rate(t);
                if kept.in_window() < kept.min_events() {
                    prop_assert_eq!(rate.to_bits(), prior.to_bits());
                    skipped += 1;
                    continue;
                }
                prop_assert_eq!(kept.rate(t).to_bits(), rate.to_bits());
            }
            prop_assert_eq!(kept.in_window(), all.in_window(), "after {} skipped", skipped);
        }
    }

    /// Lead-time mixture: scaled sampling matches scaled survival — the
    /// contract the variability experiments rely on.
    #[test]
    fn lead_scaling_contract(scale in 0.2f64..2.0, threshold in 1.0f64..300.0) {
        let m = LeadTimeModel::desh_default();
        // P(scale·L > threshold) must equal survival(threshold/scale).
        let direct = m.survival(threshold / scale);
        prop_assert!((0.0..=1.0).contains(&direct));
        // Spot-check by sampling.
        let mut rng = SimRng::seed_from(7);
        let n = 20_000;
        let hits = (0..n)
            .filter(|_| m.sample(&mut rng).1 * scale > threshold)
            .count();
        let emp = hits as f64 / n as f64;
        prop_assert!((emp - direct).abs() < 0.03, "empirical {emp} vs analytic {direct}");
    }
}
