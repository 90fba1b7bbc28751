//! Property-based tests over the whole stack: arbitrary (but valid)
//! failure traces and parameter points must never violate the simulator's
//! invariants.

use proptest::prelude::*;

use pckpt::core::CrSim;
use pckpt::prelude::*;

/// Strategy: a hand-rolled failure trace for POP-sized runs.
fn arb_trace(max_failures: usize) -> impl Strategy<Value = FailureTrace> {
    let failure = (
        1.0f64..460.0,  // time_hours (inside POP's 480 h run)
        0u32..126,      // node
        1u32..=10,      // sequence id
        0.6f64..400.0,  // lead seconds
        any::<bool>(),  // predicted
    )
        .prop_map(|(t, node, seq, lead, predicted)| pckpt::failure::FailureEvent {
            time_hours: t,
            node,
            sequence_id: seq,
            lead_secs: lead,
            est_lead_secs: lead,
            predicted,
        });
    let fp = (1.0f64..460.0, 0u32..126, 0.6f64..400.0).prop_map(|(t, node, lead)| Prediction {
        node,
        at_hours: t,
        lead_secs: lead,
        sequence_id: 1,
        genuine: false,
    });
    (
        proptest::collection::vec(failure, 0..=max_failures),
        proptest::collection::vec(fp, 0..=3),
    )
        .prop_map(|(mut failures, mut false_positives)| {
            failures.sort_by(|a, b| a.time_hours.partial_cmp(&b.time_hours).unwrap());
            false_positives.sort_by(|a, b| a.at_hours.partial_cmp(&b.at_hours).unwrap());
            FailureTrace {
                failures,
                false_positives,
            }
        })
}

fn arb_model() -> impl Strategy<Value = ModelKind> {
    prop_oneof![
        Just(ModelKind::B),
        Just(ModelKind::M1),
        Just(ModelKind::M2),
        Just(ModelKind::P1),
        Just(ModelKind::P2),
    ]
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// Wall time always decomposes exactly; FT ratio stays in [0, 1];
    /// every failure is either mitigated or paid for.
    #[test]
    fn accounting_invariant_holds_for_arbitrary_traces(
        trace in arb_trace(12),
        model in arb_model(),
    ) {
        let app = Application::by_name("POP").unwrap();
        let params = SimParams::paper_defaults(model, app);
        let leads = LeadTimeModel::desh_default();
        let n_failures = trace.failures.len() as u64;
        let result = CrSim::new(params, trace, &leads).run();
        prop_assert!(result.accounting_residual_secs().abs() < 1.0,
            "residual = {}", result.accounting_residual_secs());
        prop_assert!(result.wall_secs >= result.ideal_secs - 1.0);
        let ft = result.ledger.ft_ratio();
        prop_assert!((0.0..=1.0).contains(&ft));
        prop_assert!(result.ledger.failures_total <= n_failures);
        prop_assert!(result.ledger.mitigated() <= result.ledger.failures_total);
        prop_assert!(result.ledger.failures_predicted <= result.ledger.failures_total);
    }

    /// The base model never mitigates anything; prediction-free traces
    /// never trigger proactive machinery.
    #[test]
    fn base_model_never_acts_proactively(trace in arb_trace(8)) {
        let app = Application::by_name("POP").unwrap();
        let params = SimParams::paper_defaults(ModelKind::B, app);
        let leads = LeadTimeModel::desh_default();
        let result = CrSim::new(params, trace, &leads).run();
        prop_assert_eq!(result.ledger.mitigated(), 0);
        prop_assert_eq!(result.ledger.pckpt_rounds, 0);
        prop_assert_eq!(result.ledger.lm_started, 0);
        prop_assert_eq!(result.ledger.safeguard_ckpts, 0);
    }

    /// More failures (a superset trace) never shortens the run — with a
    /// *static* OCI. (With the adaptive OCI an extra failure can
    /// legitimately help: the rate estimator learns the burst sooner and
    /// tightens the interval before the next failure.)
    #[test]
    fn extra_failures_never_help(
        trace in arb_trace(6),
        extra_t in 10.0f64..400.0,
        extra_node in 0u32..126,
    ) {
        let app = Application::by_name("POP").unwrap();
        let leads = LeadTimeModel::desh_default();
        let mut params = SimParams::paper_defaults(ModelKind::B, app);
        params.dynamic_oci = false;
        let base = CrSim::new(params.clone(), trace.clone(), &leads).run();
        let mut more = trace;
        more.failures.push(pckpt::failure::FailureEvent {
            time_hours: extra_t,
            node: extra_node,
            sequence_id: 1,
            lead_secs: 30.0,
            est_lead_secs: 30.0,
            predicted: false,
        });
        more.failures
            .sort_by(|a, b| a.time_hours.partial_cmp(&b.time_hours).unwrap());
        let worse = CrSim::new(params, more, &leads).run();
        prop_assert!(worse.wall_secs >= base.wall_secs - 1.0,
            "an extra unpredicted failure must not speed the run up: {} vs {}",
            worse.wall_secs, base.wall_secs);
    }

    /// Arena reuse is invisible: a `CrSim` dirtied by one full run and
    /// then `reset_for_run` onto a new trace must produce exactly the
    /// result of a freshly built simulation of that trace — for any
    /// model and any pair of arbitrary traces.
    #[test]
    fn reset_then_run_equals_fresh_build(
        first in arb_trace(8),
        second in arb_trace(8),
        model in arb_model(),
    ) {
        use pckpt::desim::{run_with_queue, EventQueue};
        use pckpt::simrng::SimRng;
        let app = Application::by_name("POP").unwrap();
        let params = SimParams::paper_defaults(model, app);
        let leads = LeadTimeModel::desh_default();
        let budget = 10_000_000;

        let mut queue = EventQueue::new();
        let mut sim = CrSim::new(params.clone(), first, &leads)
            .with_bg_rng(SimRng::seed_from(1));
        run_with_queue(&mut sim, &mut queue, budget);

        queue.reset();
        sim.reset_for_run(&second, SimRng::seed_from(7));
        run_with_queue(&mut sim, &mut queue, budget);
        let reused = sim.result();

        let fresh = CrSim::new(params, second, &leads)
            .with_bg_rng(SimRng::seed_from(7))
            .run();
        prop_assert_eq!(reused, fresh);
    }

    /// The BB→PFS drain, stated on the recording alone. With `d` the
    /// drain time, a periodic checkpoint recorded at `T` becomes
    /// PFS-durable (`DRAIN_DONE` at exactly `T + d`) unless, after it, a
    /// failure strikes at or before `T + d` (it voids the drain, and at
    /// `T + d` itself it was queued first), or a newer checkpoint or the
    /// end of the run comes strictly before `T + d` (at `T + d` itself
    /// the drain completes first). All five models in analytic mode; in
    /// fluid mode B and M2, which have neither rounds nor safeguards, so
    /// every drain has the link to itself and `d` is its lone time.
    /// CHIMERA's 19-minute drain gives the failures a fair chance to
    /// land inside one.
    #[test]
    fn drains_complete_exactly_when_nothing_intervenes(
        trace in arb_trace(12),
        (model, fluid) in prop_oneof![
            arb_model().prop_map(|m| (m, false)),
            prop_oneof![Just(ModelKind::B), Just(ModelKind::M2)].prop_map(|m| (m, true)),
        ],
    ) {
        use pckpt::core::iosim::PfsMode;
        use pckpt::core::obs::{kind, Recorder};
        use pckpt::desim::SimDuration;
        let app = Application::by_name("CHIMERA").unwrap();
        let mut params = SimParams::paper_defaults(model, app);
        params.pfs_mode = if fluid { PfsMode::Fluid } else { PfsMode::Analytic };
        let leads = LeadTimeModel::desh_default();
        let rec = Recorder::enabled(1 << 20);
        let mut sim = CrSim::new(params, trace, &leads);
        sim.set_recorder(rec.clone());
        let d = SimDuration::from_secs(sim.drain_secs().expect("a lone drain time")).as_nanos();
        sim.run();
        let recording = rec.take();
        prop_assert_eq!(recording.dropped, 0);
        // The protocol records: under the `trace` feature the queue's POP
        // of the event a drain settles in front of precedes the DRAIN_DONE
        // it causes, at the event's own (later) instant.
        let records: Vec<_> = recording
            .records
            .iter()
            .filter(|r| !matches!(r.kind, kind::SCHED | kind::POP))
            .collect();
        for pair in records.windows(2) {
            prop_assert!(pair[0].t <= pair[1].t, "time runs backwards: {:?}", pair);
        }
        let mut latest_ckpt = None;
        for r in &records {
            match r.kind {
                kind::BB_CKPT => latest_ckpt = Some(r.t),
                kind::DRAIN_DONE => prop_assert_eq!(Some(r.t), latest_ckpt.map(|t| t + d)),
                _ => {}
            }
        }
        for (i, ckpt) in records.iter().enumerate().filter(|(_, r)| r.kind == kind::BB_CKPT) {
            let due = ckpt.t + d;
            let after = &records[i + 1..];
            let intervened = after.iter().any(|r| match r.kind {
                kind::FAILURE => r.t <= due,
                kind::BB_CKPT | kind::COMPLETE => r.t < due,
                _ => false,
            });
            let drained = after
                .iter()
                .take_while(|r| r.kind != kind::BB_CKPT)
                .any(|r| r.kind == kind::DRAIN_DONE);
            prop_assert_eq!(
                drained,
                !intervened,
                "checkpoint at {} ns (drain due {} ns)",
                ckpt.t,
                due
            );
        }
    }

    /// A periodic checkpoint, stated on the recording alone: its start
    /// (a STATE(BbCkpt) record) is settled rather than queued, yet every
    /// `BB_CKPT` lies exactly one BB write after the latest such start,
    /// with no `FAILURE` and no other STATE record between them, and
    /// protocol-record timestamps never decrease; all five models, both
    /// PFS modes.
    #[test]
    fn checkpoints_complete_one_write_after_they_start(
        trace in arb_trace(12),
        model in arb_model(),
        fluid in any::<bool>(),
    ) {
        use pckpt::core::iosim::PfsMode;
        use pckpt::core::obs::{kind, Recorder};
        use pckpt::core::sim::state_name;
        use pckpt::desim::SimDuration;
        let app = Application::by_name("POP").unwrap();
        let mut params = SimParams::paper_defaults(model, app);
        params.pfs_mode = if fluid { PfsMode::Fluid } else { PfsMode::Analytic };
        let write = SimDuration::from_secs(params.bb_write_secs()).as_nanos();
        let leads = LeadTimeModel::desh_default();
        let rec = Recorder::enabled(1 << 20);
        let mut sim = CrSim::new(params, trace, &leads);
        sim.set_recorder(rec.clone());
        let result = sim.run();
        let recording = rec.take();
        prop_assert_eq!(recording.dropped, 0);
        // The protocol records: under the `trace` feature a settled start
        // follows the queue's POP (at a later instant) of the event it
        // was settled in front of.
        let records: Vec<_> = recording
            .records
            .iter()
            .filter(|r| !matches!(r.kind, kind::SCHED | kind::POP))
            .collect();
        for pair in records.windows(2) {
            prop_assert!(pair[0].t <= pair[1].t, "time runs backwards: {:?}", pair);
        }
        let mut started = None;
        let mut completed = 0u64;
        for r in &records {
            match r.kind {
                kind::STATE if state_name(r.a) == "bb-checkpoint" => started = Some(r.t),
                kind::STATE | kind::FAILURE => started = None,
                kind::BB_CKPT => {
                    prop_assert_eq!(started.map(|t| t + write), Some(r.t));
                    started = None;
                    completed += 1;
                }
                _ => {}
            }
        }
        prop_assert_eq!(completed, result.ledger.periodic_ckpts);
    }

    /// OCI formulas: positive, monotone in their arguments, Eq. 2 ≥ Eq. 1.
    #[test]
    fn oci_properties(
        t_bb in 0.1f64..1000.0,
        rate in 1e-4f64..10.0,
        sigma in 0.0f64..0.95,
    ) {
        use pckpt::core::oci::{lm_adjusted_oci_secs, young_oci_secs};
        let young = young_oci_secs(t_bb, rate);
        prop_assert!(young > 0.0);
        let adjusted = lm_adjusted_oci_secs(t_bb, rate, sigma);
        prop_assert!(adjusted >= young);
        // Doubling the checkpoint cost must not shrink the interval.
        prop_assert!(young_oci_secs(t_bb * 2.0, rate) >= young);
        // Doubling the failure rate must not stretch it.
        prop_assert!(young_oci_secs(t_bb, rate * 2.0) <= young);
    }

    /// Lead-time model: survival is a valid decreasing tail function and
    /// sampling respects it.
    #[test]
    fn leadtime_survival_properties(t in 0.0f64..600.0, dt in 0.1f64..100.0) {
        let m = LeadTimeModel::desh_default();
        let s1 = m.survival(t);
        let s2 = m.survival(t + dt);
        prop_assert!((0.0..=1.0).contains(&s1));
        prop_assert!(s2 <= s1 + 1e-12);
    }
}
