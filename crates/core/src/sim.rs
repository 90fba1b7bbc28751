//! The discrete-event C/R simulation of one application run.
//!
//! One [`CrSim`] executes one application under one C/R model against one
//! pre-generated [`FailureTrace`]. The application is modeled at the
//! granularity the protocols need: a work accumulator (useful compute
//! seconds toward `compute_hours`), a blocking-state machine, per-node
//! proactive actions, and the multi-level checkpoint store.
//!
//! ### State machine
//!
//! ```text
//!            CkptDue                     BbWriteDone
//! Computing ─────────► BbCkpt ──────────────────────────► Computing
//!     │  prediction (P1/P2, short lead)                       ▲
//!     ├────────────► Round (phase 1 ► phase 2) ───────────────┤
//!     │  prediction (M1)                                      │
//!     ├────────────► Safeguard ───────────────────────────────┤
//!     │  failure                              RecoveryDone    │
//!     └────────────► Recovering ──────────────────────────────┘
//! ```
//!
//! Live migration runs *concurrently* with any state (the application
//! keeps executing at a small slowdown); a p-ckpt round aborts in-flight
//! migrations per the Fig. 5 state diagram.
//!
//! ### Accounting invariant
//!
//! Wall time decomposes exactly into ideal compute + checkpoint bucket +
//! LM slowdown + recomputation + recovery; the end-of-run accounting debug-asserts
//! the residual is zero, and `metrics::RunResult::accounting_residual_secs`
//! exposes it to tests.

use pckpt_desim::{Ctx, EventId, Model, SimDuration, SimTime, Simulation, SmallMap};
use pckpt_failure::{FailureTrace, LeadTimeModel, RateEstimator};
use pckpt_simobs::{kind as obskind, Recorder, RunObs};

use crate::config::{ModelKind, SimParams};
use crate::metrics::{OverheadLedger, RunResult};
use crate::oci;
use crate::protocol::{Phase, PckptRound, Vulnerable};

/// What blocks the application right now. The discriminants are the
/// stable `a` payloads of [`obskind::STATE`] records.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum AppState {
    Computing = 0,
    BbCkpt = 1,
    Round = 2,
    Safeguard = 3,
    Recovering = 4,
    Done = 5,
}

impl AppState {
    /// The `a` payload of this state's [`obskind::STATE`] records.
    fn code(self) -> u64 {
        self as u64
    }
}

/// The name of the state an [`obskind::STATE`] record's `a` payload
/// codes (`pckpt trace` prints it).
pub fn state_name(code: u64) -> &'static str {
    const NAMES: [&str; 6] = [
        "computing",
        "bb-checkpoint",
        "p-ckpt round",
        "safeguard",
        "recovering",
        "done",
    ];
    NAMES.get(code as usize).copied().unwrap_or("unknown")
}

/// Events of the C/R simulation.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum Ev {
    /// Periodic checkpoint is due (epoch-guarded).
    CkptDue(u32),
    /// The synchronous BB write finished (epoch-guarded).
    BbWriteDone(u32),
    /// An asynchronous BB→PFS drain finished (drain-generation-guarded).
    DrainDone(u32),
    /// All useful work is done (epoch-guarded).
    WorkComplete(u32),
    /// A prediction is delivered. `Some(idx)` = genuine failure index,
    /// `None` = false positive `fp` index in the second field.
    Prediction(Option<usize>, usize),
    /// Genuine failure `idx` strikes.
    Failure(usize),
    /// The safeguard commit finished (epoch-guarded).
    SafeguardDone(u32),
    /// A live migration finished (node, LM-sequence-guarded).
    LmDone(u32, u64),
    /// The current p-ckpt phase-1 writer committed (epoch-guarded).
    Phase1WriterDone(u32),
    /// The p-ckpt phase-2 collective commit finished (epoch-guarded).
    Phase2Done(u32),
    /// Recovery finished (epoch-guarded).
    RecoveryDone(u32),
    /// A fluid-mode PFS transfer may have completed (stamped with the
    /// fluid link's epoch; stale ticks are dropped).
    PfsTick(u64),
}

#[derive(Debug, Clone, Copy)]
struct PendingPrediction {
    node: u32,
    fail_time: SimTime,
    /// Where the predictor *believes* the failure will strike (differs
    /// from `fail_time` under lead-time estimation error).
    est_fail_time: SimTime,
    covered: Option<Mechanism>,
}

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Mechanism {
    Pckpt,
    Safeguard,
}

#[derive(Debug, Clone, Copy)]
struct ActiveLm {
    seq: u64,
    fail_idx: Option<usize>,
    deadline: SimTime,
}

/// The per-run C/R simulation model.
pub struct CrSim {
    p: SimParams,
    trace: FailureTrace,

    // Precomputed durations (seconds).
    t_bb_write: f64,
    t_bb_read: f64,
    t_pfs_all_write: f64,
    t_pfs_all_read: f64,
    t_pfs_single: f64,
    t_drain: f64,
    t_barrier: f64,
    theta: f64,
    sigma: f64,

    // Application progress.
    state: AppState,
    state_entered: SimTime,
    epoch: u32,
    work_done: f64,
    target: f64,
    seg_start: SimTime,
    seg_rate: f64,

    // Periodic checkpointing.
    oci_secs: f64,
    next_ckpt_work: f64,
    inflight_bb_level: f64,
    drain_gen: u32,
    drain_level: f64,

    // Checkpoint store: best recoverable work levels per path.
    best_bb_pfs: f64,
    best_pfs_all: f64,

    // Proactive machinery.
    round: Option<PckptRound>,
    /// A finished/aborted round parked for reuse: `request_pckpt` resets
    /// it instead of allocating a fresh queue + commit lists.
    spare_round: Option<PckptRound>,
    safeguard_level: f64,
    active_lms: SmallMap<u32, ActiveLm>,
    lm_seq: u64,
    pending: SmallMap<usize, PendingPrediction>,
    failure_events: Vec<Option<EventId>>,
    recovery_level: f64,
    recovery_dur: f64,

    estimator: RateEstimator,
    ledger: OverheadLedger,
    finished_at: Option<SimTime>,
    /// RNG for the background-traffic extension (per-operation bandwidth
    /// shares). Deterministic default; the runner injects a per-run
    /// stream via [`CrSim::with_bg_rng`].
    bg_rng: pckpt_simrng::SimRng,
    /// Fluid-mode PFS state (`None` in analytic mode).
    fluid: Option<crate::iosim::FluidPfs>,
    /// Writer weight of the asynchronous drain (fluid mode).
    drain_weight: f64,
    /// Wall time recovery began (fluid mode: completion floors).
    recovery_started: SimTime,
    /// Earliest instant the current recovery may complete (fluid mode:
    /// replacement-node delay plus any BB-read component).
    recovery_floor: SimTime,
    /// Whether the current recovery restores everything from the PFS
    /// (fluid mode: restart path selection).
    recovery_all_pfs: bool,
    /// Always-on fixed-size run metrics (no heap storage; folded into
    /// [`RunResult`] by [`CrSim::result`]).
    obs: RunObs,
    /// Structured trace sink; records nothing unless a live recorder
    /// is installed.
    rec: Recorder,
    /// When the current p-ckpt phase-1 writer started (obs latency).
    phase1_started: SimTime,
    /// Reused buffer for fluid-mode completion batches (hot path: one
    /// `PfsTick` per transfer completion; no per-tick allocation).
    pfs_done_scratch: Vec<crate::iosim::PfsOp>,
    /// Reused buffer for the re-arm sweep after computing resumes.
    rearm_scratch: Vec<(usize, u32, SimTime)>,
    /// Reused buffer for aborting in-flight migrations into a round.
    lm_scratch: Vec<(u32, ActiveLm)>,
    /// Reused buffer for the coverage-retraction sweep on mid-round
    /// failures.
    commit_scratch: Vec<usize>,
    /// The initial OCI (recomputed rates may adjust it mid-run); kept so
    /// [`CrSim::reset_for_run`] can restore the exact fresh-build state.
    oci0: f64,
}

impl CrSim {
    /// Builds a simulation of `params` against a pre-generated trace.
    ///
    /// `leads` is only needed to evaluate σ for Eq. 2; the trace already
    /// carries every sampled lead time.
    pub fn new(params: SimParams, trace: FailureTrace, leads: &LeadTimeModel) -> Self {
        params.validate();
        let per_node = params.per_node_bytes();
        let n = params.app.nodes;
        let io = &params.io;
        let theta = params.theta_secs();
        let sigma = if params.model.oci_uses_sigma() {
            oci::sigma_with_policy(
                params.sigma_policy,
                leads,
                &params.predictor,
                theta,
                params.lead_scale,
            )
        } else {
            0.0
        };
        let prior_rate = params.distribution.job_rate(n);
        let t_bb_write = io.bb.write_secs(per_node);
        let oci0 = Self::compute_oci(&params, t_bb_write, prior_rate, sigma);
        let drain_nodes = params.drain_concurrency.min(n);
        let failure_count = trace.failures.len();
        Self {
            t_bb_write,
            t_bb_read: io.bb.read_secs(per_node),
            t_pfs_all_write: io.pfs.write_secs(n, per_node),
            t_pfs_all_read: io.pfs.read_secs(n, per_node),
            t_pfs_single: io.pfs.single_node_write_secs(per_node),
            t_drain: n as f64 * per_node / io.pfs.aggregate_write_bw(drain_nodes, per_node),
            t_barrier: io.net.collective_secs(n as usize),
            theta,
            sigma,
            state: AppState::Computing,
            state_entered: SimTime::ZERO,
            epoch: 0,
            work_done: 0.0,
            target: params.app.compute_hours * 3600.0,
            seg_start: SimTime::ZERO,
            seg_rate: 1.0,
            oci_secs: oci0,
            next_ckpt_work: oci0,
            inflight_bb_level: 0.0,
            drain_gen: 0,
            drain_level: 0.0,
            best_bb_pfs: 0.0,
            best_pfs_all: 0.0,
            round: None,
            spare_round: None,
            safeguard_level: 0.0,
            active_lms: SmallMap::new(),
            lm_seq: 0,
            pending: SmallMap::new(),
            failure_events: vec![None; failure_count],
            recovery_level: 0.0,
            recovery_dur: 0.0,
            estimator: RateEstimator::new(params.rate_window_hours, prior_rate, 3),
            ledger: OverheadLedger::default(),
            finished_at: None,
            bg_rng: pckpt_simrng::SimRng::seed_from(0x0BAC_6007),
            fluid: match params.pfs_mode {
                crate::iosim::PfsMode::Analytic => None,
                crate::iosim::PfsMode::Fluid => {
                    Some(crate::iosim::FluidPfs::new(&params.io.pfs, per_node))
                }
            },
            drain_weight: drain_nodes as f64,
            recovery_started: SimTime::ZERO,
            recovery_floor: SimTime::ZERO,
            recovery_all_pfs: false,
            obs: RunObs::default(),
            rec: Recorder::disabled(),
            phase1_started: SimTime::ZERO,
            pfs_done_scratch: Vec::new(),
            rearm_scratch: Vec::new(),
            lm_scratch: Vec::new(),
            commit_scratch: Vec::new(),
            oci0,
            p: params,
            trace,
        }
    }

    /// Rewinds the simulation to its just-built state for a new run
    /// against `trace`, retaining every internal allocation (trace
    /// storage, maps, scratch buffers, the fluid link and its memoized
    /// capacity table, a parked p-ckpt round).
    ///
    /// After this call the model behaves exactly like
    /// `CrSim::new(params, trace, leads).with_bg_rng(bg_rng)` — the
    /// arena-reuse campaign path depends on that equivalence (checked by
    /// a proptest in the workspace test suite).
    pub fn reset_for_run(&mut self, trace: &FailureTrace, bg_rng: pckpt_simrng::SimRng) {
        // Field-wise Vec::clone_from reuses the existing buffers; the
        // struct-level clone_from would fall back on `*self = clone()`
        // (derived Clone has no clone_from specialization) and reallocate.
        self.trace.failures.clone_from(&trace.failures);
        self.trace.false_positives.clone_from(&trace.false_positives);
        self.state = AppState::Computing;
        self.state_entered = SimTime::ZERO;
        self.epoch = 0;
        self.work_done = 0.0;
        self.seg_start = SimTime::ZERO;
        self.seg_rate = 1.0;
        self.oci_secs = self.oci0;
        self.next_ckpt_work = self.oci0;
        self.inflight_bb_level = 0.0;
        self.drain_gen = 0;
        self.drain_level = 0.0;
        self.best_bb_pfs = 0.0;
        self.best_pfs_all = 0.0;
        if let Some(r) = self.round.take() {
            self.spare_round = Some(r);
        }
        self.safeguard_level = 0.0;
        self.active_lms.clear();
        self.lm_seq = 0;
        self.pending.clear();
        self.failure_events.clear();
        self.failure_events.resize(self.trace.failures.len(), None);
        self.recovery_level = 0.0;
        self.recovery_dur = 0.0;
        self.estimator.reset();
        self.ledger = OverheadLedger::default();
        self.finished_at = None;
        self.bg_rng = bg_rng;
        if let Some(fluid) = self.fluid.as_mut() {
            fluid.reset();
        }
        self.recovery_started = SimTime::ZERO;
        self.recovery_floor = SimTime::ZERO;
        self.recovery_all_pfs = false;
        // The recorder stays installed: per-run recordings are cut by the
        // owner via `Recorder::take`/`clear` between runs.
        self.obs.reset();
        self.phase1_started = SimTime::ZERO;
    }

    /// Installs a structured trace recorder on the model and its fluid
    /// link (the campaign runner wires the event queue separately).
    pub fn set_recorder(&mut self, rec: Recorder) {
        if let Some(fluid) = self.fluid.as_mut() {
            fluid.set_recorder(rec.clone());
        }
        self.rec = rec;
    }

    /// The always-on per-run observability metrics accumulated so far.
    pub fn obs(&self) -> &RunObs {
        &self.obs
    }

    /// Injects engine-level queue statistics into the obs snapshot.
    ///
    /// The queue lives outside the model, so the campaign runner (which
    /// measures these around `run_with_queue`) hands them in before
    /// reading [`CrSim::result`]. One-shot [`CrSim::run`] paths leave
    /// them zero — queue statistics are campaign-level metrics.
    pub fn set_queue_obs(&mut self, handled: u64, scheduled: u64, depth_hwm: u64) {
        self.obs.events_handled = handled;
        self.obs.events_scheduled = scheduled;
        self.obs.queue_depth_hwm = depth_hwm;
    }

    // ------------------------------------------------------------------
    // Fluid-mode plumbing.
    // ------------------------------------------------------------------

    /// Reschedules the completion tick after any fluid mutation.
    fn fluid_reschedule(&mut self, ctx: &mut Ctx<'_, Ev>) {
        let Some(fluid) = self.fluid.as_ref() else {
            return;
        };
        if let Some(at) = fluid.next_completion(ctx.now()) {
            ctx.schedule_uncancellable_at(at.max(ctx.now()), Ev::PfsTick(fluid.epoch()));
        }
    }

    fn fluid_start(
        &mut self,
        ctx: &mut Ctx<'_, Ev>,
        op: crate::iosim::PfsOp,
        bytes: f64,
        weight: f64,
    ) {
        let now = ctx.now();
        self.fluid
            .as_mut()
            // Callers are gated on fluid mode. simlint: allow(no-unwrap-in-lib)
            .expect("fluid op in analytic mode")
            .start(now, op, bytes, weight);
        self.fluid_reschedule(ctx);
    }

    fn on_pfs_tick(&mut self, ctx: &mut Ctx<'_, Ev>, epoch: u64) {
        use crate::iosim::PfsOp;
        let now = ctx.now();
        let Some(fluid) = self.fluid.as_mut() else {
            return;
        };
        if fluid.epoch() != epoch {
            return; // superseded by a later mutation
        }
        let mut done = std::mem::take(&mut self.pfs_done_scratch);
        fluid.take_completed_into(now, &mut done);
        for &op in &done {
            match op {
                PfsOp::Drain => {
                    self.rec.emit(now.as_nanos(), obskind::DRAIN_DONE, 0, 0);
                    self.best_bb_pfs = self.best_bb_pfs.max(self.drain_level);
                }
                PfsOp::Safeguard => self.on_safeguard_done(ctx),
                PfsOp::Phase1 => self.on_phase1_writer_done(ctx),
                PfsOp::Phase2 => self.on_phase2_done(ctx),
                PfsOp::RecoveryRead | PfsOp::ReplacementRead => {
                    debug_assert_eq!(self.state, AppState::Recovering);
                    if now < self.recovery_floor {
                        // The replacement node / BB restores are still in
                        // flight; finish at the floor.
                        ctx.schedule_uncancellable_at(
                            self.recovery_floor,
                            Ev::RecoveryDone(self.epoch),
                        );
                    } else {
                        self.on_recovery_done(ctx);
                    }
                }
            }
        }
        done.clear();
        self.pfs_done_scratch = done;
        self.fluid_reschedule(ctx);
    }

    /// Injects the RNG stream used for background-traffic sampling (no
    /// effect when `background_traffic` is `None`).
    pub fn with_bg_rng(mut self, rng: pckpt_simrng::SimRng) -> Self {
        self.bg_rng = rng;
        self
    }

    /// Duration multiplier for one synchronous PFS operation under the
    /// background-traffic extension (1.0 when disabled).
    fn sync_pfs_slowdown(&mut self) -> f64 {
        match self.p.background_traffic {
            None => 1.0,
            Some(bt) => 1.0 / bt.sample_share(&mut self.bg_rng),
        }
    }

    fn compute_oci(p: &SimParams, t_bb: f64, rate_per_hour: f64, sigma: f64) -> f64 {
        let raw = if p.model.oci_uses_sigma() {
            oci::lm_adjusted_oci_secs(t_bb, rate_per_hour, sigma)
        } else {
            oci::young_oci_secs(t_bb, rate_per_hour)
        };
        // Clamp: checkpointing more often than the write itself is
        // senseless; pausing longer than the whole job is equivalent to
        // never checkpointing again.
        raw.clamp(t_bb, p.app.compute_hours * 3600.0)
    }

    /// Runs the simulation to completion and returns the result.
    pub fn run(self) -> RunResult {
        let budget = 10_000_000;
        let rec = self.rec.clone();
        let mut sim = Simulation::new(self).with_event_budget(budget);
        sim.set_recorder(rec);
        sim.run();
        sim.into_model().finish()
    }

    fn finish(self) -> RunResult {
        self.result()
    }

    /// The result of a completed run, without consuming the model — the
    /// arena-reuse path reads it between [`CrSim::reset_for_run`] cycles.
    ///
    /// Panics if the simulation has not run to completion.
    pub fn result(&self) -> RunResult {
        let finished_at = self
            .finished_at
            // Horizon misconfiguration; actionable message. simlint: allow(no-unwrap-in-lib)
            .expect("simulation ended before the application completed — raise the horizon");
        let result = RunResult {
            wall_secs: finished_at.as_secs(),
            ideal_secs: self.target,
            final_oci_secs: self.oci_secs,
            ledger: self.ledger.clone(),
            obs: self.obs.clone(),
        };
        debug_assert!(
            result.accounting_residual_secs().abs() < 1.0,
            "accounting residual {:.3}s (wall {:.1}s)",
            result.accounting_residual_secs(),
            result.wall_secs
        );
        result
    }

    /// The σ the OCI uses (0 for non-LM models).
    pub fn sigma(&self) -> f64 {
        self.sigma
    }

    /// The LM latency θ, seconds.
    pub fn theta_secs(&self) -> f64 {
        self.theta
    }

    /// The OCI currently in force, seconds.
    pub fn oci_secs(&self) -> f64 {
        self.oci_secs
    }

    // ------------------------------------------------------------------
    // Compute-segment bookkeeping.
    // ------------------------------------------------------------------

    fn current_rate(&self) -> f64 {
        if self.active_lms.is_empty() {
            1.0
        } else {
            1.0 - self.p.lm_slowdown
        }
    }

    fn close_segment(&mut self, now: SimTime) {
        debug_assert_eq!(self.state, AppState::Computing);
        let dt = now.since(self.seg_start).as_secs();
        self.work_done += dt * self.seg_rate;
        self.ledger.lm_slowdown_secs += dt * (1.0 - self.seg_rate);
        self.seg_start = now;
    }

    /// Opens a computing segment and schedules the one event that ends it.
    ///
    /// A segment ends at the first work threshold it reaches: the next
    /// periodic checkpoint (`CkptDue`) or the end of the job
    /// (`WorkComplete`). Either handler bumps the epoch (`on_ckpt_due`
    /// through `leave_state`), so the later threshold could only ever pop
    /// as an epoch-stale no-op and is not scheduled at all. `CkptDue` is
    /// chosen only when its rounded delay is strictly shorter: at a tie
    /// `WorkComplete` wins, as it did when both were scheduled and it
    /// held the lower seq. Rate changes and failures still supersede the
    /// pending event through the epoch.
    fn schedule_compute_events(&mut self, ctx: &mut Ctx<'_, Ev>) {
        debug_assert_eq!(self.state, AppState::Computing);
        self.seg_start = ctx.now();
        self.seg_rate = self.current_rate();
        let rate = self.seg_rate;
        let to_target = SimDuration::from_secs((self.target - self.work_done).max(0.0) / rate);
        if self.next_ckpt_work < self.target {
            let to_ckpt =
                SimDuration::from_secs((self.next_ckpt_work - self.work_done).max(0.0) / rate);
            if to_ckpt < to_target {
                ctx.schedule_uncancellable_in(to_ckpt, Ev::CkptDue(self.epoch));
                return;
            }
        }
        ctx.schedule_uncancellable_in(to_target, Ev::WorkComplete(self.epoch));
    }

    /// Rate changed while computing (LM started/stopped): close the
    /// segment and re-schedule the work-threshold events.
    fn rate_changed(&mut self, ctx: &mut Ctx<'_, Ev>) {
        if self.state == AppState::Computing {
            self.close_segment(ctx.now());
            self.epoch += 1;
            self.schedule_compute_events(ctx);
        }
    }

    /// Leaves the current state at `now`, attributing the elapsed time to
    /// the right overhead bucket.
    fn leave_state(&mut self, now: SimTime) {
        let dt = now.since(self.state_entered).as_secs();
        match self.state {
            AppState::Computing => self.close_segment(now),
            AppState::BbCkpt | AppState::Round | AppState::Safeguard => {
                self.ledger.ckpt_secs += dt;
            }
            AppState::Recovering => self.ledger.recovery_secs += dt,
            AppState::Done => unreachable!("no transitions out of Done"),
        }
        self.epoch += 1;
    }

    fn enter_state(&mut self, ctx: &mut Ctx<'_, Ev>, state: AppState) {
        self.rec
            .emit(ctx.now().as_nanos(), obskind::STATE, state.code(), 0);
        self.state = state;
        self.state_entered = ctx.now();
        if state == AppState::Computing {
            self.schedule_compute_events(ctx);
        }
    }

    /// Transitions into Computing and re-arms any still-pending predicted
    /// failures that never got a proactive action.
    fn resume_computing(&mut self, ctx: &mut Ctx<'_, Ev>) {
        self.next_ckpt_work = self.work_done + self.oci_secs;
        self.enter_state(ctx, AppState::Computing);
        self.rearm_pending(ctx);
    }

    fn rearm_pending(&mut self, ctx: &mut Ctx<'_, Ev>) {
        if !self.p.model.uses_prediction() {
            return;
        }
        let now = ctx.now();
        // The buffer is taken out of `self` for the duration of the sweep
        // because `dispatch_prediction` needs `&mut self`.
        let mut rearm = std::mem::take(&mut self.rearm_scratch);
        rearm.clear();
        rearm.extend(
            self.pending
                .iter()
                .filter(|(_, pp)| {
                    pp.covered.is_none() && pp.fail_time > now && pp.est_fail_time > now
                })
                .map(|(&idx, pp)| (idx, pp.node, pp.est_fail_time)),
        );
        for &(idx, node, est_fail_time) in &rearm {
            if self.state != AppState::Computing && self.round.is_none() {
                break; // an earlier re-arm already started a blocking action
            }
            let lead = est_fail_time.since(now).as_secs();
            self.dispatch_prediction(ctx, node, lead, Some(idx), true);
        }
        self.rearm_scratch = rearm;
    }

    // ------------------------------------------------------------------
    // Prediction handling.
    // ------------------------------------------------------------------

    fn on_prediction(&mut self, ctx: &mut Ctx<'_, Ev>, fail_idx: Option<usize>, fp_idx: usize) {
        if self.state == AppState::Done {
            return;
        }
        let (node, lead) = match fail_idx {
            Some(idx) => {
                let f = &self.trace.failures[idx];
                let node = f.node;
                let fail_time = SimTime::from_hours(f.time_hours);
                // The C/R model acts on the *estimated* lead; the failure
                // itself fires at the actual time regardless.
                let est_fail_time = ctx.now() + SimDuration::from_secs(f.est_lead_secs.max(0.0));
                self.pending.insert(
                    idx,
                    PendingPrediction {
                        node,
                        fail_time,
                        est_fail_time,
                        covered: None,
                    },
                );
                (node, f.est_lead_secs)
            }
            None => {
                let fp = &self.trace.false_positives[fp_idx];
                (fp.node, fp.lead_secs)
            }
        };
        self.rec.emit(
            ctx.now().as_nanos(),
            obskind::PREDICTION,
            obskind::node_flag(node, fail_idx.is_some()),
            lead.to_bits(),
        );
        if !self.p.model.uses_prediction() {
            return;
        }
        self.dispatch_prediction(ctx, node, lead, fail_idx, false);
    }

    /// Chooses and launches the proactive action for a prediction.
    /// `rearmed` marks re-dispatches after a recovery (they must not
    /// double-count FP actions).
    fn dispatch_prediction(
        &mut self,
        ctx: &mut Ctx<'_, Ev>,
        node: u32,
        lead_secs: f64,
        fail_idx: Option<usize>,
        rearmed: bool,
    ) {
        let deadline = ctx.now() + SimDuration::from_secs(lead_secs.max(0.0));
        match self.p.model {
            ModelKind::B => {}
            ModelKind::M1 => self.request_safeguard(ctx, fail_idx, rearmed),
            ModelKind::M2 => {
                if lead_secs > self.theta {
                    self.start_lm(ctx, node, fail_idx, deadline, rearmed);
                }
                // Too short for LM and M2 has no fallback: the failure
                // will strike unmitigated.
            }
            ModelKind::P1 => self.request_pckpt(ctx, node, deadline, fail_idx, rearmed),
            ModelKind::P2 => {
                if self.round.is_some() {
                    // A round is already blocking everyone; joining it is
                    // strictly faster than migrating.
                    self.request_pckpt(ctx, node, deadline, fail_idx, rearmed);
                } else if lead_secs > self.theta {
                    self.start_lm(ctx, node, fail_idx, deadline, rearmed);
                } else {
                    self.request_pckpt(ctx, node, deadline, fail_idx, rearmed);
                }
            }
        }
    }

    // ------------------------------------------------------------------
    // Live migration.
    // ------------------------------------------------------------------

    fn start_lm(
        &mut self,
        ctx: &mut Ctx<'_, Ev>,
        node: u32,
        fail_idx: Option<usize>,
        deadline: SimTime,
        rearmed: bool,
    ) {
        if self.active_lms.contains_key(&node) {
            return; // already migrating this node
        }
        self.lm_seq += 1;
        let seq = self.lm_seq;
        self.active_lms.insert(
            node,
            ActiveLm {
                seq,
                fail_idx,
                deadline,
            },
        );
        self.ledger.lm_started += 1;
        if fail_idx.is_none() && !rearmed {
            self.ledger.false_positive_actions += 1;
        }
        self.rec
            .emit(ctx.now().as_nanos(), obskind::LM_START, node.into(), 0);
        ctx.schedule_uncancellable_in(SimDuration::from_secs(self.theta), Ev::LmDone(node, seq));
        self.rate_changed(ctx);
    }

    fn on_lm_done(&mut self, ctx: &mut Ctx<'_, Ev>, node: u32, seq: u64) {
        let Some(lm) = self.active_lms.get(&node) else {
            return; // aborted
        };
        if lm.seq != seq {
            return; // stale event from a superseded migration
        }
        // Presence established by the get() above. simlint: allow(no-unwrap-in-lib)
        let lm = self.active_lms.remove(&node).expect("checked above");
        self.rec
            .emit(ctx.now().as_nanos(), obskind::LM_COMMIT, node.into(), 0);
        if let Some(idx) = lm.fail_idx {
            // The process left the vulnerable node: the failure no longer
            // hits the job.
            if let Some(ev) = self.failure_events[idx].take() {
                ctx.cancel(ev);
            }
            self.pending.remove(&idx);
            self.ledger.failures_total += 1;
            self.ledger.failures_predicted += 1;
            self.ledger.mitigated_by_lm += 1;
            // The vacated node's failure still informs the rate estimator.
            self.estimator.record(ctx.now().as_hours());
        }
        self.rate_changed(ctx);
    }

    /// Aborts every in-flight migration and folds the nodes into the
    /// round (Fig. 5: "migration aborted / p-ckpt starts").
    fn abort_lms_into_round(&mut self, ctx: &mut Ctx<'_, Ev>) {
        if self.active_lms.is_empty() {
            return;
        }
        // Drain empties the map in node order, so Vulnerable entries join
        // the round deterministically; the scratch buffer keeps the sweep
        // allocation-free.
        let mut lms = std::mem::take(&mut self.lm_scratch);
        lms.clear();
        lms.extend(self.active_lms.drain());
        for &(node, _) in &lms {
            self.rec
                .emit(ctx.now().as_nanos(), obskind::LM_ABORT, node.into(), 0);
        }
        // Only called while a round is active. simlint: allow(no-unwrap-in-lib)
        let round = self.round.as_mut().expect("abort into an active round");
        for &(node, lm) in &lms {
            self.ledger.lm_aborted += 1;
            round.enqueue(Vulnerable {
                node,
                deadline: lm.deadline,
                fail_idx: lm.fail_idx,
            });
        }
        lms.clear();
        self.lm_scratch = lms;
        self.rate_changed(ctx);
    }

    // ------------------------------------------------------------------
    // Safeguard checkpoints (M1).
    // ------------------------------------------------------------------

    fn request_safeguard(&mut self, ctx: &mut Ctx<'_, Ev>, fail_idx: Option<usize>, rearmed: bool) {
        match self.state {
            AppState::Safeguard => {} // in-flight commit will cover it
            AppState::Computing | AppState::BbCkpt => {
                self.leave_state(ctx.now());
                self.safeguard_level = self.work_done;
                self.enter_state(ctx, AppState::Safeguard);
                self.ledger.safeguard_ckpts += 1;
                self.rec
                    .emit(ctx.now().as_nanos(), obskind::SAFEGUARD_START, 0, 0);
                if fail_idx.is_none() && !rearmed {
                    self.ledger.false_positive_actions += 1;
                }
                if self.fluid.is_some() {
                    // Note: the safeguard (an uncoordinated protocol) does
                    // NOT suspend the drain — it contends with it. The
                    // contrast with p-ckpt's coordination is deliberate.
                    let bytes = self.p.app.nodes as f64 * self.p.per_node_bytes();
                    let weight = self.p.app.nodes as f64;
                    self.fluid_start(ctx, crate::iosim::PfsOp::Safeguard, bytes, weight);
                } else {
                    let dur = self.t_pfs_all_write * self.sync_pfs_slowdown() + self.t_barrier;
                    ctx.schedule_uncancellable_in(
                        SimDuration::from_secs(dur),
                        Ev::SafeguardDone(self.epoch),
                    );
                }
            }
            // While recovering (or in a round, which M1 never has) the
            // prediction stays pending and is re-armed afterwards.
            AppState::Round | AppState::Recovering | AppState::Done => {}
        }
    }

    fn on_safeguard_done(&mut self, ctx: &mut Ctx<'_, Ev>) {
        debug_assert_eq!(self.state, AppState::Safeguard);
        self.obs
            .lat_pfs_full
            .record(ctx.now().since(self.state_entered).as_nanos());
        self.rec
            .emit(ctx.now().as_nanos(), obskind::SAFEGUARD_DONE, 0, 0);
        self.best_pfs_all = self.best_pfs_all.max(self.safeguard_level);
        // The just-committed snapshot covers every prediction that is
        // still pending — their nodes' state is safely on the PFS.
        for pp in self.pending.values_mut() {
            if pp.covered.is_none() {
                pp.covered = Some(Mechanism::Safeguard);
            }
        }
        self.leave_state(ctx.now());
        self.resume_computing(ctx);
    }

    // ------------------------------------------------------------------
    // p-ckpt rounds (P1/P2).
    // ------------------------------------------------------------------

    fn request_pckpt(
        &mut self,
        ctx: &mut Ctx<'_, Ev>,
        node: u32,
        deadline: SimTime,
        fail_idx: Option<usize>,
        rearmed: bool,
    ) {
        // Ablation: without coordination, a "p-ckpt" degenerates into a
        // safeguard checkpoint — every node contends for the PFS at once
        // and the vulnerable node only gets its 1/n share.
        if self.p.coordination == crate::config::CoordinationPolicy::Uncoordinated {
            self.request_safeguard(ctx, fail_idx, rearmed);
            return;
        }
        // Ablation: FIFO queueing ignores urgency — the priority key is
        // the arrival instant instead of the predicted failure time.
        let queue_key = match self.p.coordination {
            crate::config::CoordinationPolicy::FifoQueue => ctx.now(),
            _ => deadline,
        };
        let entry = Vulnerable {
            node,
            deadline: queue_key,
            fail_idx,
        };
        if let Some(round) = self.round.as_mut() {
            round.enqueue(entry);
            // If phase 1 had already drained but phase 2 hasn't started
            // (cannot happen — begin_phase2 is immediate), nothing to do.
            return;
        }
        match self.state {
            AppState::Computing | AppState::BbCkpt => {
                self.leave_state(ctx.now());
                let mut round = match self.spare_round.take() {
                    Some(mut r) => {
                        r.reset(self.work_done, ctx.now());
                        r
                    }
                    None => PckptRound::new(self.work_done, ctx.now()),
                };
                round.enqueue(entry);
                self.round = Some(round);
                let now = ctx.now().as_nanos();
                self.rec
                    .emit(now, obskind::STATE, AppState::Round.code(), 0);
                self.state = AppState::Round;
                self.state_entered = ctx.now();
                self.ledger.pckpt_rounds += 1;
                self.rec.emit(now, obskind::ROUND_START, 0, 0);
                if fail_idx.is_none() && !rearmed {
                    self.ledger.false_positive_actions += 1;
                }
                // Fig. 5: an in-progress migration is aborted when p-ckpt
                // begins; the node joins the priority queue.
                self.abort_lms_into_round(ctx);
                // Coordination extends to the job's own I/O agents: an
                // in-flight drain is suspended so the vulnerable node's
                // phase-1 commit is genuinely contention-free (fluid mode;
                // the analytic mode has no cross-operation contention to
                // begin with).
                if let Some(fluid) = self.fluid.as_mut() {
                    fluid.suspend_drain(ctx.now());
                    self.fluid_reschedule(ctx);
                }
                self.advance_round(ctx);
            }
            AppState::Safeguard | AppState::Recovering | AppState::Done => {
                // Stays pending; re-armed when computing resumes.
            }
            AppState::Round => unreachable!("handled by the round branch"),
        }
    }

    /// Starts the next phase-1 writer, or phase 2 once the queue drains.
    fn advance_round(&mut self, ctx: &mut Ctx<'_, Ev>) {
        // Round state implies an active round. simlint: allow(no-unwrap-in-lib)
        let round = self.round.as_mut().expect("advance without a round");
        if round.phase() == Phase::Phase2 {
            return;
        }
        if round.next_writer().is_some() {
            self.phase1_started = ctx.now();
            if self.fluid.is_some() {
                let bytes = self.p.per_node_bytes();
                self.fluid_start(ctx, crate::iosim::PfsOp::Phase1, bytes, 1.0);
            } else {
                let dur = self.t_pfs_single * self.sync_pfs_slowdown() + self.t_barrier;
                ctx.schedule_uncancellable_in(
                    SimDuration::from_secs(dur),
                    Ev::Phase1WriterDone(self.epoch),
                );
            }
        } else {
            round.begin_phase2();
            let healthy = self.p.app.nodes - round.committed_count() as u64;
            if self.fluid.is_some() {
                let bytes = healthy as f64 * self.p.per_node_bytes();
                self.fluid_start(
                    ctx,
                    crate::iosim::PfsOp::Phase2,
                    bytes,
                    (healthy as f64).max(1.0),
                );
            } else {
                let dur = if healthy == 0 {
                    self.t_barrier
                } else {
                    self.p.io.pfs.write_secs(healthy, self.p.per_node_bytes())
                        * self.sync_pfs_slowdown()
                        + self.t_barrier
                };
                ctx.schedule_uncancellable_in(
                    SimDuration::from_secs(dur),
                    Ev::Phase2Done(self.epoch),
                );
            }
        }
    }

    fn on_phase1_writer_done(&mut self, ctx: &mut Ctx<'_, Ev>) {
        debug_assert_eq!(self.state, AppState::Round);
        // Round state implies an active round. simlint: allow(no-unwrap-in-lib)
        let round = self.round.as_mut().expect("writer done without a round");
        let committed = round.writer_committed();
        self.obs
            .lat_phase1
            .record(ctx.now().since(self.phase1_started).as_nanos());
        // Payload b: the phase-1 backlog at commit time — how many
        // vulnerable nodes were still waiting behind this writer.
        let queued = round.queued_count() as u64;
        self.rec.emit(
            ctx.now().as_nanos(),
            obskind::PHASE1_COMMIT,
            committed.node.into(),
            queued,
        );
        // The vulnerable node's state is on the PFS: its failure is
        // mitigated from this moment (the healthy rest will complete).
        if let Some(idx) = committed.fail_idx {
            if let Some(pp) = self.pending.get_mut(&idx) {
                if pp.covered.is_none() {
                    pp.covered = Some(Mechanism::Pckpt);
                }
            }
        }
        self.advance_round(ctx);
    }

    fn on_phase2_done(&mut self, ctx: &mut Ctx<'_, Ev>) {
        debug_assert_eq!(self.state, AppState::Round);
        // Round state implies an active round. simlint: allow(no-unwrap-in-lib)
        let round = self.round.take().expect("phase 2 without a round");
        self.best_pfs_all = self.best_pfs_all.max(round.level_secs());
        // The full-app checkpoint is durable now: phase-1 commits and
        // phase-2 joiners alike are covered against their future failures.
        for idx in round.covered_fail_idxs() {
            if let Some(pp) = self.pending.get_mut(&idx) {
                if pp.covered.is_none() {
                    pp.covered = Some(Mechanism::Pckpt);
                }
            }
        }
        self.obs
            .lat_pfs_full
            .record(ctx.now().since(self.state_entered).as_nanos());
        self.rec
            .emit(ctx.now().as_nanos(), obskind::ROUND_COMPLETE, 0, 0);
        self.spare_round = Some(round);
        self.leave_state(ctx.now());
        // The round is over: a suspended drain resumes.
        if let Some(fluid) = self.fluid.as_mut() {
            fluid.resume_drain(ctx.now(), self.drain_weight);
            self.fluid_reschedule(ctx);
        }
        self.resume_computing(ctx);
    }

    /// Recovery after a failure that struck mid-round on a phase-1
    /// committed node: healthy nodes hold the checkpointed state in
    /// memory; only the replacement node reads from the PFS.
    fn begin_replacement_only_recovery(&mut self, ctx: &mut Ctx<'_, Ev>) {
        self.emit_recovery_start(ctx.now(), 0.0);
        self.recovery_level = self.work_done;
        self.enter_state(ctx, AppState::Recovering);
        if self.fluid.is_some() {
            self.recovery_started = ctx.now();
            self.recovery_floor =
                ctx.now() + SimDuration::from_secs(self.p.replacement_delay_secs);
            let bytes = self.p.per_node_bytes();
            self.fluid_start(ctx, crate::iosim::PfsOp::ReplacementRead, bytes, 1.0);
        } else {
            self.recovery_dur =
                self.p.replacement_delay_secs + self.t_pfs_single * self.sync_pfs_slowdown();
            ctx.schedule_uncancellable_in(
                SimDuration::from_secs(self.recovery_dur),
                Ev::RecoveryDone(self.epoch),
            );
        }
    }

    /// Abandons the active round, parking it for reuse. Queued entries
    /// are simply dropped with the round state — predicted failures stay
    /// in `pending` and are re-armed when computing resumes.
    fn abort_round(&mut self) {
        // Only called while a round is active. simlint: allow(no-unwrap-in-lib)
        let round = self.round.take().expect("abort without a round");
        self.spare_round = Some(round);
    }

    // ------------------------------------------------------------------
    // Periodic checkpointing.
    // ------------------------------------------------------------------

    fn on_ckpt_due(&mut self, ctx: &mut Ctx<'_, Ev>) {
        debug_assert_eq!(self.state, AppState::Computing);
        self.leave_state(ctx.now());
        self.inflight_bb_level = self.work_done;
        self.enter_state(ctx, AppState::BbCkpt);
        ctx.schedule_uncancellable_in(
            SimDuration::from_secs(self.t_bb_write),
            Ev::BbWriteDone(self.epoch),
        );
    }

    fn on_bb_write_done(&mut self, ctx: &mut Ctx<'_, Ev>) {
        debug_assert_eq!(self.state, AppState::BbCkpt);
        self.ledger.periodic_ckpts += 1;
        self.obs
            .lat_bb
            .record(ctx.now().since(self.state_entered).as_nanos());
        self.rec.emit(ctx.now().as_nanos(), obskind::BB_CKPT, 0, 0);
        // Kick off (or supersede) the asynchronous drain.
        self.drain_gen += 1;
        self.drain_level = self.inflight_bb_level;
        if self.fluid.is_some() {
            // Any previous drain (active or suspended) is superseded by
            // the fresher checkpoint.
            let now = ctx.now();
            // is_some() checked by the enclosing if. simlint: allow(no-unwrap-in-lib)
            self.fluid.as_mut().expect("checked").void_drain(now);
            let bytes = self.p.app.nodes as f64 * self.p.per_node_bytes();
            let weight = self.drain_weight;
            self.fluid_start(ctx, crate::iosim::PfsOp::Drain, bytes, weight);
        } else {
            ctx.schedule_uncancellable_in(
                SimDuration::from_secs(self.t_drain),
                Ev::DrainDone(self.drain_gen),
            );
        }
        // Refresh the OCI with the windowed failure-rate estimate.
        if self.p.dynamic_oci {
            let rate = self.estimator.rate(ctx.now().as_hours());
            self.oci_secs = Self::compute_oci(&self.p, self.t_bb_write, rate, self.sigma);
        }
        self.leave_state(ctx.now());
        self.resume_computing(ctx);
    }

    fn on_drain_done(&mut self, now: SimTime, gen: u32) {
        if gen != self.drain_gen {
            return; // superseded or cancelled drain
        }
        self.rec.emit(now.as_nanos(), obskind::DRAIN_DONE, 0, 0);
        self.best_bb_pfs = self.best_bb_pfs.max(self.drain_level);
    }

    // ------------------------------------------------------------------
    // Failures and recovery.
    // ------------------------------------------------------------------

    /// Records a failure's arrival (`mitigated`: a proactive action
    /// covered it).
    fn emit_failure(&self, now: SimTime, node: u32, mitigated: bool) {
        self.rec
            .emit(now.as_nanos(), obskind::FAILURE, obskind::node_flag(node, mitigated), 0);
    }

    /// Records the start of a recovery that recomputes `lost_secs` of
    /// work.
    fn emit_recovery_start(&mut self, now: SimTime, lost_secs: f64) {
        self.obs
            .recomp
            .record(SimDuration::from_secs(lost_secs).as_nanos());
        self.rec
            .emit(now.as_nanos(), obskind::RECOVERY_START, 0, lost_secs.to_bits());
    }

    fn on_failure(&mut self, ctx: &mut Ctx<'_, Ev>, idx: usize) {
        if self.state == AppState::Done {
            return;
        }
        self.failure_events[idx] = None;
        let f = self.trace.failures[idx];
        self.ledger.failures_total += 1;
        if f.predicted {
            self.ledger.failures_predicted += 1;
        }
        self.estimator.record(ctx.now().as_hours());
        // Fig. 1(B): a BB→PFS drain interrupted by a failure is void — the
        // failed node's staged data never reaches the PFS, so that
        // checkpoint can never serve a replacement node.
        self.drain_gen += 1;
        if let Some(fluid) = self.fluid.as_mut() {
            let now = ctx.now();
            fluid.void_drain(now);
            // Any in-flight synchronous operation dies with the failure;
            // the state-specific arms below decide what that *means*, the
            // transfers themselves are simply gone.
            fluid.cancel(now, crate::iosim::PfsOp::Safeguard);
            fluid.cancel(now, crate::iosim::PfsOp::Phase1);
            fluid.cancel(now, crate::iosim::PfsOp::Phase2);
            fluid.cancel(now, crate::iosim::PfsOp::RecoveryRead);
            fluid.cancel(now, crate::iosim::PfsOp::ReplacementRead);
            self.fluid_reschedule(ctx);
        }
        let pend = self.pending.remove(&idx);
        let covered = pend.and_then(|pp| pp.covered);
        // Under lead-time estimation error a migration can still be in
        // flight when the failure strikes (the estimate was too long):
        // the migration loses and the later LmDone is stale.
        if self.active_lms.remove(&f.node).is_some() {
            self.rate_changed(ctx);
        }

        match self.state {
            AppState::Round => {
                let mut commits = std::mem::take(&mut self.commit_scratch);
                commits.clear();
                // Round state implies an active round. simlint: allow(no-unwrap-in-lib)
                let round = self.round.as_ref().expect("Round state without round");
                let committed_here = round.is_committed(f.node);
                // Whatever happens, this round will not complete; phase-1
                // commits without phase 2 are not a durable full-app
                // checkpoint, so retract coverage they granted (the
                // failing node's own coverage is consumed right here).
                commits.extend(round.committed_fail_idxs().filter(|&i| i != idx));
                for &i in &commits {
                    if let Some(pp) = self.pending.get_mut(&i) {
                        if pp.covered == Some(Mechanism::Pckpt) {
                            pp.covered = None;
                        }
                    }
                }
                commits.clear();
                self.commit_scratch = commits;
                // Queued entries stay in `pending`; re-armed later.
                self.abort_round();
                self.leave_state(ctx.now());
                if committed_here {
                    self.emit_failure(ctx.now(), f.node, true);
                    // The p-ckpt race was won: the vulnerable node's state
                    // is on the PFS and every healthy node is still
                    // *blocked at the checkpointed state* — only the
                    // replacement restores from the PFS, nothing is
                    // recomputed. This cheap path is exactly why p-ckpt
                    // beats safeguard checkpointing for large applications.
                    self.ledger.mitigated_by_pckpt += 1;
                    debug_assert!((self.work_done - self.recovery_level).abs() >= 0.0);
                    self.begin_replacement_only_recovery(ctx);
                } else {
                    self.emit_failure(ctx.now(), f.node, covered.is_some());
                    if let Some(mech) = covered {
                        // Covered by an earlier completed proactive ckpt.
                        self.count_mitigation(mech);
                    }
                    self.best_point_recovery(ctx);
                }
            }
            // An in-flight safeguard commit or BB write is void; a
            // computing segment was already closed by leave_state. Either
            // way the run restores the freshest durable checkpoint; a
            // prior proactive checkpoint (covered) makes the loss small
            // and counts as a mitigation.
            AppState::Safeguard | AppState::BbCkpt | AppState::Computing => {
                self.emit_failure(ctx.now(), f.node, covered.is_some());
                self.leave_state(ctx.now());
                if let Some(mech) = covered {
                    self.count_mitigation(mech);
                }
                self.best_point_recovery(ctx);
            }
            AppState::Recovering => {
                // Recovery restarts from scratch; the rollback target is
                // unchanged (work_done is already at the recovery level).
                self.emit_failure(ctx.now(), f.node, covered.is_some());
                if let Some(mech) = covered {
                    self.count_mitigation(mech);
                }
                self.leave_state(ctx.now());
                if self.fluid.is_some() {
                    // Restart along the same path the original recovery
                    // took.
                    let all_pfs = self.recovery_all_pfs;
                    let level = self.recovery_level;
                    self.begin_recovery(ctx, level, all_pfs);
                } else {
                    self.enter_state(ctx, AppState::Recovering);
                    ctx.schedule_uncancellable_in(
                        SimDuration::from_secs(self.recovery_dur),
                        Ev::RecoveryDone(self.epoch),
                    );
                }
            }
            AppState::Done => unreachable!("early-returned above"),
        }
    }

    fn count_mitigation(&mut self, mech: Mechanism) {
        match mech {
            Mechanism::Pckpt => self.ledger.mitigated_by_pckpt += 1,
            Mechanism::Safeguard => self.ledger.mitigated_by_safeguard += 1,
        }
    }

    /// Restores from the freshest recovery point available, whatever
    /// mechanism wrote it; prefers the BB path on ties (healthy nodes
    /// read locally, only the replacement hits the PFS).
    fn best_point_recovery(&mut self, ctx: &mut Ctx<'_, Ev>) {
        if self.best_bb_pfs >= self.best_pfs_all {
            self.begin_recovery(ctx, self.best_bb_pfs, false);
        } else {
            self.begin_recovery(ctx, self.best_pfs_all, true);
        }
    }

    fn begin_recovery(&mut self, ctx: &mut Ctx<'_, Ev>, level: f64, all_from_pfs: bool) {
        debug_assert!(
            level <= self.work_done + 1e-6,
            "recovery point {level} is ahead of the computation {}",
            self.work_done
        );
        let loss = (self.work_done - level).max(0.0);
        self.emit_recovery_start(ctx.now(), loss);
        self.ledger.recomp_secs += loss;
        self.work_done = level;
        self.recovery_level = level;
        self.recovery_all_pfs = all_from_pfs;
        self.enter_state(ctx, AppState::Recovering);
        if self.fluid.is_some() {
            self.recovery_started = ctx.now();
            let per_node = self.p.per_node_bytes();
            if all_from_pfs {
                self.recovery_floor =
                    ctx.now() + SimDuration::from_secs(self.p.replacement_delay_secs);
                let n = self.p.app.nodes;
                self.fluid_start(
                    ctx,
                    crate::iosim::PfsOp::RecoveryRead,
                    n as f64 * per_node,
                    n as f64,
                );
            } else {
                // BB path: healthy nodes read locally (a fixed floor);
                // only the replacement's read goes over the PFS.
                self.recovery_floor = ctx.now()
                    + SimDuration::from_secs(self.p.replacement_delay_secs + self.t_bb_read);
                self.fluid_start(ctx, crate::iosim::PfsOp::ReplacementRead, per_node, 1.0);
            }
        } else {
            let read = if all_from_pfs {
                self.t_pfs_all_read * self.sync_pfs_slowdown()
            } else {
                // Healthy nodes restore from their BBs in parallel while
                // the replacement pulls its share from the PFS.
                self.t_bb_read
                    .max(self.t_pfs_single * self.sync_pfs_slowdown())
            };
            self.recovery_dur = self.p.replacement_delay_secs + read;
            ctx.schedule_uncancellable_in(
                SimDuration::from_secs(self.recovery_dur),
                Ev::RecoveryDone(self.epoch),
            );
        }
    }

    fn on_recovery_done(&mut self, ctx: &mut Ctx<'_, Ev>) {
        debug_assert_eq!(self.state, AppState::Recovering);
        self.rec
            .emit(ctx.now().as_nanos(), obskind::RECOVERY_DONE, 0, 0);
        self.leave_state(ctx.now());
        self.resume_computing(ctx);
    }

    fn on_work_complete(&mut self, ctx: &mut Ctx<'_, Ev>) {
        debug_assert_eq!(self.state, AppState::Computing);
        self.close_segment(ctx.now());
        self.epoch += 1;
        let now = ctx.now().as_nanos();
        self.rec.emit(now, obskind::STATE, AppState::Done.code(), 0);
        self.state = AppState::Done;
        self.rec.emit(now, obskind::COMPLETE, 0, 0);
        self.finished_at = Some(ctx.now());
        ctx.stop();
    }
}

impl Model for CrSim {
    type Event = Ev;

    fn init(&mut self, ctx: &mut Ctx<'_, Ev>) {
        // Schedule the fate of the run. This batch stays cancellable
        // (live migration cancels a failure event). Everything the
        // handlers schedule is guarded instead, by the epoch, the drain
        // generation or the migration seq, and goes through the queue's
        // uncancellable lane.
        for (idx, f) in self.trace.failures.iter().enumerate() {
            let t_fail = SimTime::from_hours(f.time_hours);
            let ev = ctx.schedule_at(t_fail, Ev::Failure(idx));
            self.failure_events[idx] = Some(ev);
            if f.predicted && self.p.model.uses_prediction() {
                let t_pred = SimTime::from_hours(f.prediction_time_hours());
                ctx.schedule_at(t_pred, Ev::Prediction(Some(idx), 0));
            }
        }
        if self.p.model.uses_prediction() {
            for (fp_idx, fp) in self.trace.false_positives.iter().enumerate() {
                ctx.schedule_at(SimTime::from_hours(fp.at_hours), Ev::Prediction(None, fp_idx));
            }
        }
        self.enter_state(ctx, AppState::Computing);
    }

    fn handle(&mut self, ctx: &mut Ctx<'_, Ev>, event: Ev) {
        match event {
            Ev::CkptDue(e) if e == self.epoch => self.on_ckpt_due(ctx),
            Ev::BbWriteDone(e) if e == self.epoch => self.on_bb_write_done(ctx),
            Ev::WorkComplete(e) if e == self.epoch => self.on_work_complete(ctx),
            Ev::SafeguardDone(e) if e == self.epoch => self.on_safeguard_done(ctx),
            Ev::Phase1WriterDone(e) if e == self.epoch => self.on_phase1_writer_done(ctx),
            Ev::Phase2Done(e) if e == self.epoch => self.on_phase2_done(ctx),
            Ev::RecoveryDone(e) if e == self.epoch => self.on_recovery_done(ctx),
            Ev::DrainDone(gen) => {
                let now = ctx.now();
                self.on_drain_done(now, gen);
            }
            Ev::PfsTick(epoch) => self.on_pfs_tick(ctx, epoch),
            Ev::Prediction(fail_idx, fp_idx) => self.on_prediction(ctx, fail_idx, fp_idx),
            Ev::Failure(idx) => self.on_failure(ctx, idx),
            Ev::LmDone(node, seq) => self.on_lm_done(ctx, node, seq),
            // Epoch-guarded events from a superseded state: drop.
            Ev::CkptDue(_)
            | Ev::BbWriteDone(_)
            | Ev::WorkComplete(_)
            | Ev::SafeguardDone(_)
            | Ev::Phase1WriterDone(_)
            | Ev::Phase2Done(_)
            | Ev::RecoveryDone(_) => {}
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use pckpt_failure::{FailureEvent, Prediction};
    use pckpt_workloads::Application;

    fn leads() -> LeadTimeModel {
        LeadTimeModel::desh_default()
    }

    fn params(model: ModelKind, app: &str) -> SimParams {
        SimParams::paper_defaults(model, Application::by_name(app).unwrap())
    }

    fn failure(time_hours: f64, node: u32, lead_secs: f64, predicted: bool) -> FailureEvent {
        FailureEvent {
            time_hours,
            node,
            sequence_id: 1,
            lead_secs,
            est_lead_secs: lead_secs,
            predicted,
        }
    }

    fn run(p: SimParams, trace: FailureTrace) -> RunResult {
        CrSim::new(p, trace, &leads()).run()
    }

    #[test]
    fn failure_free_run_has_only_checkpoint_overhead() {
        let p = params(ModelKind::B, "POP");
        let r = run(p.clone(), FailureTrace::default());
        assert_eq!(r.ledger.failures_total, 0);
        assert_eq!(r.ledger.recomp_secs, 0.0);
        assert_eq!(r.ledger.recovery_secs, 0.0);
        assert!(r.ledger.ckpt_secs > 0.0, "periodic checkpoints must run");
        assert!(r.ledger.periodic_ckpts > 0);
        assert!(r.accounting_residual_secs().abs() < 1.0);
        // Wall = ideal + ckpt.
        assert!(
            (r.wall_secs - r.ideal_secs - r.ledger.ckpt_secs).abs() < 1.0,
            "wall {} vs ideal {} + ckpt {}",
            r.wall_secs,
            r.ideal_secs,
            r.ledger.ckpt_secs
        );
    }

    #[test]
    fn checkpoint_count_matches_oci() {
        let p = params(ModelKind::B, "POP");
        let t_bb = p.bb_write_secs();
        let rate = p.distribution.job_rate(p.app.nodes);
        let oci = crate::oci::young_oci_secs(t_bb, rate);
        let expected = (p.app.compute_hours * 3600.0 / oci).floor();
        let r = run(p, FailureTrace::default());
        let got = r.ledger.periodic_ckpts as f64;
        assert!(
            (got - expected).abs() <= 1.0,
            "expected ≈{expected} checkpoints, got {got}"
        );
    }

    #[test]
    fn unpredicted_failure_causes_recomputation_and_recovery() {
        let p = params(ModelKind::B, "POP");
        let trace = FailureTrace {
            failures: vec![failure(100.0, 3, 60.0, false)],
            false_positives: vec![],
        };
        let r = run(p, trace);
        assert_eq!(r.ledger.failures_total, 1);
        assert_eq!(r.ledger.mitigated(), 0);
        assert!(r.ledger.recomp_secs > 0.0, "lost work must be recomputed");
        assert!(r.ledger.recovery_secs > 0.0);
        assert!(r.ledger.ft_ratio() == 0.0);
        assert!(r.accounting_residual_secs().abs() < 1.0);
    }

    #[test]
    fn failure_before_first_checkpoint_loses_everything_since_start() {
        let mut p = params(ModelKind::B, "POP");
        p.replacement_delay_secs = 10.0;
        // OCI for POP is ~. Failure very early, before any checkpoint.
        let trace = FailureTrace {
            failures: vec![failure(0.05, 0, 10.0, false)],
            false_positives: vec![],
        };
        let r = run(p, trace);
        // Lost ≈ 180 s of work.
        assert!(
            (r.ledger.recomp_secs - 180.0).abs() < 2.0,
            "recomp = {}",
            r.ledger.recomp_secs
        );
    }

    #[test]
    fn m1_safeguard_mitigates_predicted_failure_of_small_app() {
        let p = params(ModelKind::M1, "POP");
        // POP's full-PFS commit is ≈1 s; a 60 s lead is ample.
        let trace = FailureTrace {
            failures: vec![failure(100.0, 3, 60.0, true)],
            false_positives: vec![],
        };
        let r = run(p, trace);
        assert_eq!(r.ledger.mitigated_by_safeguard, 1);
        assert_eq!(r.ledger.ft_ratio(), 1.0);
        assert!(r.ledger.safeguard_ckpts >= 1);
        // Recomputation is only the sliver between commit and failure.
        assert!(
            r.ledger.recomp_secs < 65.0,
            "recomp = {}",
            r.ledger.recomp_secs
        );
    }

    #[test]
    fn m1_safeguard_fails_for_large_app_short_lead() {
        let p = params(ModelKind::M1, "CHIMERA");
        // CHIMERA's full commit takes hundreds of seconds; 60 s is futile.
        let trace = FailureTrace {
            failures: vec![failure(100.0, 3, 60.0, true)],
            false_positives: vec![],
        };
        let r = run(p, trace);
        assert_eq!(r.ledger.mitigated(), 0, "safeguard must not finish in time");
        assert!(r.ledger.recomp_secs > 0.0);
    }

    #[test]
    fn m2_lm_avoids_failure_with_long_lead() {
        let p = params(ModelKind::M2, "POP");
        let theta = p.theta_secs();
        let trace = FailureTrace {
            failures: vec![failure(100.0, 3, theta + 5.0, true)],
            false_positives: vec![],
        };
        let r = run(p, trace);
        assert_eq!(r.ledger.mitigated_by_lm, 1);
        assert_eq!(r.ledger.recomp_secs, 0.0, "avoided failures lose nothing");
        assert_eq!(r.ledger.recovery_secs, 0.0);
        assert!(r.ledger.lm_slowdown_secs > 0.0, "migration slows the app");
    }

    #[test]
    fn m2_lm_not_attempted_with_short_lead() {
        let p = params(ModelKind::M2, "CHIMERA");
        let theta = p.theta_secs();
        let trace = FailureTrace {
            failures: vec![failure(100.0, 3, theta * 0.5, true)],
            false_positives: vec![],
        };
        let r = run(p, trace);
        assert_eq!(r.ledger.lm_started, 0);
        assert_eq!(r.ledger.mitigated(), 0);
        assert!(r.ledger.recomp_secs > 0.0);
    }

    #[test]
    fn p1_pckpt_mitigates_short_lead_on_large_app() {
        let p = params(ModelKind::P1, "CHIMERA");
        // Lead of 60 s ≫ the ~22 s single-node phase-1 commit, but far
        // below the ~470 s safeguard commit: exactly p-ckpt's sweet spot.
        let trace = FailureTrace {
            failures: vec![failure(100.0, 3, 60.0, true)],
            false_positives: vec![],
        };
        let r = run(p, trace);
        assert_eq!(r.ledger.mitigated_by_pckpt, 1, "p-ckpt must mitigate");
        assert_eq!(r.ledger.pckpt_rounds, 1);
        assert_eq!(r.ledger.ft_ratio(), 1.0);
        // The failure struck mid-round: healthy nodes are still blocked at
        // the checkpointed state, so only the replacement node reads from
        // the PFS (replacement delay + single-node restore).
        let expected = 30.0 + p_recovery_read_secs();
        assert!(
            (r.ledger.recovery_secs - expected).abs() < 5.0,
            "recovery = {} (expected ≈{expected})",
            r.ledger.recovery_secs
        );
        assert_eq!(r.ledger.recomp_secs, 0.0, "nothing is recomputed");
    }

    fn p_recovery_read_secs() -> f64 {
        let p = params(ModelKind::P1, "CHIMERA");
        p.io.pfs.single_node_write_secs(p.per_node_bytes())
    }

    #[test]
    fn p1_failure_after_round_completion_pays_full_pfs_recovery() {
        let p = params(ModelKind::P1, "CHIMERA");
        // Lead long enough that the whole round (phase 1 + phase 2,
        // several hundred seconds) completes before the failure: the app
        // resumes, then the failure strikes — all nodes restore from the
        // PFS (the P1 recovery cost of Observation 2).
        let trace = FailureTrace {
            failures: vec![failure(100.0, 3, 1200.0, true)],
            false_positives: vec![],
        };
        let r = run(p.clone(), trace);
        assert_eq!(r.ledger.mitigated_by_pckpt, 1);
        let full_read = p.io.pfs.read_secs(p.app.nodes, p.per_node_bytes());
        assert!(
            r.ledger.recovery_secs > full_read * 0.9,
            "recovery = {} (full PFS restore ≈{full_read})",
            r.ledger.recovery_secs
        );
        // Recomputation is only the compute between round end and failure.
        assert!(r.ledger.recomp_secs > 0.0 && r.ledger.recomp_secs < 1200.0);
    }

    #[test]
    fn p1_pckpt_fails_when_lead_below_phase1_time() {
        let p = params(ModelKind::P1, "CHIMERA");
        let phase1 = p.io.pfs.single_node_write_secs(p.per_node_bytes());
        let trace = FailureTrace {
            failures: vec![failure(100.0, 3, phase1 * 0.5, true)],
            false_positives: vec![],
        };
        let r = run(p, trace);
        assert_eq!(r.ledger.mitigated(), 0);
        assert_eq!(r.ledger.pckpt_rounds, 1, "the round started but lost the race");
    }

    #[test]
    fn p2_prefers_lm_for_long_leads_and_pckpt_for_short() {
        let p = params(ModelKind::P2, "XGC");
        let theta = p.theta_secs();
        let trace = FailureTrace {
            failures: vec![
                failure(50.0, 1, theta + 10.0, true), // LM territory
                failure(120.0, 2, theta * 0.5, true), // p-ckpt territory
            ],
            false_positives: vec![],
        };
        let r = run(p, trace);
        assert_eq!(r.ledger.mitigated_by_lm, 1);
        assert_eq!(r.ledger.mitigated_by_pckpt, 1);
        assert_eq!(r.ledger.ft_ratio(), 1.0);
    }

    #[test]
    fn p2_aborts_lm_when_shorter_lead_prediction_arrives() {
        let p = params(ModelKind::P2, "XGC");
        let theta = p.theta_secs();
        // Failure A: long lead → LM starts. Failure B on another node,
        // 2 s after A's prediction, with a short lead → p-ckpt round
        // begins and aborts A's migration; both nodes join the queue.
        let t_pred_a = 50.0;
        let lead_a = theta + 60.0;
        let fail_a = t_pred_a + lead_a / 3600.0 * 0.0 + lead_a / 3600.0; // hours
        let t_pred_b = t_pred_a + 2.0 / 3600.0;
        let lead_b = theta * 0.5;
        let fail_b = t_pred_b + lead_b / 3600.0;
        let trace = FailureTrace {
            failures: vec![
                FailureEvent {
                    time_hours: fail_a,
                    node: 1,
                    sequence_id: 1,
                    lead_secs: lead_a,
                    est_lead_secs: lead_a,
                    predicted: true,
                },
                FailureEvent {
                    time_hours: fail_b,
                    node: 2,
                    sequence_id: 1,
                    lead_secs: lead_b,
                    est_lead_secs: lead_b,
                    predicted: true,
                },
            ],
            false_positives: vec![],
        };
        let r = run(p, trace);
        assert_eq!(r.ledger.lm_aborted, 1, "the round must abort the LM");
        // B commits in phase 1 (~8 s write inside its ~19 s lead) and its
        // failure is mitigated mid-round. The round dies with it, so A's
        // prediction re-arms after recovery — with ~40 s of lead left it
        // restarts as a fresh migration and completes in time.
        assert_eq!(r.ledger.mitigated_by_pckpt, 1);
        assert_eq!(r.ledger.mitigated_by_lm, 1);
        assert_eq!(r.ledger.lm_started, 2, "aborted once, restarted once");
        assert_eq!(r.ledger.ft_ratio(), 1.0);
    }

    #[test]
    fn false_positive_triggers_action_but_no_failure() {
        let p = params(ModelKind::P1, "POP");
        let trace = FailureTrace {
            failures: vec![],
            false_positives: vec![Prediction {
                node: 5,
                at_hours: 10.0,
                lead_secs: 30.0,
                sequence_id: 2,
                genuine: false,
            }],
        };
        let r = run(p, trace);
        assert_eq!(r.ledger.failures_total, 0);
        assert_eq!(r.ledger.false_positive_actions, 1);
        assert_eq!(r.ledger.pckpt_rounds, 1);
        assert_eq!(r.ledger.ft_ratio(), 1.0, "vacuous: no failures");
        assert!(r.ledger.recomp_secs == 0.0);
    }

    #[test]
    fn proactive_checkpoint_improves_recovery_point_for_later_failure() {
        let p = params(ModelKind::P1, "POP");
        // FP-triggered p-ckpt at t=10 h commits everyone's state to the
        // PFS; an unpredicted failure shortly after loses only the work
        // since then — bounded by the OCI anyway, but the recovery point
        // must be the p-ckpt, not an older periodic checkpoint.
        let oci_hours = 2.0; // POP's OCI is ~45 min; failure 1 min after round
        let _ = oci_hours;
        let trace = FailureTrace {
            failures: vec![failure(10.0 + 1.0 / 60.0, 3, 60.0, false)],
            false_positives: vec![Prediction {
                node: 5,
                at_hours: 10.0,
                lead_secs: 30.0,
                sequence_id: 2,
                genuine: false,
            }],
        };
        let r = run(p, trace);
        // Lost work ≤ ~60 s (round duration + 1 min), not a whole OCI.
        assert!(
            r.ledger.recomp_secs < 120.0,
            "recomp = {} (recovery point not advanced?)",
            r.ledger.recomp_secs
        );
    }

    #[test]
    fn b_model_ignores_predictions() {
        let p = params(ModelKind::B, "POP");
        let trace = FailureTrace {
            failures: vec![failure(100.0, 3, 3600.0, true)],
            false_positives: vec![],
        };
        let r = run(p, trace);
        assert_eq!(r.ledger.mitigated(), 0);
        assert_eq!(r.ledger.lm_started, 0);
        assert_eq!(r.ledger.pckpt_rounds, 0);
        assert_eq!(r.ledger.safeguard_ckpts, 0);
    }

    #[test]
    fn two_failures_in_a_row_recover_twice() {
        let p = params(ModelKind::B, "POP");
        let trace = FailureTrace {
            failures: vec![
                failure(100.0, 3, 60.0, false),
                failure(200.0, 7, 60.0, false),
            ],
            false_positives: vec![],
        };
        let r = run(p, trace);
        assert_eq!(r.ledger.failures_total, 2);
        assert!(r.accounting_residual_secs().abs() < 1.0);
    }

    #[test]
    fn failure_during_recovery_restarts_recovery() {
        let mut p = params(ModelKind::B, "POP");
        p.replacement_delay_secs = 3600.0; // hour-long recovery window
        let trace = FailureTrace {
            failures: vec![
                failure(100.0, 3, 60.0, false),
                // Strikes 10 min into the hour-long recovery.
                failure(100.0 + 10.0 / 60.0, 7, 60.0, false),
            ],
            false_positives: vec![],
        };
        let r = run(p, trace);
        assert_eq!(r.ledger.failures_total, 2);
        // Recovery time ≥ 10 min (lost) + full recovery.
        assert!(
            r.ledger.recovery_secs > 3600.0 + 590.0,
            "recovery = {}",
            r.ledger.recovery_secs
        );
        assert!(r.accounting_residual_secs().abs() < 1.0);
    }

    #[test]
    fn deterministic_across_identical_runs() {
        let p = params(ModelKind::P2, "XGC");
        let trace = FailureTrace {
            failures: vec![
                failure(50.0, 1, 120.0, true),
                failure(111.0, 2, 15.0, true),
                failure(180.0, 3, 60.0, false),
            ],
            false_positives: vec![],
        };
        let r1 = run(p.clone(), trace.clone());
        let r2 = run(p, trace);
        assert_eq!(r1, r2);
    }

    #[test]
    fn p2_oci_is_longer_than_p1_oci() {
        let p1 = params(ModelKind::P1, "POP");
        let p2 = params(ModelKind::P2, "POP");
        let s1 = CrSim::new(p1, FailureTrace::default(), &leads());
        let s2 = CrSim::new(p2, FailureTrace::default(), &leads());
        assert_eq!(s1.sigma(), 0.0, "P1 does not use Eq. 2");
        assert!(s2.sigma() > 0.5, "POP's σ is large");
        assert!(
            s2.oci_secs() > s1.oci_secs() * 1.3,
            "Eq. 2 must stretch the interval: {} vs {}",
            s2.oci_secs(),
            s1.oci_secs()
        );
    }

    /// Regression: a failure during the asynchronous BB→PFS drain must
    /// void that checkpoint (Fig. 1(B)); before the fix, the drain kept
    /// running and a *later* recovery could jump the computation forward
    /// past its rollback point (negative accounting residual).
    #[test]
    fn failure_during_drain_discards_the_draining_checkpoint() {
        let p = params(ModelKind::B, "CHIMERA");
        // CHIMERA: OCI ≈ 2.1 h, BB write ≈ 135 s, drain ≈ 19 min. Put the
        // first failure right in the middle of the first drain, a second
        // one shortly after recovery.
        let oci_h = CrSim::new(p.clone(), FailureTrace::default(), &leads()).oci_secs() / 3600.0;
        let bb_h = p.bb_write_secs() / 3600.0;
        let drain_mid = oci_h + bb_h + 0.05; // ~3 min into the drain
        let trace = FailureTrace {
            failures: vec![
                failure(drain_mid, 3, 10.0, false),
                failure(drain_mid + 0.4, 7, 10.0, false),
            ],
            false_positives: vec![],
        };
        let r = run(p, trace);
        // First failure: nothing drained yet → lose everything since the
        // start (one full OCI plus the 3-minute slice). Second failure
        // 0.4 h later, still before any new checkpoint → lose that slice
        // too. (Under the old bug, the orphaned drain completed during
        // recomputation and the second recovery jumped the computation
        // *forward* to its level — caught both by this bound and by the
        // accounting residual.)
        let oci_secs = oci_h * 3600.0;
        assert!(
            r.ledger.recomp_secs > oci_secs + 1000.0,
            "recomp {}s must include the full first-interval loss",
            r.ledger.recomp_secs
        );
        assert!(
            r.ledger.recomp_secs < oci_secs + 3600.0,
            "recomp {}s larger than both losses combined",
            r.ledger.recomp_secs
        );
        assert!(r.accounting_residual_secs().abs() < 1.0);
    }

    /// Regression companion: with the failure *after* the drain completes,
    /// the checkpoint is durable and only the post-checkpoint slice is
    /// lost.
    #[test]
    fn failure_after_drain_recovers_from_that_checkpoint() {
        let p = params(ModelKind::B, "CHIMERA");
        let oci_h = CrSim::new(p.clone(), FailureTrace::default(), &leads()).oci_secs() / 3600.0;
        let after_drain = oci_h + 0.5; // drain (~19 min) has finished
        let trace = FailureTrace {
            failures: vec![failure(after_drain, 3, 10.0, false)],
            false_positives: vec![],
        };
        let r = run(p, trace);
        // Lost work ≈ the slice computed after the checkpoint (< 0.5 h of
        // compute, minus the blocked BB write time).
        assert!(
            r.ledger.recomp_secs < 0.5 * 3600.0,
            "recomp {}s must be bounded by the post-checkpoint slice",
            r.ledger.recomp_secs
        );
        assert!(r.ledger.recomp_secs > 0.0);
    }

    #[test]
    fn prediction_during_recovery_is_rearmed_afterwards() {
        let mut p = params(ModelKind::P1, "POP");
        p.replacement_delay_secs = 600.0; // 10-minute recovery window
        // Failure A (unpredicted) triggers recovery; failure B is
        // predicted during A's recovery with a deadline far beyond it —
        // the request must be re-armed once computing resumes and then
        // mitigated.
        let t_a = 50.0;
        let t_b = t_a + 0.5; // 30 min later; prediction ~28 min earlier
        let trace = FailureTrace {
            failures: vec![
                failure(t_a, 1, 5.0, false),
                failure(t_b, 2, 1500.0, true), // predicted mid-recovery
            ],
            false_positives: vec![],
        };
        let r = run(p, trace);
        assert_eq!(
            r.ledger.mitigated_by_pckpt, 1,
            "the re-armed prediction must still be acted on"
        );
    }

    #[test]
    fn fifo_coordination_still_mitigates_single_predictions() {
        let mut p = params(ModelKind::P1, "CHIMERA");
        p.coordination = crate::config::CoordinationPolicy::FifoQueue;
        let trace = FailureTrace {
            failures: vec![failure(100.0, 3, 60.0, true)],
            false_positives: vec![],
        };
        let r = run(p, trace);
        assert_eq!(r.ledger.mitigated_by_pckpt, 1);
    }

    #[test]
    fn uncoordinated_pckpt_degenerates_to_safeguard() {
        let mut p = params(ModelKind::P1, "CHIMERA");
        p.coordination = crate::config::CoordinationPolicy::Uncoordinated;
        // 60 s of lead: plenty for a prioritized phase-1 commit (~21 s),
        // hopeless for an all-nodes commit (~460 s).
        let trace = FailureTrace {
            failures: vec![failure(100.0, 3, 60.0, true)],
            false_positives: vec![],
        };
        let r = run(p, trace);
        assert_eq!(
            r.ledger.mitigated(),
            0,
            "without coordination the p-ckpt advantage must vanish"
        );
        assert_eq!(r.ledger.pckpt_rounds, 0);
        assert!(r.ledger.safeguard_ckpts >= 1);
    }

    #[test]
    fn sigma_policy_changes_p2_interval_not_p1() {
        let mut aware = params(ModelKind::P2, "POP");
        aware.sigma_policy = crate::oci::SigmaPolicy::AccuracyAware;
        let mut lead_only = params(ModelKind::P2, "POP");
        lead_only.sigma_policy = crate::oci::SigmaPolicy::LeadTimeOnly;
        let s_aware = CrSim::new(aware, FailureTrace::default(), &leads());
        let s_lead = CrSim::new(lead_only, FailureTrace::default(), &leads());
        // POP's σ hits the cap lead-only (0.95) but only 0.85 · P(..) ≈
        // 0.85 accuracy-aware → lead-only stretches the interval further.
        assert!(s_lead.sigma() > s_aware.sigma());
        assert!(s_lead.oci_secs() > s_aware.oci_secs());
        let p1 = CrSim::new(
            params(ModelKind::P1, "POP"),
            FailureTrace::default(),
            &leads(),
        );
        assert_eq!(p1.sigma(), 0.0, "P1 never uses Eq. 2");
    }

    #[test]
    fn fp_triggered_lm_costs_only_slowdown() {
        let p = params(ModelKind::M2, "POP");
        let theta = p.theta_secs();
        let trace = FailureTrace {
            failures: vec![],
            false_positives: vec![Prediction {
                node: 5,
                at_hours: 10.0,
                lead_secs: theta + 30.0,
                sequence_id: 2,
                genuine: false,
            }],
        };
        let r = run(p, trace);
        assert_eq!(r.ledger.lm_started, 1);
        assert_eq!(r.ledger.false_positive_actions, 1);
        assert_eq!(r.ledger.failures_total, 0);
        assert!(r.ledger.lm_slowdown_secs > 0.0);
        assert!(
            r.ledger.lm_slowdown_secs < 1.0,
            "one θ-long migration at 1% slowdown costs well under a second"
        );
        assert_eq!(r.ledger.recovery_secs, 0.0);
    }

    #[test]
    fn second_prediction_on_migrating_node_is_deduplicated() {
        let p = params(ModelKind::M2, "POP");
        let theta = p.theta_secs();
        // Two predicted failures on the SAME node, the second's prediction
        // arriving while the first migration is still in flight. The
        // migration resolves the first failure; the second failure on the
        // (replacement) node keeps its own prediction and a fresh LM.
        let t1 = 10.0;
        let lead1 = theta + 20.0;
        let t2 = t1 + 0.5;
        let lead2 = theta + 40.0;
        let trace = FailureTrace {
            failures: vec![
                failure(t1 + lead1 / 3600.0, 7, lead1, true),
                failure(t2 + lead2 / 3600.0, 7, lead2, true),
            ],
            false_positives: vec![],
        };
        let r = run(p, trace);
        assert_eq!(r.ledger.failures_total, 2);
        assert_eq!(r.ledger.mitigated_by_lm, 2);
        assert_eq!(r.ledger.ft_ratio(), 1.0);
    }

    #[test]
    fn prediction_during_phase2_is_covered_by_round_completion() {
        let p = params(ModelKind::P1, "CHIMERA");
        // Failure A starts a round (short lead → phase 1 runs ~21 s, then
        // phase 2 ~460 s). Failure B's prediction arrives mid-phase-2 with
        // a deadline beyond the round's end: B is covered by the very
        // checkpoint being written.
        let t_pred_a = 50.0;
        let lead_a = 2000.0; // round completes before A's failure
        let t_pred_b = t_pred_a + 100.0 / 3600.0; // 100 s later: inside phase 2
        let lead_b = 1200.0; // beyond the round's end
        let trace = FailureTrace {
            failures: vec![
                FailureEvent {
                    time_hours: t_pred_a + lead_a / 3600.0,
                    node: 1,
                    sequence_id: 1,
                    lead_secs: lead_a,
                    est_lead_secs: lead_a,
                    predicted: true,
                },
                FailureEvent {
                    time_hours: t_pred_b + lead_b / 3600.0,
                    node: 2,
                    sequence_id: 1,
                    lead_secs: lead_b,
                    est_lead_secs: lead_b,
                    predicted: true,
                },
            ],
            false_positives: vec![],
        };
        let r = run(p, trace);
        assert_eq!(r.ledger.failures_total, 2);
        assert_eq!(r.ledger.mitigated_by_pckpt, 2, "both covered");
        // B joined the already-running round: no second round needed
        // before its failure... (its failure recovers from the round's
        // checkpoint; the post-recovery re-arm finds nothing pending).
        assert!(r.ledger.pckpt_rounds <= 2);
    }

    #[test]
    fn m1_rearms_safeguard_after_recovery() {
        let mut p = params(ModelKind::M1, "POP");
        p.replacement_delay_secs = 600.0;
        // Unpredicted failure at t_a; during its 10-minute recovery a
        // prediction arrives for a failure far out. M1 cannot safeguard
        // while recovering — the request must re-arm afterwards.
        let t_a = 50.0;
        let t_b = t_a + 0.4;
        let trace = FailureTrace {
            failures: vec![
                failure(t_a, 1, 5.0, false),
                failure(t_b, 2, 1320.0, true), // predicted mid-recovery
            ],
            false_positives: vec![],
        };
        let r = run(p, trace);
        assert_eq!(r.ledger.mitigated_by_safeguard, 1);
        assert!(r.ledger.safeguard_ckpts >= 1);
    }

    #[test]
    fn background_traffic_slows_only_synchronous_pfs_paths() {
        use crate::config::BackgroundTraffic;
        // Deterministic congestion: exactly half the bandwidth.
        let congested = |model| {
            let mut p = params(model, "CHIMERA");
            p.background_traffic = Some(BackgroundTraffic::new(0.5, 0.0));
            p
        };
        // M1 safeguard under congestion: the commit takes 2× as long, so
        // a lead that would *just* suffice no longer does.
        let clear = params(ModelKind::M1, "CHIMERA");
        let t_sg = clear.io.pfs.write_secs(clear.app.nodes, clear.per_node_bytes());
        let trace = FailureTrace {
            failures: vec![failure(100.0, 3, t_sg * 1.5, true)],
            false_positives: vec![],
        };
        let ok = run(clear, trace.clone());
        assert_eq!(ok.ledger.mitigated_by_safeguard, 1, "1.5× lead suffices unshared");
        let slow = run(congested(ModelKind::M1), trace.clone());
        assert_eq!(
            slow.ledger.mitigated(),
            0,
            "at half bandwidth the same lead must miss"
        );
        // Periodic checkpointing (BB path) is untouched: identical ckpt
        // overhead for the base model with and without congestion on a
        // failure-free run.
        let b_clear = run(params(ModelKind::B, "CHIMERA"), FailureTrace::default());
        let b_slow = run(congested(ModelKind::B), FailureTrace::default());
        assert!(
            (b_clear.ledger.ckpt_secs - b_slow.ledger.ckpt_secs).abs() < 1e-6,
            "BB writes and the async drain must not slow down"
        );
    }

    #[test]
    fn background_traffic_sampling_is_bounded() {
        use crate::config::BackgroundTraffic;
        let bt = BackgroundTraffic::new(0.6, 0.3);
        let mut rng = pckpt_simrng::SimRng::seed_from(5);
        for _ in 0..10_000 {
            let s = bt.sample_share(&mut rng);
            assert!((0.3 - 1e-9..=0.9 + 1e-9).contains(&s), "share {s}");
        }
    }

    #[test]
    fn fluid_mode_matches_analytic_when_operations_do_not_overlap() {
        use crate::iosim::PfsMode;
        // Failure-free runs: drains never overlap anything, so the two
        // modes must agree on checkpoint overhead exactly and on wall
        // time almost exactly (the analytic mode adds the µs barrier
        // terms to proactive ops, which never trigger here).
        for app in ["CHIMERA", "POP"] {
            let a = run(params(ModelKind::B, app), FailureTrace::default());
            let mut pf = params(ModelKind::B, app);
            pf.pfs_mode = PfsMode::Fluid;
            let f = run(pf, FailureTrace::default());
            assert!(
                (a.ledger.ckpt_secs - f.ledger.ckpt_secs).abs() < 1.0,
                "{app}: ckpt {} vs {}",
                a.ledger.ckpt_secs,
                f.ledger.ckpt_secs
            );
            assert!((a.wall_secs - f.wall_secs).abs() < 2.0);
            assert!(f.accounting_residual_secs().abs() < 1.0);
        }
    }

    #[test]
    fn fluid_mode_single_mitigation_agrees_with_analytic() {
        use crate::iosim::PfsMode;
        // One predicted failure, p-ckpt mitigates mid-round: phase-1 runs
        // with the drain suspended, so the latency matches the analytic
        // single-node time and mitigation succeeds in both modes.
        let trace = FailureTrace {
            failures: vec![failure(100.0, 3, 60.0, true)],
            false_positives: vec![],
        };
        let a = run(params(ModelKind::P1, "CHIMERA"), trace.clone());
        let mut pf = params(ModelKind::P1, "CHIMERA");
        pf.pfs_mode = PfsMode::Fluid;
        let f = run(pf, trace);
        assert_eq!(a.ledger.mitigated_by_pckpt, 1);
        assert_eq!(f.ledger.mitigated_by_pckpt, 1);
        // Fluid mode overlaps replacement provisioning with the PFS read
        // (analytic serializes them): fluid recovery = max(read, delay),
        // analytic = delay + read. Equal otherwise.
        let analytic_serial = a.ledger.recovery_secs;
        let read = p_recovery_read_secs(); // CHIMERA single-node PFS read
        let delay = 30.0;
        assert!(
            (f.ledger.recovery_secs - read.max(delay)).abs() < 1.0,
            "fluid recovery {} vs overlapped {}",
            f.ledger.recovery_secs,
            read.max(delay)
        );
        assert!((analytic_serial - (delay + read)).abs() < 1.0);
        assert!(f.accounting_residual_secs().abs() < 1.0);
    }

    #[test]
    fn fluid_mode_drain_contention_slows_uncoordinated_safeguard_only() {
        use crate::iosim::PfsMode;
        // Craft a prediction that lands *during* the drain window
        // (checkpoint done, drain in flight). Under p-ckpt the drain is
        // suspended — mitigation succeeds; under safeguard (M1) the
        // commit contends with the 512-weight drain and also carries the
        // full job width, so it cannot beat the same lead.
        let p_probe = params(ModelKind::B, "CHIMERA");
        let oci_h =
            CrSim::new(p_probe.clone(), FailureTrace::default(), &leads()).oci_secs() / 3600.0;
        let bb_h = p_probe.bb_write_secs() / 3600.0;
        let in_drain = oci_h + bb_h + 0.02; // ~1 min into the ~20 min drain
        let lead = 120.0; // ample for phase-1 (~21 s), hopeless for safeguard
        let trace = FailureTrace {
            failures: vec![failure(in_drain + lead / 3600.0, 3, lead, true)],
            false_positives: vec![],
        };
        let mut p1 = params(ModelKind::P1, "CHIMERA");
        p1.pfs_mode = PfsMode::Fluid;
        let r1 = run(p1, trace.clone());
        assert_eq!(
            r1.ledger.mitigated_by_pckpt, 1,
            "p-ckpt suspends the drain and wins the race"
        );
        let mut m1 = params(ModelKind::M1, "CHIMERA");
        m1.pfs_mode = PfsMode::Fluid;
        let rm = run(m1, trace);
        assert_eq!(
            rm.ledger.mitigated(),
            0,
            "the uncoordinated safeguard contends with its own drain and loses"
        );
    }

    #[test]
    fn fluid_mode_survives_failure_bursts_with_clean_accounting() {
        use crate::iosim::PfsMode;
        // A hostile trace: failures during drains, rounds and recoveries.
        let mut pf = params(ModelKind::P2, "XGC");
        pf.pfs_mode = PfsMode::Fluid;
        let trace = FailureTrace {
            failures: vec![
                failure(10.0, 1, 60.0, true),
                failure(10.02, 2, 10.0, true),
                failure(10.05, 3, 30.0, false),
                failure(40.0, 4, 25.0, true),
                failure(40.001, 5, 500.0, false),
                failure(100.0, 6, 45.0, true),
            ],
            false_positives: vec![Prediction {
                node: 9,
                at_hours: 70.0,
                lead_secs: 40.0,
                sequence_id: 3,
                genuine: false,
            }],
        };
        let r = run(pf, trace);
        assert_eq!(r.ledger.failures_total, 6);
        assert!(r.accounting_residual_secs().abs() < 1.0);
        assert!(r.ledger.ft_ratio() > 0.0);
    }

    #[test]
    fn lead_overestimate_makes_lm_lose_the_race() {
        // The predictor reports a lead long enough for migration, but the
        // failure actually strikes mid-transfer: the migration is void
        // and the failure lands unmitigated (the stale LmDone must not
        // count a mitigation afterwards).
        let p = params(ModelKind::M2, "XGC");
        let theta = p.theta_secs();
        let actual_lead = theta * 0.5;
        let trace = FailureTrace {
            failures: vec![FailureEvent {
                time_hours: 100.0,
                node: 3,
                sequence_id: 1,
                lead_secs: actual_lead,
                est_lead_secs: theta + 30.0, // overestimate → LM chosen
                predicted: true,
            }],
            false_positives: vec![],
        };
        let r = run(p, trace);
        assert_eq!(r.ledger.lm_started, 1, "the estimate justified an LM");
        assert_eq!(r.ledger.mitigated(), 0, "but the failure won the race");
        assert!(r.ledger.recomp_secs > 0.0);
        assert!(r.accounting_residual_secs().abs() < 1.0);
    }

    #[test]
    fn lead_underestimate_pushes_p2_toward_pckpt() {
        // The reverse: an underestimate makes P2 choose p-ckpt where LM
        // would have sufficed — conservative but still mitigated.
        let p = params(ModelKind::P2, "XGC");
        let theta = p.theta_secs();
        let trace = FailureTrace {
            failures: vec![FailureEvent {
                time_hours: 100.0,
                node: 3,
                sequence_id: 1,
                lead_secs: theta + 60.0,     // LM would have worked
                est_lead_secs: theta * 0.5,  // but the estimate says no
                predicted: true,
            }],
            false_positives: vec![],
        };
        let r = run(p, trace);
        assert_eq!(r.ledger.lm_started, 0);
        assert_eq!(r.ledger.mitigated_by_pckpt, 1);
    }

    #[test]
    fn record_run_records_the_story() {
        // The recording `pckpt trace` renders tells the ledger's story
        // beat for beat, and recording changes no result.
        use crate::runner::{record_run, GridCell, GridPlan, GridWorker};
        use pckpt_simobs::kind;
        use pckpt_simrng::SimRng;
        let leads = leads();
        let mut seen = [0u64; 4]; // LM commits, rounds, mitigated, unmitigated failures
        for model in [ModelKind::P2, ModelKind::M1] {
            let p = params(model, "XGC");
            let cells = [GridCell::new(p.clone(), &[model])];
            let plan = GridPlan::new(&cells, &leads);
            let mut worker = GridWorker::new(&plan);
            for run in 0..6 {
                let (result, rec, trace) = record_run(&p, &leads, 61, run, 1 << 20);
                assert_eq!(result, worker.run_unit(&SimRng::seed_from(61), run, 0));
                assert_eq!(rec.dropped, 0);
                assert!(!trace.failures.is_empty(), "{model:?} run {run}: no failures drawn");
                let count = |k: u16, pred: &dyn Fn(u64) -> bool| {
                    rec.records.iter().filter(|r| r.kind == k && pred(r.a)).count() as u64
                };
                let any = |_| true;
                let flagged = |a: u64| kind::split_node_flag(a).1;
                let l = &result.ledger;
                let mitigated = count(kind::FAILURE, &flagged);
                let struck = count(kind::FAILURE, &any);
                assert_eq!(struck + l.mitigated_by_lm, l.failures_total);
                assert_eq!(mitigated, l.mitigated_by_pckpt + l.mitigated_by_safeguard);
                assert_eq!(count(kind::LM_START, &any), l.lm_started);
                assert_eq!(count(kind::LM_ABORT, &any), l.lm_aborted);
                assert_eq!(count(kind::ROUND_START, &any), l.pckpt_rounds);
                assert_eq!(count(kind::SAFEGUARD_START, &any), l.safeguard_ckpts);
                assert_eq!(count(kind::BB_CKPT, &any), l.periodic_ckpts);
                assert_eq!(count(kind::COMPLETE, &any), 1);
                assert!(count(kind::PREDICTION, &flagged) >= l.failures_predicted);
                let recomp: f64 = rec
                    .records
                    .iter()
                    .filter(|r| r.kind == kind::RECOVERY_START)
                    .map(|r| f64::from_bits(r.b))
                    .sum();
                assert_eq!(recomp, l.recomp_secs);
                for (n, c) in seen.iter_mut().zip([
                    count(kind::LM_COMMIT, &any),
                    l.pckpt_rounds,
                    mitigated,
                    struck - mitigated,
                ]) {
                    *n += c;
                }
            }
        }
        assert!(seen.iter().all(|&n| n > 0), "story beats seen: {seen:?}");
    }

    #[test]
    fn reset_for_run_replays_exactly_like_a_fresh_build() {
        use pckpt_desim::{run_with_queue, EventQueue};
        use pckpt_simrng::SimRng;
        let theta = params(ModelKind::P2, "XGC").theta_secs();
        // Three traces exercising LM, p-ckpt, unmitigated failure, and a
        // false positive — the states a recycled sim must fully unwind.
        let traces = [
            FailureTrace {
                failures: vec![
                    failure(50.0, 1, theta + 10.0, true),
                    failure(120.0, 2, theta * 0.5, true),
                ],
                false_positives: vec![],
            },
            FailureTrace {
                failures: vec![failure(80.0, 3, 10.0, false)],
                false_positives: vec![Prediction {
                    at_hours: 30.0,
                    node: 7,
                    lead_secs: theta + 20.0,
                    sequence_id: 1,
                    genuine: false,
                }],
            },
            FailureTrace::default(),
        ];
        for mode in [crate::iosim::PfsMode::Analytic, crate::iosim::PfsMode::Fluid] {
            let mut p = params(ModelKind::P2, "XGC");
            p.pfs_mode = mode;
            // Arena path: one sim + one queue recycled across all traces,
            // including a warmup pass so reuse is actually exercised.
            let mut sim = CrSim::new(p.clone(), FailureTrace::default(), &leads());
            let mut queue = EventQueue::new();
            let mut reused = Vec::new();
            for trace in traces.iter().chain(traces.iter()) {
                queue.reset();
                sim.reset_for_run(trace, SimRng::seed_from(0xFEED));
                run_with_queue(&mut sim, &mut queue, 10_000_000);
                reused.push(sim.result());
            }
            for (i, trace) in traces.iter().chain(traces.iter()).enumerate() {
                let fresh = CrSim::new(p.clone(), trace.clone(), &leads())
                    .with_bg_rng(SimRng::seed_from(0xFEED))
                    .run();
                assert_eq!(reused[i], fresh, "trace {i} diverged ({mode:?})");
            }
        }
    }

    #[test]
    fn failure_free_run_handles_no_stale_threshold_events() {
        // Each periodic checkpoint is CkptDue + BbWriteDone + the drain's
        // completion, and WorkComplete ends the run: nothing scheduled is
        // left unhandled, in particular no superseded WorkComplete per
        // segment.
        for mode in [crate::iosim::PfsMode::Analytic, crate::iosim::PfsMode::Fluid] {
            let mut p = params(ModelKind::B, "POP");
            p.pfs_mode = mode;
            let mut sim = Simulation::new(CrSim::new(p, FailureTrace::default(), &leads()));
            assert_eq!(sim.run(), pckpt_desim::engine::StopReason::Requested);
            let ckpts = sim.model().result().ledger.periodic_ckpts;
            assert!(ckpts > 100, "{mode:?}: only {ckpts} periodic checkpoints");
            assert_eq!(sim.events_handled(), 3 * ckpts + 1, "{mode:?}");
            assert_eq!(sim.queue().scheduled_total(), sim.events_handled(), "{mode:?}");
        }
    }

    #[test]
    fn threshold_tie_goes_to_work_complete() {
        // A checkpoint due a hair before the end of the job rounds to the
        // same nanosecond: the job completes, no checkpoint is taken.
        let mut sim = CrSim::new(params(ModelKind::B, "POP"), FailureTrace::default(), &leads());
        sim.next_ckpt_work = f64::from_bits(sim.target.to_bits() - 1);
        assert!(sim.next_ckpt_work < sim.target);
        assert_eq!(
            SimDuration::from_secs(sim.next_ckpt_work),
            SimDuration::from_secs(sim.target),
            "the two thresholds must tie after rounding"
        );
        let mut sim = Simulation::new(sim);
        sim.run();
        assert_eq!(sim.events_handled(), 1);
        let r = sim.model().result();
        assert_eq!(r.ledger.periodic_ckpts, 0);
        assert_eq!(r.wall_secs, r.ideal_secs);
    }

    #[test]
    fn horizon_guard_panics_if_application_cannot_finish() {
        // An empty event queue with work remaining means the model is
        // broken; ensure the failure mode is loud. We simulate it by
        // crafting a run whose WorkComplete would be past any failure but
        // the budget cuts it off — instead, verify normal completion sets
        // finished_at.
        let p = params(ModelKind::B, "VULCAN");
        let r = run(p, FailureTrace::default());
        assert!(r.wall_secs >= 720.0 * 3600.0);
    }
}
