//! Overhead accounting and cross-run aggregation.
//!
//! The paper reports three overhead buckets per model (Figs. 4, 6, 7):
//!
//! * **checkpoint overhead** — wall time the application is blocked for
//!   checkpointing (BB writes, safeguard commits, whole p-ckpt rounds),
//!   plus the small LM runtime slowdown;
//! * **recomputation overhead** — work lost to failures and re-executed;
//! * **recovery overhead** — time spent restoring checkpoints and waiting
//!   for replacement nodes;
//!
//! and the **FT ratio** (Tables II & IV): successfully mitigated failures
//! over all failures.

use pckpt_simobs::{ObsAggregate, RunObs};
use pckpt_simrng::stats::Summary;

/// Per-run overhead ledger, filled in by the simulator.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct OverheadLedger {
    /// Application-blocking checkpoint time, seconds (BB writes +
    /// safeguard commits + p-ckpt rounds).
    pub ckpt_secs: f64,
    /// Extra compute time from the LM runtime slowdown, seconds (reported
    /// inside the checkpoint bucket, kept separate here for ablations).
    pub lm_slowdown_secs: f64,
    /// Re-executed work, seconds.
    pub recomp_secs: f64,
    /// Restore + replacement time, seconds.
    pub recovery_secs: f64,
    /// Genuine failures that struck the job.
    pub failures_total: u64,
    /// Genuine failures that were predicted (prediction delivered).
    pub failures_predicted: u64,
    /// Failures avoided outright by live migration.
    pub mitigated_by_lm: u64,
    /// Failures mitigated by a completed p-ckpt covering the failing node.
    pub mitigated_by_pckpt: u64,
    /// Failures mitigated by a completed safeguard checkpoint.
    pub mitigated_by_safeguard: u64,
    /// Proactive actions triggered by false-positive predictions.
    pub false_positive_actions: u64,
    /// p-ckpt rounds executed.
    pub pckpt_rounds: u64,
    /// Safeguard checkpoints executed.
    pub safeguard_ckpts: u64,
    /// Live migrations started.
    pub lm_started: u64,
    /// Live migrations aborted in favour of p-ckpt.
    pub lm_aborted: u64,
    /// Periodic checkpoints committed to the BBs.
    pub periodic_ckpts: u64,
}

impl OverheadLedger {
    /// Failures mitigated by any proactive mechanism.
    pub fn mitigated(&self) -> u64 {
        self.mitigated_by_lm + self.mitigated_by_pckpt + self.mitigated_by_safeguard
    }

    /// FT ratio: mitigated failures over all failures (1 when no failure
    /// occurred — nothing to mitigate).
    pub fn ft_ratio(&self) -> f64 {
        if self.failures_total == 0 {
            1.0
        } else {
            self.mitigated() as f64 / self.failures_total as f64
        }
    }

    /// Checkpoint bucket as reported in the figures (includes LM
    /// slowdown).
    pub fn ckpt_bucket_secs(&self) -> f64 {
        self.ckpt_secs + self.lm_slowdown_secs
    }

    /// Sum of all overhead buckets, seconds.
    pub fn total_overhead_secs(&self) -> f64 {
        self.ckpt_bucket_secs() + self.recomp_secs + self.recovery_secs
    }
}

/// Result of one simulated run.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct RunResult {
    /// The overhead ledger.
    pub ledger: OverheadLedger,
    /// Total wall-clock time of the run, seconds.
    pub wall_secs: f64,
    /// Ideal (failure- and checkpoint-free) compute time, seconds.
    pub ideal_secs: f64,
    /// The OCI in force at the end of the run, seconds.
    pub final_oci_secs: f64,
    /// Always-on observability snapshot (event counts, queue high-water
    /// mark, fixed-bucket latency histograms). Fixed-size: carrying it
    /// here keeps the campaign steady state allocation-free.
    pub obs: RunObs,
}

impl RunResult {
    /// Overhead as a percentage of the ideal compute time.
    pub fn overhead_pct(&self) -> f64 {
        100.0 * self.ledger.total_overhead_secs() / self.ideal_secs
    }

    /// Consistency check: wall time must equal ideal + overheads (up to
    /// numeric slack). The simulator's accounting is validated against
    /// this in tests and (in debug builds) at the end of every run.
    pub fn accounting_residual_secs(&self) -> f64 {
        self.wall_secs - self.ideal_secs - self.ledger.total_overhead_secs()
    }
}

/// Aggregated statistics over many runs of the same configuration.
#[derive(Debug, Clone, Default)]
pub struct Aggregate {
    /// Checkpoint bucket, hours.
    pub ckpt_hours: Summary,
    /// Recomputation bucket, hours.
    pub recomp_hours: Summary,
    /// Recovery bucket, hours.
    pub recovery_hours: Summary,
    /// Total overhead, hours.
    pub total_hours: Summary,
    /// FT ratio (runs with zero failures count as 1).
    pub ft_ratio: Summary,
    /// Failures per run.
    pub failures: Summary,
    /// Failures avoided by LM per run.
    pub mitigated_lm: Summary,
    /// Failures mitigated by p-ckpt per run.
    pub mitigated_pckpt: Summary,
    /// Failures mitigated by safeguard checkpoints per run.
    pub mitigated_safeguard: Summary,
    /// Wall time, hours.
    pub wall_hours: Summary,
    /// Aggregated observability metrics (event counts, queue high-water
    /// mark, latency histograms) across the runs.
    pub obs: ObsAggregate,
    /// Per-run total-overhead samples (hours) for percentile error bars.
    /// Crate-visible for the fold codec (`frames::encode_fold`); outside
    /// the crate only [`push`](Self::push) and [`merge`](Self::merge)
    /// grow it, so it always holds one sample per run.
    pub(crate) total_samples: Vec<f64>,
}

impl Aggregate {
    /// Creates an empty aggregate.
    pub fn new() -> Self {
        Self::default()
    }

    /// Folds one run into the aggregate.
    pub fn push(&mut self, run: &RunResult) {
        self.push_ledger(&run.ledger, run.wall_secs);
        self.obs.push(&run.obs);
    }

    /// Folds one run's ledger and wall time in: everything
    /// [`push`](Self::push) folds but the run's observability snapshot,
    /// which the grid pool's workers reduce into [`Aggregate::obs`]
    /// themselves (an `ObsAggregate` merge is integer sums and a max, so
    /// where it happens cannot change a bit).
    pub(crate) fn push_ledger(&mut self, ledger: &OverheadLedger, wall_secs: f64) {
        const H: f64 = 3600.0;
        self.ckpt_hours.push(ledger.ckpt_bucket_secs() / H);
        self.recomp_hours.push(ledger.recomp_secs / H);
        self.recovery_hours.push(ledger.recovery_secs / H);
        self.total_hours.push(ledger.total_overhead_secs() / H);
        self.ft_ratio.push(ledger.ft_ratio());
        self.failures.push(ledger.failures_total as f64);
        self.mitigated_lm.push(ledger.mitigated_by_lm as f64);
        self.mitigated_pckpt.push(ledger.mitigated_by_pckpt as f64);
        self.mitigated_safeguard
            .push(ledger.mitigated_by_safeguard as f64);
        self.wall_hours.push(wall_secs / H);
        self.total_samples.push(ledger.total_overhead_secs() / H);
    }

    /// Merges another aggregate (parallel reduction).
    pub fn merge(&mut self, other: &Aggregate) {
        self.ckpt_hours.merge(&other.ckpt_hours);
        self.recomp_hours.merge(&other.recomp_hours);
        self.recovery_hours.merge(&other.recovery_hours);
        self.total_hours.merge(&other.total_hours);
        self.ft_ratio.merge(&other.ft_ratio);
        self.failures.merge(&other.failures);
        self.mitigated_lm.merge(&other.mitigated_lm);
        self.mitigated_pckpt.merge(&other.mitigated_pckpt);
        self.mitigated_safeguard.merge(&other.mitigated_safeguard);
        self.wall_hours.merge(&other.wall_hours);
        self.obs.merge(&other.obs);
        self.total_samples.extend_from_slice(&other.total_samples);
    }

    /// Number of runs aggregated.
    pub fn runs(&self) -> u64 {
        self.total_hours.count()
    }

    /// Per-run mean FT ratio (runs without failures count as 1 — biased
    /// upward for lightly-failing workloads).
    pub fn ft_ratio_mean(&self) -> f64 {
        self.ft_ratio.mean()
    }

    /// Pooled FT ratio: total mitigations over total failures across all
    /// runs. This matches the paper's Tables II & IV, which report the
    /// fraction of *failures* mitigated rather than a per-run average.
    pub fn ft_ratio_pooled(&self) -> f64 {
        let failures = self.failures.sum();
        // Exact-zero guard on a sum of integral counts. simlint: allow(no-float-eq)
        if failures == 0.0 {
            return 1.0;
        }
        (self.mitigated_lm.sum() + self.mitigated_pckpt.sum() + self.mitigated_safeguard.sum())
            / failures
    }

    /// Pooled FT contribution of live migration alone (Fig. 8 numerator).
    pub fn ft_ratio_lm_pooled(&self) -> f64 {
        let failures = self.failures.sum();
        // Exact-zero guard on a sum of integral counts. simlint: allow(no-float-eq)
        if failures == 0.0 {
            return 0.0;
        }
        self.mitigated_lm.sum() / failures
    }

    /// Pooled FT contribution of p-ckpt alone (Fig. 8 numerator).
    pub fn ft_ratio_pckpt_pooled(&self) -> f64 {
        let failures = self.failures.sum();
        // Exact-zero guard on a sum of integral counts. simlint: allow(no-float-eq)
        if failures == 0.0 {
            return 0.0;
        }
        self.mitigated_pckpt.sum() / failures
    }

    /// The q-quantile of the per-run total overhead, hours (error bars
    /// for the figures; the paper reports means only).
    pub fn total_hours_quantile(&self, q: f64) -> f64 {
        if self.total_samples.is_empty() {
            return 0.0;
        }
        pckpt_simrng::Quantiles::new(&self.total_samples).quantile(q)
    }

    /// Mean overhead reduction (%) of this aggregate relative to a base
    /// aggregate: `100·(1 − total/total_base)`.
    pub fn reduction_vs(&self, base: &Aggregate) -> f64 {
        let b = base.total_hours.mean();
        // Exact-zero guard against division by zero. simlint: allow(no-float-eq)
        if b == 0.0 {
            return 0.0;
        }
        100.0 * (1.0 - self.total_hours.mean() / b)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample_run(total_fail: u64, lm: u64, pc: u64) -> RunResult {
        RunResult {
            ledger: OverheadLedger {
                ckpt_secs: 3600.0,
                lm_slowdown_secs: 36.0,
                recomp_secs: 1800.0,
                recovery_secs: 360.0,
                failures_total: total_fail,
                failures_predicted: total_fail,
                mitigated_by_lm: lm,
                mitigated_by_pckpt: pc,
                ..Default::default()
            },
            wall_secs: 100_000.0 + 5796.0,
            ideal_secs: 100_000.0,
            final_oci_secs: 5000.0,
            obs: RunObs::default(),
        }
    }

    #[test]
    fn ledger_derived_quantities() {
        let r = sample_run(10, 4, 3);
        assert_eq!(r.ledger.mitigated(), 7);
        assert!((r.ledger.ft_ratio() - 0.7).abs() < 1e-12);
        assert_eq!(r.ledger.ckpt_bucket_secs(), 3636.0);
        assert_eq!(r.ledger.total_overhead_secs(), 5796.0);
        assert!((r.overhead_pct() - 5.796).abs() < 1e-9);
        assert!(r.accounting_residual_secs().abs() < 1e-9);
    }

    #[test]
    fn ft_ratio_with_no_failures_is_one() {
        let l = OverheadLedger::default();
        assert_eq!(l.ft_ratio(), 1.0);
    }

    #[test]
    fn aggregate_means_and_merge() {
        let mut a = Aggregate::new();
        a.push(&sample_run(10, 4, 3));
        a.push(&sample_run(10, 2, 2));
        assert_eq!(a.runs(), 2);
        assert!((a.ft_ratio_mean() - 0.55).abs() < 1e-12);
        assert!((a.total_hours.mean() - 5796.0 / 3600.0).abs() < 1e-9);

        let mut b = Aggregate::new();
        b.push(&sample_run(10, 10, 0));
        let mut merged = a.clone();
        merged.merge(&b);
        assert_eq!(merged.runs(), 3);
        assert!((merged.ft_ratio_mean() - (0.7 + 0.4 + 1.0) / 3.0).abs() < 1e-12);
        // Pooled: (7 + 4 + 10) / 30.
        assert!((merged.ft_ratio_pooled() - 21.0 / 30.0).abs() < 1e-12);
        assert!((merged.ft_ratio_lm_pooled() - 16.0 / 30.0).abs() < 1e-12);
        assert!((merged.ft_ratio_pckpt_pooled() - 5.0 / 30.0).abs() < 1e-12);
    }

    #[test]
    fn pooled_ft_handles_zero_failures() {
        let mut a = Aggregate::new();
        a.push(&sample_run(0, 0, 0));
        assert_eq!(a.ft_ratio_pooled(), 1.0);
        assert_eq!(a.ft_ratio_lm_pooled(), 0.0);
        assert_eq!(a.ft_ratio_pckpt_pooled(), 0.0);
    }

    #[test]
    fn pooled_vs_per_run_ft_bias() {
        // One run with failures (FT 0.5), one without (per-run FT 1.0):
        // per-run mean 0.75, pooled 0.5 — the paper's tables use pooled.
        let mut a = Aggregate::new();
        a.push(&sample_run(2, 1, 0));
        a.push(&sample_run(0, 0, 0));
        assert!((a.ft_ratio_mean() - 0.75).abs() < 1e-12);
        assert!((a.ft_ratio_pooled() - 0.5).abs() < 1e-12);
    }

    #[test]
    fn quantiles_over_runs() {
        let mut a = Aggregate::new();
        for fails in [2u64, 4, 6, 8, 10] {
            let mut r = sample_run(fails, 0, 0);
            r.ledger.recomp_secs = fails as f64 * 3600.0; // totals spread out
            a.push(&r);
        }
        let p50 = a.total_hours_quantile(0.5);
        let p0 = a.total_hours_quantile(0.0);
        let p1 = a.total_hours_quantile(1.0);
        assert!(p0 < p50 && p50 < p1);
        // Median total = 3636 + 6·3600 + 360 s ≈ 7.1 h.
        assert!((p50 - (3636.0 + 6.0 * 3600.0 + 360.0) / 3600.0).abs() < 1e-9);
        // Merging keeps the samples.
        let mut b = Aggregate::new();
        b.merge(&a);
        assert_eq!(b.total_hours_quantile(1.0), p1);
        assert_eq!(Aggregate::new().total_hours_quantile(0.5), 0.0);
    }

    #[test]
    fn reduction_vs_base() {
        let mut base = Aggregate::new();
        let mut run = sample_run(0, 0, 0);
        run.ledger.ckpt_secs = 7200.0; // total = 7200+36+1800+360 = 9396
        base.push(&run);
        let mut better = Aggregate::new();
        better.push(&sample_run(0, 0, 0)); // total = 5796
        let red = better.reduction_vs(&base);
        assert!((red - 100.0 * (1.0 - 5796.0 / 9396.0)).abs() < 1e-9);
        // Base against itself: 0 %.
        assert!(base.reduction_vs(&base).abs() < 1e-12);
    }
}
