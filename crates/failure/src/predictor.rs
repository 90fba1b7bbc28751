//! Aarohi-style online failure predictor.
//!
//! The paper places one predictor instance per compute node (on a spare
//! core) and credits it with 0.31 ms inference latency over 18 log streams.
//! For the C/R simulation what matters is the predictor's *contract*:
//!
//! * a true failure is announced `lead` seconds ahead with probability
//!   `recall` (the complement of the false-negative rate swept in
//!   Observation 9);
//! * some announcements are spurious — the paper holds the false-positive
//!   share of predictions at 18 %;
//! * announcing costs `latency` (0.31 ms), which is subtracted from the
//!   usable lead time.

use pckpt_simrng::SimRng;

/// A failure prediction as delivered to the C/R runtime.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Prediction {
    /// Node the prediction is for (job-local index).
    pub node: u32,
    /// Absolute time the prediction is delivered, hours.
    pub at_hours: f64,
    /// Usable lead time from delivery to (predicted) failure, seconds.
    pub lead_secs: f64,
    /// Failure-chain sequence the prediction is based on.
    pub sequence_id: u32,
    /// False if this is a false positive (no failure will follow).
    pub genuine: bool,
}

/// Predictor quality parameters.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Predictor {
    recall: f64,
    fp_share: f64,
    latency_secs: f64,
}

impl Predictor {
    /// Creates a predictor with `recall` ∈ \[0, 1\] (1 − false-negative
    /// rate) and `fp_share` ∈ \[0, 1) (fraction of all predictions that are
    /// false positives).
    pub fn new(recall: f64, fp_share: f64, latency_secs: f64) -> Self {
        assert!((0.0..=1.0).contains(&recall), "recall must be in [0,1]");
        assert!((0.0..1.0).contains(&fp_share), "fp share must be in [0,1)");
        assert!(latency_secs >= 0.0);
        Self {
            recall,
            fp_share,
            latency_secs,
        }
    }

    /// The paper's working point: recall 0.85 (see DESIGN.md §3 item 6 for
    /// how this is inferred from the FT-ratio tables), 18 % false-positive
    /// share, 0.31 ms inference latency.
    pub fn aarohi_default() -> Self {
        Self::new(0.85, 0.18, 0.31e-3)
    }

    /// A copy with a different recall (Observation 9 sweeps the FN rate —
    /// `with_false_negative_rate(fnr)` keeps the other parameters).
    pub fn with_false_negative_rate(self, fnr: f64) -> Self {
        Self::new(1.0 - fnr, self.fp_share, self.latency_secs)
    }

    /// A copy with a different false-positive share.
    pub fn with_fp_share(self, fp_share: f64) -> Self {
        Self::new(self.recall, fp_share, self.latency_secs)
    }

    /// Probability a true failure is predicted.
    pub fn recall(&self) -> f64 {
        self.recall
    }

    /// False-negative rate.
    pub fn false_negative_rate(&self) -> f64 {
        1.0 - self.recall
    }

    /// Fraction of emitted predictions that are false positives.
    pub fn fp_share(&self) -> f64 {
        self.fp_share
    }

    /// Expected number of false positives per *genuine* prediction:
    /// `fp / (fp + genuine) = fp_share` ⇒ `fp/genuine = s/(1−s)`.
    pub fn fp_per_true_prediction(&self) -> f64 {
        self.fp_share / (1.0 - self.fp_share)
    }

    /// Inference latency, seconds.
    pub fn latency_secs(&self) -> f64 {
        self.latency_secs
    }

    /// Rolls whether a particular true failure gets predicted.
    pub fn predicts(&self, rng: &mut SimRng) -> bool {
        rng.chance(self.recall)
    }

    /// The lead time usable by the C/R runtime once inference latency is
    /// paid.
    pub fn usable_lead_secs(&self, raw_lead_secs: f64) -> f64 {
        (raw_lead_secs - self.latency_secs).max(0.0)
    }

    /// Every parameter, as [`new`](Self::new) takes them: `(recall,
    /// fp_share, latency_secs)`. Destructures `Self` exhaustively, so a
    /// new field fails to compile here until it is returned (the cell
    /// fingerprint encodes these parts).
    pub fn parts(&self) -> (f64, f64, f64) {
        let Self {
            recall,
            fp_share,
            latency_secs,
        } = *self;
        (recall, fp_share, latency_secs)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn default_matches_paper_constants() {
        let p = Predictor::aarohi_default();
        assert_eq!(p.recall(), 0.85);
        assert!((p.false_negative_rate() - 0.15).abs() < 1e-12);
        assert_eq!(p.fp_share(), 0.18);
        assert_eq!(p.latency_secs(), 0.31e-3);
    }

    #[test]
    fn fp_per_true_prediction_algebra() {
        let p = Predictor::new(1.0, 0.18, 0.0);
        // 0.18/0.82 ≈ 0.2195 false positives per genuine prediction.
        assert!((p.fp_per_true_prediction() - 0.18 / 0.82).abs() < 1e-12);
        let none = Predictor::new(1.0, 0.0, 0.0);
        assert_eq!(none.fp_per_true_prediction(), 0.0);
    }

    #[test]
    fn predicts_fraction_matches_recall() {
        let p = Predictor::new(0.7, 0.0, 0.0);
        let mut rng = SimRng::seed_from(1);
        let n = 100_000;
        let hits = (0..n).filter(|_| p.predicts(&mut rng)).count();
        let frac = hits as f64 / n as f64;
        assert!((frac - 0.7).abs() < 0.01, "frac = {frac}");
    }

    #[test]
    fn usable_lead_subtracts_latency() {
        let p = Predictor::aarohi_default();
        assert!((p.usable_lead_secs(10.0) - (10.0 - 0.31e-3)).abs() < 1e-12);
        assert_eq!(p.usable_lead_secs(1e-5), 0.0, "clamped at zero");
    }

    #[test]
    fn fn_sweep_constructor() {
        let p = Predictor::aarohi_default().with_false_negative_rate(0.4);
        assert!((p.recall() - 0.6).abs() < 1e-12);
        assert_eq!(p.fp_share(), 0.18, "fp share preserved");
        let q = p.with_fp_share(0.0);
        assert_eq!(q.fp_share(), 0.0);
        assert!((q.recall() - 0.6).abs() < 1e-12);
    }

    #[test]
    #[should_panic(expected = "recall")]
    fn rejects_bad_recall() {
        let _ = Predictor::new(1.5, 0.1, 0.0);
    }
}
