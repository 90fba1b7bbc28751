//! Debug-mode runtime invariant auditor.
//!
//! `simlint` (see `crates/simlint`) enforces determinism discipline
//! *statically*; this module is its dynamic cross-check. Every audit is
//! compiled away in release builds (`debug_assertions` off), so the hot
//! loop's release-mode cost is zero — debug test runs pay an O(active)
//! scan per completion wave and get two invariants checked
//! continuously:
//!
//! 1. **Pop monotonicity** ([`PopAudit`]): events leave the
//!    [`EventQueue`](crate::queue::EventQueue) in strictly increasing
//!    `(time, seq)` order. A violation means the heap ordering or the
//!    sorted run's seal is corrupt — the simulated world would observe
//!    effects before causes.
//! 2. **Byte conservation** ([`ByteLedger`]): per completion wave of a
//!    [`FlowLink`](crate::flow::FlowLink), bytes injected by `start` =
//!    bytes retired (completed + delivered-before-cancel) + bytes handed
//!    back by `cancel` + total bytes of still-active flows, to within
//!    float rounding. A drift means the virtual-time accounting is
//!    leaking or double-counting volume — exactly the failure mode that
//!    would silently skew the paper's overhead tables.

use crate::time::SimTime;

/// Relative tolerance for byte conservation: the ledger sums are each a
/// few-thousand-term f64 accumulation, so exact equality is not
/// guaranteed, but drift beyond 1 part in 10⁹ is a real leak.
#[cfg(debug_assertions)]
const CONSERVATION_RTOL: f64 = 1e-9;

/// Audits that event-queue pops never go backwards in `(time, seq)`.
///
/// Zero-sized in release builds; all methods compile to nothing.
#[derive(Debug, Default)]
pub struct PopAudit {
    #[cfg(debug_assertions)]
    last: Option<(SimTime, u64)>,
}

impl PopAudit {
    /// Forgets the last observed pop, for queue reuse across runs: the
    /// recycled queue restarts at `(t = 0, seq = 0)`, which would
    /// otherwise trip the monotonicity check.
    #[inline]
    pub fn reset(&mut self) {
        #[cfg(debug_assertions)]
        {
            self.last = None;
        }
    }

    /// Records a pop and asserts it is strictly after the previous one.
    #[inline]
    pub fn observe_pop(&mut self, time: SimTime, seq: u64) {
        #[cfg(debug_assertions)]
        {
            if let Some(last) = self.last {
                assert!(
                    (time, seq) > last,
                    "audit: event-queue pop went backwards: ({time}, seq {seq}) \
                     after ({}, seq {})",
                    last.0,
                    last.1,
                );
            }
            self.last = Some((time, seq));
        }
        #[cfg(not(debug_assertions))]
        let _ = (time, seq);
    }
}

/// Audits byte conservation across a [`FlowLink`](crate::flow::FlowLink)'s
/// lifetime: injected = retired + cancel-returned + still-active.
///
/// Zero-sized in release builds; all methods compile to nothing.
#[derive(Debug, Default)]
pub struct ByteLedger {
    #[cfg(debug_assertions)]
    injected: f64,
    #[cfg(debug_assertions)]
    cancel_returned: f64,
}

impl ByteLedger {
    /// Zeroes the ledger, for link reuse across runs.
    #[inline]
    pub fn reset(&mut self) {
        #[cfg(debug_assertions)]
        {
            self.injected = 0.0;
            self.cancel_returned = 0.0;
        }
    }

    /// Records bytes entering the link via `start`/`start_weighted`.
    #[inline]
    pub fn inject(&mut self, bytes: f64) {
        #[cfg(debug_assertions)]
        {
            self.injected += bytes;
        }
        #[cfg(not(debug_assertions))]
        let _ = bytes;
    }

    /// Records undelivered bytes handed back to the caller by `cancel`.
    #[inline]
    pub fn give_back(&mut self, bytes: f64) {
        #[cfg(debug_assertions)]
        {
            self.cancel_returned += bytes;
        }
        #[cfg(not(debug_assertions))]
        let _ = bytes;
    }

    /// Asserts conservation after a completion wave. `retired` is the
    /// link's cumulative retired-byte counter; `active_total` is only
    /// evaluated in debug builds (it is an O(active) scan).
    #[inline]
    pub fn check_conserved(&self, retired: f64, active_total: impl FnOnce() -> f64) {
        #[cfg(debug_assertions)]
        {
            let accounted = retired + self.cancel_returned + active_total();
            let tol = CONSERVATION_RTOL * self.injected.max(1.0);
            assert!(
                (self.injected - accounted).abs() <= tol,
                "audit: FlowLink byte-conservation drift: injected {} vs \
                 accounted {} (retired {retired} + cancelled {} + active) \
                 exceeds tolerance {tol}",
                self.injected,
                accounted,
                self.cancel_returned,
            );
        }
        #[cfg(not(debug_assertions))]
        let _ = (retired, active_total);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn pop_audit_accepts_monotone_sequences() {
        let mut a = PopAudit::default();
        a.observe_pop(SimTime::from_secs(1.0), 0);
        a.observe_pop(SimTime::from_secs(1.0), 3); // same time, later seq
        a.observe_pop(SimTime::from_secs(2.0), 1); // later time, any seq
    }

    #[test]
    #[cfg_attr(not(debug_assertions), ignore = "audit compiled out in release")]
    #[should_panic(expected = "pop went backwards")]
    fn pop_audit_rejects_time_regression() {
        let mut a = PopAudit::default();
        a.observe_pop(SimTime::from_secs(2.0), 0);
        a.observe_pop(SimTime::from_secs(1.0), 1);
    }

    #[test]
    #[cfg_attr(not(debug_assertions), ignore = "audit compiled out in release")]
    #[should_panic(expected = "pop went backwards")]
    fn pop_audit_rejects_seq_regression() {
        let mut a = PopAudit::default();
        a.observe_pop(SimTime::from_secs(1.0), 5);
        a.observe_pop(SimTime::from_secs(1.0), 4);
    }

    #[test]
    fn ledger_balances_completion_and_cancellation() {
        let mut l = ByteLedger::default();
        l.inject(100.0);
        l.inject(50.0);
        l.give_back(20.0); // cancel returned 20 of the second transfer
        // 100 completed + 30 delivered-before-cancel retired; none active.
        l.check_conserved(130.0, || 0.0);
        // A third transfer still in flight counts at full volume.
        l.inject(40.0);
        l.check_conserved(130.0, || 40.0);
    }

    #[test]
    #[cfg_attr(not(debug_assertions), ignore = "audit compiled out in release")]
    #[should_panic(expected = "byte-conservation drift")]
    fn ledger_catches_leaks() {
        let mut l = ByteLedger::default();
        l.inject(100.0);
        l.check_conserved(90.0, || 0.0); // 10 bytes vanished
    }
}
