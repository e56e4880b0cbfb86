//! Risk-window bookkeeping and fatal-failure detection (§III-C, §V-C).
//!
//! After node `v` fails at time `t`, its group is *at risk* until
//! `t + Risk`: the replacement has not yet re-collected the group's
//! checkpoint images, so its data survives only in the other members'
//! memories. A failure of *every* member of the group while their
//! windows overlap means the data is gone: a **fatal failure** — the
//! application cannot be recovered.
//!
//! For pairs that means the buddy failing inside the victim's window;
//! for triples, all three members simultaneously inside open windows.
//! (A repeat failure of the *same* node merely restarts its window:
//! its image still lives with its buddies.)
//!
//! Windows have the fixed length `Risk` of the first-order model
//! (`RiskModel::risk_window` in `dck-core`); the model neglects the
//! lengthening of windows by overlapping recoveries, and so do we —
//! that is precisely the approximation Eqs. 11/16 make, and matching it
//! is what lets the simulator validate those formulas.

use crate::groups::{GroupLayout, NodeId};
use dck_core::ModelError;

/// Outcome of recording one failure.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct FailureOutcome {
    /// True if this failure made the group unrecoverable.
    pub fatal: bool,
    /// Number of group members (including this one) inside open risk
    /// windows right after this failure.
    pub members_at_risk: u32,
}

/// A node's most recent risk window, stamped with the generation it
/// was opened in so [`RiskTracker::reset`] is O(1): windows from an
/// older generation are treated as never opened.
#[derive(Debug, Clone, Copy)]
struct NodeWindow {
    gen: u32,
    until: f64,
}

/// Tracks open risk windows per group and detects fatal failures.
///
/// Storage is one dense slot per node (the Monte-Carlo hot path
/// records millions of failures, so the per-event work is a handful
/// of reads within the victim's group — no ordered-map lookups and no
/// allocation after construction).
#[derive(Debug, Clone)]
pub struct RiskTracker {
    layout: GroupLayout,
    risk_window: f64,
    /// Current generation; slots stamped with an older one are closed.
    gen: u32,
    /// Latest window per node, dense by node id. All-zero initial
    /// state (generation 0 never matches `gen >= 1`) keeps the
    /// allocation a cheap `calloc` even for very large platforms.
    windows: Vec<NodeWindow>,
    fatal_seen: u64,
    failures_seen: u64,
}

impl RiskTracker {
    /// Creates a tracker with the given fixed window length.
    ///
    /// # Errors
    /// `risk_window` must be finite and ≥ 0. (A first-order `RiskModel`
    /// evaluated outside its domain produces a negative or NaN window;
    /// callers get a `ModelError` naming the parameter instead of a
    /// panic deep inside a sweep worker.)
    pub fn new(layout: GroupLayout, risk_window: f64) -> Result<Self, ModelError> {
        if !(risk_window >= 0.0 && risk_window.is_finite()) {
            return Err(ModelError::invalid(
                "risk_window",
                format!("must be finite and >= 0, got {risk_window}"),
            ));
        }
        Ok(RiskTracker {
            layout,
            risk_window,
            gen: 1,
            windows: vec![NodeWindow { gen: 0, until: 0.0 }; layout.nodes() as usize],
            fatal_seen: 0,
            failures_seen: 0,
        })
    }

    /// Whether `node`'s window is still open at time `t`.
    fn open(&self, node: NodeId, t: f64) -> bool {
        let w = self.windows[node as usize];
        w.gen == self.gen && w.until > t
    }

    /// The window length in use.
    pub fn risk_window(&self) -> f64 {
        self.risk_window
    }

    /// Changes the length of windows opened from now on (an operating
    /// point retuned mid-run); windows already open keep their end.
    ///
    /// # Errors
    /// Same validation as [`RiskTracker::new`]; the tracker is left
    /// unchanged on error.
    pub fn set_risk_window(&mut self, risk_window: f64) -> Result<(), ModelError> {
        if !(risk_window >= 0.0 && risk_window.is_finite()) {
            return Err(ModelError::invalid(
                "risk_window",
                format!("must be finite and >= 0, got {risk_window}"),
            ));
        }
        self.risk_window = risk_window;
        Ok(())
    }

    /// Total failures recorded.
    pub fn failures_seen(&self) -> u64 {
        self.failures_seen
    }

    /// Total fatal failures detected.
    pub fn fatal_seen(&self) -> u64 {
        self.fatal_seen
    }

    /// Records a failure of `node` at time `t` and reports whether it
    /// is fatal. Expired windows need no pruning — they are simply not
    /// open at `t`.
    pub fn record_failure(&mut self, node: NodeId, t: f64) -> FailureOutcome {
        self.failures_seen += 1;
        let group = self.layout.group_of(node);
        let others_at_risk = self
            .layout
            .members(group)
            .filter(|&m| m != node && self.open(m, t))
            .count() as u32;
        let fatal = u64::from(others_at_risk) + 1 >= self.layout.group_size();

        // Restart (or open) this node's window.
        self.windows[node as usize] = NodeWindow {
            gen: self.gen,
            until: t + self.risk_window,
        };

        if fatal {
            self.fatal_seen += 1;
        }
        FailureOutcome {
            fatal,
            members_at_risk: others_at_risk + 1,
        }
    }

    /// Number of groups with at least one window open at time `t`
    /// (diagnostic; scans the platform).
    pub fn groups_at_risk(&self, t: f64) -> usize {
        (0..self.layout.groups())
            .filter(|&g| self.layout.members(g).any(|m| self.open(m, t)))
            .count()
    }

    /// Drops all state (e.g. after an application restart). O(1):
    /// bumps the generation so every open window goes stale.
    pub fn reset(&mut self) {
        self.gen = match self.gen.checked_add(1) {
            Some(g) => g,
            None => {
                // u32 generations exhausted: physically clear once and
                // restart the stamping. (4 billion resets per tracker —
                // unreachable in practice, handled for correctness.)
                self.windows.fill(NodeWindow { gen: 0, until: 0.0 });
                1
            }
        };
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use dck_core::Protocol;

    fn pair_tracker(window: f64) -> RiskTracker {
        RiskTracker::new(GroupLayout::new(Protocol::DoubleNbl, 8).unwrap(), window).unwrap()
    }

    fn triple_tracker(window: f64) -> RiskTracker {
        RiskTracker::new(GroupLayout::new(Protocol::Triple, 9).unwrap(), window).unwrap()
    }

    #[test]
    fn rejects_negative_or_nan_window() {
        let layout = GroupLayout::new(Protocol::DoubleNbl, 8).unwrap();
        for bad in [-1.0, f64::NAN, f64::INFINITY, f64::NEG_INFINITY] {
            let err = RiskTracker::new(layout, bad).unwrap_err();
            assert!(
                matches!(
                    err,
                    ModelError::InvalidParameter {
                        name: "risk_window",
                        ..
                    }
                ),
                "window {bad}: {err:?}"
            );
        }
    }

    #[test]
    fn single_failure_is_never_fatal() {
        let mut t = pair_tracker(10.0);
        let o = t.record_failure(0, 100.0);
        assert!(!o.fatal);
        assert_eq!(o.members_at_risk, 1);
    }

    #[test]
    fn buddy_failure_inside_window_is_fatal() {
        let mut t = pair_tracker(10.0);
        assert!(!t.record_failure(0, 100.0).fatal);
        let o = t.record_failure(1, 105.0);
        assert!(o.fatal);
        assert_eq!(o.members_at_risk, 2);
        assert_eq!(t.fatal_seen(), 1);
    }

    #[test]
    fn buddy_failure_after_window_is_safe() {
        let mut t = pair_tracker(10.0);
        t.record_failure(0, 100.0);
        // Window closed exactly at 110: a failure at 110 is safe.
        assert!(!t.record_failure(1, 110.0).fatal);
        // …and at 110.1 too.
        let mut t = pair_tracker(10.0);
        t.record_failure(0, 100.0);
        assert!(!t.record_failure(1, 110.1).fatal);
    }

    #[test]
    fn same_node_refailing_is_not_fatal_but_restarts_window() {
        let mut t = pair_tracker(10.0);
        t.record_failure(0, 100.0);
        // Replacement of node 0 dies again: not fatal (buddy holds data)…
        assert!(!t.record_failure(0, 105.0).fatal);
        // …but the window now extends to 115: buddy failing at 112 kills.
        assert!(t.record_failure(1, 112.0).fatal);
    }

    #[test]
    fn unrelated_groups_do_not_interact() {
        let mut t = pair_tracker(10.0);
        t.record_failure(0, 100.0);
        assert!(!t.record_failure(2, 101.0).fatal);
        assert!(!t.record_failure(4, 102.0).fatal);
        assert_eq!(t.groups_at_risk(103.0), 3);
        assert_eq!(t.groups_at_risk(200.0), 0);
    }

    #[test]
    fn triple_needs_three_members() {
        let mut t = triple_tracker(10.0);
        assert!(!t.record_failure(0, 100.0).fatal);
        let o = t.record_failure(1, 102.0);
        assert!(!o.fatal);
        assert_eq!(o.members_at_risk, 2);
        // Third member inside both windows: fatal.
        let o = t.record_failure(2, 104.0);
        assert!(o.fatal);
        assert_eq!(o.members_at_risk, 3);
    }

    #[test]
    fn triple_survives_if_first_window_expired() {
        let mut t = triple_tracker(10.0);
        t.record_failure(0, 100.0);
        t.record_failure(1, 109.0);
        // Node 0's window closed at 110; at 112 only node 1 is at risk.
        let o = t.record_failure(2, 112.0);
        assert!(!o.fatal);
        assert_eq!(o.members_at_risk, 2);
    }

    #[test]
    fn triple_two_failures_never_fatal() {
        let mut t = triple_tracker(1e9);
        t.record_failure(3, 0.0);
        for i in 0..100 {
            assert!(!t.record_failure(4, i as f64).fatal);
        }
    }

    #[test]
    fn counts_accumulate() {
        let mut t = pair_tracker(5.0);
        for i in 0..10 {
            t.record_failure(0, i as f64 * 100.0);
        }
        assert_eq!(t.failures_seen(), 10);
        assert_eq!(t.fatal_seen(), 0);
    }

    #[test]
    fn reset_clears_windows() {
        let mut t = pair_tracker(1e6);
        t.record_failure(0, 0.0);
        t.reset();
        assert!(!t.record_failure(1, 1.0).fatal);
    }

    #[test]
    fn set_risk_window_applies_to_windows_opened_afterwards() {
        let mut t = pair_tracker(10.0);
        for bad in [-1.0, f64::NAN, f64::INFINITY] {
            assert!(t.set_risk_window(bad).is_err());
        }
        assert_eq!(t.risk_window(), 10.0);
        t.record_failure(0, 0.0); // open until 10 under the old length
        t.set_risk_window(100.0).unwrap();
        assert!(!t.record_failure(1, 20.0).fatal, "old window kept its end");
        assert!(t.record_failure(0, 110.0).fatal, "new window is 100 s");
    }

    #[test]
    fn zero_window_never_fatal() {
        let mut t = pair_tracker(0.0);
        t.record_failure(0, 100.0);
        assert!(!t.record_failure(1, 100.0).fatal);
    }
}
