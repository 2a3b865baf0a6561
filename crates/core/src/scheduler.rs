//! Deterministic session placement.
//!
//! The scheduler owns one slot per TA session (one per secure core) and
//! places capture windows onto them by cumulative load: each window goes
//! to the least-loaded session, ties broken by the lowest core index, and
//! a session's load grows by the window's weight (its length in capture
//! periods / frames). With uniform windows this degenerates to exact
//! round-robin; with ragged windows it balances.
//!
//! **Determinism contract.** Placement depends only on the sequence of
//! window weights the scheduler has seen — there is no randomness and no
//! clock. Two schedulers fed identical weight sequences produce identical
//! assignments, so a device's placement replays exactly: each
//! [`crate::pipeline::SecureDevice`] holds one scheduler over its lanes,
//! and the scenes a lane's capture stage queues are precisely the windows
//! its filter stage dispatches.
//!
//! **Work stealing.** Greedy least-loaded placement is online: it cannot
//! revisit a decision once a heavier window lands. On ragged window mixes
//! that leaves one session backlogged while a sibling idles.
//! [`SessionScheduler::assign_with_stealing`] adds a deterministic steal
//! pass after the greedy pass: while the batch still holds a window whose
//! move from the most-loaded to the least-loaded session strictly shrinks
//! the imbalance, the idle session steals it, and every steal is recorded
//! as a [`WindowSteal`] — the seam that keeps the determinism contract:
//! steal decisions are a pure function of the weight sequence, so two
//! schedulers fed the same batches still agree.

use serde::{Deserialize, Serialize};

/// Cumulative load of one TA session.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq, Serialize, Deserialize)]
pub struct SessionLoad {
    /// Windows placed onto the session.
    pub windows: u64,
    /// Total weight (capture periods / frames) placed onto the session.
    pub weight: u64,
    /// Batches in which the session received at least one window.
    pub batches: u64,
}

/// One recorded steal decision of
/// [`SessionScheduler::assign_with_stealing`]: window `window` of the
/// batch moved from session `from` to the idler session `to`.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub struct WindowSteal {
    /// Index of the window within the batch.
    pub window: usize,
    /// The backlogged session the window was taken from.
    pub from: usize,
    /// The idle session that stole it.
    pub to: usize,
    /// The window's weight (capture periods / frames).
    pub weight: u64,
}

/// Deterministic least-loaded placement over a fixed set of sessions.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct SessionScheduler {
    loads: Vec<SessionLoad>,
    /// Fixed cost charged per window on top of its frame weight — the
    /// crossing + dispatch overhead a session pays regardless of window
    /// length, expressed in frame-equivalents. Zero reproduces the
    /// historical frames-only weighting exactly.
    window_overhead: u64,
}

impl SessionScheduler {
    /// Creates a scheduler over `sessions` sessions (at least one),
    /// weighting windows by their frame count alone.
    ///
    /// # Panics
    ///
    /// Panics on zero sessions — a scheduler with nowhere to place work
    /// is a construction bug, not a runtime condition.
    pub fn new(sessions: usize) -> Self {
        SessionScheduler::with_window_overhead(sessions, 0)
    }

    /// Creates a scheduler whose every window additionally weighs
    /// `overhead` frame-equivalents — the per-window fixed cost (TEE
    /// crossing + TA dispatch) that dominates once window shares get very
    /// small. The overhead is part of the weight *function*, not the
    /// weight *sequence*: two schedulers built with the same overhead
    /// and fed the same batches agree on every placement and steal
    /// decision.
    ///
    /// # Panics
    ///
    /// Panics on zero sessions.
    pub fn with_window_overhead(sessions: usize, overhead: u64) -> Self {
        assert!(sessions > 0, "scheduler needs at least one session");
        SessionScheduler {
            loads: vec![SessionLoad::default(); sessions],
            window_overhead: overhead,
        }
    }

    /// Number of sessions.
    pub fn sessions(&self) -> usize {
        self.loads.len()
    }

    /// The per-window fixed cost in force.
    pub fn window_overhead(&self) -> u64 {
        self.window_overhead
    }

    /// A window's effective weight: its frame weight (clamped to one)
    /// plus the per-window fixed cost.
    fn effective_weight(&self, weight: u64) -> u64 {
        weight.max(1) + self.window_overhead
    }

    /// Places one batch of windows: returns, per window, the session it
    /// goes to. Windows are placed in order, each onto the session with
    /// the smallest cumulative weight (ties to the lowest index), and the
    /// placement is recorded so later batches continue from the balanced
    /// state.
    pub fn assign(&mut self, weights: &[u64]) -> Vec<usize> {
        let mut assignment = Vec::with_capacity(weights.len());
        let mut touched = vec![false; self.loads.len()];
        for &weight in weights {
            let session = self.place(weight);
            touched[session] = true;
            assignment.push(session);
        }
        for (session, hit) in touched.into_iter().enumerate() {
            if hit {
                self.loads[session].batches += 1;
            }
        }
        assignment
    }

    /// Places one batch like [`SessionScheduler::assign`], then lets
    /// idle sessions **steal** queued windows from backlogged siblings.
    ///
    /// The steal pass closes the **cumulative** backlog gap: greedy
    /// placement is online — it cannot revisit a decision once a heavier
    /// window has landed — so a ragged mix leaves one session backlogged
    /// (large cumulative weight) while a sibling idles. While the
    /// backlogged session carries a window of this batch whose weight is
    /// strictly below the gap to the idlest session, the idle session
    /// steals it (largest such window first), and every move is
    /// recorded. The pass is a pure function of the weight sequence —
    /// two schedulers make identical steal decisions — and it never
    /// increases the cumulative makespan, which is what cuts completion
    /// time and tail latency on ragged window mixes.
    pub fn assign_with_stealing(&mut self, weights: &[u64]) -> (Vec<usize>, Vec<WindowSteal>) {
        // Greedy pass — the same rule as `assign`, with the batch tally
        // deferred until after stealing so a session that only receives
        // stolen windows still counts as touched.
        let mut assignment = Vec::with_capacity(weights.len());
        for &weight in weights {
            assignment.push(self.place(weight));
        }
        // Steal pass. Each move strictly shrinks the backlogged/idle
        // gap, and the iteration cap bounds the pass even in
        // pathological mixes.
        let mut steals = Vec::new();
        if self.loads.len() > 1 {
            for _ in 0..weights.len() {
                let share: Vec<u64> = self.loads.iter().map(|load| load.weight).collect();
                let donor = extreme_session(&share, |gap| gap > 0);
                let thief = extreme_session(&share, |gap| gap < 0);
                let gap = share[donor] - share[thief];
                // The heaviest window of this batch on the donor that
                // still improves the imbalance (ties to the earliest
                // window, for determinism).
                let candidate = assignment
                    .iter()
                    .enumerate()
                    .filter(|(_, &session)| session == donor)
                    .map(|(window, _)| (self.effective_weight(weights[window]), window))
                    .filter(|&(weight, _)| weight < gap)
                    .max_by_key(|&(weight, window)| (weight, std::cmp::Reverse(window)));
                let Some((weight, window)) = candidate else {
                    break;
                };
                assignment[window] = thief;
                self.loads[donor].windows -= 1;
                self.loads[donor].weight -= weight;
                self.loads[thief].windows += 1;
                self.loads[thief].weight += weight;
                steals.push(WindowSteal {
                    window,
                    from: donor,
                    to: thief,
                    weight,
                });
            }
        }
        let mut touched = vec![false; self.loads.len()];
        for &session in &assignment {
            touched[session] = true;
        }
        for (session, hit) in touched.into_iter().enumerate() {
            if hit {
                self.loads[session].batches += 1;
            }
        }
        (assignment, steals)
    }

    /// Places one window onto the least-loaded session — the single
    /// greedy rule shared by [`SessionScheduler::assign`] and the greedy
    /// pass of [`SessionScheduler::assign_with_stealing`], so the two
    /// entry points can never drift.
    fn place(&mut self, weight: u64) -> usize {
        let session = self.least_loaded();
        self.loads[session].windows += 1;
        self.loads[session].weight += self.effective_weight(weight);
        session
    }

    /// Per-session cumulative loads, in core order.
    pub fn loads(&self) -> &[SessionLoad] {
        &self.loads
    }

    /// The currently least-loaded session.
    pub fn least_loaded(&self) -> usize {
        self.loads
            .iter()
            .enumerate()
            .min_by_key(|(index, load)| (load.weight, *index))
            .map(|(index, _)| index)
            .expect("scheduler has at least one session")
    }
}

/// Index of the session whose batch share is extreme under `prefer`
/// (`gap > 0` picks the heaviest share, `gap < 0` the lightest), with
/// ties broken to the lowest index — the deterministic donor/thief rule
/// of the steal pass.
fn extreme_session(share: &[u64], prefer: impl Fn(i128) -> bool) -> usize {
    let mut best = 0;
    for (index, &value) in share.iter().enumerate().skip(1) {
        if prefer(i128::from(value) - i128::from(share[best])) {
            best = index;
        }
    }
    best
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn uniform_windows_round_robin() {
        let mut scheduler = SessionScheduler::new(3);
        let assignment = scheduler.assign(&[2, 2, 2, 2, 2, 2, 2]);
        assert_eq!(assignment, vec![0, 1, 2, 0, 1, 2, 0]);
        // The next batch continues from the balanced state: core 0 is one
        // window ahead, so cores 1 and 2 fill first.
        let next = scheduler.assign(&[2, 2]);
        assert_eq!(next, vec![1, 2]);
        assert_eq!(scheduler.loads()[0].windows, 3);
        assert_eq!(scheduler.loads()[1].batches, 2);
    }

    #[test]
    fn ragged_windows_balance_by_weight() {
        let mut scheduler = SessionScheduler::new(2);
        // A heavy window tips the scales: the following light windows all
        // land on the other session until the weights even out.
        let assignment = scheduler.assign(&[10, 1, 1, 1, 1]);
        assert_eq!(assignment, vec![0, 1, 1, 1, 1]);
        assert_eq!(scheduler.least_loaded(), 1);
        assert_eq!(scheduler.loads()[0].weight, 10);
        assert_eq!(scheduler.loads()[1].weight, 4);
    }

    #[test]
    fn mirrored_schedulers_agree() {
        // The determinism contract: same weights, same placement.
        let mut capture_side = SessionScheduler::new(4);
        let mut filter_side = SessionScheduler::new(4);
        for batch in [vec![3u64, 1, 4, 1, 5], vec![9, 2], vec![6, 5, 3, 5]] {
            assert_eq!(capture_side.assign(&batch), filter_side.assign(&batch));
        }
        assert_eq!(capture_side, filter_side);
    }

    #[test]
    fn zero_weights_are_clamped() {
        let mut scheduler = SessionScheduler::new(2);
        scheduler.assign(&[0, 0]);
        assert_eq!(scheduler.loads()[0].weight, 1);
        assert_eq!(scheduler.loads()[1].weight, 1);
    }

    #[test]
    #[should_panic(expected = "at least one session")]
    fn zero_sessions_panic() {
        let _ = SessionScheduler::new(0);
    }

    fn makespan(scheduler: &SessionScheduler) -> u64 {
        scheduler
            .loads()
            .iter()
            .map(|load| load.weight)
            .max()
            .unwrap_or(0)
    }

    #[test]
    fn stealing_rebalances_a_ragged_batch() {
        // Greedy: s0 gets 3+3 (tie-breaks), s1 gets 3 then the trailing
        // 1s, then the 8 lands on whichever is lighter — leaving a gap a
        // steal pass can close.
        let weights = [3u64, 3, 3, 1, 1, 1, 8];
        let mut greedy = SessionScheduler::new(2);
        greedy.assign(&weights);
        let mut stealing = SessionScheduler::new(2);
        let (assignment, steals) = stealing.assign_with_stealing(&weights);
        assert_eq!(assignment.len(), weights.len());
        assert!(!steals.is_empty(), "ragged batch triggered no steals");
        assert!(
            makespan(&stealing) < makespan(&greedy),
            "stealing {} did not beat greedy {}",
            makespan(&stealing),
            makespan(&greedy)
        );
        // The recorded decisions describe exactly the final placement.
        for steal in &steals {
            assert_eq!(assignment[steal.window], steal.to);
            assert_ne!(steal.from, steal.to);
            assert_eq!(steal.weight, weights[steal.window].max(1));
        }
        // Loads stay a consistent account of the assignment.
        let total: u64 = weights.iter().map(|w| (*w).max(1)).sum();
        assert_eq!(
            stealing.loads().iter().map(|l| l.weight).sum::<u64>(),
            total
        );
        assert_eq!(
            stealing.loads().iter().map(|l| l.windows).sum::<u64>(),
            weights.len() as u64
        );
    }

    #[test]
    fn stealing_never_fires_on_balanced_batches() {
        let mut scheduler = SessionScheduler::new(3);
        let (assignment, steals) = scheduler.assign_with_stealing(&[2, 2, 2, 2, 2, 2]);
        assert_eq!(assignment, vec![0, 1, 2, 0, 1, 2]);
        assert!(steals.is_empty());
    }

    #[test]
    fn mirrored_schedulers_agree_on_steals() {
        let mut capture_side = SessionScheduler::new(3);
        let mut filter_side = SessionScheduler::new(3);
        for batch in [vec![9u64, 1, 1, 1, 7], vec![2, 2, 12], vec![5, 5, 5, 1]] {
            assert_eq!(
                capture_side.assign_with_stealing(&batch),
                filter_side.assign_with_stealing(&batch)
            );
        }
        assert_eq!(capture_side, filter_side);
    }

    #[test]
    fn window_overhead_models_the_per_window_fixed_cost() {
        // Frames alone: one 8-frame window balances eight 1-frame
        // windows. With a fixed per-window cost of 4 frame-equivalents,
        // eight tiny windows cost 8*(1+4)=40 against the heavy window's
        // 8+4=12 — the scheduler must stop pretending they are equal.
        let mut frames_only = SessionScheduler::new(2);
        let mut with_overhead = SessionScheduler::with_window_overhead(2, 4);
        assert_eq!(with_overhead.window_overhead(), 4);
        let weights = [8u64, 1, 1, 1, 1, 1, 1, 1, 1];
        frames_only.assign(&weights);
        with_overhead.assign(&weights);
        // Frames-only: session 0 carries 8, session 1 carries 8 — "even".
        assert_eq!(frames_only.loads()[0].weight, 8);
        assert_eq!(frames_only.loads()[1].weight, 8);
        // Overhead-aware: the tiny windows' fixed costs spill back onto
        // session 0 once session 1's cumulative cost overtakes it.
        assert!(with_overhead.loads()[0].windows > 1);
        let total: u64 = weights.iter().map(|&w| w.max(1) + 4).sum();
        assert_eq!(
            with_overhead.loads().iter().map(|l| l.weight).sum::<u64>(),
            total
        );
    }

    #[test]
    fn mirrored_schedulers_agree_with_overhead() {
        let mut a = SessionScheduler::with_window_overhead(3, 7);
        let mut b = SessionScheduler::with_window_overhead(3, 7);
        for batch in [vec![9u64, 1, 1, 1, 7], vec![2, 2, 12], vec![1, 1, 1, 1]] {
            assert_eq!(
                a.assign_with_stealing(&batch),
                b.assign_with_stealing(&batch)
            );
        }
        assert_eq!(a, b);
    }

    #[test]
    fn single_session_schedulers_cannot_steal() {
        let mut scheduler = SessionScheduler::new(1);
        let (assignment, steals) = scheduler.assign_with_stealing(&[4, 9, 1]);
        assert_eq!(assignment, vec![0, 0, 0]);
        assert!(steals.is_empty());
        assert_eq!(scheduler.loads()[0].batches, 1);
    }
}
