//! Checkpoint controllers: the bridge between a *policy* (which formula,
//! static or adaptive) and the *executor* (the task simulation), expressed
//! entirely in productive-progress positions.

use ckpt_policy::adaptive::{AdaptiveCheckpointer, CheckpointDecision};
use ckpt_policy::schedule::EquidistantSchedule;

/// The schedule interface the executors drive, in productive-progress
/// positions. [`FixedSchedule`] and [`AdaptiveCheckpointer`] implement it;
/// [`Controller`] delegates to whichever it holds, and the fast-path task
/// loop ([`crate::task_sim`]) is generic over it, so it is monomorphised
/// once per schedule type and matches the enum once per task instead of on
/// every callback.
pub trait CheckpointSchedule {
    /// Absolute productive position of the next checkpoint, strictly after
    /// the durable progress; `None` ⇒ run to completion.
    fn next_checkpoint(&self) -> Option<f64>;

    /// A checkpoint completed: durable progress is now `pos`.
    fn on_checkpoint_complete(&mut self, pos: f64);

    /// A failure rolled the task back to durable progress `pos`.
    fn on_rollback(&mut self, pos: f64);

    /// The task's full-task MNOF belief changed (priority flip). Returns
    /// whether the schedule was re-solved.
    fn on_mnof_change(&mut self, mnof_full: f64) -> bool;

    /// Skip whole run+write cycles in one step. From progress `live`, with
    /// `budget` busy seconds left before the next kill and a write cost of
    /// `c`, returns `(k, last)`: the `k ≥ 1` checkpoints ahead that are
    /// jumped, the last of them at position `last`, with the schedule moved
    /// as `k` calls of [`Self::on_checkpoint_complete`] would move it.
    /// Every jumped position lies in `(live, limit)`, and every jumped
    /// cycle ends at least one full cycle before the kill, so the stepping
    /// loop would have written each of them. `None` (the default, and the
    /// answer of schedules that re-plan at checkpoints) leaves the schedule
    /// untouched: the caller steps.
    #[inline]
    fn skip_cycles(
        &mut self,
        _live: f64,
        _limit: f64,
        _budget: f64,
        _c: f64,
    ) -> Option<(u32, f64)> {
        None
    }
}

/// A fixed equidistant schedule: positions `i·w` for `i = 1..=count`
/// (Young, Daly, and the static Formula (3) variant all use this).
///
/// Stored as `(segment length, count, cursor)` rather than a materialized
/// position `Vec`: positions are recomputed on demand with the *same*
/// float expression [`EquidistantSchedule::positions`] uses (`i·w`), so
/// the values are bit-identical to the historical Vec-backed schedule
/// while construction is allocation-free. The next-checkpoint lookup is a
/// plain read of the cursor, and moving the cursor is O(1) on every path
/// the executors take (see `FixedSchedule::seek`).
///
/// Because every position is known up front, the fast replay does not
/// step through them one by one: [`CheckpointSchedule::skip_cycles`]
/// jumps all whole `(w + C)` cycles before the next kill, flip or
/// completion in O(1), so replaying a task under a fixed schedule costs
/// per kill, flip and task rather than per checkpoint. The replay adds the
/// jumped span once instead of twice per cycle, so its time sums may differ
/// from stepping in the last bits (the bound is in [`crate::task_sim`]).
#[derive(Debug, Clone, Copy)]
pub struct FixedSchedule {
    /// Segment length `Te/x`.
    w: f64,
    /// Number of checkpoints (`x − 1`, so `next_idx + 1` cannot overflow).
    count: u32,
    /// Index of the first position strictly after the durable progress
    /// (0-based: position `i` is `(i+1)·w`).
    next_idx: u32,
    /// Position `next_idx` (`+∞` once past the last), so the next
    /// checkpoint is a plain read.
    next: f64,
}

impl FixedSchedule {
    /// Build from an equidistant schedule.
    pub fn new(schedule: &EquidistantSchedule) -> Self {
        Self::at(schedule.segment_len(), schedule.checkpoint_count(), 0)
    }

    /// Build with no checkpoints at all.
    pub fn none() -> Self {
        Self::at(0.0, 0, 0)
    }

    /// The schedule `(w, count)` with its cursor on position `next_idx`.
    #[inline]
    fn at(w: f64, count: u32, next_idx: u32) -> Self {
        let mut s = Self {
            w,
            count,
            next_idx,
            next: f64::INFINITY,
        };
        if next_idx < count {
            s.next = s.position(next_idx);
        }
        s
    }

    /// Position `i` (0-based): `(i+1)·w`, the exact expression
    /// [`EquidistantSchedule::positions`] evaluates.
    #[inline]
    fn position(&self, i: u32) -> f64 {
        (i + 1) as f64 * self.w
    }

    /// Re-point the cursor at the first position strictly after `p`: the
    /// number of positions `≤ p`, i.e. the historical
    /// `partition_point(|&q| q <= p)` over the materialized positions,
    /// for arbitrary `p`.
    ///
    /// Hand-stepped on purpose. The executors only ever move the cursor by
    /// one (a checkpoint completes at the position under the cursor) or
    /// not at all (a rollback lands on the last durable position, which the
    /// cursor is already past), so the hot step checks exactly those two
    /// cases in O(1) and sends anything else to the `#[cold]` exact search.
    /// Do not "simplify" it back to `while position(i) <= p { i += 1 }`:
    /// LLVM auto-vectorises that loop into a 16-lane scan, taken whenever
    /// ≥ 32 positions remain, and pays for it on every checkpoint although
    /// the cursor moves by one. The search takes scalars rather than
    /// `&mut self` so the schedule can stay in registers in the task loop.
    #[inline]
    fn seek(&mut self, p: f64) {
        let i = self.next_idx;
        // `next` is +∞ past the last position, so only `p = +∞` gets in
        // here without a position to step onto; the exact search sorts it.
        if self.next <= p {
            // The checkpoint under the cursor was just written: step past
            // it, which is exact iff the following position is beyond `p`.
            let stepped = Self::at(self.w, self.count, i + 1);
            if stepped.next > p {
                *self = stepped;
                return;
            }
        } else if i == 0 || self.position(i - 1) <= p {
            // Already past `p` (a rollback to the last durable position).
            return;
        }
        let exact = count_at_or_before(self.w, self.count, p);
        *self = Self::at(self.w, self.count, exact);
    }

    /// The number of positions strictly below `limit`.
    #[inline]
    fn count_below(&self, limit: f64) -> u32 {
        // Under the common `limit = te` every position is below it.
        if self.count == 0 || self.position(self.count - 1) < limit {
            return self.count;
        }
        // `q < limit` ⇔ `q ≤ limit.next_down()` for every float `q`.
        count_at_or_before(self.w, self.count, limit.next_down())
    }
}

/// The exact cursor for any `p`: how many of the positions `(i+1)·w`,
/// `i < count`, are `≤ p`, by binary search (positions are non-decreasing
/// because IEEE multiplication is monotone, so the predicate is a prefix).
#[cold]
#[inline(never)]
fn count_at_or_before(w: f64, count: u32, p: f64) -> u32 {
    let (mut lo, mut hi) = (0u32, count);
    while lo < hi {
        let mid = lo + (hi - lo) / 2;
        if (mid + 1) as f64 * w <= p {
            lo = mid + 1;
        } else {
            hi = mid;
        }
    }
    lo
}

impl CheckpointSchedule for FixedSchedule {
    #[inline]
    fn next_checkpoint(&self) -> Option<f64> {
        (self.next_idx < self.count).then_some(self.next)
    }

    #[inline]
    fn on_checkpoint_complete(&mut self, pos: f64) {
        self.seek(pos);
    }

    #[inline]
    fn on_rollback(&mut self, pos: f64) {
        self.seek(pos);
    }

    /// Fixed schedules ignore MNOF changes (the paper's "static
    /// algorithm").
    #[inline]
    fn on_mnof_change(&mut self, _mnof_full: f64) -> bool {
        false
    }

    /// Cycle `j ≥ 1` writes position `n + j − 1` (`n` = the cursor) and
    /// ends at busy offset `(position − live) + j·c`; it is jumped if that
    /// offset plus one more cycle `w + c` is within `budget`. The count
    /// starts from the closed form `⌊(budget − (next − live) − c) / (w + c)⌋`,
    /// is clamped to the positions below `limit`, and is then corrected by
    /// the exact test above, so `k` is the largest count that passes it.
    #[inline]
    fn skip_cycles(&mut self, live: f64, limit: f64, budget: f64, c: f64) -> Option<(u32, f64)> {
        let (w, count, n) = (self.w, self.count, self.next_idx);
        let cycle = w + c;
        let fits = |k: u32| ((n + k) as f64 * w - live) + k as f64 * c + cycle <= budget;
        // The first cycle must be the stepping loop's next milestone and
        // must fit; `next` is +∞ past the last position, and NaN fails.
        if !(self.next > live && self.next < limit && fits(1)) {
            return None;
        }
        let cap = self.count_below(limit) - n;
        let guess = ((budget - (self.next - live) - c) / cycle).floor();
        let mut k = (guess.min(cap as f64) as u32).max(1);
        while k < cap && fits(k + 1) {
            k += 1;
        }
        while k > 1 && !fits(k) {
            k -= 1;
        }
        *self = Self::at(w, count, n + k);
        Some((k, (n + k) as f64 * w))
    }
}

impl CheckpointSchedule for AdaptiveCheckpointer {
    #[inline]
    fn next_checkpoint(&self) -> Option<f64> {
        match self.decision() {
            CheckpointDecision::RunUntil { at_progress } => Some(at_progress),
            CheckpointDecision::RunToCompletion => None,
        }
    }

    #[inline]
    fn on_checkpoint_complete(&mut self, pos: f64) {
        AdaptiveCheckpointer::on_checkpoint_complete(self, pos)
    }

    #[inline]
    fn on_rollback(&mut self, pos: f64) {
        AdaptiveCheckpointer::on_rollback(self, pos)
    }

    /// Adaptive controllers re-solve (Algorithm 1).
    #[inline]
    fn on_mnof_change(&mut self, mnof_full: f64) -> bool {
        self.update_mnof(mnof_full)
    }
}

/// The controller driving one task's checkpoints.
#[derive(Debug, Clone)]
pub enum Controller {
    /// Positions fixed at task start.
    Fixed(FixedSchedule),
    /// The paper's Algorithm 1 (re-solves on MNOF change).
    Adaptive(AdaptiveCheckpointer),
}

impl Controller {
    /// Absolute productive position of the next checkpoint, strictly after
    /// the durable progress; `None` ⇒ run to completion.
    pub fn next_checkpoint(&self) -> Option<f64> {
        match self {
            Controller::Fixed(f) => f.next_checkpoint(),
            Controller::Adaptive(a) => CheckpointSchedule::next_checkpoint(a),
        }
    }

    /// A checkpoint completed: durable progress is now `pos`.
    pub fn on_checkpoint_complete(&mut self, pos: f64) {
        match self {
            Controller::Fixed(f) => CheckpointSchedule::on_checkpoint_complete(f, pos),
            Controller::Adaptive(a) => CheckpointSchedule::on_checkpoint_complete(a, pos),
        }
    }

    /// A failure rolled the task back to durable progress `pos`.
    pub fn on_rollback(&mut self, pos: f64) {
        match self {
            Controller::Fixed(f) => CheckpointSchedule::on_rollback(f, pos),
            Controller::Adaptive(a) => CheckpointSchedule::on_rollback(a, pos),
        }
    }

    /// The task's full-task MNOF belief changed (priority flip). Fixed
    /// controllers ignore it (the paper's "static algorithm"); adaptive
    /// controllers re-solve (Algorithm 1). Returns whether a re-solve
    /// happened.
    pub fn on_mnof_change(&mut self, mnof_full: f64) -> bool {
        match self {
            Controller::Fixed(f) => f.on_mnof_change(mnof_full),
            Controller::Adaptive(a) => CheckpointSchedule::on_mnof_change(a, mnof_full),
        }
    }

    /// Number of planned checkpoints remaining from the current durable
    /// position (diagnostic).
    pub fn planned_remaining(&self) -> Option<usize> {
        match self {
            Controller::Fixed(f) => Some((f.count - f.next_idx) as usize),
            Controller::Adaptive(_) => None,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn fixed(te: f64, x: u32) -> Controller {
        Controller::Fixed(FixedSchedule::new(
            &EquidistantSchedule::new(te, x).unwrap(),
        ))
    }

    #[test]
    fn fixed_walks_positions() {
        let mut c = fixed(100.0, 4); // 25, 50, 75
        assert_eq!(c.next_checkpoint(), Some(25.0));
        c.on_checkpoint_complete(25.0);
        assert_eq!(c.next_checkpoint(), Some(50.0));
        c.on_checkpoint_complete(50.0);
        c.on_checkpoint_complete(75.0);
        assert_eq!(c.next_checkpoint(), None);
    }

    #[test]
    fn fixed_rollback_repeats_position() {
        let mut c = fixed(100.0, 4);
        c.on_checkpoint_complete(25.0);
        assert_eq!(c.next_checkpoint(), Some(50.0));
        // Failure between 25 and 50: still aiming for 50 after rollback.
        c.on_rollback(25.0);
        assert_eq!(c.next_checkpoint(), Some(50.0));
        // Failure before the first checkpoint ever completes:
        let mut c2 = fixed(100.0, 4);
        c2.on_rollback(0.0);
        assert_eq!(c2.next_checkpoint(), Some(25.0));
    }

    #[test]
    fn none_never_checkpoints() {
        let mut c = Controller::Fixed(FixedSchedule::none());
        assert_eq!(c.next_checkpoint(), None);
        c.on_rollback(0.0);
        assert_eq!(c.next_checkpoint(), None);
        assert_eq!(c.planned_remaining(), Some(0));
    }

    #[test]
    fn fixed_ignores_mnof_changes() {
        let mut c = fixed(100.0, 4);
        assert!(!c.on_mnof_change(50.0));
        assert_eq!(c.next_checkpoint(), Some(25.0));
    }

    #[test]
    fn adaptive_resolves_on_mnof_change() {
        let a = AdaptiveCheckpointer::new(400.0, 1.0, 2.0).unwrap();
        let mut c = Controller::Adaptive(a);
        let first = c.next_checkpoint().unwrap();
        assert!(c.on_mnof_change(32.0)); // 16× failures ⇒ 4× checkpoints
        let new_first = c.next_checkpoint().unwrap();
        assert!(new_first < first, "{new_first} vs {first}");
    }

    #[test]
    fn planned_remaining_counts_down() {
        let mut c = fixed(100.0, 4);
        assert_eq!(c.planned_remaining(), Some(3));
        c.on_checkpoint_complete(25.0);
        assert_eq!(c.planned_remaining(), Some(2));
    }

    /// The historical definition of the cursor: the number of materialized
    /// positions `≤ p`.
    fn reference_idx(positions: &[f64], p: f64) -> u32 {
        positions.partition_point(|&q| q <= p) as u32
    }

    fn schedule(te: f64, x: u32) -> (FixedSchedule, Vec<f64>) {
        let eq = EquidistantSchedule::new(te, x).unwrap();
        (FixedSchedule::new(&eq), eq.positions())
    }

    /// Probe points around every position: each position itself, its
    /// float neighbours, the midpoints between positions, and the ends.
    fn probes(positions: &[f64]) -> Vec<f64> {
        let mut out = vec![-1.0, 0.0, f64::INFINITY];
        let mut prev = 0.0;
        for &q in positions {
            out.extend([
                q,
                f64::from_bits(q.to_bits() - 1),
                f64::from_bits(q.to_bits() + 1),
                0.5 * (prev + q),
            ]);
            prev = q;
        }
        out.push(prev + 1.0);
        out.push(prev * 4.0 + 1e6);
        out
    }

    /// Both cursor paths — the O(1) hot step and the cold exact search —
    /// agree with `partition_point` from every start state for every
    /// probe: forward by one and by many, backward, between positions,
    /// past the last position, and with no positions at all.
    #[test]
    fn seek_matches_partition_point_from_any_cursor() {
        let cases = [
            (100.0, 1),
            (100.0, 2),
            (100.0, 4),
            (441.0, 21),
            (1.0, 3),
            (7.3, 7),
            (3_600.0, 97),
            (600.0, 400),
        ];
        for (te, x) in cases {
            let (base, positions) = schedule(te, x);
            let probes = probes(&positions);
            for start in 0..=base.count {
                for &p in &probes {
                    let want = reference_idx(&positions, p);
                    let mut hot = FixedSchedule::at(base.w, base.count, start);
                    hot.seek(p);
                    assert_eq!(hot.next_idx, want, "seek te={te} x={x} from {start} to {p}");
                    assert_eq!(hot.next_checkpoint(), positions.get(want as usize).copied());
                    let cold = count_at_or_before(base.w, base.count, p);
                    assert_eq!(cold, want, "exact search te={te} x={x} to {p}");
                }
            }
        }
    }

    #[test]
    fn seek_handles_empty_and_nan() {
        let mut none = FixedSchedule::none();
        for p in [-1.0, 0.0, 1.0, f64::INFINITY, f64::NAN] {
            none.seek(p);
            assert_eq!(none.next_idx, 0);
            assert_eq!(none.next_checkpoint(), None);
        }
        // NaN compares false with every position: partition point 0.
        let (mut s, _) = schedule(100.0, 4);
        s.next_idx = 2;
        s.seek(f64::NAN);
        assert_eq!(s.next_idx, 0);
    }

    /// The executor's own walk: checkpoints complete one by one, rollbacks
    /// land on the last durable position, and a rollback to 0 after a run
    /// of checkpoints (a backward move of many) resets the cursor.
    #[test]
    fn seek_follows_executor_walk() {
        let (mut s, positions) = schedule(3_000.0, 60);
        for (i, &q) in positions.iter().enumerate() {
            assert_eq!(s.next_checkpoint(), Some(q));
            s.on_rollback(if i == 0 { 0.0 } else { positions[i - 1] });
            assert_eq!(s.next_checkpoint(), Some(q));
            s.on_checkpoint_complete(q);
        }
        assert_eq!(s.next_checkpoint(), None);
        s.on_rollback(0.0);
        assert_eq!(s.next_checkpoint(), Some(positions[0]));
        // Forward jump over many positions, then past the end.
        s.on_checkpoint_complete(positions[40]);
        assert_eq!(s.next_checkpoint(), Some(positions[41]));
        s.on_checkpoint_complete(3_000.0);
        assert_eq!(s.next_checkpoint(), None);
    }

    /// Busy offset, from `live`, at which the `j`-th cycle ahead (writing
    /// position `p`) ends: the expression `skip_cycles` tests.
    fn cycle_end(p: f64, live: f64, j: u32, c: f64) -> f64 {
        (p - live) + j as f64 * c
    }

    /// What the stepping loop would write from `s`: each next checkpoint in
    /// turn, while it lies in `(live, limit)` and its cycle plus one more
    /// fits in `budget`. Returns the positions and the schedule after them.
    fn step_cycles(
        mut s: FixedSchedule,
        live: f64,
        limit: f64,
        budget: f64,
        c: f64,
    ) -> (Vec<f64>, FixedSchedule) {
        let mut written = Vec::new();
        while let Some(p) = s.next_checkpoint() {
            let j = written.len() as u32 + 1;
            if !(p > live && p < limit && cycle_end(p, live, j, c) + (s.w + c) <= budget) {
                break;
            }
            written.push(p);
            s.on_checkpoint_complete(p);
        }
        (written, s)
    }

    /// Random schedules, cursors, progress, costs, budgets and limits: the
    /// jump writes exactly the cycles single steps write, ends on the same
    /// position and leaves the same cursor; every jumped position lies in
    /// `(live, limit)` and every jumped cycle ends a full cycle before the
    /// budget runs out; and `None` leaves the schedule as it was.
    #[test]
    fn skip_cycles_matches_single_steps() {
        use ckpt_stats::rng::{Rng64, Xoshiro256StarStar};
        let mut g = Xoshiro256StarStar::new(2013);
        let mut jumped = 0;
        for _ in 0..20_000 {
            let w = 10f64.powf(-2.0 + 5.0 * g.next_f64());
            let count = match g.next_u64() % 4 {
                0 => (g.next_u64() % 3) as u32,
                1 => (g.next_u64() % 20_000) as u32,
                _ => (g.next_u64() % 400) as u32,
            };
            // Up to `count`: the cursor past the last position.
            let cursor = (g.next_u64() % (count as u64 + 1)) as u32;
            let base = FixedSchedule::at(w, count, cursor);
            // Progress: on the durable position before the cursor, or past
            // it (a flip fired mid-segment).
            let durable = if cursor == 0 {
                0.0
            } else {
                base.position(cursor - 1)
            };
            let live = match g.next_u64() % 3 {
                0 => durable + w * g.next_f64(),
                _ => durable,
            };
            let c = match g.next_u64() % 4 {
                0 => 0.0,
                1 => w * (10.0 + 990.0 * g.next_f64()),
                _ => 2.0 * w * g.next_f64(),
            };
            let te = (count as f64 + 1.0) * w;
            let span = (count as f64 + 2.0) * (w + c);
            let budget = match g.next_u64() % 8 {
                0 => f64::INFINITY,
                1 => f64::NAN,
                2 => -span * g.next_f64(),
                // A tie: exactly where cycle `j` plus one more ends, or a
                // float step either side of it.
                3 | 4 if cursor < count => {
                    let j = 1 + (g.next_u64() % (count - cursor) as u64) as u32;
                    let tie = cycle_end(base.position(cursor + j - 1), live, j, c) + (w + c);
                    let bits = tie.to_bits();
                    f64::from_bits([bits - 1, bits, bits + 1][(g.next_u64() % 3) as usize])
                }
                _ => span * g.next_f64(),
            };
            let limit = match g.next_u64() % 4 {
                0 => te * g.next_f64(),
                1 if count > 0 => base.position((g.next_u64() % count as u64) as u32),
                _ => te,
            };

            let (written, stepped) = step_cycles(base, live, limit, budget, c);
            let mut s = base;
            match s.skip_cycles(live, limit, budget, c) {
                Some((k, last)) => {
                    jumped += 1;
                    assert_eq!(k as usize, written.len(), "w={w} n={count} at {cursor}");
                    assert_eq!(last.to_bits(), written[written.len() - 1].to_bits());
                    assert_eq!(s.next_idx, stepped.next_idx);
                    assert_eq!(s.next.to_bits(), stepped.next.to_bits());
                    for (j, &p) in written.iter().enumerate() {
                        assert!(p > live && p < limit);
                        assert!(cycle_end(p, live, j as u32 + 1, c) + (w + c) <= budget);
                    }
                }
                None => {
                    assert!(written.is_empty(), "missed {} cycles", written.len());
                    assert_eq!(s.next_idx, base.next_idx);
                    assert_eq!(s.next.to_bits(), base.next.to_bits());
                }
            }
        }
        assert!(jumped > 5_000, "only {jumped} cases jumped");
    }

    #[test]
    fn skip_cycles_declines_empty_spent_and_bad_budgets() {
        let mut none = FixedSchedule::none();
        assert_eq!(none.skip_cycles(0.0, 100.0, f64::INFINITY, 1.0), None);
        let (s, positions) = schedule(100.0, 4);
        let mut spent = FixedSchedule::at(s.w, s.count, s.count);
        assert_eq!(spent.skip_cycles(75.0, 100.0, f64::INFINITY, 1.0), None);
        for budget in [f64::NAN, -1.0, -0.0, 0.0, 25.0 + 1.0 + 25.0] {
            let mut t = s;
            assert_eq!(
                t.skip_cycles(0.0, 100.0, budget, 1.0),
                None,
                "budget {budget}"
            );
            assert_eq!(t.next_checkpoint(), Some(positions[0]));
        }
        // Exactly one cycle plus the one after it fits.
        let mut t = s;
        assert_eq!(
            t.skip_cycles(0.0, 100.0, 25.0 + 1.0 + 26.0, 1.0),
            Some((1, 25.0))
        );
        assert_eq!(t.next_checkpoint(), Some(50.0));
    }

    #[test]
    fn skip_cycles_with_infinite_budget_reaches_the_last_position_below_limit() {
        let (s, positions) = schedule(441.0, 21);
        let mut t = s;
        assert_eq!(
            t.skip_cycles(0.0, 441.0, f64::INFINITY, 1.0),
            Some((20, positions[19]))
        );
        assert_eq!(t.next_checkpoint(), None);
        // A limit on a position stops the jump just before it.
        let mut t = s;
        assert_eq!(
            t.skip_cycles(0.0, positions[7], f64::INFINITY, 1.0),
            Some((7, positions[6]))
        );
        assert_eq!(t.next_checkpoint(), Some(positions[7]));
        // From mid-segment progress with the cursor part-way along.
        let mut t = FixedSchedule::at(s.w, s.count, 5);
        let live = positions[4] + 3.0;
        assert_eq!(
            t.skip_cycles(live, 300.0, f64::INFINITY, 0.0),
            Some((9, positions[13]))
        );
        assert!(positions[13] < 300.0 && positions[14] >= 300.0);
    }
}
