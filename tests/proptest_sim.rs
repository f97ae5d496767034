//! Property-based tests of the execution model: the wall-clock accounting
//! identity, WPR bounds, kill-plan replay exactness, and the benefit of
//! checkpointing under heavy failure plans — over randomized tasks. The
//! last property checks the production task loop against a straightforward
//! reference loop (`reference_simulate`): bit for bit, except for the time
//! sums a fixed schedule's cycle jump rounds differently.

use cloud_ckpt::policy::adaptive::AdaptiveCheckpointer;
use cloud_ckpt::policy::schedule::EquidistantSchedule;
use cloud_ckpt::sim::controller::{Controller, FixedSchedule};
use cloud_ckpt::sim::task_sim::{
    simulate_task_queued, simulate_task_with_plan, ExecFlip, KillQueue, TaskOutcome, TaskSimSpec,
};
use cloud_ckpt::stats::rng::{Rng64, Xoshiro256StarStar};
use cloud_ckpt::trace::failure::{sample_task_plan_into, FailureModelSpec};
use cloud_ckpt::trace::spec::FailurePlan;
use proptest::prelude::*;

/// Strategy: a sorted kill plan inside (0, te) with ≥ 1 s gaps.
fn kill_plan(te: f64, max_kills: usize) -> impl Strategy<Value = FailurePlan> {
    proptest::collection::vec(0.001..0.999f64, 0..max_kills).prop_map(move |fracs| {
        let mut pos: Vec<f64> = fracs.into_iter().map(|f| f * te).collect();
        pos.sort_by(|a, b| a.partial_cmp(b).unwrap());
        pos.dedup_by(|a, b| *a - *b < 1.0);
        // dedup_by keeps the FIRST of a run when the closure mutates in
        // reverse order; enforce the ≥1 s gap explicitly to be safe.
        let mut cleaned: Vec<f64> = Vec::new();
        for p in pos {
            if cleaned.last().map(|&q| p - q >= 1.0).unwrap_or(true) && p < te {
                cleaned.push(p);
            }
        }
        FailurePlan { positions: cleaned }
    })
}

fn fixed_ctl(te: f64, x: u32) -> Controller {
    Controller::Fixed(FixedSchedule::new(
        &EquidistantSchedule::new(te, x).unwrap(),
    ))
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(150))]

    /// wall = productive + checkpoint_time + rollback_loss + restart_time,
    /// exactly, for every plan and schedule.
    #[test]
    fn accounting_identity(
        te in 50.0..3_000.0f64,
        x in 1u32..40,
        c in 0.0..4.0f64,
        r in 0.0..4.0f64,
        seed in 0u64..1000,
    ) {
        let spec = TaskSimSpec { te, ckpt_cost: c, restart_cost: r };
        let plan = {
            let model = cloud_ckpt::trace::spec::FailureModel::for_priority(2);
            let mut rng = Xoshiro256StarStar::new(seed);
            model.sample_plan(te, &mut rng)
        };
        let mut ctl = fixed_ctl(te, x);
        let mut rng = Xoshiro256StarStar::new(seed);
        let out = simulate_task_with_plan(&spec, plan, None, &mut ctl, &mut rng);
        let parts = out.productive + out.checkpoint_time + out.rollback_loss + out.restart_time;
        prop_assert!((out.wall - parts).abs() < 1e-6, "wall {} vs parts {}", out.wall, parts);
        prop_assert!(out.wpr() > 0.0 && out.wpr() <= 1.0);
        prop_assert_eq!(out.productive, te);
    }

    /// Every planned kill strikes exactly once (kills live in busy time
    /// inside (0, te), and total busy time always exceeds te).
    #[test]
    fn kill_plan_replayed_exactly(
        te in 50.0..2_000.0f64,
        x in 1u32..30,
        plan in (100.0..2_000.0f64).prop_flat_map(|te| kill_plan(te, 10).prop_map(move |p| (te, p))),
    ) {
        let (plan_te, plan) = plan;
        let te = te.max(plan_te); // ensure kills fit within this task
        let expected = plan.positions.len() as u32;
        let spec = TaskSimSpec { te, ckpt_cost: 0.5, restart_cost: 0.5 };
        let mut ctl = fixed_ctl(te, x);
        let mut rng = Xoshiro256StarStar::new(1);
        let out = simulate_task_with_plan(&spec, plan, None, &mut ctl, &mut rng);
        prop_assert_eq!(out.failures, expected);
        prop_assert_eq!(out.aborted_checkpoints <= out.failures, true);
    }

    /// Rollback loss per failure is bounded by one segment plus the
    /// checkpoint write time (with durable checkpoints in place).
    #[test]
    fn rollback_bounded_by_segment(
        te in 100.0..2_000.0f64,
        x in 2u32..40,
        seed in 0u64..500,
    ) {
        let spec = TaskSimSpec { te, ckpt_cost: 0.3, restart_cost: 0.2 };
        let model = cloud_ckpt::trace::spec::FailureModel::for_priority(10);
        let mut ctl = fixed_ctl(te, x);
        let mut rng = Xoshiro256StarStar::new(seed);
        let plan = model.sample_plan(te, &mut rng);
        let failures = plan.count();
        let mut rng2 = Xoshiro256StarStar::new(seed);
        let out = simulate_task_with_plan(&spec, plan, None, &mut ctl, &mut rng2);
        let seg = te / x as f64;
        let bound = failures as f64 * (seg + spec.ckpt_cost) + 1e-6;
        prop_assert!(out.rollback_loss <= bound, "loss {} > bound {bound}", out.rollback_loss);
    }

    /// More checkpoints can only reduce the total rollback loss (weakly)
    /// for the same kill plan when checkpoints are free.
    #[test]
    fn free_checkpoints_weakly_reduce_rollback(
        te in 100.0..2_000.0f64,
        seed in 0u64..500,
    ) {
        let model = cloud_ckpt::trace::spec::FailureModel::for_priority(10);
        let run = |x: u32| {
            let spec = TaskSimSpec { te, ckpt_cost: 0.0, restart_cost: 0.0 };
            let mut ctl = fixed_ctl(te, x);
            let mut rng = Xoshiro256StarStar::new(seed);
            simulate_task(&spec, model, &mut ctl, &mut rng)
        };
        fn simulate_task(
            spec: &TaskSimSpec,
            model: cloud_ckpt::trace::spec::FailureModel,
            ctl: &mut Controller,
            rng: &mut Xoshiro256StarStar,
        ) -> cloud_ckpt::sim::task_sim::TaskOutcome {
            let plan = model.sample_plan(spec.te, rng);
            let mut rng2 = Xoshiro256StarStar::new(7);
            simulate_task_with_plan(spec, plan, None, ctl, &mut rng2)
        }
        let sparse = run(2);
        let dense = run(16);
        // With C = 0 the fine schedule can only lose less work per kill.
        prop_assert!(dense.rollback_loss <= sparse.rollback_loss + 1e-6,
            "dense {} vs sparse {}", dense.rollback_loss, sparse.rollback_loss);
    }

    /// Same stream ⇒ identical outcome (full determinism of the executor).
    #[test]
    fn executor_deterministic(
        te in 50.0..1_000.0f64,
        x in 1u32..20,
        seed in 0u64..300,
    ) {
        let spec = TaskSimSpec { te, ckpt_cost: 0.4, restart_cost: 0.7 };
        let model = cloud_ckpt::trace::spec::FailureModel::for_priority(1);
        let run = || {
            let mut ctl = fixed_ctl(te, x);
            let mut rng = Xoshiro256StarStar::new(seed);
            let plan = model.sample_plan(te, &mut rng);
            simulate_task_with_plan(&spec, plan, None, &mut ctl, &mut rng)
        };
        prop_assert_eq!(run(), run());
    }
}

/// Reference oracle: the fast-path task loop in its straightforward form,
/// written with public API only (the kill queue is a `Vec` plus a head
/// cursor). It re-queries the controller enum on every milestone and
/// re-filters the flip position on every iteration, and steps through
/// every checkpoint: slow, but plainly the model that the production loop
/// must reproduce.
fn reference_simulate<R: Rng64 + ?Sized>(
    spec: &TaskSimSpec,
    kills: Vec<f64>,
    flip: Option<ExecFlip>,
    ctl: &mut Controller,
    rng: &mut R,
) -> TaskOutcome {
    let mut buf = kills;
    let mut head = 0usize;
    let mut out = TaskOutcome {
        productive: spec.te,
        ..TaskOutcome::default()
    };
    let mut flip = flip;
    let mut busy = 0.0f64; // cumulative execution (run + checkpoint) time
    let mut durable = 0.0f64; // checkpointed progress
    let mut live = 0.0f64; // progress since start (≥ durable, volatile)

    // Closure-free helper: busy time until the next kill.
    macro_rules! to_fail {
        () => {
            buf.get(head)
                .copied()
                .map(|f| f - busy)
                .unwrap_or(f64::INFINITY)
        };
    }

    loop {
        // Next milestone in productive progress.
        let next_ckpt = ctl.next_checkpoint().filter(|&p| p > live && p < spec.te);
        let flip_at = flip
            .map(|f| f.at_progress)
            .filter(|&p| p > live && p < spec.te);
        let mut target = spec.te;
        if let Some(p) = next_ckpt {
            target = target.min(p);
        }
        if let Some(p) = flip_at {
            target = target.min(p);
        }

        let run_needed = target - live;
        let tf = to_fail!();
        if tf < run_needed {
            // Kill strikes mid-run.
            head += 1;
            out.wall += tf + spec.restart_cost;
            out.restart_time += spec.restart_cost;
            busy += tf;
            live += tf;
            out.failures += 1;
            out.rollback_loss += live - durable;
            live = durable;
            ctl.on_rollback(durable);
            continue;
        }

        // Reach the milestone.
        out.wall += run_needed;
        busy += run_needed;
        live = target;

        if let Some(f) = flip {
            if live >= f.at_progress {
                // Priority flip: re-draw the remaining kill plan.
                buf.clear();
                head = 0;
                let remaining = spec.te - live;
                if remaining > 0.0 {
                    sample_task_plan_into(f.model, f.new_priority, remaining, rng, &mut buf);
                    for p in &mut buf {
                        *p += busy;
                    }
                }
                if let Some(mnof) = f.new_mnof_full {
                    ctl.on_mnof_change(mnof);
                }
                out.flipped = true;
                flip = None;
                continue;
            }
        }

        if live >= spec.te {
            return out; // completed
        }

        // The milestone is a checkpoint. The write takes `ckpt_cost` of busy
        // time; a kill inside it aborts the write.
        let tf = to_fail!();
        if tf < spec.ckpt_cost {
            head += 1;
            out.wall += tf + spec.restart_cost;
            out.restart_time += spec.restart_cost;
            out.checkpoint_time += tf; // partial write
            busy += tf;
            out.failures += 1;
            out.aborted_checkpoints += 1;
            out.rollback_loss += live - durable;
            live = durable;
            ctl.on_rollback(durable);
        } else {
            out.wall += spec.ckpt_cost;
            out.checkpoint_time += spec.ckpt_cost;
            busy += spec.ckpt_cost;
            durable = live;
            out.checkpoints += 1;
            ctl.on_checkpoint_complete(durable);
        }
    }
}

/// Every field of an outcome as bits, so equality is bit-exact.
fn outcome_bits(o: &TaskOutcome) -> [u64; 9] {
    [
        o.wall.to_bits(),
        o.productive.to_bits(),
        o.failures as u64,
        o.checkpoints as u64,
        o.aborted_checkpoints as u64,
        o.rollback_loss.to_bits(),
        o.checkpoint_time.to_bits(),
        o.restart_time.to_bits(),
        o.flipped as u64,
    ]
}

/// The time fields a cycle jump sums differently from the stepping loop.
fn summed_times(o: &TaskOutcome) -> [f64; 3] {
    [o.wall, o.checkpoint_time, o.rollback_loss]
}

/// [`outcome_bits`] without the [`summed_times`] fields. `restart_time`
/// stays: it is one `+= R` per failure in both loops.
fn unsummed_bits(o: &TaskOutcome) -> [u64; 9] {
    let mut bits = outcome_bits(o);
    for i in [0, 5, 6] {
        bits[i] = 0;
    }
    bits
}

/// Rounded operations per loop turn, per loop, that can reach one time
/// field. The costliest turn is a kill after a flip: `next_kill − busy`,
/// `tf + R`, `wall +=`, `restart_time +=`, `busy +=`, `live +=`,
/// `live − durable` and `rollback_loss +=`, plus the `p + busy` that
/// placed the re-drawn kill. A checkpoint turn has six (`target − live`
/// and two adds for the run, three adds for the write), and a jump has six
/// (`last − live`, `k·C`, their sum and three adds). Each
/// rounding errs by at most `u = ε/2` of a value no larger than the final
/// `wall`: every term and partial sum is non-negative, and `busy`, `live`
/// and the other fields are all parts of `wall`. An error in `busy` reaches
/// a field only through the `tf` of the next kill, where it ends, because
/// `busy += tf` lands back on the kill position.
const ROUNDINGS_PER_TURN: f64 = 9.0;

/// The recursive-summation bound between the stepping oracle and the
/// production loop on one time field: two loops, each off by at most
/// `ROUNDINGS_PER_TURN · u · wall` per turn, so `|Δ| ≤ c · turns · ε ·
/// wall` with `c = ROUNDINGS_PER_TURN` (two loops times `u = ε/2`). The
/// oracle takes one turn per checkpoint and per failure, plus the
/// completion and at most one flip; the production loop takes fewer.
fn summation_bound(want: &TaskOutcome) -> f64 {
    let turns = (want.checkpoints + want.failures) as f64 + 2.0;
    ROUNDINGS_PER_TURN * turns * f64::EPSILON * want.wall
}

/// One of the five failure models, with jittered parameters.
fn failure_model(kind: u32, rng: &mut Xoshiro256StarStar) -> FailureModelSpec {
    let scale = 0.5 + 1.5 * rng.next_f64();
    match kind {
        0 => FailureModelSpec::Exponential,
        1 => FailureModelSpec::Weibull {
            shape: 0.5 + rng.next_f64(),
            scale,
        },
        2 => FailureModelSpec::LogNormal {
            sigma: 0.3 + 1.5 * rng.next_f64(),
            scale,
        },
        3 => FailureModelSpec::Pareto {
            shape: 1.2 + 2.0 * rng.next_f64(),
            scale,
        },
        _ => FailureModelSpec::TraceReplay { scale },
    }
}

/// The first `n` checkpoint positions the controller would write on a
/// failure-free run (exact bits, whatever the controller type).
fn checkpoint_positions(ctl: &Controller, n: usize) -> Vec<f64> {
    let mut c = ctl.clone();
    let mut out = Vec::new();
    while out.len() < n {
        match c.next_checkpoint() {
            Some(p) => {
                out.push(p);
                c.on_checkpoint_complete(p);
            }
            None => break,
        }
    }
    out
}

const PRIORITIES: [u8; 5] = [1, 2, 6, 10, 12];

/// Kills placed relative to where a cycle jump would end: from a
/// rollback to a checkpoint at busy time `b`, cycle `j` of the stepping
/// loop ends at `b + j·(w + C)`. Each kill lands 0, 1 or 2 cycles past
/// such an end, on the boundary itself, mid-run or mid-write, and the next
/// kill counts from this one (restarts take no busy time).
fn kills_past_jump_ends(
    w: f64,
    c: f64,
    x: u32,
    grid: bool,
    g: &mut Xoshiro256StarStar,
) -> Vec<f64> {
    let cycle = w + c;
    let (mid_run, mid_write) = if grid {
        ((w / 2.0).floor(), w + (c / 2.0).floor())
    } else {
        (0.5 * w, w + 0.5 * c)
    };
    let mut kills = Vec::new();
    let mut b = 0.0;
    for _ in 0..(1 + g.next_u64() % 4) {
        let end = (1 + g.next_u64() % x as u64) as f64 * cycle;
        let past = (g.next_u64() % 3) as f64 * cycle;
        let offset = [0.0, mid_run, mid_write][(g.next_u64() % 3) as usize];
        b += end + past + offset;
        kills.push(b);
    }
    kills
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(3000))]

    /// The production loop equals the reference oracle on every integer
    /// field, `productive`, `flipped`, `restart_time`, the controller's
    /// final cursor and the RNG's final state, bit for bit. The time fields
    /// are bit-exact too wherever the production loop steps as the oracle
    /// does (Adaptive, static Adaptive and `none`) and wherever every sum
    /// is exact (integer grid, integral kills, no re-drawn plan). Only a
    /// fixed schedule's cycle jump, which sums `k` cycles in one add, may
    /// round `wall`, `checkpoint_time` and `rollback_loss` differently, and
    /// there they agree within [`summation_bound`]. Cases: all five failure
    /// models; `x` up to 20,000; `C = 0` and `C ≫ w`; flips at 0, at −1,
    /// exactly at a checkpoint position, inside a segment, at `te` and past
    /// `te`; empty kill plans; kills exactly at checkpoint boundaries,
    /// doubled back to back, and 0, 1 or 2 cycles past a would-be jump end
    /// (on an integer grid, where busy time is exact).
    #[test]
    fn fast_loop_matches_reference_oracle(
        seed in 0u64..1_000_000_000,
        grid in 0u32..2,
        ctl_kind in 0u32..4,
        long in 0u32..2,
        x_raw in 1u32..20_000,
        cost_kind in 0u32..5,
        model_kind in 0u32..5,
        priority_idx in 0usize..5,
        kill_kind in 0u32..5,
        flip_kind in 0u32..7,
    ) {
        let mut g = Xoshiro256StarStar::new(seed);
        let x = if long == 1 { x_raw } else { 1 + x_raw % 399 };
        // Cost kinds: 0 ⇒ C = 0, 1 ⇒ C ≫ w, otherwise a few seconds.
        // Integer grid: te = x·w and integral costs, so every busy-time sum
        // below is exact and kills can sit exactly on boundaries.
        let (te, w, c, r) = if grid == 1 {
            let w = (1 + g.next_u64() % 40) as f64;
            let c = match cost_kind {
                0 => 0.0,
                1 => w * (10 + g.next_u64() % 90) as f64,
                _ => (g.next_u64() % 4) as f64,
            };
            (x as f64 * w, w, c, (g.next_u64() % 3) as f64)
        } else {
            let te = 1.0 + 4_000.0 * g.next_f64();
            let w = te / x as f64;
            let c = match cost_kind {
                0 => 0.0,
                1 => w * (10.0 + 990.0 * g.next_f64()),
                _ => 5.0 * g.next_f64(),
            };
            (te, w, c, 3.0 * g.next_f64())
        };
        let spec = TaskSimSpec { te, ckpt_cost: c, restart_cost: r };
        let mnof = 20.0 * g.next_f64();
        let ctl_cost = if c > 0.0 { c } else { 0.5 };
        let ctl = match ctl_kind {
            0 => Controller::Fixed(FixedSchedule::none()),
            1 => Controller::Fixed(FixedSchedule::new(&EquidistantSchedule::new(te, x).unwrap())),
            2 => Controller::Adaptive(AdaptiveCheckpointer::new(te, ctl_cost, mnof).unwrap()),
            _ => Controller::Adaptive(AdaptiveCheckpointer::new_static(te, ctl_cost, mnof).unwrap()),
        };
        let model = failure_model(model_kind, &mut g);
        let priority = PRIORITIES[priority_idx];

        // Kill kinds: 0 sampled, 1 boundaries, 2 both, 3 none, 4 past
        // would-be jump ends.
        let mut kills = Vec::new();
        if kill_kind == 0 || kill_kind == 2 {
            let mut rng = Xoshiro256StarStar::new(seed ^ 0x9e37_79b9);
            sample_task_plan_into(model, priority, te, &mut rng, &mut kills);
        }
        let mut edges = Vec::new();
        if kill_kind == 1 || kill_kind == 2 {
            // Boundaries of a failure-free pass: write start k·w + (k−1)·C
            // and write end k·(w + C), some of them doubled (back to back).
            for _ in 0..(1 + g.next_u64() % 8) {
                let k = (1 + g.next_u64() % x as u64) as f64;
                let at = if g.next_u64().is_multiple_of(2) { k * w + (k - 1.0) * c } else { k * (w + c) };
                edges.push(at);
                if g.next_u64().is_multiple_of(3) {
                    edges.push(at);
                }
            }
        }
        if kill_kind == 4 {
            edges = kills_past_jump_ends(w, c, x, grid == 1, &mut g);
        }
        if grid == 0 {
            // Off the grid a kill on a computed boundary is a tie at
            // rounding resolution, which any change of summation order may
            // break either way. Move it off by 1e-9 relative: far above
            // `summation_bound`, far below a cycle.
            for at in &mut edges {
                *at *= if g.next_u64().is_multiple_of(2) { 1.0 + 1e-9 } else { 1.0 - 1e-9 };
            }
        }
        kills.extend(edges);
        kills.sort_by(f64::total_cmp);

        let positions = checkpoint_positions(&ctl, 1 + (g.next_u64() % 8) as usize);
        let at_progress = match flip_kind {
            1 => Some(0.0),
            2 => Some(*positions.last().unwrap_or(&(te / 2.0))),
            3 => Some(te * g.next_f64()),
            4 => Some(te),
            5 => Some(te * 1.25 + 1.0),
            6 => Some(-1.0),
            _ => None,
        };
        let flip = at_progress.map(|at| ExecFlip {
            at_progress: at,
            new_priority: PRIORITIES[(g.next_u64() % 5) as usize],
            model,
            new_mnof_full: (!g.next_u64().is_multiple_of(4)).then(|| 20.0 * g.next_f64()),
        });
        let integral_kills = kills.iter().all(|k| k.fract() == 0.0);

        let mut ctl_ref = ctl.clone();
        let mut rng_ref = Xoshiro256StarStar::new(seed.wrapping_add(17));
        let want = reference_simulate(&spec, kills.clone(), flip, &mut ctl_ref, &mut rng_ref);

        let mut ctl_new = ctl;
        let mut rng_new = Xoshiro256StarStar::new(seed.wrapping_add(17));
        let mut queue = KillQueue::from_vec(kills);
        let got = simulate_task_queued(&spec, &mut queue, flip, &mut ctl_new, &mut rng_new);

        prop_assert!(
            unsummed_bits(&got) == unsummed_bits(&want),
            "got {:?}\nwant {:?}",
            got,
            want
        );
        let sums_exact = grid == 1 && integral_kills && !want.flipped;
        if ctl_kind != 1 || sums_exact {
            prop_assert!(
                outcome_bits(&got) == outcome_bits(&want),
                "got {:?}\nwant {:?}",
                got,
                want
            );
        } else {
            let bound = summation_bound(&want);
            for (g, w) in summed_times(&got).into_iter().zip(summed_times(&want)) {
                prop_assert!(
                    (g - w).abs() <= bound,
                    "|{g} − {w}| > {bound}\ngot {:?}\nwant {:?}",
                    got,
                    want
                );
            }
        }
        prop_assert_eq!(
            ctl_new.next_checkpoint().map(f64::to_bits),
            ctl_ref.next_checkpoint().map(f64::to_bits)
        );
        prop_assert_eq!(rng_new.next_u64(), rng_ref.next_u64());
    }
}
