//! Criterion benches of the DES substrate: event-queue throughput,
//! processor-sharing server churn, and single-task execution.
//!
//! The `task_sim/dense_*` and `task_sim/killfree_*` cases time the
//! fast-path task loop alone: kill plans are sampled once up front and
//! replayed through a warm [`KillQueue`], so the sampler stays out of the
//! measurement, and each case also prints the loop's cost per task, per
//! kill and per checkpoint written. A fixed schedule's replay costs per
//! task and kill (whole checkpoint cycles are jumped), so the kill-free
//! cases at x = 400 and x = 10,000 should cost about the same per task;
//! the adaptive controller still steps, one turn per checkpoint. Run with
//! `cargo bench -p ckpt-bench --bench bench_engine`.

use ckpt_policy::adaptive::AdaptiveCheckpointer;
use ckpt_policy::schedule::EquidistantSchedule;
use ckpt_sim::controller::{Controller, FixedSchedule};
use ckpt_sim::event::EventQueue;
use ckpt_sim::storage::{OpId, PsResource};
use ckpt_sim::task_sim::{simulate_task, simulate_task_queued, KillQueue, TaskSimSpec};
use ckpt_sim::time::SimTime;
use ckpt_stats::rng::Xoshiro256StarStar;
use ckpt_trace::spec::FailureModel;
use criterion::{black_box, criterion_group, criterion_main, Criterion};
use std::time::{Duration, Instant};

fn config() -> Criterion {
    Criterion::default()
        .sample_size(20)
        .warm_up_time(Duration::from_millis(200))
        .measurement_time(Duration::from_millis(500))
}

fn bench_event_queue(c: &mut Criterion) {
    let mut g = c.benchmark_group("event_queue");
    g.bench_function("schedule_pop_10k", |b| {
        b.iter(|| {
            let mut q = EventQueue::new();
            for i in 0..10_000u64 {
                q.schedule(SimTime((i * 7919) % 100_000), i);
            }
            let mut acc = 0u64;
            while let Some((_, _, p)) = q.pop() {
                acc = acc.wrapping_add(p);
            }
            acc
        })
    });
    g.bench_function("schedule_cancel_half_10k", |b| {
        b.iter(|| {
            let mut q = EventQueue::new();
            let ids: Vec<_> = (0..10_000u64)
                .map(|i| q.schedule(SimTime(i % 997), i))
                .collect();
            for id in ids.iter().step_by(2) {
                q.cancel(*id);
            }
            let mut n = 0;
            while q.pop().is_some() {
                n += 1;
            }
            n
        })
    });
    g.finish();
}

fn bench_ps_server(c: &mut Criterion) {
    c.benchmark_group("ps_server")
        .bench_function("churn_1000_ops", |b| {
            b.iter(|| {
                let mut ps = PsResource::new(1.0);
                let mut now = SimTime::ZERO;
                let mut next_op = 0u64;
                // Keep ~8 ops in flight, completing the earliest each round.
                for _ in 0..1000 {
                    while ps.active() < 8 {
                        ps.add(now, OpId(next_op), 1.0 + (next_op % 5) as f64 * 0.3);
                        next_op += 1;
                    }
                    let (op, when) = ps.next_completion(now).unwrap();
                    ps.remove(when, op);
                    now = when;
                }
                now
            })
        });
}

fn bench_task_sim(c: &mut Criterion) {
    let mut g = c.benchmark_group("task_sim");
    let spec = TaskSimSpec {
        te: 600.0,
        ckpt_cost: 0.5,
        restart_cost: 1.0,
    };
    g.bench_function("quiet_priority12_task", |b| {
        let model = FailureModel::for_priority(12);
        b.iter(|| {
            let mut ctl = Controller::Fixed(FixedSchedule::new(
                &EquidistantSchedule::new(600.0, 12).unwrap(),
            ));
            let mut rng = Xoshiro256StarStar::new(black_box(3));
            simulate_task(&spec, model, None, &mut ctl, &mut rng).wall
        })
    });
    g.bench_function("heavy_priority10_task", |b| {
        let model = FailureModel::for_priority(10);
        b.iter(|| {
            let mut ctl = Controller::Fixed(FixedSchedule::new(
                &EquidistantSchedule::new(600.0, 40).unwrap(),
            ));
            let mut rng = Xoshiro256StarStar::new(black_box(3));
            simulate_task(&spec, model, None, &mut ctl, &mut rng).wall
        })
    });
    g.finish();
}

/// What one batch replay did, in the loop's cost units.
#[derive(Debug, Default, Clone, Copy)]
struct Batch {
    tasks: u64,
    kills: u64,
    checkpoints: u64,
}

impl Batch {
    fn add(&mut self, other: Batch) {
        self.tasks += other.tasks;
        self.kills += other.kills;
        self.checkpoints += other.checkpoints;
    }
}

/// Replay `plans` (pre-sampled kill positions) through one warm queue,
/// each task starting from a copy of `template`.
fn replay_plans(
    spec: &TaskSimSpec,
    template: &Controller,
    plans: &[Vec<f64>],
    queue: &mut KillQueue,
    rng: &mut Xoshiro256StarStar,
) -> Batch {
    let mut batch = Batch::default();
    for kills in plans {
        queue.load(kills);
        let mut ctl = template.clone();
        let out = black_box(simulate_task_queued(spec, queue, None, &mut ctl, rng));
        batch.add(Batch {
            tasks: 1,
            kills: u64::from(out.failures),
            checkpoints: u64::from(out.checkpoints),
        });
    }
    batch
}

/// Median of `samples` nanoseconds per unit, or `-` if there were none.
fn per_unit(samples: &mut [f64]) -> String {
    samples.sort_by(f64::total_cmp);
    match samples.get(samples.len() / 2) {
        Some(ns) if ns.is_finite() => format!("{ns:.2}"),
        _ => "-".into(),
    }
}

/// One-hour tasks through the fast-path loop, 64 per batch: checkpoint
/// dense (x ≈ 400, ~12 kills each under the failure-heavy priority 10)
/// for the Fixed and Adaptive controllers, and kill-free under Fixed
/// schedules of x = 400 and x = 10,000. Besides the shim's time per batch,
/// prints the median nanoseconds per task, per kill and per checkpoint
/// written over the measured samples.
fn bench_task_loop(c: &mut Criterion) {
    let te = 3_600.0;
    let spec = TaskSimSpec {
        te,
        ckpt_cost: 0.1,
        restart_cost: 1.0,
    };
    let model = FailureModel::for_priority(10);
    let mut plan_rng = Xoshiro256StarStar::new(42);
    let heavy: Vec<Vec<f64>> = (0..64)
        .map(|_| model.sample_plan(te, &mut plan_rng).positions)
        .collect();
    let kill_free = vec![Vec::new(); 64];
    let fixed = |x: u32| {
        Controller::Fixed(FixedSchedule::new(
            &EquidistantSchedule::new(te, x).unwrap(),
        ))
    };
    // Formula (3) gives x = 400 intervals at MNOF = 2·C·x²/Te ≈ 8.9.
    let mnof = 2.0 * spec.ckpt_cost * 400.0f64.powi(2) / te;
    let cases = [
        ("dense_fixed_x400", fixed(400), &heavy),
        (
            "dense_adaptive_x400",
            Controller::Adaptive(AdaptiveCheckpointer::new(te, spec.ckpt_cost, mnof).unwrap()),
            &heavy,
        ),
        ("killfree_fixed_x400", fixed(400), &kill_free),
        ("killfree_fixed_x10000", fixed(10_000), &kill_free),
    ];
    let mut g = c.benchmark_group("task_sim");
    for (name, template, plans) in cases {
        let mut queue = KillQueue::new();
        let mut rng = Xoshiro256StarStar::new(7);
        let (mut per_task, mut per_kill, mut per_checkpoint) = (Vec::new(), Vec::new(), Vec::new());
        g.bench_function(name, |b| {
            let mut done = Batch::default();
            let start = Instant::now();
            b.iter(|| done.add(replay_plans(&spec, &template, plans, &mut queue, &mut rng)));
            let ns = start.elapsed().as_nanos() as f64;
            per_task.push(ns / done.tasks as f64);
            per_kill.push(ns / done.kills as f64);
            per_checkpoint.push(ns / done.checkpoints as f64);
        });
        let batch = replay_plans(&spec, &template, plans, &mut queue, &mut rng);
        println!(
            "task_sim/{name:<39} ns/task: {}  ns/kill: {}  ns/checkpoint: {}  \
             (per batch: {} tasks, {} kills, {} checkpoints)",
            per_unit(&mut per_task),
            per_unit(&mut per_kill),
            per_unit(&mut per_checkpoint),
            batch.tasks,
            batch.kills,
            batch.checkpoints,
        );
    }
    g.finish();
}

criterion_group! {
    name = benches;
    config = config();
    targets = bench_event_queue, bench_ps_server, bench_task_sim, bench_task_loop
}
criterion_main!(benches);
