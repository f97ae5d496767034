//! The traced run: one sweep driven layer by layer through each layer's
//! public entry points, in the order the executor calls them at one
//! thread, with a span around every call. The walk shares trace
//! preparations and replays exactly as the executor's run cache does, so
//! its exports must be byte-identical to the executor's — the run checks
//! that, which keeps the walk honest about the work it times.
//!
//! Span names are `layer.operation`; the layer part is the module the
//! call lands in:
//!
//! | span               | call                                          |
//! |--------------------|-----------------------------------------------|
//! | `sweep.parse`      | `ckpt_scenario::SweepSpec::from_str`          |
//! | `sweep.expand`     | `SweepSpec::cells`                            |
//! | `gen.generate`     | `ckpt_trace::generate`                        |
//! | `plan.arena_build` | `ckpt_trace::FailurePlanArena::build`         |
//! | `plan.histories`   | `ckpt_trace::trace_histories_from_plans`      |
//! | `policy.estimates` | `ckpt_sim::Estimates::from_records`           |
//! | `replay.run`       | `ckpt_sim::runner::run_trace_counted`         |
//! | `des.run`          | `ClusterSim` / `ShardedClusterSim` runs       |
//! | `agg.summarize`    | `ckpt_scenario::MetricSummary::from_values`   |
//! | `exec.cell`        | per-cell executor work (params, cost model)   |
//! | `store.append`     | `ckpt_store::SweepStore` create/append/sync + cell codec |
//! | `export.csv/json`  | `ckpt_scenario::{csv_string, json_string}`    |
//! | `export.write`     | writing both files                            |
//!
//! Two more roots follow the `exec` root and stay out of its
//! reconciliation: `resume` (`store.open_scan`, the read a `--resume`
//! pass makes) and `probe` (`policy.predict`, the per-task plan solves
//! the replay makes internally, timed on their own).

use crate::passes::Outputs;
use crate::trace::Tracer;
use ckpt_faults::RunHealth;
use ckpt_obs::{Counters, SharedCounters};
use ckpt_scenario::spec::MetricsChoice;
use ckpt_scenario::{
    ckpt, csv_string, json_string, CellResult, CellStatus, EngineKind, MetricSummary, ScenarioSpec,
    SweepResult, SweepSpec,
};
use ckpt_sim::cluster::ClusterConfig;
use ckpt_sim::metrics::JobRecord;
use ckpt_sim::policy::plan_task;
use ckpt_sim::runner::{run_trace_counted, run_trace_with_plans};
use ckpt_sim::{
    BlcrModel, ClusterSim, Estimates, MetricsMode, RunOptions, ShardPlan, ShardedClusterSim,
    SimBudget,
};
use ckpt_store::{CellRecord, StoreHeader, SweepStore};
use ckpt_trace::{generate, trace_histories_from_plans, FailurePlanArena, Trace};
use std::collections::HashMap;
use std::path::Path;
use std::rc::Rc;
use std::time::Instant;

/// Trace preparation shared by every run key over one workload.
struct Prep {
    trace: Trace,
    plans: FailurePlanArena,
    estimates: Estimates,
}

/// One replay, shared by every cell with the same run key.
struct RunData {
    jobs: Vec<JobRecord>,
    queue_wait: Option<Vec<f64>>,
    makespan_s: Option<f64>,
    events: Option<u64>,
}

/// Work counts of one traced walk (deterministic per spec).
#[derive(Debug, Clone, Default, PartialEq)]
pub struct Counts {
    pub cells: u64,
    pub gen_tasks: u64,
    pub plan_kills: u64,
    pub agg_values: u64,
    pub policy_solves: u64,
    pub store_records_written: u64,
    pub store_records_read: u64,
    pub store_bytes: u64,
    pub export_bytes: u64,
    /// Mean WPR over the Formula (3) cells (0 when the grid has none).
    pub wpr_formula3: f64,
}

/// One traced walk: spans, the program's counters, counts and exports.
pub struct TracedRun {
    pub tracer: Tracer,
    /// Counters of the fast-replay calls.
    pub replay: Counters,
    /// Counters of the cluster-DES calls.
    pub des: Counters,
    pub counts: Counts,
    pub outputs: Outputs,
}

/// The executor's preparation-cache key: everything trace generation and
/// failure sampling depend on, nothing about policy or cost.
fn prep_key(spec: &ScenarioSpec) -> String {
    format!(
        "{}|{}|{:?}|{:?}|{:?}|{:?}|{}",
        spec.seed,
        spec.jobs,
        spec.trace_file,
        spec.workload,
        spec.failure_model,
        spec.failure_shape,
        spec.failure_scale
    )
}

fn prepare(t: &mut Tracer, spec: &ScenarioSpec, counts: &mut Counts) -> Result<Prep, String> {
    if spec.trace_file.is_some() {
        return Err("the traced walk generates its traces; trace files are not supported".into());
    }
    let workload = spec.workload_spec()?;
    let trace = t
        .span("gen.generate", |_| generate(&workload, spec.seed))
        .map_err(|e| e.to_string())?;
    let plans = t.span("plan.arena_build", |_| FailurePlanArena::build(&trace));
    let records = t.span("plan.histories", |_| {
        trace_histories_from_plans(&trace, &plans)
    });
    let estimates = t.span("policy.estimates", |_| Estimates::from_records(&records));
    counts.gen_tasks += trace.task_count() as u64;
    counts.plan_kills += plans.total_kills() as u64;
    Ok(Prep {
        trace,
        plans,
        estimates,
    })
}

fn cluster_config(spec: &ScenarioSpec) -> Result<ClusterConfig, String> {
    let mut cfg = spec.cluster;
    cfg.failure_model = spec.failure_spec()?;
    Ok(cfg)
}

fn replay(
    t: &mut Tracer,
    spec: &ScenarioSpec,
    prep: &Prep,
    replay_counters: &SharedCounters,
    des_counters: &mut Counters,
) -> Result<RunData, String> {
    let cfg = spec.policy_config();
    match spec.engine {
        EngineKind::Fast => {
            let jobs = t.span("replay.run", |_| {
                run_trace_counted(
                    &prep.trace,
                    &prep.estimates,
                    &cfg,
                    RunOptions { threads: 1 },
                    Some(&prep.plans),
                    replay_counters,
                )
            });
            Ok(RunData {
                jobs,
                queue_wait: None,
                makespan_s: None,
                events: None,
            })
        }
        EngineKind::Cluster => {
            let cluster_cfg = cluster_config(spec)?;
            let result = if spec.shards > 1 {
                let (result, obs) = t.span("des.run", |_| {
                    ShardedClusterSim::new(
                        cluster_cfg,
                        &prep.trace,
                        &prep.estimates,
                        cfg,
                        spec.shards,
                    )
                    .with_plans(&prep.plans)
                    .with_threads(1)
                    .with_metrics(MetricsMode::Streaming)
                    .run_observed::<Counters>(|_| {})
                })?;
                obs.verify_shard_invariants(spec.shards as u64, result.events)
                    .map_err(|e| format!("shard accounting: {e}"))?;
                des_counters.merge(&obs);
                result
            } else {
                let (result, _, obs) = t.span("des.run", |_| {
                    ClusterSim::with_plans(
                        cluster_cfg,
                        &prep.trace,
                        &prep.estimates,
                        cfg,
                        &prep.plans,
                    )
                    .with_metrics(MetricsMode::Streaming)
                    .with_observer(Counters::new())
                    .run_observed(SimBudget::UNLIMITED, |_| {})
                });
                des_counters.merge(&obs);
                result
            };
            Ok(RunData {
                queue_wait: Some(result.jobs.iter().map(|j| j.queue_wait).collect()),
                makespan_s: Some(result.makespan.as_secs_f64()),
                events: Some(result.events),
                jobs: result.jobs.into_iter().map(|j| j.base).collect(),
            })
        }
        other => Err(format!("engine {} has no replay", other.label())),
    }
}

/// The executor's full-record cell metrics (every job passes the
/// workloads' `sample = "all"` filter).
fn summarize(data: &RunData, counts: &mut Counts) -> Vec<(&'static str, MetricSummary)> {
    let col = |f: &dyn Fn(&JobRecord) -> f64| -> Vec<f64> { data.jobs.iter().map(f).collect() };
    let mut metrics = vec![
        ("wpr", MetricSummary::from_values(&col(&|r| r.wpr()))),
        (
            "wall_s",
            MetricSummary::from_values(&col(&|r| r.total_wall)),
        ),
        (
            "ckpt_overhead_s",
            MetricSummary::from_values(&col(&|r| r.checkpoint_time)),
        ),
        (
            "rollback_s",
            MetricSummary::from_values(&col(&|r| r.rollback_loss)),
        ),
        (
            "restart_s",
            MetricSummary::from_values(&col(&|r| r.restart_time)),
        ),
        (
            "failures",
            MetricSummary::from_values(&col(&|r| r.failures as f64)),
        ),
        (
            "checkpoints",
            MetricSummary::from_values(&col(&|r| r.checkpoints as f64)),
        ),
    ];
    counts.agg_values += 7 * data.jobs.len() as u64;
    if let Some(waits) = &data.queue_wait {
        metrics.push(("queue_wait_s", MetricSummary::from_values(waits)));
        counts.agg_values += waits.len() as u64;
    }
    if let Some(makespan) = data.makespan_s {
        metrics.push(("makespan_s", MetricSummary::from_value(makespan)));
        counts.agg_values += 1;
    }
    if let Some(events) = data.events {
        metrics.push(("events", MetricSummary::from_value(events as f64)));
        counts.agg_values += 1;
    }
    metrics
}

fn ckpt_cost_metrics(spec: &ScenarioSpec) -> Vec<(&'static str, MetricSummary)> {
    let unit = spec
        .cost
        .apply_ckpt(BlcrModel.checkpoint_cost(spec.device, spec.mem_mb));
    vec![
        ("unit_cost_s", MetricSummary::from_value(unit)),
        (
            "total_cost_s",
            MetricSummary::from_value(unit * spec.n_checkpoints as f64),
        ),
    ]
}

/// Walk one checkpointed sweep layer by layer. `work` receives the store
/// and the exports.
pub fn traced_run(spec_text: &str, work: &Path) -> Result<TracedRun, String> {
    let store_path = work.join("traced.sweepckpt");
    let out_dir = work.join("traced_out");
    std::fs::create_dir_all(&out_dir).map_err(|e| format!("{}: {e}", out_dir.display()))?;
    let mut t = Tracer::new();
    let mut counts = Counts::default();
    let replay_counters = SharedCounters::new();
    let mut des = Counters::new();
    // Kept past the `exec` root for the `resume` and `probe` roots.
    let mut keyed: Vec<(ScenarioSpec, Rc<Prep>)> = Vec::new();

    let (sweep, result, outputs) = t.span("exec", |t| -> Result<_, String> {
        let sweep = t
            .span("sweep.parse", |_| SweepSpec::from_str(spec_text))
            .map_err(|e| e.to_string())?;
        let cells = t
            .span("sweep.expand", |_| sweep.cells())
            .map_err(|e| e.to_string())?;
        let header = StoreHeader {
            spec_digest: ckpt::sweep_digest(&sweep),
            seed: sweep.base.seed,
            scale: sweep.base.jobs as u64,
            grid_size: cells.len() as u64,
        };
        let mut store = t
            .span("store.append", |_| SweepStore::create(&store_path, header))
            .map_err(|e| e.to_string())?;
        let mut preps: HashMap<String, Rc<Prep>> = HashMap::new();
        let mut runs: HashMap<String, Rc<RunData>> = HashMap::new();
        let mut evaluated = Vec::with_capacity(cells.len());
        for (index, spec) in cells.iter().enumerate() {
            let metrics = match spec.engine {
                EngineKind::Fast | EngineKind::Cluster => {
                    if spec.metrics != MetricsChoice::Full {
                        return Err("the traced walk aggregates full records only".into());
                    }
                    let run_key = spec.run_key();
                    let data = match runs.get(&run_key) {
                        Some(d) => Rc::clone(d),
                        None => {
                            let pk = prep_key(spec);
                            let prep = match preps.get(&pk) {
                                Some(p) => Rc::clone(p),
                                None => {
                                    let p = Rc::new(prepare(t, spec, &mut counts)?);
                                    preps.insert(pk, Rc::clone(&p));
                                    p
                                }
                            };
                            let d = Rc::new(replay(t, spec, &prep, &replay_counters, &mut des)?);
                            keyed.push((spec.clone(), prep));
                            runs.insert(run_key, Rc::clone(&d));
                            d
                        }
                    };
                    t.span("agg.summarize", |_| summarize(&data, &mut counts))
                }
                EngineKind::CkptCost => t.span("exec.cell", |_| ckpt_cost_metrics(spec)),
                EngineKind::Contention => {
                    return Err("the traced walk does not cover the contention engine".into())
                }
            };
            let cell = t.span("exec.cell", |_| CellResult {
                index,
                params: sweep
                    .cell_params(index)
                    .into_iter()
                    .map(|(k, v)| (k, v.render()))
                    .collect(),
                metrics,
                status: CellStatus::Ok,
            });
            t.span("store.append", |_| {
                store.append(&CellRecord {
                    index: index as u64,
                    key_digest: ckpt::cell_key_digest(&spec.run_key(), &cell.params),
                    payload: ckpt::encode_cell(&cell),
                })
            })
            .map_err(|e| e.to_string())?;
            counts.store_records_written += 1;
            evaluated.push(cell);
        }
        t.span("store.append", |_| store.sync())
            .map_err(|e| e.to_string())?;
        let result = SweepResult {
            name: sweep.name.clone(),
            seed: sweep.base.seed,
            health: RunHealth {
                cells_ok: evaluated.len() as u64,
                ..RunHealth::default()
            },
            cells: evaluated,
        };
        let csv = t.span("export.csv", |_| csv_string(&sweep, &result));
        let json = t.span("export.json", |_| json_string(&sweep, &result));
        t.span("export.write", |_| -> std::io::Result<()> {
            std::fs::write(out_dir.join(format!("{}_cells.csv", result.name)), &csv)?;
            std::fs::write(out_dir.join(format!("{}_summary.json", result.name)), &json)
        })
        .map_err(|e| format!("writing traced outputs: {e}"))?;
        let outputs = Outputs {
            csv: csv.into_bytes(),
            json: json.into_bytes(),
        };
        Ok((sweep, result, outputs))
    })?;
    counts.cells = result.cells.len() as u64;
    counts.export_bytes = outputs.len() as u64;
    counts.store_bytes = std::fs::metadata(&store_path)
        .map_err(|e| format!("{}: {e}", store_path.display()))?
        .len();

    // The read a resume makes: open the store, scan and decode every
    // record, and check each against the cell it claims to be.
    let cells = sweep.cells().map_err(|e| e.to_string())?;
    let decoded = t.span("resume", |t| {
        t.span("store.open_scan", |_| -> Result<Vec<CellResult>, String> {
            let (_, records, _) = SweepStore::open(&store_path).map_err(|e| e.to_string())?;
            let mut out = Vec::with_capacity(records.len());
            for r in records {
                let index = r.index as usize;
                let cell = ckpt::decode_cell(index, &r.payload)?;
                if r.key_digest != ckpt::cell_key_digest(&cells[index].run_key(), &cell.params) {
                    return Err(format!("store record {index} does not match its cell"));
                }
                out.push(cell);
            }
            Ok(out)
        })
    })?;
    if decoded != result.cells {
        return Err("cells scanned back from the store differ from the cells written".into());
    }
    counts.store_records_read = decoded.len() as u64;

    // The per-task policy solves every replay makes internally.
    t.span("probe", |t| {
        t.span("policy.predict", |_| {
            for (spec, prep) in &keyed {
                let cfg = spec.policy_config();
                for job in &prep.trace.jobs {
                    for task in &job.tasks {
                        std::hint::black_box(plan_task(
                            &cfg,
                            &BlcrModel,
                            &prep.estimates,
                            task,
                            job.priority,
                        ));
                        counts.policy_solves += 1;
                    }
                }
            }
        })
    });

    let f3: Vec<f64> = result
        .cells
        .iter()
        .filter(|c| c.param("policy") == Ok("formula3"))
        .filter_map(|c| c.metric("wpr").ok().map(|m| m.mean))
        .collect();
    counts.wpr_formula3 = if f3.is_empty() {
        0.0
    } else {
        f3.iter().sum::<f64>() / f3.len() as f64
    };

    Ok(TracedRun {
        tracer: t,
        replay: replay_counters.snapshot(),
        des,
        counts,
        outputs,
    })
}

/// Median wall seconds of each variant over `reps` rounds. Each round
/// runs every variant once, in turn (ABAB…), so drift on a shared machine
/// hits all variants alike.
fn alternating_medians(reps: usize, variants: &mut [&mut dyn FnMut()]) -> Vec<f64> {
    let mut times = vec![Vec::with_capacity(reps); variants.len()];
    for _ in 0..reps {
        for (f, t) in variants.iter_mut().zip(&mut times) {
            let start = Instant::now();
            f();
            t.push(start.elapsed().as_secs_f64());
        }
    }
    times
        .into_iter()
        .map(|mut t| {
            t.sort_by(f64::total_cmp);
            t[t.len() / 2]
        })
        .collect()
}

/// Speed-ups measured outside the traced walk (0 where the layer does
/// not run on the workload).
#[derive(Debug, Clone, Default, PartialEq)]
pub struct SpeedProbes {
    /// Fast replay of one run key: threads = 1 over threads = `nproc`.
    pub replay_speedup_nproc: f64,
    /// DES: unsharded over sharded, both at threads = 1.
    pub shard_speedup_1t: f64,
    /// DES: unsharded at threads = 1 over sharded at threads = `nproc`.
    pub shard_speedup_nt: f64,
    /// Max over mean tasks per shard.
    pub shard_task_imbalance: f64,
}

/// Time the parallel and sharded variants of the first cell's replay.
pub fn speed_probes(spec_text: &str, nproc: usize, reps: usize) -> Result<SpeedProbes, String> {
    let sweep = SweepSpec::from_str(spec_text).map_err(|e| e.to_string())?;
    let spec = sweep.cell(0).map_err(|e| e.to_string())?;
    let mut probes = SpeedProbes::default();
    if !matches!(spec.engine, EngineKind::Fast | EngineKind::Cluster) {
        return Ok(probes);
    }
    let prep = prepare(&mut Tracer::new(), &spec, &mut Counts::default())?;
    let cfg = spec.policy_config();
    match spec.engine {
        EngineKind::Fast => {
            let run = |threads: usize| {
                std::hint::black_box(run_trace_with_plans(
                    &prep.trace,
                    &prep.estimates,
                    &cfg,
                    RunOptions { threads },
                    &prep.plans,
                ));
            };
            let t = alternating_medians(reps, &mut [&mut || run(1), &mut || run(nproc)]);
            probes.replay_speedup_nproc = t[0] / t[1];
        }
        EngineKind::Cluster if spec.shards > 1 => {
            let cluster_cfg = cluster_config(&spec)?;
            let failure = std::cell::RefCell::new(None);
            let mut unsharded = || {
                std::hint::black_box(
                    ClusterSim::with_plans(
                        cluster_cfg,
                        &prep.trace,
                        &prep.estimates,
                        cfg,
                        &prep.plans,
                    )
                    .with_metrics(MetricsMode::Streaming)
                    .run(),
                );
            };
            let sharded = |threads: usize| {
                let run = ShardedClusterSim::new(
                    cluster_cfg,
                    &prep.trace,
                    &prep.estimates,
                    cfg,
                    spec.shards,
                )
                .with_plans(&prep.plans)
                .with_threads(threads)
                .with_metrics(MetricsMode::Streaming)
                .run();
                if let Err(e) = std::hint::black_box(run) {
                    *failure.borrow_mut() = Some(e);
                }
            };
            let t = alternating_medians(
                reps,
                &mut [&mut unsharded, &mut || sharded(1), &mut || sharded(nproc)],
            );
            if let Some(e) = failure.into_inner() {
                return Err(e);
            }
            probes.shard_speedup_1t = t[0] / t[1];
            probes.shard_speedup_nt = t[0] / t[2];
            let plan = ShardPlan::new(&prep.trace, spec.shards, cluster_cfg.n_hosts)?;
            let tasks: Vec<f64> = plan
                .sub_traces
                .iter()
                .map(|t| t.task_count() as f64)
                .collect();
            let mean = tasks.iter().sum::<f64>() / tasks.len() as f64;
            probes.shard_task_imbalance = tasks.iter().cloned().fold(0.0, f64::max) / mean;
        }
        _ => {}
    }
    Ok(probes)
}

/// Simulated tasks one sweep replays: each distinct run key replays its
/// whole trace once, and an analytic cost cell prices one task.
pub fn tasks_per_sweep(sweep: &SweepSpec) -> Result<u64, String> {
    let mut runs = std::collections::HashSet::new();
    let mut per_prep: HashMap<String, u64> = HashMap::new();
    let mut total = 0;
    for spec in sweep.cells().map_err(|e| e.to_string())? {
        if !matches!(spec.engine, EngineKind::Fast | EngineKind::Cluster) {
            total += 1;
            continue;
        }
        if !runs.insert(spec.run_key()) {
            continue;
        }
        let key = prep_key(&spec);
        let tasks = match per_prep.get(&key) {
            Some(&n) => n,
            None => {
                let trace =
                    generate(&spec.workload_spec()?, spec.seed).map_err(|e| e.to_string())?;
                let n = trace.task_count() as u64;
                per_prep.insert(key, n);
                n
            }
        };
        total += tasks;
    }
    Ok(total)
}
