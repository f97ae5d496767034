//! perfbench — the repository benchmark.
//!
//! ```text
//! perfbench --workload <name> [--seed <n>] [--seconds <s>] [--trace 0|1] [--scale full|tiny]
//! ```
//!
//! Each workload turns `--seed` (default 1) into a sweep spec and runs it
//! through the library calls `cloud-ckpt sweep --checkpoint-dir` makes.
//! With `--trace 0` it reports the end-to-end metrics; with `--trace 1`
//! it walks the sweep layer by layer with a span around every call and
//! reports the per-layer metrics. Every pass's exports are checked; any
//! mismatch makes the run incorrect and the exit code 1. The last line
//! of standard output is the JSON result. See `perfbench/README.md`.

mod layers;
mod passes;
mod report;
mod trace;
mod workload;

use ckpt_obs::{Counter, Counters, Observer, Telemetry};
use ckpt_scenario::SweepSpec;
use layers::{speed_probes, tasks_per_sweep, traced_run, TracedRun};
use passes::{crash_cells, crashed_pass, peak_rss_pass, sweep_pass, Outputs, Pass};
use report::{Manifest, Metric, Stat};
use std::path::{Path, PathBuf};
use std::time::{Duration, Instant};
use trace::{find_root, self_seconds_by_name, unattributed_s};
use workload::{Scale, Workload};

const USAGE: &str = "usage: perfbench --workload <replay_ckpt_heavy|des_fleet|grid_crash_resume> \
[--seed <n, default 1>] [--seconds <s, default 15>] [--trace 0|1] [--scale full|tiny]";

/// The workload seed when `--seed` is not given.
const DEFAULT_SEED: u64 = 1;
/// Set-up repetitions per untraced run; `setup_s` is their median.
const SETUP_REPS: usize = 3;
/// Fewest measured repetitions, even past `--seconds`.
const MIN_REPS: usize = 3;
/// No new repetition starts after this much time since launch, so a
/// slow machine still ends the run well inside three minutes.
const HARD_STOP: Duration = Duration::from_secs(120);

struct Args {
    workload: Workload,
    seed: u64,
    seconds: f64,
    trace: bool,
    scale: Scale,
}

fn parse_args(args: &[String]) -> Result<Args, String> {
    let mut workload = None;
    let mut seed = DEFAULT_SEED;
    let mut seconds = 15.0;
    let mut trace = false;
    let mut scale = Scale::Full;
    let mut it = args.iter();
    while let Some(flag) = it.next() {
        let value = it
            .next()
            .ok_or_else(|| format!("flag {flag} needs a value"))?;
        let bad = || format!("flag {flag}: bad value {value:?}");
        match flag.as_str() {
            "--workload" => {
                workload = Some(
                    Workload::from_name(value)
                        .ok_or_else(|| format!("unknown workload {value:?}"))?,
                )
            }
            "--seed" => seed = value.parse().map_err(|_| bad())?,
            "--seconds" => {
                seconds = value.parse().map_err(|_| bad())?;
                if !(seconds > 0.0 && seconds <= 600.0) {
                    return Err(bad());
                }
            }
            "--trace" => {
                trace = match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(bad()),
                }
            }
            "--scale" => scale = Scale::from_name(value).ok_or_else(bad)?,
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    Ok(Args {
        workload: workload.ok_or("--workload is required")?,
        seed,
        seconds,
        trace,
        scale,
    })
}

/// Output checks and the tally of attempted and failed cells.
#[derive(Default)]
struct Checks {
    attempted: u64,
    failed: u64,
    problems: Vec<String>,
}

impl Checks {
    /// Check a pass against the reference exports: every cell ok, bytes
    /// identical. A mismatch fails every cell of the pass.
    fn pass(&mut self, what: &str, pass: &Pass, reference: &Outputs) {
        let grid = pass.result.cells.len() as u64;
        self.attempted += grid;
        let bad_cells = pass.failed_cells() as u64;
        if pass.outputs != *reference {
            self.failed += grid;
            self.problems
                .push(format!("{what}: exports differ from the reference pass"));
        } else if bad_cells > 0 {
            self.failed += bad_cells;
            self.problems
                .push(format!("{what}: {bad_cells} cells did not evaluate"));
        }
    }

    /// A pass that could not run at all.
    fn error(&mut self, what: &str, grid: u64, e: String) {
        self.attempted += grid;
        self.failed += grid;
        self.problems.push(format!("{what}: {e}"));
    }

    fn correct(&self) -> bool {
        self.problems.is_empty()
    }
}

/// Scratch root, relative to the directory the benchmark runs from. Each
/// run works in its own subdirectory and removes it at exit.
const WORK_ROOT: &str = ".bench_work";
/// Where each run leaves its manifest, result and (traced) spans.
const RECORDS_DIR: &str = ".bench_out";

fn work_dir(args: &Args) -> PathBuf {
    Path::new(WORK_ROOT).join(format!("{}-{}", args.workload.name(), std::process::id()))
}

/// One workload, set up: its spec text, grid size, scratch directory and
/// the reference exports every later pass must reproduce.
struct Bench {
    text: String,
    grid: usize,
    work: PathBuf,
    nproc: usize,
    launch: Instant,
    reference: Outputs,
}

/// Generate, parse and expand the spec, write it for the child
/// processes, and warm up with one full pass at `nproc`. Returns the
/// set-up workload and the warm-up pass.
fn set_up(
    args: &Args,
    work: &Path,
    nproc: usize,
    launch: Instant,
) -> Result<(Bench, Pass), String> {
    let text = args.workload.spec_text(args.seed, args.scale);
    let sweep = SweepSpec::from_str(&text).map_err(|e| e.to_string())?;
    let grid = sweep.cells().map_err(|e| e.to_string())?.len();
    std::fs::create_dir_all(work).map_err(|e| format!("{}: {e}", work.display()))?;
    std::fs::write(work.join("spec.toml"), &text).map_err(|e| format!("writing spec: {e}"))?;
    let warm = sweep_pass(&text, nproc, work, "warm", false, None)?;
    let bench = Bench {
        text,
        grid,
        work: work.to_path_buf(),
        nproc,
        launch,
        reference: warm.outputs.clone(),
    };
    Ok((bench, warm))
}

/// Timings of the measured repetitions.
struct Samples {
    sweep: Vec<f64>,
    sweep_1t: Vec<f64>,
    resume: Vec<f64>,
}

impl Bench {
    fn spec_path(&self) -> PathBuf {
        self.work.join("spec.toml")
    }

    /// One crashed pass plus the timed `--resume` pass that completes it.
    fn crash_and_resume(&self, telemetry: Option<&Telemetry>) -> Result<Pass, String> {
        let cells = crash_cells(self.grid);
        crashed_pass(&self.spec_path(), &self.work, "resume", cells, self.nproc)?;
        let pass = sweep_pass(
            &self.text, self.nproc, &self.work, "resume", true, telemetry,
        )?;
        if pass.loaded as u64 != cells {
            return Err(format!(
                "resume loaded {} cells, the crashed pass persisted {cells}",
                pass.loaded
            ));
        }
        Ok(pass)
    }

    /// Alternate untraced passes at `nproc` and at one thread (ABAB, so
    /// drift on a shared machine hits both alike), with a crash and
    /// resume after each pair when `resume` is set, until `seconds` have
    /// passed. Every pass is checked against the reference.
    fn measure(&self, seconds: f64, resume: bool, checks: &mut Checks) -> Samples {
        let mut s = Samples {
            sweep: Vec::new(),
            sweep_1t: Vec::new(),
            resume: Vec::new(),
        };
        let grid = self.grid as u64;
        let start = Instant::now();
        let mut rep = 0;
        while rep < MIN_REPS
            || (start.elapsed().as_secs_f64() < seconds && self.launch.elapsed() < HARD_STOP)
        {
            let order = if rep % 2 == 0 {
                [self.nproc, 1]
            } else {
                [1, self.nproc]
            };
            for threads in order {
                let what = format!("sweep at {threads} threads");
                match sweep_pass(&self.text, threads, &self.work, "sweep", false, None) {
                    Ok(p) => {
                        checks.pass(&what, &p, &self.reference);
                        if threads == 1 {
                            s.sweep_1t.push(p.wall_s);
                        }
                        // With one core both orders time the same pass.
                        if threads == self.nproc {
                            s.sweep.push(p.wall_s);
                        }
                    }
                    Err(e) => checks.error(&what, grid, e),
                }
            }
            if resume {
                match self.crash_and_resume(None) {
                    Ok(p) => {
                        checks.pass("resume", &p, &self.reference);
                        s.resume.push(p.wall_s);
                    }
                    Err(e) => checks.error("crash and resume", grid, e),
                }
            }
            rep += 1;
            if !checks.correct() {
                break;
            }
        }
        s
    }

    /// The program's own counters over one clean pass and one
    /// crash-resume pass, each checked against the executor's accounting
    /// identities.
    fn program_counters(&self, checks: &mut Checks) -> Counters {
        let mut total = Counters::new();
        for resume in [false, true] {
            let what = if resume {
                "counted resume"
            } else {
                "counted sweep"
            };
            let telemetry = Telemetry::new();
            let pass = if resume {
                self.crash_and_resume(Some(&telemetry))
            } else {
                sweep_pass(
                    &self.text,
                    self.nproc,
                    &self.work,
                    "counted",
                    false,
                    Some(&telemetry),
                )
            };
            match pass {
                Ok(p) => checks.pass(what, &p, &self.reference),
                Err(e) => {
                    checks.error(what, self.grid as u64, e);
                    continue;
                }
            }
            let counters = telemetry.counters.snapshot();
            if let Err(e) = counters
                .verify_sweep_invariants(self.grid as u64)
                .and_then(|()| counters.verify_invariants(true))
            {
                checks.problems.push(format!("{what}: {e}"));
            }
            total.merge(&counters);
        }
        total
    }
}

/// The trimmed mean of repetition timings (NaN, reported as `null`,
/// when no repetition ran).
fn stat_or_nan(v: &[f64]) -> Stat {
    if v.is_empty() {
        Stat::exact(f64::NAN)
    } else {
        Stat::trimmed(v)
    }
}

fn metric(name: &'static str, unit: &'static str, stat: Stat) -> Metric {
    Metric { name, unit, stat }
}

/// The untraced run: set-up repetitions, then measured repetitions.
fn run_end_to_end(
    args: &Args,
    work: &Path,
    nproc: usize,
    launch: Instant,
    checks: &mut Checks,
) -> Result<(Vec<Metric>, Outputs), String> {
    let mut setup = Vec::new();
    let mut first: Option<Bench> = None;
    for k in 0..SETUP_REPS {
        let start = if k == 0 { launch } else { Instant::now() };
        let (bench, warm) = set_up(args, work, nproc, launch)?;
        setup.push(start.elapsed().as_secs_f64());
        match &first {
            None => {
                // The first pass is the reference; it must at least be clean.
                checks.attempted += bench.grid as u64;
                let bad = warm.failed_cells() as u64;
                if bad > 0 {
                    checks.failed += bad;
                    checks
                        .problems
                        .push(format!("warm-up: {bad} cells did not evaluate"));
                }
                first = Some(bench);
            }
            Some(b) => checks.pass("warm-up", &warm, &b.reference),
        }
    }
    let bench = first.expect("at least one set-up");
    let s = bench.measure(args.seconds, true, checks);
    let sweep = SweepSpec::from_str(&bench.text).map_err(|e| e.to_string())?;
    let tasks = tasks_per_sweep(&sweep)? as f64;
    let per_s = |work: f64| {
        if s.sweep.is_empty() {
            Stat::exact(f64::NAN)
        } else {
            Stat::rate(work, &s.sweep)
        }
    };
    let peak_rss = match peak_rss_pass(&bench.spec_path(), work, nproc) {
        Ok(mb) => mb,
        Err(e) => {
            checks.error("memory probe", bench.grid as u64, e);
            f64::NAN
        }
    };
    let cells_ok = checks.attempted.saturating_sub(checks.failed) as f64;
    let metrics = vec![
        metric("setup_s", "s", Stat::of(&setup)),
        metric("sweep_s", "s", stat_or_nan(&s.sweep)),
        metric("sweep_1t_s", "s", stat_or_nan(&s.sweep_1t)),
        metric("tasks_per_s", "1/s", per_s(tasks)),
        metric("cells_per_s", "1/s", per_s(bench.grid as f64)),
        metric("resume_s", "s", stat_or_nan(&s.resume)),
        metric("peak_rss_mb", "MiB", Stat::exact(peak_rss)),
        metric(
            "ok_frac",
            "frac",
            Stat::exact(cells_ok / checks.attempted.max(1) as f64),
        ),
    ];
    Ok((metrics, bench.reference))
}

/// Per-layer values of one traced walk, in reporting order.
fn layer_values(
    run: &TracedRun,
    probes: &layers::SpeedProbes,
    sweep_s: f64,
    sweep_1t_s: f64,
    program: &Counters,
) -> Vec<(&'static str, &'static str, f64)> {
    let spans = run.tracer.spans();
    let root = find_root(spans, "exec").expect("the walk records an exec root");
    let by = self_seconds_by_name(spans, root);
    let side = |root_name: &str, name: &str| {
        find_root(spans, root_name)
            .map(|r| self_seconds_by_name(spans, r))
            .and_then(|m| m.get(name).copied())
            .unwrap_or(0.0)
    };
    let s = |name: &str| by.get(name).copied().unwrap_or(0.0);
    let ratio = |num: f64, den: f64| if den > 0.0 { num / den } else { 0.0 };
    let get = |c: &Counters, counter: Counter| c.get(counter) as f64;
    let c = &run.counts;
    let (rc, dc) = (&run.replay, &run.des);
    let replay_busy = s("replay.run");
    let replay_tasks = get(rc, Counter::TasksReplayed);
    let replay_ckpts = get(rc, Counter::CheckpointsWritten);
    let des_busy = s("des.run");
    let des_events = get(dc, Counter::EventsPopped);
    let export_busy = s("export.csv") + s("export.json") + s("export.write");
    let traced_s = spans[root].duration_ns() as f64 / 1e9;
    let failed = get(program, Counter::CellsFailed);
    let evaluated = get(program, Counter::CellsEvaluated);
    vec![
        ("sweep.parse_s", "s", s("sweep.parse")),
        ("sweep.expand_s", "s", s("sweep.expand")),
        ("sweep.cells", "count", c.cells as f64),
        ("gen.generate_s", "s", s("gen.generate")),
        ("gen.tasks", "count", c.gen_tasks as f64),
        ("plan.arena_build_s", "s", s("plan.arena_build")),
        ("plan.kills", "count", c.plan_kills as f64),
        ("plan.histories_s", "s", s("plan.histories")),
        ("policy.estimates_s", "s", s("policy.estimates")),
        ("policy.predict_s", "s", side("probe", "policy.predict")),
        ("policy.solves", "count", c.policy_solves as f64),
        ("replay.busy_s", "s", replay_busy),
        ("replay.tasks", "count", replay_tasks),
        ("replay.checkpoints", "count", replay_ckpts),
        ("replay.kills", "count", get(rc, Counter::TaskKills)),
        (
            "replay.ns_per_task",
            "ns",
            ratio(replay_busy * 1e9, replay_tasks),
        ),
        (
            "replay.ns_per_checkpoint",
            "ns",
            ratio(replay_busy * 1e9, replay_ckpts),
        ),
        ("replay.speedup_nproc", "x", probes.replay_speedup_nproc),
        ("des.busy_s", "s", des_busy),
        ("des.events", "count", des_events),
        ("des.events_per_s", "1/s", ratio(des_events, des_busy)),
        ("des.ns_per_event", "ns", ratio(des_busy * 1e9, des_events)),
        ("des.stale_skips", "count", get(dc, Counter::StaleSkips)),
        (
            "des.checkpoints",
            "count",
            get(dc, Counter::CheckpointsWritten),
        ),
        ("des.heap_peak", "count", get(dc, Counter::HeapPeak)),
        ("shard.speedup_1t", "x", probes.shard_speedup_1t),
        ("shard.speedup_nt", "x", probes.shard_speedup_nt),
        ("shard.task_imbalance", "x", probes.shard_task_imbalance),
        ("shard.windows", "count", get(dc, Counter::ShardWindows)),
        ("shard.merges", "count", get(dc, Counter::ShardMerges)),
        ("agg.busy_s", "s", s("agg.summarize")),
        ("agg.values", "count", c.agg_values as f64),
        ("export.busy_s", "s", export_busy),
        ("export.bytes", "bytes", c.export_bytes as f64),
        (
            "export.mb_per_s",
            "MB/s",
            ratio(c.export_bytes as f64 / 1e6, export_busy),
        ),
        ("store.append_s", "s", s("store.append")),
        (
            "store.records_written",
            "count",
            c.store_records_written as f64,
        ),
        ("store.bytes", "bytes", c.store_bytes as f64),
        ("store.open_scan_s", "s", side("resume", "store.open_scan")),
        ("store.records_read", "count", c.store_records_read as f64),
        (
            "store.io_retries",
            "count",
            get(program, Counter::IoRetries),
        ),
        ("exec.busy_s", "s", s("exec.cell")),
        ("exec.cells_failed", "count", failed),
        (
            "exec.cells_retried",
            "count",
            get(program, Counter::CellsRetried),
        ),
        (
            "exec.failed_frac",
            "frac",
            ratio(failed, failed + evaluated),
        ),
        ("exec.speedup_nproc", "x", ratio(sweep_1t_s, sweep_s)),
        (
            "exec.unattributed_s",
            "s",
            unattributed_s(sweep_1t_s, spans, root),
        ),
        ("bench.traced_s", "s", traced_s),
        (
            "bench.trace_overhead_frac",
            "frac",
            ratio(traced_s - sweep_1t_s, sweep_1t_s),
        ),
        ("model.wpr_formula3", "ratio", c.wpr_formula3),
    ]
}

/// The traced run: a short untraced baseline, the program's counter
/// checks, then traced walks until `--seconds` have passed.
fn run_traced(
    args: &Args,
    work: &Path,
    nproc: usize,
    launch: Instant,
    checks: &mut Checks,
) -> Result<(Vec<Metric>, Outputs, Option<TracedRun>), String> {
    let (bench, _) = set_up(args, work, nproc, launch)?;
    let grid = bench.grid as u64;
    checks.attempted += grid;
    let base = bench.measure(args.seconds / 3.0, false, checks);
    let sweep_s = stat_or_nan(&base.sweep).value;
    let sweep_1t_s = stat_or_nan(&base.sweep_1t).value;
    let program = bench.program_counters(checks);
    let probes = speed_probes(&bench.text, nproc, 3)?;

    // (name, unit, one value per walk), in reporting order.
    let mut columns: Vec<(&'static str, &'static str, Vec<f64>)> = Vec::new();
    let mut last = None;
    let start = Instant::now();
    let mut rep = 0;
    while rep < MIN_REPS
        || (start.elapsed().as_secs_f64() < args.seconds * 2.0 / 3.0
            && launch.elapsed() < HARD_STOP)
    {
        let run = match traced_run(&bench.text, &work.join("traced")) {
            Ok(run) => run,
            Err(e) => {
                checks.error("traced walk", grid, e);
                break;
            }
        };
        checks.attempted += grid;
        if run.outputs != bench.reference {
            checks.failed += grid;
            checks
                .problems
                .push("traced walk: exports differ from the executor's".into());
            break;
        }
        let values = layer_values(&run, &probes, sweep_s, sweep_1t_s, &program);
        if columns.is_empty() {
            columns = values.iter().map(|&(n, u, _)| (n, u, Vec::new())).collect();
        }
        for (column, (_, _, v)) in columns.iter_mut().zip(values) {
            column.2.push(v);
        }
        last = Some(run);
        rep += 1;
    }
    let metrics = columns
        .into_iter()
        .map(|(name, unit, v)| metric(name, unit, Stat::of(&v)))
        .collect();
    Ok((metrics, bench.reference, last))
}

fn main() {
    let launch = Instant::now();
    let argv: Vec<String> = std::env::args().skip(1).collect();
    if argv.first().map(String::as_str) == Some("--rss-child") {
        let [spec, work, threads] = &argv[1..] else {
            eprintln!("--rss-child <spec> <work-dir> <threads>");
            std::process::exit(2);
        };
        let Ok(threads) = threads.parse() else {
            eprintln!("--rss-child: bad thread count");
            std::process::exit(2);
        };
        match passes::rss_child(Path::new(spec), Path::new(work), threads) {
            Ok(mb) => println!("{mb}"),
            Err(e) => {
                eprintln!("{e}");
                std::process::exit(1);
            }
        }
        return;
    }
    if argv.first().map(String::as_str) == Some("--crash-child") {
        let [spec, dir, cells, threads] = &argv[1..] else {
            eprintln!("--crash-child <spec> <ckpt-dir> <cells> <threads>");
            std::process::exit(2);
        };
        let (Ok(cells), Ok(threads)) = (cells.parse(), threads.parse()) else {
            eprintln!("--crash-child: bad cell or thread count");
            std::process::exit(2);
        };
        eprintln!(
            "{}",
            passes::crash_child(Path::new(spec), Path::new(dir), cells, threads)
        );
        std::process::exit(1);
    }
    let args = match parse_args(&argv) {
        Ok(a) => a,
        Err(e) => {
            eprintln!("perfbench: {e}\n{USAGE}");
            std::process::exit(2);
        }
    };
    let nproc = std::thread::available_parallelism().map_or(1, |n| n.get());
    let work = work_dir(&args);
    let mut checks = Checks::default();
    let outcome = if args.trace {
        run_traced(&args, &work, nproc, launch, &mut checks)
    } else {
        run_end_to_end(&args, &work, nproc, launch, &mut checks).map(|(m, o)| (m, o, None))
    };
    let (metrics, outputs, traced) = match outcome {
        Ok(v) => v,
        Err(e) => {
            // Nothing measured: no result line, only the reason.
            let _ = std::fs::remove_dir_all(&work);
            eprintln!("perfbench: {e}");
            std::process::exit(1);
        }
    };
    let _ = std::fs::remove_dir_all(&work);
    let _ = std::fs::remove_dir(WORK_ROOT);

    let text = args.workload.spec_text(args.seed, args.scale);
    let digest = SweepSpec::from_str(&text)
        .map(|s| ckpt_scenario::ckpt::sweep_digest(&s))
        .unwrap_or(0);
    let manifest = Manifest {
        git_rev: report::git_rev(),
        rustc: env!("PERFBENCH_RUSTC_VERSION").to_string(),
        nproc,
        profile: if cfg!(debug_assertions) {
            "debug"
        } else {
            "release"
        },
        workload: args.workload.name(),
        scale: args.scale.name(),
        seed: args.seed,
        spec_seed: workload::spec_seed(args.seed),
        sweep_digest: digest,
        output_fnv: outputs.fnv(),
        trace: args.trace,
    };
    let stem = format!(
        "{}-seed{}-trace{}",
        args.workload.name(),
        args.seed,
        u8::from(args.trace)
    );
    for m in &metrics {
        if !report::valid_metric_name(m.name) {
            checks
                .problems
                .push(format!("invalid metric name {:?}", m.name));
        }
    }
    let correct = checks.correct();
    let line = report::result_line(correct, checks.attempted, checks.failed, &metrics);
    let records = Path::new(RECORDS_DIR);
    let saved = std::fs::create_dir_all(records).and_then(|()| {
        std::fs::write(
            records.join(format!("{stem}.json")),
            format!(
                "{{\"manifest\": {}, \"result\": {line}}}\n",
                manifest.to_json()
            ),
        )?;
        if let Some(run) = &traced {
            std::fs::write(
                records.join(format!("{stem}-spans.csv")),
                run.tracer.to_csv(),
            )?;
        }
        Ok(())
    });
    if let Err(e) = saved {
        eprintln!(
            "perfbench: cannot write records to {}: {e}",
            records.display()
        );
    }

    println!("manifest {}", manifest.to_json());
    print!(
        "{}",
        report::table(
            &format!(
                "{} seed {} ({} metrics, nproc {nproc})",
                args.workload.name(),
                args.seed,
                if args.trace {
                    "per-layer"
                } else {
                    "end-to-end"
                }
            ),
            &metrics
        )
    );
    for p in &checks.problems {
        println!("CHECK FAILED: {p}");
    }
    println!("{line}");
    if !correct {
        std::process::exit(1);
    }
}
