//! Untraced sweep passes through the same library calls `cloud-ckpt
//! sweep --checkpoint-dir` makes: parse the spec, run the checkpointed
//! executor, write the CSV and JSON exports. Also the crashed pass (a
//! child process killed by the fault plan's `crash@cells=N`) and the
//! `--resume` pass that completes it.

use ckpt_faults::{FaultPlan, FaultState};
use ckpt_obs::Telemetry;
use ckpt_scenario::{
    run_sweep_guarded, write_outputs, CheckpointConfig, FaultPolicy, SweepOptions, SweepResult,
    SweepSpec, CRASH_EXIT_CODE,
};
use std::path::{Path, PathBuf};
use std::sync::Arc;
use std::time::Instant;

/// The exported bytes of one pass.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Outputs {
    pub csv: Vec<u8>,
    pub json: Vec<u8>,
}

impl Outputs {
    pub fn len(&self) -> usize {
        self.csv.len() + self.json.len()
    }

    pub fn fnv(&self) -> u64 {
        let mut all = self.csv.clone();
        all.extend_from_slice(&self.json);
        ckpt_store::fnv1a(&all)
    }
}

/// One finished pass: its wall time, the result, and what it exported.
pub struct Pass {
    pub wall_s: f64,
    pub result: SweepResult,
    pub outputs: Outputs,
    /// Cells a resume pass loaded from the store (0 for a clean pass).
    pub loaded: usize,
}

impl Pass {
    /// Cells that did not evaluate cleanly.
    pub fn failed_cells(&self) -> usize {
        self.result
            .cells
            .iter()
            .filter(|c| !c.status.is_ok())
            .count()
    }
}

/// Where a pass keeps its store and exports.
fn pass_dirs(work: &Path, tag: &str) -> (PathBuf, PathBuf) {
    (work.join(tag).join("ckpt"), work.join(tag).join("out"))
}

/// Make sure `dir` exists. Passes reuse their directories instead of
/// deleting them: a fresh pass truncates its store and overwrites its
/// exports, and deleting megabytes of files between passes only adds
/// file-system noise to the next timing.
fn ensure_dir(dir: &Path) -> Result<(), String> {
    std::fs::create_dir_all(dir).map_err(|e| format!("cannot create {}: {e}", dir.display()))
}

/// Read a pass's exports back, then flush them to disk. The flush is
/// outside the timed region: it keeps one pass's dirty pages from being
/// written back while the next pass is being timed.
fn read_outputs(csv: &Path, json: &Path) -> Result<Outputs, String> {
    let read = |p: &Path| -> Result<Vec<u8>, String> {
        let bytes = std::fs::read(p).map_err(|e| format!("cannot read {}: {e}", p.display()))?;
        std::fs::File::open(p)
            .and_then(|f| f.sync_all())
            .map_err(|e| format!("cannot sync {}: {e}", p.display()))?;
        Ok(bytes)
    };
    Ok(Outputs {
        csv: read(csv)?,
        json: read(json)?,
    })
}

/// A checkpointed sweep from spec text to written outputs, timed. With
/// `resume`, the store under `work/tag` must already hold the crashed
/// pass's records; otherwise the pass starts a fresh store.
/// `telemetry` attaches the program's counters (checks only; timed
/// passes run without it, as the CLI does by default).
pub fn sweep_pass(
    spec_text: &str,
    threads: usize,
    work: &Path,
    tag: &str,
    resume: bool,
    telemetry: Option<&Telemetry>,
) -> Result<Pass, String> {
    let (ckpt_dir, out_dir) = pass_dirs(work, tag);
    ensure_dir(&ckpt_dir)?;
    ensure_dir(&out_dir)?;
    let config = CheckpointConfig {
        dir: ckpt_dir,
        resume,
        crash_after_cells: None,
    };
    // The CLI's default discipline: nothing injected, failing cells
    // retried and then quarantined.
    let policy = FaultPolicy::default();
    let start = Instant::now();
    let sweep = SweepSpec::from_str(spec_text).map_err(|e| e.to_string())?;
    let (result, report) = run_sweep_guarded(
        &sweep,
        SweepOptions { threads },
        telemetry,
        Some(&config),
        &policy,
    )
    .map_err(|e| e.to_string())?;
    let (csv, json) = write_outputs(&sweep, &result, &out_dir).map_err(|e| e.to_string())?;
    let wall_s = start.elapsed().as_secs_f64();
    let report = report.ok_or("checkpointed pass returned no resume report")?;
    Ok(Pass {
        wall_s,
        result,
        outputs: read_outputs(&csv, &json)?,
        loaded: report.loaded,
    })
}

/// Cells the crashed pass persists before it is killed: half the grid.
pub fn crash_cells(grid: usize) -> u64 {
    (grid / 2).max(1) as u64
}

/// The child side of the crashed pass: run the checkpointed sweep with
/// `crash@cells=N` armed. The executor ends the process with
/// [`CRASH_EXIT_CODE`] once `N` cells are on disk; returning at all means
/// the crash never fired.
pub fn crash_child(spec_path: &Path, ckpt_dir: &Path, cells: u64, threads: usize) -> String {
    let run = || -> Result<(), String> {
        let text = std::fs::read_to_string(spec_path)
            .map_err(|e| format!("cannot read {}: {e}", spec_path.display()))?;
        let sweep = SweepSpec::from_str(&text).map_err(|e| e.to_string())?;
        let plan = FaultPlan::parse(&format!("crash@cells={cells}"))?;
        let policy = FaultPolicy {
            faults: Arc::new(FaultState::new(plan)),
            strict: false,
        };
        let config = CheckpointConfig {
            dir: ckpt_dir.to_path_buf(),
            resume: false,
            crash_after_cells: None,
        };
        run_sweep_guarded(
            &sweep,
            SweepOptions { threads },
            None,
            Some(&config),
            &policy,
        )
        .map_err(|e| e.to_string())?;
        Ok(())
    };
    match run() {
        Ok(()) => format!("the sweep finished without crashing at {cells} cells"),
        Err(e) => e,
    }
}

/// Run the crashed pass in a child process (the crash ends the process
/// that hosts it) and wait for it to die with [`CRASH_EXIT_CODE`].
pub fn crashed_pass(
    spec_path: &Path,
    work: &Path,
    tag: &str,
    cells: u64,
    threads: usize,
) -> Result<(), String> {
    let (ckpt_dir, _) = pass_dirs(work, tag);
    ensure_dir(&ckpt_dir)?;
    let exe = std::env::current_exe().map_err(|e| format!("cannot locate own binary: {e}"))?;
    let output = std::process::Command::new(exe)
        .arg("--crash-child")
        .arg(spec_path)
        .arg(&ckpt_dir)
        .arg(cells.to_string())
        .arg(threads.to_string())
        .stdout(std::process::Stdio::null())
        .stderr(std::process::Stdio::piped())
        .output()
        .map_err(|e| format!("cannot start crashed pass: {e}"))?;
    if output.status.code() != Some(CRASH_EXIT_CODE) {
        return Err(format!(
            "crashed pass exited with {:?}, expected {CRASH_EXIT_CODE}: {}",
            output.status.code(),
            String::from_utf8_lossy(&output.stderr).trim()
        ));
    }
    Ok(())
}

/// The child side of the memory probe: one clean pass at `threads`, as a
/// fresh `cloud-ckpt sweep` process would run it. Returns the process's
/// peak resident set in MiB.
pub fn rss_child(spec_path: &Path, work: &Path, threads: usize) -> Result<f64, String> {
    let text = std::fs::read_to_string(spec_path)
        .map_err(|e| format!("cannot read {}: {e}", spec_path.display()))?;
    sweep_pass(&text, threads, work, "rss", false, None)?;
    crate::report::peak_rss_mb().ok_or_else(|| "no VmHWM in /proc/self/status".to_string())
}

/// Peak resident memory of a fresh process running one pass. Measured in
/// a child because a long-lived process's high-water mark depends on how
/// many passes it ran and how its allocator arenas fragmented, not just
/// on the workload.
pub fn peak_rss_pass(spec_path: &Path, work: &Path, threads: usize) -> Result<f64, String> {
    let exe = std::env::current_exe().map_err(|e| format!("cannot locate own binary: {e}"))?;
    let output = std::process::Command::new(exe)
        .arg("--rss-child")
        .arg(spec_path)
        .arg(work)
        .arg(threads.to_string())
        .stderr(std::process::Stdio::piped())
        .output()
        .map_err(|e| format!("cannot start memory probe: {e}"))?;
    let stdout = String::from_utf8_lossy(&output.stdout);
    match stdout.trim().parse::<f64>() {
        Ok(mb) if output.status.success() => Ok(mb),
        _ => Err(format!(
            "memory probe failed ({:?}): {}",
            output.status.code(),
            String::from_utf8_lossy(&output.stderr).trim()
        )),
    }
}
