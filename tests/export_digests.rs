//! Analytic-engine export pins.
//!
//! The `ckpt-cost` engine has no randomness, so its exports move only when
//! the cost model or the shared writer in `ckpt-report` does. Every cell
//! of that engine summarises one value, so every metric row is a count-1
//! row whose `mean`, `p50`, `p99`, `min` and `max` are the same float. The
//! digests below pin those rows byte for byte, for a healthy run and for a
//! run with one quarantined cell (which adds the `status` column, a quoted
//! reason and `NaN`/`null` statistics).

use ckpt_scenario::{
    csv_string, json_string, run_sweep, CellResult, CellStatus, MetricSummary, SweepOptions,
    SweepSpec,
};
use ckpt_store::fnv1a;

/// device × log-spaced `mem_mb` × `n_checkpoints`: 2 × 7 × 4 = 56 cells.
const SPEC: &str = r#"
[sweep]
name = "analytic_pin"
engine = "ckpt-cost"

[axes]
device = ["ramdisk", "nfs"]
mem_mb = { from = 1.5, to = 700, steps = 7, log = true }
n_checkpoints = { from = 1, to = 4, steps = 4 }
"#;

fn digests(sweep: &SweepSpec, result: &ckpt_scenario::SweepResult) -> (u64, u64) {
    (
        fnv1a(csv_string(sweep, result).as_bytes()),
        fnv1a(json_string(sweep, result).as_bytes()),
    )
}

#[test]
fn analytic_exports_match_pinned_digests() {
    let sweep = SweepSpec::from_str(SPEC).expect("spec parses");
    let result = run_sweep(&sweep, SweepOptions { threads: 2 }).expect("sweep runs");
    assert_eq!(result.cells.len(), 56);
    assert_eq!(
        digests(&sweep, &result),
        (0xde93b26060bc8514, 0xa20bd2d3bdc21316),
        "analytic_pin exports drifted from the pinned build"
    );
}

#[test]
fn quarantined_analytic_exports_match_pinned_digests() {
    let sweep = SweepSpec::from_str(SPEC).expect("spec parses");
    let mut result = run_sweep(&sweep, SweepOptions { threads: 2 }).expect("sweep runs");
    let params = result.cells[9].params.clone();
    result.cells[9] = CellResult {
        index: 9,
        params,
        metrics: vec![("failed", MetricSummary::from_values(&[]))],
        status: CellStatus::Failed {
            reason: "panicked: \"injected\", at cell 9\r\n\tüber".into(),
        },
    };
    assert_eq!(
        digests(&sweep, &result),
        (0xa7c7a67883100305, 0x4742ec8a7e0879f0),
        "quarantined analytic_pin exports drifted from the pinned build"
    );
}
