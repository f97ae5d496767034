//! Sweep exports, rebuilt on the workspace's shared output frame: the
//! per-cell long-format table becomes a [`ckpt_report::Frame`] and every
//! rendering (CSV file, JSON summary, stdout table) goes through the one
//! deterministic writer in `ckpt-report` — so a sweep cell and a
//! standalone experiment share a single export path, byte-identical
//! across runs and thread counts.

use crate::exec::{CellStatus, SweepResult};
use crate::sweep::SweepSpec;
use ckpt_report::{Frame, Value};
use std::path::{Path, PathBuf};

/// A quarantine reason as a single CSV-safe cell: commas, quotes, and
/// newlines (which would break the line-oriented CSV writer) collapse to
/// spaces/semicolons.
fn sanitize_reason(reason: &str) -> String {
    reason
        .chars()
        .map(|c| match c {
            ',' => ';',
            '"' => '\'',
            '\n' | '\r' => ' ',
            c => c,
        })
        .collect()
}

/// Build the long-format cells frame: one row per `(cell, metric)` with
/// the axis assignments as leading columns, plus sweep identity metadata
/// (engine, seed, grid size, axes).
///
/// A degraded run (at least one quarantined cell) appends a `status`
/// column — `ok` for healthy rows, `failed: <reason>` for quarantined
/// ones. A fully healthy run emits exactly the historical columns, so
/// fault tolerance never perturbs clean-run bytes.
pub fn to_frame(spec: &SweepSpec, result: &SweepResult) -> Frame {
    let degraded = result.cells.iter().any(|c| !c.status.is_ok());
    let mut columns: Vec<String> = vec!["cell".to_string()];
    columns.extend(spec.axes.iter().map(|a| a.param.clone()));
    for metric_col in ["metric", "count", "mean", "p50", "p99", "min", "max"] {
        columns.push(metric_col.to_string());
    }
    if degraded {
        columns.push("status".to_string());
    }
    let axes: Vec<String> = spec
        .axes
        .iter()
        .map(|a| format!("{}({})", a.param, a.values.len()))
        .collect();
    let mut frame = Frame::new(&format!("{}_cells", result.name), columns)
        .with_title(format!("sweep {}", result.name))
        .with_meta("engine", spec.base.engine.label())
        // The seed the run actually used (a RunContext may have
        // overridden the spec's), so the metadata is reproducible.
        .with_meta("seed", result.seed.to_string())
        .with_meta("grid_size", spec.grid_size().to_string())
        .with_meta("axes", axes.join(" x "));
    frame
        .rows
        .reserve(result.cells.iter().map(|c| c.metrics.len()).sum());
    let width = frame.columns.len();
    for cell in &result.cells {
        for (metric, s) in &cell.metrics {
            let mut row: Vec<Value> = Vec::with_capacity(width);
            row.push(Value::from(cell.index));
            row.extend(
                cell.params
                    .iter()
                    .map(|(_, rendered)| Value::from(rendered.clone())),
            );
            row.push(Value::from(*metric));
            row.push(Value::from(s.count));
            for v in [s.mean, s.p50, s.p99, s.min, s.max] {
                row.push(Value::Num(v));
            }
            if degraded {
                row.push(Value::from(match &cell.status {
                    CellStatus::Ok => "ok".to_string(),
                    CellStatus::Failed { reason } => {
                        format!("failed: {}", sanitize_reason(reason))
                    }
                }));
            }
            frame.push_row(row);
        }
    }
    frame
}

/// Render the per-cell CSV (the cells frame as CSV).
pub fn csv_string(spec: &SweepSpec, result: &SweepResult) -> String {
    to_frame(spec, result).to_csv()
}

/// Render the JSON summary (the cells frame as a self-describing JSON
/// document).
pub fn json_string(spec: &SweepSpec, result: &SweepResult) -> String {
    to_frame(spec, result).to_json()
}

/// Write `<out_dir>/<name>_cells.csv` and `<out_dir>/<name>_summary.json`;
/// returns both paths. The cells frame is built once and both files are
/// rendered through one buffer, so the export holds the frame plus the
/// larger of the two documents, never both.
pub fn write_outputs(
    spec: &SweepSpec,
    result: &SweepResult,
    out_dir: impl AsRef<Path>,
) -> std::io::Result<(PathBuf, PathBuf)> {
    let dir = out_dir.as_ref();
    std::fs::create_dir_all(dir)?;
    let csv_path = dir.join(format!("{}_cells.csv", result.name));
    let json_path = dir.join(format!("{}_summary.json", result.name));
    let frame = to_frame(spec, result);
    let mut buf = String::new();
    frame.write_csv(&mut buf);
    std::fs::write(&csv_path, &buf)?;
    buf.clear();
    frame.write_json(&mut buf);
    std::fs::write(&json_path, &buf)?;
    Ok((csv_path, json_path))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::exec::{run_sweep, SweepOptions};

    const SPEC: &str = r#"
        [sweep]
        name = "export_test"
        engine = "ckpt-cost"

        [axes]
        device = ["ramdisk", "nfs"]
        n_checkpoints = [1, 3]
    "#;

    #[test]
    fn csv_has_axis_columns_and_all_cells() {
        let sweep = SweepSpec::from_str(SPEC).unwrap();
        let result = run_sweep(&sweep, SweepOptions::default()).unwrap();
        let csv = csv_string(&sweep, &result);
        let mut lines = csv.lines();
        assert_eq!(
            lines.next().unwrap(),
            "cell,device,n_checkpoints,metric,count,mean,p50,p99,min,max"
        );
        // 4 cells × 2 metrics.
        assert_eq!(csv.lines().count(), 1 + 8);
        assert!(csv.contains("ramdisk"));
        assert!(csv.contains("total_cost_s"));
    }

    #[test]
    fn json_is_the_shared_frame_document() {
        let sweep = SweepSpec::from_str(SPEC).unwrap();
        let result = run_sweep(&sweep, SweepOptions::default()).unwrap();
        let json = json_string(&sweep, &result);
        assert!(json.contains("\"name\": \"export_test_cells\""));
        assert!(json.contains("\"engine\": \"ckpt-cost\""));
        assert!(json.contains("\"grid_size\": \"4\""));
        assert!(json.contains("\"axes\": \"device(2) x n_checkpoints(2)\""));
        // 4 cells × 2 metrics = 8 data rows.
        let frame = to_frame(&sweep, &result);
        assert_eq!(frame.rows.len(), 8);
        // Balanced braces/brackets (cheap structural sanity without a
        // JSON dependency).
        assert_eq!(json.matches('{').count(), json.matches('}').count());
        assert_eq!(json.matches('[').count(), json.matches(']').count());
    }

    #[test]
    fn exports_are_thread_invariant() {
        let sweep = SweepSpec::from_str(SPEC).unwrap();
        let a = run_sweep(&sweep, SweepOptions { threads: 1 }).unwrap();
        let b = run_sweep(&sweep, SweepOptions { threads: 4 }).unwrap();
        assert_eq!(csv_string(&sweep, &a), csv_string(&sweep, &b));
        assert_eq!(json_string(&sweep, &a), json_string(&sweep, &b));
    }

    #[test]
    fn status_column_appears_only_on_degraded_runs() {
        let sweep = SweepSpec::from_str(SPEC).unwrap();
        let mut result = run_sweep(&sweep, SweepOptions::default()).unwrap();
        let clean_header = "cell,device,n_checkpoints,metric,count,mean,p50,p99,min,max";
        assert_eq!(
            csv_string(&sweep, &result).lines().next().unwrap(),
            clean_header
        );

        // Quarantine one cell by hand: the column appears, healthy rows
        // say "ok", and the failed cell exports exactly one NaN row with
        // a CSV-safe reason.
        let params = result.cells[2].params.clone();
        result.cells[2] = crate::exec::CellResult {
            index: 2,
            params,
            metrics: vec![("failed", crate::agg::MetricSummary::from_values(&[]))],
            status: CellStatus::Failed {
                reason: "panicked: injected, with\nnewline".into(),
            },
        };
        let csv = csv_string(&sweep, &result);
        assert_eq!(
            csv.lines().next().unwrap(),
            "cell,device,n_checkpoints,metric,count,mean,p50,p99,min,max,status"
        );
        let failed: Vec<&str> = csv.lines().filter(|l| l.contains("failed")).collect();
        assert_eq!(failed.len(), 1, "one metric row per quarantined cell");
        assert!(
            failed[0]
                .ends_with("failed,0,NaN,NaN,NaN,NaN,NaN,failed: panicked: injected; with newline"),
            "unexpected failed row: {}",
            failed[0]
        );
        // Every other data row carries the ok marker.
        assert_eq!(
            csv.lines().skip(1).filter(|l| l.ends_with(",ok")).count(),
            6
        );
        // JSON mirrors the same gating: NaN metrics render as null.
        let json = json_string(&sweep, &result);
        assert!(json.contains("failed: panicked: injected; with newline"));
        assert!(json.contains("null"));
    }

    #[test]
    fn files_written_to_out_dir() {
        let sweep = SweepSpec::from_str(SPEC).unwrap();
        let result = run_sweep(&sweep, SweepOptions::default()).unwrap();
        let dir = std::env::temp_dir().join(format!("ckpt_scenario_export_{}", std::process::id()));
        let (csv, json) = write_outputs(&sweep, &result, &dir).unwrap();
        assert!(csv.ends_with("export_test_cells.csv"));
        assert_eq!(
            std::fs::read_to_string(&csv).unwrap(),
            csv_string(&sweep, &result)
        );
        assert_eq!(
            std::fs::read_to_string(&json).unwrap(),
            json_string(&sweep, &result)
        );
        std::fs::remove_dir_all(&dir).ok();
    }
}
