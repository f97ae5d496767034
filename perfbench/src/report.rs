//! Result assembly: sample statistics, the metric table printed for
//! people, the run manifest, and the one-line JSON result that ends the
//! benchmark's standard output.

use std::fmt::Write as _;

/// The reported value of a sample, with its median, min, max and size.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Stat {
    /// What the result line reports: the median, or for the untraced
    /// repetition timings the trimmed mean (see [`Stat::trimmed`]).
    pub value: f64,
    pub median: f64,
    pub min: f64,
    pub max: f64,
    pub n: usize,
}

fn sorted(values: &[f64]) -> Vec<f64> {
    // Panics on an empty sample: every measured quantity has at least
    // one repetition by construction.
    assert!(!values.is_empty(), "statistic of an empty sample");
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    v
}

/// Mean of `v` (sorted) without its lowest and highest tenth.
fn trimmed_mean(v: &[f64]) -> f64 {
    let cut = v.len() / 10;
    let kept = &v[cut..v.len() - cut];
    kept.iter().sum::<f64>() / kept.len() as f64
}

impl Stat {
    /// Reports the median.
    pub fn of(values: &[f64]) -> Stat {
        let v = sorted(values);
        let n = v.len();
        let median = if n % 2 == 1 {
            v[n / 2]
        } else {
            (v[n / 2 - 1] + v[n / 2]) / 2.0
        };
        Stat {
            value: median,
            median,
            min: v[0],
            max: v[n - 1],
            n,
        }
    }

    /// Reports the 10% trimmed mean: the mean without the lowest and
    /// highest tenth of the sample. On a shared host a pass's time
    /// jumps between a fast and a slow level, and the median of a dozen
    /// such passes flips between the two; the trimmed mean moves with
    /// the share of slow passes instead, and ignores a rare stall.
    pub fn trimmed(values: &[f64]) -> Stat {
        let v = sorted(values);
        Stat {
            value: trimmed_mean(&v),
            ..Stat::of(&v)
        }
    }

    /// `work` per second over timed passes: the reported value is `work`
    /// over the trimmed mean time, so a rate moves exactly as the timing
    /// it comes from.
    pub fn rate(work: f64, times: &[f64]) -> Stat {
        let t = Stat::trimmed(times);
        Stat {
            value: work / t.value,
            median: work / t.median,
            min: work / t.max,
            max: work / t.min,
            n: t.n,
        }
    }

    /// A single exact value (counts, ratios of medians).
    pub fn exact(v: f64) -> Stat {
        Stat {
            value: v,
            median: v,
            min: v,
            max: v,
            n: 1,
        }
    }
}

/// One reported metric.
#[derive(Debug, Clone, PartialEq)]
pub struct Metric {
    pub name: &'static str,
    pub unit: &'static str,
    pub stat: Stat,
}

/// True when `name` is a valid metric name: `[A-Za-z0-9_.-]+`, starting
/// with a letter or digit, at most 64 characters.
pub fn valid_metric_name(name: &str) -> bool {
    !name.is_empty()
        && name.len() <= 64
        && name.starts_with(|c: char| c.is_ascii_alphanumeric())
        && name
            .chars()
            .all(|c| c.is_ascii_alphanumeric() || matches!(c, '_' | '.' | '-'))
}

/// A JSON number. Non-finite values have no JSON spelling; they become
/// `null`, which the result consumer rejects, so they cannot pass silently.
pub fn json_num(v: f64) -> String {
    if v.is_finite() {
        format!("{v}")
    } else {
        "null".to_string()
    }
}

/// A JSON string literal.
pub fn json_str(s: &str) -> String {
    let mut out = String::with_capacity(s.len() + 2);
    out.push('"');
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            c if (c as u32) < 0x20 => {
                let _ = write!(out, "\\u{:04x}", c as u32);
            }
            c => out.push(c),
        }
    }
    out.push('"');
    out
}

/// The final result line: exactly `correct`, `attempted`, `failed` and
/// `metrics`, each metric as `{"value", "unit"}`.
pub fn result_line(correct: bool, attempted: u64, failed: u64, metrics: &[Metric]) -> String {
    let body: Vec<String> = metrics
        .iter()
        .map(|m| {
            format!(
                "{}: {{\"value\": {}, \"unit\": {}}}",
                json_str(m.name),
                json_num(m.stat.value),
                json_str(m.unit)
            )
        })
        .collect();
    format!(
        "{{\"correct\": {correct}, \"attempted\": {attempted}, \"failed\": {failed}, \"metrics\": {{{}}}}}",
        body.join(", ")
    )
}

/// The human-readable table: every metric by name with unit, reported
/// value, median, n, min and max.
pub fn table(title: &str, metrics: &[Metric]) -> String {
    let mut out = format!("{title}\n");
    let _ = writeln!(
        out,
        "  {:<28} {:>8} {:>16} {:>16} {:>4} {:>16} {:>16}",
        "metric", "unit", "value", "median", "n", "min", "max"
    );
    for m in metrics {
        let s = &m.stat;
        let _ = writeln!(
            out,
            "  {:<28} {:>8} {:>16.6} {:>16.6} {:>4} {:>16.6} {:>16.6}",
            m.name, m.unit, s.value, s.median, s.n, s.min, s.max
        );
    }
    out
}

/// Everything a result needs to be traced back to the code, machine and
/// inputs that produced it.
#[derive(Debug, Clone)]
pub struct Manifest {
    pub git_rev: String,
    pub rustc: String,
    pub nproc: usize,
    pub profile: &'static str,
    pub workload: &'static str,
    pub scale: &'static str,
    pub seed: u64,
    pub spec_seed: u64,
    pub sweep_digest: u64,
    /// FNV-1a of the workload's exported CSV and JSON. Recorded, never
    /// pinned: a change that moves model outputs on purpose shows here
    /// without failing the run.
    pub output_fnv: u64,
    pub trace: bool,
}

impl Manifest {
    pub fn to_json(&self) -> String {
        format!(
            "{{\"git_rev\": {}, \"rustc\": {}, \"nproc\": {}, \"profile\": {}, \
             \"workload\": {}, \"scale\": {}, \"seed\": {}, \"spec_seed\": {}, \
             \"sweep_digest\": \"{:016x}\", \"output_fnv\": \"{:016x}\", \"trace\": {}}}",
            json_str(&self.git_rev),
            json_str(&self.rustc),
            self.nproc,
            json_str(self.profile),
            json_str(self.workload),
            json_str(self.scale),
            self.seed,
            self.spec_seed,
            self.sweep_digest,
            self.output_fnv,
            self.trace
        )
    }
}

/// The working directory's git revision, or `unknown`. Git may not search
/// above the working directory, so a checkout that is not a repository
/// never reports the revision of a repository around it.
pub fn git_rev() -> String {
    let mut git = std::process::Command::new("git");
    git.args(["rev-parse", "HEAD"])
        .stderr(std::process::Stdio::null());
    if let Some(parent) = std::env::current_dir()
        .ok()
        .and_then(|d| d.parent().map(std::path::Path::to_path_buf))
    {
        git.env("GIT_CEILING_DIRECTORIES", parent);
    }
    git.output()
        .ok()
        .filter(|o| o.status.success())
        .and_then(|o| String::from_utf8(o.stdout).ok())
        .map(|s| s.trim().to_string())
        .filter(|s| !s.is_empty())
        .unwrap_or_else(|| "unknown".to_string())
}

/// Peak resident set of this process in MiB (`VmHWM`), or `None` where
/// `/proc` is unavailable.
pub fn peak_rss_mb() -> Option<f64> {
    let status = std::fs::read_to_string("/proc/self/status").ok()?;
    let line = status.lines().find(|l| l.starts_with("VmHWM:"))?;
    let kb: f64 = line.split_whitespace().nth(1)?.parse().ok()?;
    Some(kb / 1024.0)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn stat_median_min_max() {
        let s = Stat::of(&[3.0, 1.0, 2.0]);
        assert_eq!(
            (s.value, s.median, s.min, s.max, s.n),
            (2.0, 2.0, 1.0, 3.0, 3)
        );
        assert_eq!(Stat::of(&[4.0, 1.0, 2.0, 3.0]).median, 2.5);
    }

    #[test]
    fn trimmed_mean_drops_a_tenth_at_each_end() {
        // Under ten values nothing is dropped.
        assert_eq!(Stat::trimmed(&[1.0, 2.0, 6.0]).value, 3.0);
        // Ten values: the lowest and the highest go.
        let mut v: Vec<f64> = (1..=8).map(f64::from).collect();
        v.extend([100.0, -100.0]);
        let s = Stat::trimmed(&v);
        assert_eq!(s.value, 4.5);
        assert_eq!((s.median, s.min, s.max, s.n), (4.5, -100.0, 100.0, 10));
    }

    #[test]
    fn rate_follows_the_trimmed_time() {
        let r = Stat::rate(12.0, &[1.0, 2.0, 3.0]);
        assert_eq!(
            (r.value, r.median, r.min, r.max, r.n),
            (6.0, 6.0, 4.0, 12.0, 3)
        );
    }

    #[test]
    fn metric_names_are_validated() {
        assert!(valid_metric_name("replay.ns_per_task"));
        assert!(valid_metric_name("setup_s"));
        assert!(!valid_metric_name(""));
        assert!(!valid_metric_name(".hidden"));
        assert!(!valid_metric_name("a b"));
        assert!(!valid_metric_name(&"x".repeat(65)));
    }

    #[test]
    fn result_line_has_exactly_the_contract_keys() {
        let m = Metric {
            name: "sweep_s",
            unit: "s",
            stat: Stat::trimmed(&[0.5, 0.25]),
        };
        assert_eq!(
            result_line(true, 4, 0, &[m]),
            "{\"correct\": true, \"attempted\": 4, \"failed\": 0, \
             \"metrics\": {\"sweep_s\": {\"value\": 0.375, \"unit\": \"s\"}}}"
        );
        assert_eq!(json_num(f64::NAN), "null");
        assert_eq!(json_str("a\"b\\\n"), "\"a\\\"b\\\\\\u000a\"");
    }
}
