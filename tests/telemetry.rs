//! Telemetry acceptance guards.
//!
//! * With telemetry **off** (the default), the acceptance sweep's exports
//!   are pinned to FNV-1a digests, so any byte drift in simulation output
//!   fails here.
//! * With telemetry **on**, cell results are identical to the plain run,
//!   and the deterministic counter frame is byte-identical across thread
//!   counts on both stress specs (the cluster DES and the fast replay
//!   paths both count simulation facts, never scheduling facts).

use ckpt_obs::{Counter, Observer, Telemetry};
use ckpt_report::{counters_frame, RunContext, Scale};
use ckpt_scenario::{
    csv_string, json_string, run_sweep, run_sweep_telemetry, SweepOptions, SweepSpec,
};

/// FNV-1a 64 over the rendered bytes — the same digest the golden DES
/// tests pin, applied to exported files.
fn fnv1a(bytes: &[u8]) -> u64 {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for &b in bytes {
        h = (h ^ b as u64).wrapping_mul(0x0100_0000_01b3);
    }
    h
}

fn load(path: &str) -> SweepSpec {
    let text = std::fs::read_to_string(path).expect("spec file readable");
    SweepSpec::from_str(&text).expect("spec parses")
}

/// The acceptance sweep's exports, pinned byte-for-byte. The digests were
/// recorded from the build whose fast replay jumps whole checkpoint cycles
/// of fixed schedules: that jump sums a cycle span in one add, which moved
/// the last bits of some `wall_s`, `wpr`, `ckpt_overhead_s` and
/// `rollback_s` statistics and nothing else. That `NoObs` instrumentation
/// leaves results untouched is checked by
/// `telemetry_does_not_change_sweep_results`.
#[test]
fn acceptance_sweep_exports_match_pinned_digests() {
    let sweep = load("specs/policy_x_ckpt_cost.toml");
    let result = run_sweep(&sweep, SweepOptions { threads: 4 }).expect("sweep runs");
    let csv = csv_string(&sweep, &result);
    let json = json_string(&sweep, &result);
    assert_eq!(
        fnv1a(csv.as_bytes()),
        0x0874f0be965e229b,
        "policy_x_ckpt_cost_cells.csv drifted from the pinned build"
    );
    assert_eq!(
        fnv1a(json.as_bytes()),
        0x0e4d5d8d026f60e0,
        "policy_x_ckpt_cost_summary.json drifted from the pinned build"
    );
}

/// Attaching telemetry must not change a single cell: same metrics, same
/// params, same order.
#[test]
fn telemetry_does_not_change_sweep_results() {
    let sweep = load("specs/policy_x_ckpt_cost.toml");
    let plain = run_sweep(&sweep, SweepOptions { threads: 2 }).expect("plain sweep");
    let telemetry = Telemetry::new();
    let observed = run_sweep_telemetry(&sweep, SweepOptions { threads: 2 }, Some(&telemetry))
        .expect("observed sweep");
    assert_eq!(plain.cells, observed.cells);
    // And the observed run actually counted.
    let counters = telemetry.counters.snapshot();
    assert_eq!(
        counters.get(Counter::CellsEvaluated),
        plain.cells.len() as u64
    );
    assert!(counters.get(Counter::TasksReplayed) > 0);
    counters
        .verify_invariants(true)
        .expect("counter identities");
}

/// Counter frame for one stress spec at quick scale under `threads`.
fn stress_counters_csv(path: &str, threads: usize) -> String {
    let sweep = load(path);
    let ctx = RunContext::new(Scale::Quick).with_threads(threads);
    let telemetry = Telemetry::new();
    let result = run_sweep_telemetry(
        &sweep.contextualized(&ctx),
        SweepOptions { threads },
        Some(&telemetry),
    )
    .expect("sweep runs");
    assert!(!result.cells.is_empty());
    let counters = telemetry.counters.snapshot();
    // Every stress cell runs to completion, so the DES event accounting
    // identity and the arena identity both hold on the totals.
    counters
        .verify_invariants(true)
        .expect("counter identities");
    counters_frame(&counters).to_csv()
}

#[test]
fn stress_fleet_counter_frame_is_thread_invariant() {
    let a = stress_counters_csv("specs/stress_fleet.toml", 1);
    let b = stress_counters_csv("specs/stress_fleet.toml", 4);
    assert_eq!(a, b, "stress_fleet counters must not depend on threads");
    // The cluster DES really ran: heap events were popped.
    assert!(a.lines().any(|l| l.starts_with("events_popped,")), "{a}");
    let popped: u64 = a
        .lines()
        .find_map(|l| l.strip_prefix("events_popped,"))
        .unwrap()
        .parse()
        .unwrap();
    assert!(popped > 0, "cluster cells produced no DES events");
}

#[test]
fn stress_long_tasks_counter_frame_is_thread_invariant() {
    let a = stress_counters_csv("specs/stress_long_tasks.toml", 1);
    let b = stress_counters_csv("specs/stress_long_tasks.toml", 4);
    assert_eq!(
        a, b,
        "stress_long_tasks counters must not depend on threads"
    );
}
