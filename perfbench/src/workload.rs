//! The benchmark's workloads. Each one turns the benchmark seed into the
//! text of a sweep spec; the program under test only ever sees that text,
//! parsed by the same `SweepSpec::from_str` that `cloud-ckpt sweep` uses.
//! Grid shapes are fixed per workload, so every seed asks for the same
//! amount of work and only the random draws differ.

/// One benchmark workload.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    /// Fast-engine replay where nearly all time is the per-checkpoint loop.
    ReplayCkptHeavy,
    /// Sharded cluster DES on a large fleet under host failures.
    DesFleet,
    /// Analytic checkpoint-cost grid, crashed at half and resumed.
    GridCrashResume,
}

/// Problem size: `Full` is what the benchmark measures; `Tiny` keeps the
/// same grid shape at a size the benchmark's own tests can afford.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Scale {
    Full,
    Tiny,
}

impl Scale {
    pub fn name(self) -> &'static str {
        match self {
            Scale::Full => "full",
            Scale::Tiny => "tiny",
        }
    }

    pub fn from_name(s: &str) -> Option<Scale> {
        match s {
            "full" => Some(Scale::Full),
            "tiny" => Some(Scale::Tiny),
            _ => None,
        }
    }
}

/// The DES workload's shard count. Held constant (never `nproc`) because
/// the shard count is part of the replay's identity: simulated outputs
/// must not depend on the machine the benchmark runs on.
pub const DES_SHARDS: usize = 2;

/// SplitMix64 finalizer: neighbouring benchmark seeds map to unrelated
/// spec seeds.
fn mix(seed: u64) -> u64 {
    let mut z = seed.wrapping_add(0x9E37_79B9_7F4A_7C15);
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// The spec seed for a benchmark seed. Spec numbers parse as `f64`, so
/// the seed is kept below 2^53 to survive the round trip exactly.
pub fn spec_seed(seed: u64) -> u64 {
    mix(seed) >> 11
}

impl Workload {
    pub const ALL: [Workload; 3] = [
        Workload::ReplayCkptHeavy,
        Workload::DesFleet,
        Workload::GridCrashResume,
    ];

    pub fn name(self) -> &'static str {
        match self {
            Workload::ReplayCkptHeavy => "replay_ckpt_heavy",
            Workload::DesFleet => "des_fleet",
            Workload::GridCrashResume => "grid_crash_resume",
        }
    }

    pub fn from_name(s: &str) -> Option<Workload> {
        Workload::ALL.into_iter().find(|w| w.name() == s)
    }

    /// The sweep spec this workload runs for `seed`, as TOML text.
    pub fn spec_text(self, seed: u64, scale: Scale) -> String {
        let s = spec_seed(seed);
        match self {
            Workload::ReplayCkptHeavy => {
                // Few cost steps over many jobs rather than many steps over
                // few: the cost steps replay the same trace, so only more
                // jobs average out how much checkpointing a seed's trace
                // asks for (its spread across seeds falls as 1/sqrt(jobs)).
                let jobs = match scale {
                    Scale::Full => 6000,
                    Scale::Tiny => 40,
                };
                format!(
                    r#"[sweep]
name = "replay_ckpt_heavy"
engine = "fast"
seed = {s}
jobs = {jobs}
sample = "all"

[axes]
failure_model = ["exponential", "weibull", "pareto"]
policy = ["formula3", "young", "daly", "none"]
ckpt_cost_scale = {{ from = 0.25, to = 8.0, steps = 2, log = true }}
"#
                )
            }
            Workload::DesFleet => {
                let (jobs, hosts) = match scale {
                    Scale::Full => (15000, 128),
                    Scale::Tiny => (150, 8),
                };
                format!(
                    r#"[sweep]
name = "des_fleet"
engine = "cluster"
seed = {s}
jobs = {jobs}
sample = "all"
shards = {DES_SHARDS}

[workload]
long_task_fraction = 0.0
mean_interarrival_s = 2.0

[cluster]
n_hosts = {hosts}
vms_per_host = 8
host_mem_mb = 8192
host_mtbf_s = 7200

[axes]
policy = ["formula3", "none"]
"#
                )
            }
            Workload::GridCrashResume => {
                let (mem_steps, ckpt_steps) = match scale {
                    Scale::Full => (150, 100),
                    Scale::Tiny => (4, 5),
                };
                // The cost model has no randomness, so the seed picks the
                // memory range the grid spans instead.
                let lo = 1.0 + (s % 1000) as f64 / 100.0;
                let hi = 512.0 + ((s >> 10) % 1024) as f64;
                format!(
                    r#"[sweep]
name = "grid_crash_resume"
engine = "ckpt-cost"
seed = {s}

[axes]
device = ["ramdisk", "nfs"]
mem_mb = {{ from = {lo}, to = {hi}, steps = {mem_steps}, log = true }}
n_checkpoints = {{ from = 1, to = {ckpt_steps}, steps = {ckpt_steps} }}
"#
                )
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ckpt_scenario::SweepSpec;

    #[test]
    fn spec_text_is_deterministic_per_seed() {
        for w in Workload::ALL {
            for scale in [Scale::Full, Scale::Tiny] {
                assert_eq!(w.spec_text(7, scale), w.spec_text(7, scale));
                assert_ne!(w.spec_text(7, scale), w.spec_text(8, scale));
            }
        }
    }

    #[test]
    fn every_seed_asks_for_the_same_grid() {
        for w in Workload::ALL {
            let sizes: Vec<usize> = [1u64, 2, 3, 1000, u64::MAX]
                .iter()
                .map(|&seed| {
                    SweepSpec::from_str(&w.spec_text(seed, Scale::Full))
                        .expect("generated spec parses")
                        .grid_size()
                })
                .collect();
            assert!(sizes.windows(2).all(|p| p[0] == p[1]), "{w:?}: {sizes:?}");
        }
    }

    #[test]
    fn grid_sizes_match_the_documented_workloads() {
        let size = |w: Workload| {
            SweepSpec::from_str(&w.spec_text(1, Scale::Full))
                .unwrap()
                .grid_size()
        };
        assert_eq!(size(Workload::ReplayCkptHeavy), 24);
        assert_eq!(size(Workload::DesFleet), 2);
        assert_eq!(size(Workload::GridCrashResume), 30_000);
    }

    #[test]
    fn spec_seed_survives_the_f64_round_trip() {
        for seed in [0u64, 1, 42, u64::MAX] {
            let spec = SweepSpec::from_str(&Workload::ReplayCkptHeavy.spec_text(seed, Scale::Tiny))
                .unwrap();
            assert_eq!(spec.base.seed, spec_seed(seed));
        }
    }

    #[test]
    fn names_round_trip() {
        for w in Workload::ALL {
            assert_eq!(Workload::from_name(w.name()), Some(w));
        }
        assert_eq!(Workload::from_name("nope"), None);
    }
}
