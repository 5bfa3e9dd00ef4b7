//! `sampled-long`: long SMARTS-sampled runs through
//! `experiments::run_app_sampled` with 4 intervals on 2 threads — a cold
//! pass into a fresh checkpoint store, then a warm pass over the same
//! store reopened from disk. The two results must be bit-identical and
//! carry `spec.windows(scale)` windows.
//!
//! More than 99% of the instructions are functional fast-forward, so
//! this workload prices the warm path and the checkpoint codec that the
//! other two barely touch. The headline run is nf4; base and dn-perf run
//! shorter so every organization family has a warm-path figure.
//!
//! Stays on the program's fixed trace seed: the sampled runner takes no
//! seed, and its checkpoint digests are pinned to that one.

use crate::lifecycle::same_bits;
use crate::measure;
use crate::{Family, Report, Samples, Stat, THREADS};
use experiments::exps::kind_of;
use experiments::{run_app_sampled, CheckpointStore, RunOptions, SampleSpec, SampledRun, Scale};
use simtel::Telemetry;
use std::path::Path;
use std::time::{Duration, Instant};

/// Interval jobs per run.
pub const INTERVALS: u64 = 4;
/// The profile: mcf, the highest L2 load of the roster.
pub const PROFILE: &str = "mcf";
/// The headline run.
pub const LONG: Scale = Scale {
    warmup: 5_000_000,
    measure: 30_000_000,
};
/// The companion runs of the other families.
pub const SHORT: Scale = Scale {
    warmup: 5_000_000,
    measure: 10_000_000,
};
/// Every sampled run of a repetition: (configuration key, family, scale).
pub const RUNS: &[(&str, Family, Scale)] = &[
    ("nf4", Family::NuRapid, LONG),
    ("base", Family::Base, SHORT),
    ("dn-perf", Family::Nuca, SHORT),
];

/// Set-up repetitions.
const SETUP_REPS: usize = 15;

/// One sampled pass.
pub struct Pass {
    /// Host time of the pass.
    pub wall: Duration,
    /// Its result.
    pub run: SampledRun,
    /// Checkpoint-store hits and misses during the pass.
    pub hits: u64,
    /// See `hits`.
    pub misses: u64,
}

/// A cold and a warm pass of one configuration.
pub struct Pair {
    /// The pass into a fresh store.
    pub cold: Pass,
    /// The pass over the same store, reopened.
    pub warm: Pass,
    /// Bytes the cold pass wrote to the store.
    pub bytes_written: u64,
}

/// Runs `f` in this process's checkpoint directory, inside the
/// benchmark's directory of the checkout it runs in, and removes the
/// directory afterwards.
pub fn in_work_dir<T>(f: impl FnOnce(&Path) -> T) -> T {
    let dir = Path::new("ledgerbench")
        .join("work")
        .join(std::process::id().to_string());
    let out = f(&dir);
    let _ = std::fs::remove_dir_all(&dir);
    let _ = std::fs::remove_dir(dir.parent().expect("work dir has a parent"));
    out
}

fn one_pass(
    dir: &Path,
    key: &str,
    scale: Scale,
    wall: Option<&Telemetry>,
) -> std::io::Result<Pass> {
    let store = CheckpointStore::open(dir)?;
    let profile = workloads::profiles::by_name(PROFILE).expect("profile in the roster");
    let opts = RunOptions {
        checkpoints: Some(&store),
        wall,
        ..Default::default()
    };
    let start = Instant::now();
    let run = run_app_sampled(
        profile,
        &kind_of(key),
        scale,
        SampleSpec::for_scale(scale),
        INTERVALS,
        THREADS,
        opts,
    );
    Ok(Pass {
        wall: start.elapsed(),
        run,
        hits: store.hits(),
        misses: store.misses(),
    })
}

/// Runs the cold and the warm pass of `key` at `scale` in `dir`, which
/// is emptied first.
///
/// # Errors
///
/// Fails when the store directory cannot be reset or opened.
pub fn pair(
    dir: &Path,
    key: &str,
    scale: Scale,
    wall: Option<&Telemetry>,
) -> std::io::Result<Pair> {
    if dir.exists() {
        std::fs::remove_dir_all(dir)?;
    }
    let cold = one_pass(dir, key, scale, wall)?;
    let mut bytes_written = 0;
    for entry in std::fs::read_dir(dir)? {
        bytes_written += entry?.metadata()?.len();
    }
    let warm = one_pass(dir, key, scale, wall)?;
    Ok(Pair {
        cold,
        warm,
        bytes_written,
    })
}

/// How many of a pair's two passes fail: a pass fails when its window
/// count is not `spec.windows(scale)` or its result is not bit-identical
/// to `reference` (the run's first cold pass of the configuration).
pub fn failed_passes(reference: &SampledRun, pair: &Pair, windows: u64) -> u64 {
    [&pair.cold.run, &pair.warm.run]
        .into_iter()
        .filter(|r| r.windows.len() as u64 != windows || !same_bits(*r, reference))
        .count() as u64
}

/// Set-up: a fresh store directory and one quick-scale run on each
/// organization.
fn setup(dir: &Path) -> std::io::Result<()> {
    if dir.exists() {
        std::fs::remove_dir_all(dir)?;
    }
    std::fs::create_dir_all(dir)?;
    let keys: Vec<&str> = RUNS.iter().map(|r| r.0).collect();
    crate::lifecycle::warm_up(&keys);
    Ok(())
}

/// L2 accesses a pass stands for: its estimated accesses per
/// instruction times the instructions of the measured phase.
fn represented_accesses(run: &SampledRun) -> f64 {
    run.run.apki() / 1000.0 * run.total_instructions as f64
}

/// The `sampled-long` workload.
pub fn run(budget: Duration) -> Result<Report, String> {
    in_work_dir(|dir| run_in(dir, budget))
}

fn run_in(dir: &Path, budget: Duration) -> Result<Report, String> {
    let io = |e: std::io::Error| format!("checkpoint directory {}: {e}", dir.display());
    let (res, setup_s) = measure::median_setup(SETUP_REPS, || setup(dir));
    res.map_err(io)?;
    let mut out = Samples::default();
    let mut references: Vec<SampledRun> = Vec::new();
    let mut counters: Option<Vec<[u64; 5]>> = None;
    measure::repeat_for(budget, 1, || {
        let start = Instant::now();
        let pairs = RUNS
            .iter()
            .map(|&(key, _, scale)| pair(dir, key, scale, None))
            .collect::<Result<Vec<_>, _>>()
            .map_err(io)?;
        let wall = start.elapsed().as_secs_f64();
        let mut instructions = 0;
        let mut seen = Vec::new();
        for (i, (p, &(_, family, scale))) in pairs.iter().zip(RUNS).enumerate() {
            if references.len() == i {
                references.push(p.cold.run.clone());
            }
            let windows = SampleSpec::for_scale(scale).windows(scale);
            out.attempted += 2;
            out.failed += failed_passes(&references[i], p, windows);
            seen.push([
                p.cold.hits,
                p.cold.misses,
                p.warm.hits,
                p.warm.misses,
                p.bytes_written,
            ]);
            out.job(i, (p.cold.wall + p.warm.wall).as_secs_f64());
            for (j, pass) in [&p.cold, &p.warm].into_iter().enumerate() {
                let seconds = pass.wall.as_secs_f64();
                instructions += scale.warmup + scale.measure;
                out.served(2 * i + j, family, represented_accesses(&pass.run), seconds);
            }
        }
        match &counters {
            Some(c) if *c != seen => out.problem("checkpoint counters changed between repetitions"),
            Some(_) => {}
            None => counters = Some(seen),
        }
        out.rep(wall, instructions as f64);
        Ok::<(), String>(())
    })?;
    out.report(Stat::Median, setup_s)
}

#[cfg(test)]
mod tests {
    use super::*;

    const TINY: Scale = Scale {
        warmup: 20_000,
        measure: 100_000,
    };

    fn tiny_pair(name: &str) -> Pair {
        let dir = Path::new(env!("CARGO_MANIFEST_DIR"))
            .join("work")
            .join(name);
        let p = pair(&dir, "nf4", TINY, None).expect("store directory");
        let _ = std::fs::remove_dir_all(&dir);
        let _ = std::fs::remove_dir(dir.parent().expect("work dir has a parent"));
        p
    }

    fn windows() -> u64 {
        SampleSpec::for_scale(TINY).windows(TINY)
    }

    #[test]
    fn cold_and_warm_passes_agree_and_hit_the_store() {
        let p = tiny_pair("agree");
        assert_eq!(failed_passes(&p.cold.run, &p, windows()), 0);
        assert_eq!((p.cold.hits, p.warm.misses), (0, 0));
        assert_eq!(p.warm.hits, p.cold.misses);
        assert!(p.bytes_written > 0);
    }

    #[test]
    fn a_corrupted_pass_counts_as_one_failed_pass() {
        let mut p = tiny_pair("corrupt");
        let reference = p.cold.run.clone();
        p.warm.run.run.core.cycles += 1;
        assert_eq!(failed_passes(&reference, &p, windows()), 1);
        let mut p = tiny_pair("windows");
        p.cold.run.windows.pop();
        assert_eq!(failed_passes(&reference, &p, windows()), 1);
    }
}
