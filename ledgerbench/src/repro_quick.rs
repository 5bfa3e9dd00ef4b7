//! `repro-quick`: the in-process equivalent of `repro --quick` — every
//! experiment, CMP included — on a 2-thread `Sweep` with no artifact or
//! checkpoint store, compared section by section with the golden report.
//!
//! Stays on the program's fixed trace seed: the golden report is pinned
//! to it, so the benchmark's seed does not reach this workload.

use crate::{lifecycle, measure};
use crate::{Family, Report, Samples, Stat, THREADS};
use experiments::cmp::{CMP_CORES, CMP_KEYS};
use experiments::exps::Sweep;
use experiments::repro::{prewarm_keys, resolve_ids, EXPERIMENTS};
use experiments::Scale;
use simsched::{EventKind, Outcome};
use std::sync::{Arc, Mutex};
use std::time::{Duration, Instant};
use workloads::ROSTER;

/// The pinned `repro --quick` report.
pub const GOLDEN: &str = include_str!("../../tests/golden/repro_quick.txt");

/// Set-up repetitions.
const SETUP_REPS: usize = 5;

/// Splits a report into its experiment sections: the renderer ends every
/// experiment with a blank line, and no experiment contains one.
pub fn sections(report: &str) -> Vec<&str> {
    report.split_inclusive("\n\n").collect()
}

/// How many of the `expected` sections of `rendered` differ from
/// `golden`'s. A section count that differs fails at least one section.
pub fn failed_sections(rendered: &str, golden: &str, expected: usize) -> u64 {
    let (r, g) = (sections(rendered), sections(golden));
    let failed = (0..expected)
        .filter(|&i| r.get(i).is_none() || r.get(i) != g.get(i))
        .count();
    if failed == 0 && (r.len() != expected || g.len() != expected) {
        1
    } else {
        failed as u64
    }
}

/// One simulated sweep job, as the progress observer saw it finish.
#[derive(Debug, Clone)]
pub struct Job {
    /// `config/app` or `cmpNx/config`.
    pub label: String,
    /// When the job finished.
    pub end: Instant,
    /// Its host time on the worker.
    pub wall: Duration,
}

/// One rendering of the report.
pub struct Rep {
    /// Start of the rendering.
    pub start: Instant,
    /// Host time of the rendering.
    pub wall: Duration,
    /// Every simulated job.
    pub jobs: Vec<Job>,
    /// The rendered report.
    pub report: String,
    /// The sweep, with every run in its store.
    pub sweep: Sweep,
}

/// The family a configuration key belongs to.
pub fn family(key: &str) -> Family {
    match key {
        "base" => Family::Base,
        k if k.starts_with("dn-") || k == "cnuca" => Family::Nuca,
        _ => Family::NuRapid,
    }
}

/// Set-up: one quick-scale run on every organization the report
/// simulates, and the sweep.
fn setup() -> Sweep {
    // The CMP keys are a subset of the single-core ones.
    lifecycle::warm_up(&prewarm_keys(&resolve_ids("all").expect("'all' resolves")));
    sweep()
}

fn sweep() -> Sweep {
    Sweep::new(Scale::quick()).with_threads(THREADS)
}

/// Renders the report once. `slowdown` stretches every simulated job by
/// that fraction of its own host time, inside the worker (the
/// sensitivity proof; 0 in normal runs).
pub fn rep(slowdown: f64) -> Rep {
    let jobs = Arc::new(Mutex::new(Vec::new()));
    let sink = Arc::clone(&jobs);
    let sweep = sweep().with_observer(Arc::new(move |e: &simsched::Event| {
        if let EventKind::Finished {
            outcome: Outcome::Simulated,
            wall_ns,
        } = e.kind
        {
            let wall = Duration::from_nanos(wall_ns);
            sink.lock().expect("observer lock").push(Job {
                label: e.label.clone(),
                end: Instant::now(),
                wall,
            });
            measure::inject(slowdown, wall);
        }
    }));
    let start = Instant::now();
    let report = experiments::repro::render_report(&sweep);
    let wall = start.elapsed();
    let jobs = std::mem::take(&mut *jobs.lock().expect("observer lock"));
    Rep {
        start,
        wall,
        jobs,
        report,
        sweep,
    }
}

/// What the rendered runs simulated, per job label: instructions
/// (warm-up included) and measured-phase L2 accesses.
pub fn job_work(sweep: &Sweep) -> Vec<(String, u64, u64)> {
    let scale = Scale::quick();
    let mut out = Vec::new();
    let ids = resolve_ids("all").expect("'all' resolves");
    for key in prewarm_keys(&ids) {
        for app in ROSTER {
            let r = sweep.run(app, key);
            out.push((
                format!("{key}/{}", app.name),
                scale.warmup + r.core.instructions,
                r.l2_accesses,
            ));
        }
    }
    for &cores in CMP_CORES {
        for &key in CMP_KEYS {
            let r = sweep.run_cmp(cores, key);
            let measured: u64 = r.result.per_core.iter().map(|c| c.instructions).sum();
            let warm = u64::from(cores) * (scale.warmup / u64::from(cores)).max(1);
            out.push((
                format!("cmp{cores}x/{key}"),
                warm + measured,
                r.result.report.l2_accesses,
            ));
        }
    }
    out
}

/// The configuration key of a job label.
pub fn label_key(label: &str) -> &str {
    match label.split_once('/') {
        Some((k, _)) if !k.starts_with("cmp") => k,
        Some((_, k)) => k,
        None => label,
    }
}

/// The `repro-quick` workload.
pub fn run(budget: Duration, slowdown: f64) -> Result<Report, String> {
    let (_, setup_s) = measure::median_setup(SETUP_REPS, setup);
    let mut out = Samples::default();
    let mut counts: Option<Vec<(String, u64, u64)>> = None;
    measure::repeat_for(budget, 1, || {
        let r = rep(slowdown);
        out.attempted += EXPERIMENTS.len() as u64;
        out.failed += failed_sections(&r.report, GOLDEN, EXPERIMENTS.len());
        let work = job_work(&r.sweep);
        if r.jobs.len() != work.len() {
            out.problem(format!(
                "{} jobs simulated, {} expected",
                r.jobs.len(),
                work.len()
            ));
        }
        match &counts {
            Some(c) if *c != work => out.problem("work counters changed between renderings"),
            Some(_) => {}
            None => counts = Some(work.clone()),
        }
        for (i, (label, _, l2)) in work.iter().enumerate() {
            let wall = r.jobs.iter().find(|j| j.label == *label).map(|j| j.wall);
            let seconds = wall.unwrap_or_default().as_secs_f64();
            out.job(i, seconds);
            out.served(i, family(label_key(label)), *l2 as f64, seconds);
        }
        let instructions: u64 = work.iter().map(|w| w.1).sum();
        out.rep(r.wall.as_secs_f64(), instructions as f64);
        Ok::<(), String>(())
    })?;
    out.report(Stat::Median, setup_s)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn golden_splits_into_one_section_per_experiment() {
        assert_eq!(sections(GOLDEN).len(), EXPERIMENTS.len());
        assert_eq!(failed_sections(GOLDEN, GOLDEN, EXPERIMENTS.len()), 0);
    }

    #[test]
    fn a_corrupted_golden_byte_fails_exactly_its_section() {
        let at = GOLDEN.find("Figure 7").expect("fig7 section") + 3;
        let mut bytes = GOLDEN.as_bytes().to_vec();
        bytes[at] ^= 0x01;
        let corrupt = String::from_utf8(bytes).expect("still ASCII");
        assert_eq!(failed_sections(GOLDEN, &corrupt, EXPERIMENTS.len()), 1);
    }

    #[test]
    fn a_missing_or_extra_section_fails() {
        let n = EXPERIMENTS.len();
        let short = &GOLDEN[..GOLDEN.len() - sections(GOLDEN)[n - 1].len()];
        assert_eq!(failed_sections(short, GOLDEN, n), 1);
        let long = format!("{GOLDEN}extra\n\n");
        assert_eq!(failed_sections(&long, GOLDEN, n), 1);
    }

    #[test]
    fn labels_map_to_keys_and_families() {
        assert_eq!(label_key("nf4/mcf"), "nf4");
        assert_eq!(label_key("cmp8x/dn-perf"), "dn-perf");
        assert_eq!(family("lru-dm"), Family::NuRapid);
        assert_eq!(family("cnuca"), Family::Nuca);
        assert_eq!(family("base"), Family::Base);
    }
}
