//! The repository's benchmark: three closed-loop batch workloads driven
//! from one process through the simulator's public entry points, each
//! checking its own outputs, plus a traced run that adds up the cost of
//! every layer into a ledger. See `METRICS.md` for every metric.
//!
//! ```text
//! ledgerbench --workload <repro-quick|org-replay|sampled-long> --seed <n>
//!             --seconds <s> --trace <0|1> [--inject-slowdown <fraction>]
//! ```
//!
//! The last line of standard output is one JSON object:
//! `{"correct", "attempted", "failed", "metrics"}`. With `--trace 0` the
//! metrics are the end-to-end ones, measured untraced; with `--trace 1`
//! they are the per-layer ledger. `--inject-slowdown` stretches the
//! benchmark's own shims by that fraction, to show the bounds catch it.

mod ledger;
mod lifecycle;
mod measure;
mod org_replay;
mod repro_quick;
mod sampled_long;

use std::process::ExitCode;
use std::time::Duration;

/// Threads every workload runs on: the reference machine's two cores.
pub const THREADS: usize = 2;

/// The organization families the per-crate throughput splits cover.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Family {
    /// The `nurapid` crate: nf*, sa4 and the policy variants.
    NuRapid,
    /// The `nuca` crate: D-NUCA and compressed NUCA.
    Nuca,
    /// The conventional L2/L3 hierarchy of `memsys`.
    Base,
    /// nf4 over the L4 DRAM cache: counted only in the overall rate.
    Dram,
}

/// One reported metric.
pub struct Metric {
    name: String,
    value: f64,
    unit: &'static str,
}

impl Metric {
    /// A metric named `name`.
    pub fn new(name: impl Into<String>, value: f64, unit: &'static str) -> Self {
        Metric {
            name: name.into(),
            value,
            unit,
        }
    }
}

/// What a run produced: operations attempted and failed, problems that
/// are not single operations (counters that did not repeat, a ledger
/// that did not close), and the metrics.
pub struct Report {
    /// Operations attempted.
    pub attempted: u64,
    /// Operations whose output check failed.
    pub failed: u64,
    /// Failed whole-run checks.
    pub problems: Vec<String>,
    /// The metrics, in output order.
    pub metrics: Vec<Metric>,
    /// Host seconds of each timed repetition, in run order.
    pub reps: Vec<f64>,
}

/// How a run reduces the host times it saw of one piece of work.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Stat {
    /// The median: for work a run repeats a few times.
    Median,
    /// The best (shortest), for work a run repeats hundreds of times,
    /// one piece after another on one thread: a repetition's wall is
    /// then the sum of its pieces' best. The reference machine shares
    /// each core with other tenants, who slow it by about 1.6× for
    /// seconds at a time and for most of a run. Once work is timed in
    /// pieces far shorter than those spells, every piece is seen alone
    /// several times a run, and the sum of the pieces' best times stays
    /// put while the share of time spent beside a busy neighbour — and
    /// with it any median — wanders.
    Best,
}

impl Stat {
    fn of(self, values: &[f64]) -> f64 {
        match self {
            Stat::Median => measure::median(values),
            Stat::Best => measure::quantile(values, 0.0),
        }
    }
}

/// One unit of work that serves L2 accesses — a job, a replayed chunk
/// or a sampled pass — with the host times the run saw for it.
struct Served {
    family: Family,
    accesses: f64,
    seconds: Vec<f64>,
}

/// Appends `x` to `slots[i]`.
fn record(slots: &mut Vec<Vec<f64>>, i: usize, x: f64) {
    if slots.len() <= i {
        slots.resize_with(i + 1, Vec::new);
    }
    slots[i].push(x);
}

/// The samples every workload collects; [`Samples::report`] reduces them
/// to the end-to-end metrics with one [`Stat`]: first every piece of
/// work's times, then the pieces.
#[derive(Default)]
pub struct Samples {
    /// Operations attempted.
    pub attempted: u64,
    /// Operations that failed their check.
    pub failed: u64,
    /// Failed whole-run checks.
    pub problems: Vec<String>,
    /// Host seconds of each repetition's fixed work, in run order.
    walls: Vec<f64>,
    /// Simulated instructions of one repetition.
    instructions: f64,
    /// Host seconds of each job, by its position in a repetition.
    jobs: Vec<Vec<f64>>,
    /// Each access-serving unit, by its position in a repetition.
    served: Vec<Served>,
}

impl Samples {
    /// Records one repetition's wall time and simulated instructions.
    pub fn rep(&mut self, wall: f64, instructions: f64) {
        self.walls.push(wall);
        self.instructions = instructions;
    }

    /// Records that job `i` of a repetition took `seconds`.
    pub fn job(&mut self, i: usize, seconds: f64) {
        record(&mut self.jobs, i, seconds);
    }

    /// Records that unit `i` of a repetition served `accesses` L2
    /// accesses of an organization of `family` in `seconds`.
    pub fn served(&mut self, i: usize, family: Family, accesses: f64, seconds: f64) {
        if self.served.len() <= i {
            self.served.resize_with(i + 1, || Served {
                family,
                accesses,
                seconds: Vec::new(),
            });
        }
        self.served[i].seconds.push(seconds);
    }

    /// Million accesses per host second over the units `pick` selects.
    fn rate(&self, stat: Stat, pick: impl Fn(Family) -> bool) -> f64 {
        let (n, s) = self
            .served
            .iter()
            .filter(|u| pick(u.family))
            .fold((0.0, 0.0), |(n, s), u| {
                (n + u.accesses, s + stat.of(&u.seconds))
            });
        n / f64::max(s, f64::MIN_POSITIVE) / 1e6
    }

    /// Records a whole-run check that failed.
    pub fn problem(&mut self, p: impl Into<String>) {
        let p = p.into();
        if !self.problems.contains(&p) {
            self.problems.push(p);
        }
    }

    /// The end-to-end report, reduced with `stat`, with the median
    /// set-up time `setup_s`.
    ///
    /// # Errors
    ///
    /// Fails when peak memory cannot be read.
    pub fn report(self, stat: Stat, setup_s: f64) -> Result<Report, String> {
        let jobs: Vec<f64> = self.jobs.iter().map(|j| stat.of(j)).collect();
        let wall = match stat {
            Stat::Median => measure::median(&self.walls),
            Stat::Best => jobs.iter().sum(),
        };
        let family = |f: Family| move |g: Family| g == f;
        let metrics = vec![
            Metric::new("wall_s", wall, "s"),
            Metric::new("setup_s", setup_s, "s"),
            Metric::new("peak_rss_mb", measure::peak_rss_mb()?, "MB"),
            Metric::new("sim_mips", self.instructions / wall / 1e6, "Minst/s"),
            Metric::new("run_p50_ms", measure::quantile(&jobs, 0.5) * 1e3, "ms"),
            Metric::new("run_p95_ms", measure::quantile(&jobs, 0.95) * 1e3, "ms"),
            Metric::new("l2_maccess_per_s", self.rate(stat, |_| true), "Maccess/s"),
            Metric::new(
                "nurapid_maccess_per_s",
                self.rate(stat, family(Family::NuRapid)),
                "Maccess/s",
            ),
            Metric::new(
                "nuca_maccess_per_s",
                self.rate(stat, family(Family::Nuca)),
                "Maccess/s",
            ),
            Metric::new(
                "base_maccess_per_s",
                self.rate(stat, family(Family::Base)),
                "Maccess/s",
            ),
        ];
        Ok(Report {
            attempted: self.attempted,
            failed: self.failed,
            problems: self.problems,
            metrics,
            reps: self.walls,
        })
    }
}

impl Report {
    /// The result line.
    fn json(&self) -> String {
        let metrics: Vec<String> = self
            .metrics
            .iter()
            .map(|m| {
                format!(
                    "\"{}\": {{\"value\": {}, \"unit\": \"{}\"}}",
                    m.name,
                    json_number(m.value),
                    m.unit
                )
            })
            .collect();
        format!(
            "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
            self.failed == 0 && self.problems.is_empty(),
            self.attempted,
            self.failed,
            metrics.join(", ")
        )
    }
}

/// A JSON number with every digit of `v` (non-finite values, which JSON
/// cannot hold, print as 0).
fn json_number(v: f64) -> String {
    if v.is_finite() {
        format!("{v:?}")
    } else {
        "0".to_string()
    }
}

/// The workloads, by name.
pub const WORKLOADS: &[&str] = &["repro-quick", "org-replay", "sampled-long"];

struct Args {
    workload: &'static str,
    seed: u64,
    seconds: u64,
    trace: bool,
    slowdown: f64,
}

fn parse(mut argv: impl Iterator<Item = String>) -> Result<Args, String> {
    let (mut workload, mut seed, mut seconds, mut trace, mut slowdown) =
        (None, None, None, None, 0.0);
    while let Some(flag) = argv.next() {
        let value = argv.next().ok_or_else(|| format!("{flag} needs a value"))?;
        let bad = |what: &str| format!("{flag}: {what}, got {value:?}");
        match flag.as_str() {
            "--workload" => {
                workload = Some(
                    *WORKLOADS
                        .iter()
                        .find(|w| **w == value)
                        .ok_or_else(|| bad(&format!("one of {}", WORKLOADS.join(", "))))?,
                )
            }
            "--seed" => seed = Some(value.parse().map_err(|_| bad("an unsigned integer"))?),
            "--seconds" => {
                seconds = Some(
                    value
                        .parse()
                        .ok()
                        .filter(|s| (1..=3600).contains(s))
                        .ok_or_else(|| bad("whole seconds in 1..=3600"))?,
                )
            }
            "--trace" => {
                trace = Some(match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(bad("0 or 1")),
                })
            }
            "--inject-slowdown" => {
                slowdown = value
                    .parse()
                    .ok()
                    .filter(|f| (0.0..=10.0).contains(f))
                    .ok_or_else(|| bad("a fraction in 0..=10"))?
            }
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    let workload = workload.ok_or("--workload is required")?;
    let trace = trace.ok_or("--trace is required")?;
    if slowdown > 0.0 && (trace || workload == "sampled-long") {
        return Err("--inject-slowdown applies to untraced repro-quick and org-replay only".into());
    }
    Ok(Args {
        workload,
        seed: seed.ok_or("--seed is required")?,
        seconds: seconds.ok_or("--seconds is required")?,
        trace,
        slowdown,
    })
}

fn main() -> ExitCode {
    let args = match parse(std::env::args().skip(1)) {
        Ok(a) => a,
        Err(e) => {
            eprintln!("ledgerbench: {e}");
            return ExitCode::from(2);
        }
    };
    let budget = Duration::from_secs(args.seconds);
    let report = if args.trace {
        ledger::run(args.seed, budget)
    } else {
        match args.workload {
            "repro-quick" => repro_quick::run(budget, args.slowdown),
            "org-replay" => org_replay::run(args.seed, budget, args.slowdown),
            _ => sampled_long::run(budget),
        }
    };
    match report {
        Ok(r) => {
            for p in &r.problems {
                eprintln!("ledgerbench: check failed: {p}");
            }
            if !r.reps.is_empty() {
                let q = |p| measure::quantile(&r.reps, p);
                eprintln!(
                    "{} repetitions: min {:.4} s, median {:.4} s, max {:.4} s",
                    r.reps.len(),
                    q(0.0),
                    q(0.5),
                    q(1.0)
                );
            }
            for m in &r.metrics {
                eprintln!("{:<48} {:>14.4} {}", m.name, m.value, m.unit);
            }
            println!("{}", r.json());
            ExitCode::SUCCESS
        }
        Err(e) => {
            eprintln!("ledgerbench: {e}");
            ExitCode::FAILURE
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn samples() -> Samples {
        let mut s = Samples::default();
        for (wall, a, b) in [(3.0, 1.0, 4.0), (1.0, 2.0, 2.0), (2.0, 3.0, 3.0)] {
            s.rep(wall, 2e6);
            s.job(0, a);
            s.job(1, b);
            s.served(0, Family::Base, 1e6, a);
            s.served(1, Family::Nuca, 1e6, b);
        }
        s
    }

    fn metric(r: &Report, name: &str) -> f64 {
        r.metrics
            .iter()
            .find(|m| m.name == name)
            .expect("metric")
            .value
    }

    #[test]
    fn every_piece_of_work_is_reduced_before_the_pieces_are_summed() {
        let best = samples().report(Stat::Best, 0.5).expect("report");
        assert_eq!(metric(&best, "wall_s"), 3.0);
        assert_eq!(metric(&best, "l2_maccess_per_s"), 2.0 / 3.0);
        assert_eq!(metric(&best, "nuca_maccess_per_s"), 0.5);
        let median = samples().report(Stat::Median, 0.5).expect("report");
        assert_eq!(metric(&median, "wall_s"), 2.0);
        assert_eq!(metric(&median, "l2_maccess_per_s"), 2.0 / 5.0);
        assert_eq!(metric(&median, "run_p50_ms"), 2500.0);
    }
}
