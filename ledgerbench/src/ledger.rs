//! The traced run: per-layer costs and work counters, added up into a
//! ledger. It runs apart from the end-to-end runs, which stay untraced.
//!
//! Four legs, each through the same entry points as a workload:
//!
//! 1. The tracer re-runs a representative subset of the
//!    repro-quick pairs through [`crate::lifecycle`], timing the trace
//!    generator as it fills a buffer of [`BATCH`] ops,
//!    `OooCore::execute`/`warm_execute` over each buffer, and a timing
//!    shim around every organization access.
//!    Each pair's result must equal `run_app_opts` bit for bit, and the
//!    layers plus glue must add up to the untraced wall of the same pairs
//!    within [`CLOSURE_TOLERANCE`]. The untraced runs also feed the
//!    program's own wall channel (`warmup-ff`, `measure`).
//! 2. org-replay's capture and replay passes, for per-organization
//!    replay cost and counters. Replay passes fill the run's budget.
//! 3. One sampled-long pair of nf4, with the wall channel's
//!    `sample-prefix`/`sample-measure` spans and the checkpoint counters.
//! 4. One repro-quick rendering, for simsched's busy and tail time and
//!    the CMP jobs.

use crate::lifecycle::{self, Core, OrgSpans, Shim};
use crate::measure::{self, Ticks};
use crate::org_replay::{self, ORGS};
use crate::repro_quick;
use crate::sampled_long;
use crate::{Metric, Report, THREADS};
use cpu::uop::TraceSource;
use experiments::runner::{run_app_opts, TRACE_SEED};
use experiments::{AppRun, RunOptions, Scale};
use simtel::{Telemetry, TelemetrySink};
use std::rc::Rc;
use std::time::{Duration, Instant};
use workloads::TraceGenerator;

/// Profiles of the traced pairs: mcf and equake, heavy L2 loads, and
/// wupwise, the lightest, so the memory-bound and the core-bound ends are
/// both in.
pub const PAIR_PROFILES: &[&str] = &["mcf", "equake", "wupwise"];

/// Ops per traced batch: the generator fills a buffer of this many ops,
/// then the core executes them, so two clock reads bracket each layer's
/// share of a batch. The generator's output does not depend on the
/// core, so batching leaves every result unchanged.
pub const BATCH: usize = 256;

/// Largest share of the untraced wall the ledger may leave unattributed.
pub const CLOSURE_TOLERANCE: f64 = 0.15;

/// Generator and core-self ticks of one phase.
#[derive(Debug, Default, Clone, Copy)]
struct Phase {
    ops: u64,
    gen: u64,
    exec_self: u64,
}

fn op_loop(
    core: &mut Core,
    gen: &mut TraceGenerator,
    n: u64,
    warm: bool,
    clock: &Ticks,
    org: &OrgSpans,
    ph: &mut Phase,
) {
    let o = clock.overhead;
    let (calls, ticks) = if warm {
        (&org.warm_calls, &org.warm_ticks)
    } else {
        (&org.calls, &org.ticks)
    };
    let mut batch = Vec::with_capacity(BATCH);
    let mut left = n;
    while left > 0 {
        let k = left.min(BATCH as u64);
        let t0 = clock.now();
        batch.clear();
        batch.extend((0..k).map(|_| gen.next_op()));
        let t1 = clock.now();
        let (c0, k0) = (calls.get(), ticks.get());
        for &op in &batch {
            if warm {
                core.warm_execute(op);
            } else {
                core.execute(op);
            }
        }
        let t2 = clock.now();
        // An access span nested in the core span adds its own ticks plus
        // its two clock reads; each span adds one read of its own.
        let nested = ticks.get() - k0 + 2 * o * (calls.get() - c0);
        ph.gen += (t1 - t0).saturating_sub(o);
        ph.exec_self += (t2 - t1).saturating_sub(o + nested);
        left -= k;
    }
    ph.ops += n;
}

/// One pair through the tracer and through the runner.
struct PairTrace {
    app: &'static str,
    key: &'static str,
    reference: AppRun,
    same: bool,
    untraced: f64,
    traced: f64,
    glue: f64,
    warm: Phase,
    meas: Phase,
    org: OrgSpans,
    d_hits: u64,
    d_accesses: u64,
    payload: u64,
    encode: f64,
    decode: f64,
}

/// Names of [`PairTrace::layers`], in order.
const LAYERS: [&str; 6] = ["gen", "core", "core-warm", "org", "org-warm", "glue"];

impl PairTrace {
    /// Host seconds per layer, in [`LAYERS`] order.
    fn layers(&self, clock: &Ticks) -> [f64; 6] {
        let s = |t: u64| clock.ns(t) * 1e-9;
        [
            s(self.warm.gen + self.meas.gen),
            s(self.meas.exec_self),
            s(self.warm.exec_self),
            s(self.org.ticks.get()),
            s(self.org.warm_ticks.get()),
            self.glue,
        ]
    }
}

/// Each layer's share of an untraced wall, for the human-readable log.
fn shares(layers: &[f64; 6], untraced: f64) -> String {
    let parts: Vec<String> = LAYERS
        .iter()
        .zip(layers)
        .map(|(n, t)| format!("{n} {:.1}%", 100.0 * t / untraced))
        .collect();
    parts.join(", ")
}

fn trace_pair(app: &'static str, key: &'static str, clock: &Ticks, tel: &Telemetry) -> PairTrace {
    let profile = workloads::profiles::by_name(app).expect("profile in the roster");
    let kind = lifecycle::org_kind(key);
    let scale = Scale::quick();
    let opts = RunOptions {
        wall: Some(tel),
        ..Default::default()
    };
    let t = Instant::now();
    let reference = run_app_opts(profile, &kind, scale, &TelemetrySink::disabled(), 0, opts);
    let untraced = t.elapsed().as_secs_f64();

    let spans = Rc::new(OrgSpans::default());
    let (mut warm, mut meas) = (Phase::default(), Phase::default());
    let t = Instant::now();
    let (mut core, mut gen) = lifecycle::build(
        profile,
        TRACE_SEED,
        Shim::timing(kind.build(), *clock, Rc::clone(&spans)),
    );
    let mut glue = t.elapsed().as_secs_f64();
    let t = Instant::now();
    op_loop(
        &mut core,
        &mut gen,
        scale.warmup,
        true,
        clock,
        &spans,
        &mut warm,
    );
    let mut traced = t.elapsed().as_secs_f64();

    // The checkpoint codec, off the traced clock: the payload the
    // runner's store would encode at this point, decoded into a fresh
    // system.
    let t = Instant::now();
    let blob = lifecycle::encode(&core, &gen);
    let encode = t.elapsed().as_secs_f64();
    let (mut twin, mut twin_gen) = lifecycle::build(profile, TRACE_SEED, kind.build());
    let t = Instant::now();
    let decoded = lifecycle::decode(&blob, &mut twin, &mut twin_gen);
    let decode = t.elapsed().as_secs_f64();
    drop((twin, twin_gen));

    let t = Instant::now();
    let mut core = lifecycle::barrier(core);
    glue += t.elapsed().as_secs_f64();
    let t = Instant::now();
    op_loop(
        &mut core,
        &mut gen,
        scale.measure,
        false,
        clock,
        &spans,
        &mut meas,
    );
    traced += t.elapsed().as_secs_f64();
    let t = Instant::now();
    let run = lifecycle::app_run(profile.name, &core);
    glue += t.elapsed().as_secs_f64();
    traced += glue;

    let (d_hits, d_accesses) = (core.mem().d_hits(), core.mem().d_accesses());
    drop(core);
    PairTrace {
        app,
        key,
        same: decoded.is_ok() && lifecycle::same_bits(&run, &reference),
        reference,
        untraced,
        traced,
        glue,
        warm,
        meas,
        org: Rc::try_unwrap(spans).expect("the core is gone"),
        d_hits,
        d_accesses,
        payload: blob.len() as u64,
        encode,
        decode,
    }
}

/// Busy and partly idle time of the sweep's workers over a rendering:
/// (Σ job time, time during which some but not all workers ran a job).
fn worker_time(rep: &repro_quick::Rep) -> (f64, f64) {
    let mut edges: Vec<(f64, i32)> = Vec::new();
    for j in &rep.jobs {
        let end = j.end.duration_since(rep.start).as_secs_f64();
        edges.push((end - j.wall.as_secs_f64(), 1));
        edges.push((end, -1));
    }
    edges.sort_by(|a, b| a.0.total_cmp(&b.0).then(a.1.cmp(&b.1)));
    let (mut running, mut last, mut tail) = (0i32, 0.0, 0.0);
    for (t, d) in edges {
        if running > 0 && running < THREADS as i32 {
            tail += t - last;
        }
        running += d;
        last = t;
    }
    let busy = rep.jobs.iter().map(|j| j.wall.as_secs_f64()).sum();
    (busy, tail)
}

fn ratio(a: f64, b: f64) -> f64 {
    a / b.max(f64::MIN_POSITIVE)
}

/// The traced run.
pub fn run(seed: u64, budget: Duration) -> Result<Report, String> {
    let start = Instant::now();
    let clock = Ticks::calibrate();
    let mut m: Vec<Metric> = Vec::new();
    let mut problems = Vec::new();
    let (mut attempted, mut failed) = (0u64, 0u64);

    // Leg 1: the tracer.
    let tel = Telemetry::with_params(1, 0);
    let mut pairs = Vec::new();
    for app in PAIR_PROFILES {
        for &(key, _, _) in ORGS {
            pairs.push(trace_pair(app, key, &clock, &tel));
        }
    }
    attempted += pairs.len() as u64;
    failed += pairs.iter().filter(|p| !p.same).count() as u64;
    let sum = |f: &dyn Fn(&PairTrace) -> f64| pairs.iter().map(f).sum::<f64>();
    let warm_ops = sum(&|p| p.warm.ops as f64);
    let meas_ops = sum(&|p| p.meas.ops as f64);
    let mut layers = [0.0; 6];
    for p in &pairs {
        let l = p.layers(&clock);
        eprintln!(
            "{}/{}: untraced {:.1} ms = {}",
            p.app,
            p.key,
            p.untraced * 1e3,
            shares(&l, p.untraced)
        );
        for (acc, t) in layers.iter_mut().zip(l) {
            *acc += t;
        }
    }
    let [gen_s, exec_s, warm_exec_s, _, _, _] = layers;
    let untraced = sum(&|p| p.untraced);
    let traced = sum(&|p| p.traced);
    let unattributed = (untraced - layers.iter().sum::<f64>()) / untraced;
    eprintln!(
        "all pairs: untraced {:.3} s = {}",
        untraced,
        shares(&layers, untraced)
    );
    if unattributed.abs() > CLOSURE_TOLERANCE {
        problems.push(format!(
            "ledger does not close: {:.1}% of the untraced wall unattributed (tolerance {:.0}%)",
            100.0 * unattributed,
            100.0 * CLOSURE_TOLERANCE
        ));
    }
    let instructions = sum(&|p| p.reference.core.instructions as f64);
    m.push(Metric::new(
        "workloads.gen_ns_per_op",
        gen_s * 1e9 / (warm_ops + meas_ops),
        "ns",
    ));
    m.push(Metric::new("workloads.ops", warm_ops + meas_ops, "count"));
    m.push(Metric::new(
        "cpu.execute_ns_per_op",
        exec_s * 1e9 / meas_ops,
        "ns",
    ));
    m.push(Metric::new(
        "cpu.warm_ns_per_op",
        warm_exec_s * 1e9 / warm_ops,
        "ns",
    ));
    m.push(Metric::new(
        "cpu.ipc",
        instructions / sum(&|p| p.reference.core.cycles as f64),
        "inst/cycle",
    ));
    m.push(Metric::new(
        "memsys.l1.d_hit_ratio",
        sum(&|p| p.d_hits as f64) / sum(&|p| p.d_accesses as f64),
        "ratio",
    ));
    m.push(Metric::new(
        "memsys.l1.l2_per_kinst",
        1e3 * sum(&|p| p.reference.l2_accesses as f64) / instructions,
        "per_kinst",
    ));
    let runs = pairs.len() as f64;
    let warm_ms = tel.wall_time_in("warmup-ff") as f64 / 1e3;
    let measure_ms = tel.wall_time_in("measure") as f64 / 1e3;
    m.push(Metric::new(
        "experiments.runner.build_ms_per_run",
        (untraced * 1e3 - warm_ms - measure_ms) / runs,
        "ms",
    ));
    m.push(Metric::new(
        "experiments.runner.warmup_ms_per_run",
        warm_ms / runs,
        "ms",
    ));
    m.push(Metric::new(
        "experiments.runner.measure_ms_per_run",
        measure_ms / runs,
        "ms",
    ));

    // Leg 2: org-replay.
    let streams = org_replay::capture(seed);
    let reference = org_replay::reports(&streams, &clock).map_err(|e| e.to_string())?;
    let mut per_org: Vec<Vec<f64>> = vec![Vec::new(); ORGS.len()];

    // Leg 3: sampled-long's headline pair.
    let wall = Telemetry::with_params(1, 0);
    let (key, _, scale) = sampled_long::RUNS[0];
    let pair = sampled_long::in_work_dir(|dir| {
        sampled_long::pair(dir, key, scale, Some(&wall))
            .map_err(|e| format!("checkpoint directory {}: {e}", dir.display()))
    })?;
    attempted += 2;
    let windows = experiments::SampleSpec::for_scale(scale).windows(scale);
    failed += sampled_long::failed_passes(&pair.cold.run, &pair, windows);

    // Leg 4: one repro-quick rendering.
    let rep = repro_quick::rep(0.0);
    attempted += experiments::repro::EXPERIMENTS.len() as u64;
    failed += repro_quick::failed_sections(
        &rep.report,
        repro_quick::GOLDEN,
        experiments::repro::EXPERIMENTS.len(),
    );
    let work = repro_quick::job_work(&rep.sweep);

    // Replay passes fill what is left of the budget.
    let mut tally = org_replay::Tally::default();
    measure::repeat_for(budget.saturating_sub(start.elapsed()), 3, || {
        let p = org_replay::checked_pass(&streams, &reference, &clock, 0.0, &mut tally)?;
        let mut ticks = vec![0u64; ORGS.len()];
        for (s, r) in streams.iter().zip(&p.streams) {
            ticks[s.org] += r.ticks;
        }
        for (o, t) in ticks.into_iter().enumerate() {
            per_org[o].push(clock.ns(t));
        }
        Ok::<(), String>(())
    })?;
    attempted += tally.attempted;
    failed += tally.failed;
    if tally.reports_changed {
        problems.push("a replay's organization report changed between passes".to_string());
    }

    for (o, &(key, module, _)) in ORGS.iter().enumerate() {
        let name = |what: &str| format!("{module}.{key}.{what}");
        let of_org = || streams.iter().zip(&reference).filter(|(s, _)| s.org == o);
        let accesses: u64 = of_org().map(|(s, _)| s.accesses.len() as u64).sum();
        let total = |f: &dyn Fn(&memsys::org::OrgReport) -> u64| {
            of_org().map(|(_, r)| f(r)).sum::<u64>() as f64
        };
        let per_call = |f: &dyn Fn(&OrgSpans) -> (u64, u64)| {
            let (ticks, calls) = pairs
                .iter()
                .filter(|p| p.key == key)
                .map(|p| f(&p.org))
                .fold((0, 0), |a, b| (a.0 + b.0, a.1 + b.1));
            clock.ns(ticks) / calls.max(1) as f64
        };
        let insitu = per_call(&|o| (o.ticks.get(), o.calls.get()));
        let warm = per_call(&|o| (o.warm_ticks.get(), o.warm_calls.get()));
        let n = accesses as f64;
        m.push(Metric::new(
            name("replay_ns_per_access"),
            measure::median(&per_org[o]) / n,
            "ns",
        ));
        m.push(Metric::new(name("insitu_ns_per_access"), insitu, "ns"));
        m.push(Metric::new(name("warm_ns_per_access"), warm, "ns"));
        m.push(Metric::new(name("accesses"), n, "count"));
        m.push(Metric::new(
            name("miss_ratio"),
            total(&|r| r.l2_misses) / n,
            "ratio",
        ));
        m.push(Metric::new(
            name("dgroup_per_access"),
            total(&|r| r.dgroup_accesses) / n,
            "ratio",
        ));
        m.push(Metric::new(
            name("swaps_per_kaccess"),
            1e3 * total(&|r| r.swaps) / n,
            "per_kaccess",
        ));
        let bytes: u64 = of_org().map(|(s, _)| s.snapshot.len() as u64).sum();
        m.push(Metric::new(name("snapshot_bytes"), bytes as f64, "bytes"));
    }

    let payload = sum(&|p| p.payload as f64);
    m.push(Metric::new(
        "experiments.checkpoint.hits",
        (pair.cold.hits + pair.warm.hits) as f64,
        "count",
    ));
    m.push(Metric::new(
        "experiments.checkpoint.misses",
        (pair.cold.misses + pair.warm.misses) as f64,
        "count",
    ));
    m.push(Metric::new(
        "experiments.checkpoint.bytes_written",
        pair.bytes_written as f64,
        "bytes",
    ));
    m.push(Metric::new(
        "experiments.checkpoint.encode_mb_per_s",
        payload / sum(&|p| p.encode) / 1e6,
        "MB/s",
    ));
    m.push(Metric::new(
        "experiments.checkpoint.decode_mb_per_s",
        payload / sum(&|p| p.decode) / 1e6,
        "MB/s",
    ));
    m.push(Metric::new(
        "experiments.sampling.prefix_s",
        wall.wall_time_in("sample-prefix") as f64 / 1e6,
        "s",
    ));
    m.push(Metric::new(
        "experiments.sampling.intervals_s",
        wall.wall_time_in("sample-measure") as f64 / 1e6,
        "s",
    ));
    m.push(Metric::new(
        "experiments.sampling.cold_s",
        pair.cold.wall.as_secs_f64(),
        "s",
    ));
    m.push(Metric::new(
        "experiments.sampling.warm_s",
        pair.warm.wall.as_secs_f64(),
        "s",
    ));
    m.push(Metric::new(
        "experiments.sampling.detail_frac",
        ratio(
            pair.cold.run.detailed_instructions as f64,
            pair.cold.run.total_instructions as f64,
        ),
        "ratio",
    ));

    let (busy, tail) = worker_time(&rep);
    let wall_s = rep.wall.as_secs_f64();
    m.push(Metric::new("simsched.jobs", rep.jobs.len() as f64, "count"));
    m.push(Metric::new(
        "simsched.busy_frac",
        busy / (THREADS as f64 * wall_s),
        "ratio",
    ));
    m.push(Metric::new("simsched.tail_s", tail, "s"));
    let (mut cmp_s, mut cmp_ops) = (0.0, 0u64);
    for (label, instr, _) in work.iter().filter(|(l, _, _)| l.starts_with("cmp")) {
        cmp_ops += instr;
        cmp_s += rep
            .jobs
            .iter()
            .find(|j| j.label == *label)
            .map_or(0.0, |j| j.wall.as_secs_f64());
    }
    let (mut stalls, mut cmp_instr) = (0u64, 0u64);
    for &cores in experiments::cmp::CMP_CORES {
        for &k in experiments::cmp::CMP_KEYS {
            let r = rep.sweep.run_cmp(cores, k);
            stalls += r.result.bank_stall_cycles;
            cmp_instr += r
                .result
                .per_core
                .iter()
                .map(|c| c.instructions)
                .sum::<u64>();
        }
    }
    m.push(Metric::new(
        "cmp.ns_per_op",
        ratio(cmp_s * 1e9, cmp_ops as f64),
        "ns",
    ));
    m.push(Metric::new(
        "cmp.bank_stall_per_ki",
        ratio(1e3 * stalls as f64, cmp_instr as f64),
        "per_kinst",
    ));

    m.push(Metric::new(
        "ledger.unattributed_frac",
        unattributed,
        "ratio",
    ));
    m.push(Metric::new(
        "ledger.trace_overhead_frac",
        (traced - untraced) / untraced,
        "ratio",
    ));
    Ok(Report {
        attempted,
        failed,
        problems,
        metrics: m,
        reps: Vec::new(),
    })
}
