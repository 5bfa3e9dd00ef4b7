//! SMARTS-style sampled simulation + interval-parallel execution
//! (DESIGN.md §16, ROADMAP item 1).
//!
//! Two composable mechanisms turn a billion-instruction run from
//! wall-clock-prohibitive into minutes:
//!
//! 1. **Periodic sampling** ([`SampleSpec`]): the measured phase is cut
//!    into equal periods; each period is fast-forwarded functionally
//!    (every architectural effect applied, no timing, no energy, no
//!    telemetry — the same machinery as warm-up) except for a short
//!    detailed window at its head. The window's first `warmup` ops
//!    refill the out-of-order pipeline and are discarded; the next
//!    `measure` ops are observed as one [`WindowObs`]. Ratio metrics
//!    (IPC, miss rate, energy per kilo-instruction) estimated from the
//!    windows converge on the full run's values, with the spread
//!    reported as a 95% confidence interval by the [`Estimator`].
//!
//! 2. **Interval-parallel execution**: the window list is split into K
//!    contiguous intervals. Interval k starts from the architectural
//!    state at its first window's trace offset — produced by one
//!    sequential functional prefix pass (interval k's snapshot continues
//!    from where interval k−1's left off) and keyed by
//!    [`RunSpec::interval_digest`] in the [`crate::CheckpointStore`], so a
//!    warm store skips the prefix entirely. The detailed intervals run as
//!    independent jobs on [`simsched::pool::run_pipelined`], each starting
//!    the moment the prefix pass publishes its snapshot, and their results
//!    come back in index order for any thread count; stitching is
//!    therefore plain concatenation in trace order, and the merged result
//!    is bit-identical across thread counts and cold/warm stores.
//!
//! Interval 0's snapshot *is* the ordinary warm-up checkpoint (same
//! digest, same payload layout), so sampled and unsampled runs share it.
//!
//! Both warm-up modes were proven architecturally bit-identical by the
//! PR-5 differentials, which is what licenses the functional prefix: the
//! state seeding interval k is exactly the state a fully-functional run
//! of the prefix would produce, independent of how many windows preceded
//! it. The estimator trades that for timing fidelity inside the windows
//! only — the documented, quantified sampling error (`--exp sampling`).

use crate::runner::{
    drain_barrier, fresh_arch, load_arch, save_arch, AppRun, ArchState, L2Kind, RunOptions,
    RunSpec, Scale,
};
use cpu::CoreResult;
use energy::core::CoreEnergyModel;
use energy::EnergyTally;
use memsys::dramcache::L4Stats;
use simbase::EnergyNj;
use simsched::pool;
use simtel::{Telemetry, TelemetrySink};
use std::sync::Arc;
use std::time::Instant;
use workloads::BenchProfile;

/// The sampling regime: every `period` measured instructions, one
/// detailed window of `warmup` discarded ops (out-of-order pipeline
/// refill) followed by `measure` observed ops; the rest of the period is
/// functional fast-forward. `warmup + measure <= period` always.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct SampleSpec {
    /// Instructions per sampling period.
    pub period: u64,
    /// Detailed-but-discarded ops at each window's head.
    pub warmup: u64,
    /// Observed ops per window.
    pub measure: u64,
}

impl SampleSpec {
    /// The default regime for a scale (the `--sample` flag): 20 windows
    /// across the measured phase with a 1/20 detailed fraction — ≥20×
    /// fewer detailed (timed) instructions than a full run at every
    /// scale, and far more at [`Scale::huge`], where the per-window
    /// detail is capped.
    pub fn for_scale(scale: Scale) -> SampleSpec {
        let period = (scale.measure / 20).max(1_000);
        SampleSpec {
            period,
            warmup: (period / 100).clamp(20, 2_000),
            measure: (period / 25).clamp(100, 10_000),
        }
    }

    /// Number of whole sampling windows in the measured phase (≥ 1).
    pub fn windows(&self, scale: Scale) -> u64 {
        (scale.measure / self.period).max(1)
    }

    /// Detailed (timed) instructions per window, discarded + observed.
    pub fn detailed_per_window(&self) -> u64 {
        self.warmup + self.measure
    }
}

/// Streaming mean / sample-variance accumulator (Welford), reporting a
/// 95% confidence interval for the mean — no external stats deps. Window
/// observations are fed strictly in trace order, so the result is
/// bit-identical for any execution interleaving.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct Estimator {
    n: u64,
    mean: f64,
    m2: f64,
}

impl Estimator {
    /// A fresh, empty estimator.
    pub fn new() -> Self {
        Estimator::default()
    }

    /// Adds one observation.
    pub fn add(&mut self, x: f64) {
        self.n += 1;
        let d = x - self.mean;
        self.mean += d / self.n as f64;
        self.m2 += d * (x - self.mean);
    }

    /// Observations so far.
    pub fn n(&self) -> u64 {
        self.n
    }

    /// Mean of the observations (0 when empty).
    pub fn mean(&self) -> f64 {
        self.mean
    }

    /// Sample variance (n−1 denominator; 0 below two observations).
    pub fn variance(&self) -> f64 {
        if self.n < 2 {
            0.0
        } else {
            self.m2 / (self.n - 1) as f64
        }
    }

    /// Half-width of the 95% confidence interval for the mean:
    /// `1.96 · sqrt(s² / n)` (normal approximation — the windows are
    /// many and near-independent by construction).
    pub fn ci95(&self) -> f64 {
        if self.n < 2 {
            0.0
        } else {
            1.96 * (self.variance() / self.n as f64).sqrt()
        }
    }

    /// The `(n, mean, ci95)` summary.
    pub fn summary(&self) -> Summary {
        Summary {
            n: self.n,
            mean: self.mean(),
            ci95: self.ci95(),
        }
    }
}

/// A mean ± 95%-CI summary of one sampled metric.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Summary {
    /// Number of windows observed.
    pub n: u64,
    /// Mean across windows.
    pub mean: f64,
    /// Half-width of the 95% confidence interval.
    pub ci95: f64,
}

impl Summary {
    /// Relative CI half-width (`ci95 / mean`; 0 for a zero mean).
    pub fn rel_ci(&self) -> f64 {
        if self.mean == 0.0 {
            0.0
        } else {
            self.ci95 / self.mean
        }
    }
}

/// One sampled measurement window: core and organization deltas over
/// exactly `spec.measure` observed instructions. Functional fast-forward
/// touches no counter (the warm paths elide them by design), and the
/// window's own detailed warm-up is excluded by delta bracketing, so
/// every field covers the observed ops alone.
#[derive(Debug, Clone, PartialEq)]
pub struct WindowObs {
    /// Window index in trace order.
    pub index: u64,
    /// Measured-phase op offset of the window's period start.
    pub start: u64,
    /// Core counters over the observed ops.
    pub core: CoreResult,
    /// L1 accesses (I + D) over the observed ops.
    pub l1_accesses: u64,
    /// Lower-organization demand accesses.
    pub l2_accesses: u64,
    /// Lower-organization demand misses.
    pub l2_misses: u64,
    /// Data-array accesses including swap/search traffic.
    pub dgroup_accesses: u64,
    /// Block movements.
    pub swaps: u64,
    /// Demand hits per d-group (weighted counts; empty without groups).
    pub group_hits: Vec<f64>,
    /// Off-chip accesses.
    pub memory_accesses: u64,
    /// L4 event deltas, when an L4 tier is attached.
    pub l4: Option<L4Stats>,
    /// Full-system energy over the observed ops.
    pub energy: EnergyTally,
}

impl WindowObs {
    /// Window IPC.
    pub fn ipc(&self) -> f64 {
        self.core.ipc()
    }

    /// Window miss fraction of lower-organization accesses.
    pub fn miss_frac(&self) -> f64 {
        self.l2_misses as f64 / self.l2_accesses.max(1) as f64
    }

    /// Window energy per kilo-instruction (nJ/KI).
    pub fn energy_per_ki(&self) -> f64 {
        self.energy.total().nj() * 1000.0 / self.core.instructions.max(1) as f64
    }
}

/// The result of one sampled run: the estimated [`AppRun`] (assembled
/// from the summed window deltas, so every ratio metric is the sampled
/// estimate of the full run's) plus the per-window observations and the
/// sampling bookkeeping.
#[derive(Debug, Clone, PartialEq)]
pub struct SampledRun {
    /// Estimated run (core and organization counters cover the observed
    /// windows only; ratio metrics estimate the full run's).
    pub run: AppRun,
    /// The sampling regime.
    pub spec: SampleSpec,
    /// Interval count the run was split into.
    pub intervals: u64,
    /// Instructions the full measured phase represents.
    pub total_instructions: u64,
    /// Detailed (timed) instructions actually executed, including the
    /// per-window discarded warm-ups.
    pub detailed_instructions: u64,
    /// Per-window observations, in trace order.
    pub windows: Vec<WindowObs>,
}

impl SampledRun {
    /// IPC estimate across windows.
    pub fn ipc(&self) -> Summary {
        self.estimate(WindowObs::ipc)
    }

    /// Miss-fraction estimate across windows.
    pub fn miss_frac(&self) -> Summary {
        self.estimate(WindowObs::miss_frac)
    }

    /// Energy-per-kilo-instruction estimate across windows (nJ/KI).
    pub fn energy_per_ki(&self) -> Summary {
        self.estimate(WindowObs::energy_per_ki)
    }

    /// Ratio of represented to detailed (timed) instructions — the
    /// headline "≥20× fewer detailed cycles" lever.
    pub fn speedup(&self) -> f64 {
        self.total_instructions as f64 / self.detailed_instructions.max(1) as f64
    }

    fn estimate(&self, f: impl Fn(&WindowObs) -> f64) -> Summary {
        let mut e = Estimator::new();
        for w in &self.windows {
            e.add(f(w));
        }
        e.summary()
    }
}

/// Runs `profile` on `kind` at `scale` under the sampling regime `spec`,
/// split into `intervals` interval jobs. The snapshot chain runs on the
/// calling thread while up to `threads − 1` workers start each interval
/// job as its snapshot publishes; the caller joins them once the chain
/// ends. The result is **bit-identical for any thread count and for
/// cold, warm, or absent checkpoint stores**: interval seeding always
/// goes through the encoded snapshot bytes, and the window observations
/// are stitched back in trace order (the pool returns results in index
/// order by contract).
///
/// The warm-up mode in `opts` is ignored — the prefix is always the
/// functional fast-forward (the two modes build bit-identical
/// architectural state, so only wall time could differ). Resize
/// schedules are not applied: they are keyed to detailed op indices of
/// an unsampled measured phase and have no meaning under sampling.
///
/// # Panics
///
/// Panics when `spec.warmup + spec.measure > spec.period` or
/// `spec.period == 0`.
pub fn run_app_sampled(
    profile: BenchProfile,
    kind: &L2Kind,
    scale: Scale,
    spec: SampleSpec,
    intervals: u64,
    threads: usize,
    opts: RunOptions<'_>,
) -> SampledRun {
    assert!(spec.period > 0, "sampling period must be positive");
    assert!(
        spec.detailed_per_window() <= spec.period,
        "detailed window ({} + {}) exceeds the sampling period {}",
        spec.warmup,
        spec.measure,
        spec.period
    );
    let windows = spec.windows(scale);
    let k = intervals.clamp(1, windows);
    // Interval i covers windows [w0(i), w0(i+1)) — contiguous, exhaustive.
    let w0 = |i: u64| windows * i / k;

    // The snapshot chain (sequential functional prefix) runs on this
    // thread and yields interval i's snapshot — the architectural state
    // at its first window's absolute trace offset — as soon as it
    // exists; interval job i starts on a pool worker the moment it is
    // published. One functional system walks the chain: a stored
    // snapshot is restored into it (which also proves the file decodes
    // before any interval job relies on it), and a miss advances it from
    // wherever it stands (fresh, or the previous interval's offset) —
    // interval k−1's functional prefix, exactly. The chain stays on the
    // calling thread rather than becoming a pool job: see DESIGN.md §16.
    let run = RunSpec::app(profile, kind, scale);
    let t_prefix = Instant::now();
    let mut chain_end = t_prefix;
    let mut cur: Option<ArchState> = None;
    let chain = (0..k as usize).map(|i| {
        let i = i as u64;
        let abs = scale.warmup + w0(i) * spec.period;
        let digest = if abs == scale.warmup {
            run.warmup_digest()
        } else {
            run.interval_digest(abs)
        };
        let advance = |state: &mut ArchState| {
            state.0.warm_run_to(&mut state.1, abs);
            save_arch(state)
        };
        let blob = match opts.checkpoints {
            Some(store) => {
                let fresh = || cur.take().unwrap_or_else(|| fresh_arch(profile, kind));
                let (state, blob, hit) = store.get_or_build(digest, fresh, advance, load_arch);
                cur = Some(state);
                if let Some(w) = opts.wall {
                    let outcome = if hit { "hit" } else { "miss" };
                    w.wall_mark("simchk", &format!("{outcome}/{}@{abs}", profile.name));
                }
                blob
            }
            None => Arc::new(advance(cur.get_or_insert_with(|| fresh_arch(profile, kind)))),
        };
        if i + 1 == k {
            cur = None;
            chain_end = Instant::now();
            if let Some(w) = opts.wall {
                // The sampling-overhead track: how much wall time the
                // snapshot chain (the part a warm store eliminates) cost.
                w.wall_span(
                    "sample-prefix",
                    &format!("{}/{k}-intervals", profile.name),
                    (chain_end - t_prefix).as_nanos() as u64,
                );
            }
        }
        blob
    });

    // The detailed interval jobs, stitched back by concatenation
    // (results arrive in index order).
    let wall = opts.wall;
    let consume = |i: usize, blob: Arc<Vec<u8>>| {
        let (first, last) = (w0(i as u64), w0(i as u64 + 1));
        run_interval(profile, kind, scale, spec, blob, first, last, wall)
    };
    let observations: Vec<WindowObs> =
        pool::run_pipelined(threads, chain, consume).into_iter().flatten().collect();
    if let Some(w) = opts.wall {
        // How long the interval jobs ran on after the chain ended; with
        // `sample-prefix` it adds up to the pass's wall time.
        w.wall_span(
            "sample-measure",
            &format!("{}/{windows}-windows", profile.name),
            chain_end.elapsed().as_nanos() as u64,
        );
    }

    let run = assemble_run(profile.name, &observations);
    SampledRun {
        run,
        spec,
        intervals: k,
        total_instructions: scale.measure,
        detailed_instructions: windows * spec.detailed_per_window(),
        windows: observations,
    }
}

/// Seeds one interval from its snapshot bytes, crosses the same drain
/// barrier as every unsampled run (DESIGN.md §11), and executes its
/// windows: functional fast-forward to each period start, a discarded
/// detailed pipeline warm-up, then the observed ops bracketed by counter
/// snapshots. The blob is dropped as soon as it is decoded.
#[allow(clippy::too_many_arguments)]
fn run_interval(
    profile: BenchProfile,
    kind: &L2Kind,
    scale: Scale,
    spec: SampleSpec,
    blob: Arc<Vec<u8>>,
    first: u64,
    last: u64,
    wall: Option<&Telemetry>,
) -> Vec<WindowObs> {
    // The chain built or restored this payload in this process, so it
    // loads (a stored file that does not was rebuilt there).
    let mut state = fresh_arch(profile, kind);
    load_arch(&mut state, &blob).expect("interval snapshot: checked by the chain");
    drop(blob);
    let (core, mut gen) = state;
    let mut core = drain_barrier(core, &TelemetrySink::disabled(), 0);

    let model = CoreEnergyModel::micro2003();
    let mut out = Vec::with_capacity((last - first) as usize);
    for w in first..last {
        let start = w * spec.period;
        core.warm_run_to(&mut gen, scale.warmup + start);
        core.run(&mut gen, spec.warmup);

        let c0 = core.finish();
        let r0 = core.mem().lower().report();
        let l1_0 = core.mem().l1_accesses();
        let l4_0 = core.mem().lower().main_memory().and_then(|m| m.l4_stats());
        core.run(&mut gen, spec.measure);
        let c1 = core.finish();
        let r1 = core.mem().lower().report();
        let l1_1 = core.mem().l1_accesses();
        let l4_1 = core.mem().lower().main_memory().and_then(|m| m.l4_stats());

        let cd = c1.since(&c0);
        let l4 = l4_1.map(|s| s.minus(&l4_0.unwrap_or_default()));
        let memory_accesses = r1.memory_accesses - r0.memory_accesses;
        let memory = match &l4 {
            Some(s) => energy::l4::memory_energy(s.dram_blocks(), s.tag_probes, s.accesses),
            None => model.memory_energy(memory_accesses),
        };
        let group_hits = r1
            .group_fracs
            .iter()
            .zip(&r0.group_fracs)
            .map(|(f1, f0)| f1 * r1.l2_accesses as f64 - f0 * r0.l2_accesses as f64)
            .collect();
        let l1_accesses = l1_1 - l1_0;
        let energy = EnergyTally {
            core: model.core_energy(&cd),
            l1: model.l1_energy(l1_accesses),
            l2: EnergyNj::new((r1.l2_energy.nj() - r0.l2_energy.nj()).max(0.0)),
            memory,
        };
        if let Some(t) = wall {
            t.wall_mark("sample-window", &format!("{}/w{w}", profile.name));
        }
        out.push(WindowObs {
            index: w,
            start,
            core: cd,
            l1_accesses,
            l2_accesses: r1.l2_accesses - r0.l2_accesses,
            l2_misses: r1.l2_misses - r0.l2_misses,
            dgroup_accesses: r1.dgroup_accesses - r0.dgroup_accesses,
            swaps: r1.swaps - r0.swaps,
            group_hits,
            memory_accesses,
            l4,
            energy,
        });
    }
    out
}

/// Assembles the estimated [`AppRun`] from the summed window deltas.
/// Every sum runs in trace order over the stitched window list, so the
/// f64 fields are bit-identical for any thread count.
fn assemble_run(name: &'static str, windows: &[WindowObs]) -> AppRun {
    let mut core = CoreResult {
        instructions: 0,
        cycles: 0,
        loads: 0,
        stores: 0,
        branches: 0,
        mispredicts: 0,
        int_ops: 0,
        fp_ops: 0,
    };
    let mut l1_accesses = 0u64;
    let mut l2_accesses = 0u64;
    let mut l2_misses = 0u64;
    let mut dgroup_accesses = 0u64;
    let mut swaps = 0u64;
    let mut memory_accesses = 0u64;
    let mut l2_energy_nj = 0.0f64;
    let n_groups = windows.first().map_or(0, |w| w.group_hits.len());
    let mut group_hits = vec![0.0f64; n_groups];
    let mut l4: Option<L4Stats> = None;
    for w in windows {
        core.instructions += w.core.instructions;
        core.cycles += w.core.cycles;
        core.loads += w.core.loads;
        core.stores += w.core.stores;
        core.branches += w.core.branches;
        core.mispredicts += w.core.mispredicts;
        core.int_ops += w.core.int_ops;
        core.fp_ops += w.core.fp_ops;
        l1_accesses += w.l1_accesses;
        l2_accesses += w.l2_accesses;
        l2_misses += w.l2_misses;
        dgroup_accesses += w.dgroup_accesses;
        swaps += w.swaps;
        memory_accesses += w.memory_accesses;
        l2_energy_nj += w.energy.l2.nj();
        for (g, h) in group_hits.iter_mut().zip(&w.group_hits) {
            *g += h;
        }
        if let Some(d) = &w.l4 {
            let mut agg = l4.take().unwrap_or_default();
            agg.accesses += d.accesses;
            agg.hits += d.hits;
            agg.misses += d.misses;
            agg.fills += d.fills;
            agg.dirty_fills += d.dirty_fills;
            agg.writebacks += d.writebacks;
            agg.tag_probes += d.tag_probes;
            agg.tag_cache_hits += d.tag_cache_hits;
            agg.resize_writebacks += d.resize_writebacks;
            agg.resizes += d.resizes;
            l4 = Some(agg);
        }
    }
    let model = CoreEnergyModel::micro2003();
    let memory = match &l4 {
        Some(s) => energy::l4::memory_energy(s.dram_blocks(), s.tag_probes, s.accesses),
        None => model.memory_energy(memory_accesses),
    };
    let l2_energy = EnergyNj::new(l2_energy_nj.max(0.0));
    let energy = EnergyTally {
        core: model.core_energy(&core),
        l1: model.l1_energy(l1_accesses),
        l2: l2_energy,
        memory,
    };
    let acc = l2_accesses.max(1) as f64;
    AppRun {
        name,
        core,
        l2_accesses,
        l2_misses,
        group_fracs: group_hits.iter().map(|h| h / acc).collect(),
        miss_frac: l2_misses as f64 / acc,
        dgroup_accesses,
        swaps,
        l2_energy,
        energy,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::checkpoint::CheckpointStore;
    use crate::runner::{run_app, WarmupMode};
    use nurapid::NuRapidConfig;
    use workloads::profiles::by_name;

    fn tiny() -> Scale {
        Scale {
            warmup: 30_000,
            measure: 60_000,
        }
    }

    fn sampled_digest(
        profile: &BenchProfile,
        kind: &L2Kind,
        scale: Scale,
        spec: SampleSpec,
        intervals: u64,
    ) -> simbase::digest::Digest {
        let regime = crate::runner::Regime::Sampled { spec, intervals };
        RunSpec { regime, ..RunSpec::app(*profile, kind, scale) }.run_digest()
    }

    fn tiny_spec() -> SampleSpec {
        SampleSpec {
            period: 5_000,
            warmup: 200,
            measure: 800,
        }
    }

    #[test]
    fn estimator_matches_hand_computed_stats() {
        let mut e = Estimator::new();
        for x in [2.0, 4.0, 4.0, 4.0, 5.0, 5.0, 7.0, 9.0] {
            e.add(x);
        }
        assert_eq!(e.n(), 8);
        assert!((e.mean() - 5.0).abs() < 1e-12);
        // Sample variance of the classic data set is 32/7.
        assert!((e.variance() - 32.0 / 7.0).abs() < 1e-12);
        let ci = 1.96 * (32.0 / 7.0 / 8.0f64).sqrt();
        assert!((e.ci95() - ci).abs() < 1e-12);
        assert!((e.summary().rel_ci() - ci / 5.0).abs() < 1e-12);
    }

    #[test]
    fn estimator_degenerate_cases_are_safe() {
        let e = Estimator::new();
        assert_eq!((e.mean(), e.variance(), e.ci95()), (0.0, 0.0, 0.0));
        let mut one = Estimator::new();
        one.add(3.5);
        assert_eq!((one.mean(), one.ci95()), (3.5, 0.0));
    }

    #[test]
    fn default_spec_keeps_the_speedup_floor() {
        for scale in [Scale::quick(), Scale::full(), Scale::huge()] {
            let spec = SampleSpec::for_scale(scale);
            assert!(spec.detailed_per_window() <= spec.period);
            let detailed = spec.windows(scale) * spec.detailed_per_window();
            assert!(
                scale.measure as f64 / detailed as f64 >= 20.0,
                "scale {scale:?}: only {}x",
                scale.measure / detailed
            );
        }
        // The huge scale caps per-window detail: the reduction is far
        // beyond 20× there, which is what makes 1B instructions tractable.
        let huge = SampleSpec::for_scale(Scale::huge());
        let detailed = huge.windows(Scale::huge()) * huge.detailed_per_window();
        assert!(1_000_000_000 / detailed >= 1_000);
    }

    #[test]
    fn sampled_run_produces_sane_estimates() {
        let app = by_name("galgel").unwrap();
        let kind = L2Kind::NuRapid(NuRapidConfig::micro2003(4));
        let s = run_app_sampled(app, &kind, tiny(), tiny_spec(), 1, 1, RunOptions::default());
        assert_eq!(s.windows.len(), 12);
        assert_eq!(s.total_instructions, 60_000);
        assert_eq!(s.detailed_instructions, 12 * 1_000);
        assert_eq!(s.run.core.instructions, 12 * 800);
        // tiny_spec times 1_000 of every 5_000 ops: a 5x detailed reduction.
        assert!((s.speedup() - 5.0).abs() < 1e-9, "speedup {}", s.speedup());
        let ipc = s.ipc();
        assert_eq!(ipc.n, 12);
        assert!(ipc.mean > 0.05 && ipc.mean < 8.0, "ipc {}", ipc.mean);
        assert_eq!(s.run.group_fracs.len(), 4);
        let total: f64 = s.run.group_fracs.iter().sum::<f64>() + s.run.miss_frac;
        assert!((total - 1.0).abs() < 1e-6, "fractions sum to 1, got {total}");
        assert!(s.run.energy.total().nj() > 0.0);
    }

    #[test]
    fn sampled_estimates_track_the_full_run() {
        // The sampler's reason to exist: a fraction of the detailed work
        // reproducing the full run's ratio metrics. Tolerances are loose —
        // this is a statistical estimate at a tiny scale — and the
        // committed `--exp sampling` table quantifies the real error.
        let app = by_name("galgel").unwrap();
        let kind = L2Kind::NuRapid(NuRapidConfig::micro2003(4));
        let scale = Scale {
            warmup: 30_000,
            measure: 240_000,
        };
        let full = run_app(app, &kind, scale);
        let spec = SampleSpec::for_scale(scale);
        let s = run_app_sampled(app, &kind, scale, spec, 1, 1, RunOptions::default());
        let ipc_err = (s.ipc().mean - full.ipc()).abs() / full.ipc();
        assert!(ipc_err < 0.2, "sampled IPC off by {ipc_err:.3}");
        let full_eki = full.energy.total().nj() * 1000.0 / full.core.instructions as f64;
        let eki_err = (s.energy_per_ki().mean - full_eki).abs() / full_eki;
        assert!(eki_err < 0.25, "sampled nJ/KI off by {eki_err:.3}");
        assert!(s.speedup() >= 20.0);
    }

    #[test]
    fn sampled_runs_are_bit_identical_across_threads_and_intervals_and_stores() {
        let app = by_name("parser").unwrap();
        let kind = L2Kind::NuRapid(NuRapidConfig::micro2003(4));
        let spec = tiny_spec();
        let dir = std::env::temp_dir()
            .join(format!("simchk-sampling-{}", std::process::id()));
        for intervals in [1, 3, 4, 7] {
            let baseline =
                run_app_sampled(app, &kind, tiny(), spec, intervals, 1, RunOptions::default());
            assert_eq!(baseline.intervals, intervals);

            // Thread count is pure wall time.
            for threads in [2, 3, 8] {
                let s = run_app_sampled(
                    app,
                    &kind,
                    tiny(),
                    spec,
                    intervals,
                    threads,
                    RunOptions::default(),
                );
                assert_eq!(s, baseline, "intervals={intervals} threads={threads}");
            }

            // Cold and warm checkpoint stores change nothing either; the
            // warm passes answer every interval snapshot from the store.
            let _ = std::fs::remove_dir_all(&dir);
            let store = CheckpointStore::open(&dir).expect("open store");
            let opts = RunOptions {
                checkpoints: Some(&store),
                ..Default::default()
            };
            let cold = run_app_sampled(app, &kind, tiny(), spec, intervals, 2, opts);
            assert_eq!(cold, baseline, "intervals={intervals} cold store");
            assert_eq!(store.misses(), intervals, "one snapshot built per interval");
            let warm = run_app_sampled(app, &kind, tiny(), spec, intervals, 8, opts);
            assert_eq!(warm, baseline, "intervals={intervals} warm store");
            let counts = (store.hits(), store.misses());
            assert_eq!(counts, (intervals, intervals), "warm pass rebuilds nothing");
            // A store reopened over the same directory serves from disk.
            for threads in [1, 3] {
                let disk = CheckpointStore::open(&dir).expect("reopen store");
                let opts = RunOptions {
                    checkpoints: Some(&disk),
                    ..Default::default()
                };
                let warm = run_app_sampled(app, &kind, tiny(), spec, intervals, threads, opts);
                assert_eq!(warm, baseline, "intervals={intervals} threads={threads} disk store");
                assert_eq!((disk.hits(), disk.misses()), (intervals, 0));
            }
        }
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn interval_zero_shares_the_warmup_checkpoint() {
        let app = by_name("galgel").unwrap();
        let kind = L2Kind::NuRapid(NuRapidConfig::micro2003(4));
        let dir = std::env::temp_dir()
            .join(format!("simchk-sampling-share-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        let store = CheckpointStore::open(&dir).expect("open store");
        let opts = RunOptions {
            checkpoints: Some(&store),
            ..Default::default()
        };
        // An ordinary run publishes the warm-up checkpoint...
        let sink = simtel::TelemetrySink::disabled();
        let _ = crate::runner::run_app_opts(app, &kind, tiny(), &sink, 0, opts);
        assert_eq!((store.misses(), store.hits()), (1, 0));
        // ...and the sampled run's interval 0 warm-hits it.
        let _ = run_app_sampled(app, &kind, tiny(), tiny_spec(), 1, 1, opts);
        assert_eq!((store.misses(), store.hits()), (1, 1), "interval 0 must reuse warm-up");
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn interval_count_is_part_of_the_digest_not_the_result_shape() {
        // Different K values may observe the same windows (the intervals
        // tile the same window list), but they key differently: a K=2
        // artifact must never be served for a K=4 request.
        let app = by_name("galgel").unwrap();
        let kind = L2Kind::Base;
        let a = sampled_digest(&app, &kind, tiny(), tiny_spec(), 2);
        let b = sampled_digest(&app, &kind, tiny(), tiny_spec(), 4);
        assert_ne!(a, b);
        let mut other = tiny_spec();
        other.measure += 1;
        assert_ne!(
            sampled_digest(&app, &kind, tiny(), tiny_spec(), 2),
            sampled_digest(&app, &kind, tiny(), other, 2)
        );
        assert_ne!(
            sampled_digest(&app, &kind, tiny(), tiny_spec(), 2).raw(),
            RunSpec::app(app, &kind, tiny()).run_digest().raw(),
            "sampled and unsampled runs must never alias"
        );
    }

    #[test]
    fn sampled_ignores_warmup_mode_by_construction() {
        // Both prefix modes would build identical state; the sampled
        // runner always fast-forwards, so the results match trivially.
        let app = by_name("wupwise").unwrap();
        let kind = L2Kind::Base;
        let ff = run_app_sampled(app, &kind, tiny(), tiny_spec(), 2, 1, RunOptions::default());
        let timed = run_app_sampled(
            app,
            &kind,
            tiny(),
            tiny_spec(),
            2,
            1,
            RunOptions {
                mode: WarmupMode::Timed,
                ..Default::default()
            },
        );
        assert_eq!(ff, timed);
    }

    #[test]
    #[should_panic(expected = "exceeds the sampling period")]
    fn oversized_window_panics() {
        let app = by_name("galgel").unwrap();
        let spec = SampleSpec {
            period: 100,
            warmup: 60,
            measure: 60,
        };
        let _ = run_app_sampled(app, &L2Kind::Base, tiny(), spec, 1, 1, RunOptions::default());
    }
}
