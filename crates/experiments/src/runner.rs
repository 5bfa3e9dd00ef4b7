//! Full-system run machinery: one application through one lower-level
//! cache organization, with warm-up.
//!
//! Warm-up runs as a functional fast-forward by default
//! ([`WarmupMode::FastForward`]): every architectural effect — cache
//! fills, recency updates, distance placement, demotion chains,
//! predictor training — is applied, while port scheduling, latency math,
//! energy, and telemetry are skipped. The stats boundary is an explicit
//! drain barrier (DESIGN.md §11) that both warm-up modes cross
//! identically, which makes the measured phase bit-identical between
//! them and lets warm architectural state be checkpointed to disk
//! ([`crate::checkpoint::CheckpointStore`]) keyed by
//! [`RunSpec::warmup_digest`].

use crate::checkpoint::CheckpointStore;
use crate::sampling::SampleSpec;
use ::cmp::CmpConfig;
use cpu::uop::TraceSource;
use cpu::{CoreParams, CoreResult, OooCore};
use energy::core::CoreEnergyModel;
use energy::EnergyTally;
use memsys::dramcache::{L4Config, L4DramCache, L4Stats};
use memsys::hierarchy::BaseHierarchy;
use memsys::l1::CoreMemSystem;
use memsys::org::{OrgReport, Organization};
use nuca::{CnucaConfig, CompressedNucaCache, DnucaCache, DnucaConfig, SearchPolicy};
use nurapid::coupled::CoupledCache;
use nurapid::{DistanceVictimPolicy, NuRapidCache, NuRapidConfig, PromotionPolicy};
use simbase::digest::{Digest, Hasher128};
use simbase::snapshot::{Decoder, Encoder, SnapshotError};
use simbase::EnergyNj;
use simtel::{Telemetry, TelemetrySink};
use std::time::Instant;
use workloads::{BenchProfile, TraceGenerator};

/// Seed of every run's trace generator (fixed: experiments vary the
/// cache organization, not the workload stream).
pub const TRACE_SEED: u64 = 0x5eed;

/// Which lower-level cache organization to simulate.
#[derive(Debug, Clone)]
pub enum L2Kind {
    /// Conventional 1-MB L2 + 8-MB L3 (the base case).
    Base,
    /// NuRAPID with the given configuration.
    NuRapid(NuRapidConfig),
    /// The Figure 4 set-associative-placement ablation with this many
    /// d-groups.
    Coupled(usize),
    /// D-NUCA with the given search policy.
    Dnuca(SearchPolicy),
    /// Compressed NUCA with the given configuration.
    Cnuca(CnucaConfig),
    /// Any of the above with an L4 DRAM-cache tier attached to its main
    /// memory (`--l4`; DESIGN.md §15).
    L4(Box<L2Kind>, L4Config),
}

/// Instruction budget for a run.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Scale {
    /// Warm-up instructions (caches filled, statistics then reset) —
    /// the stand-in for the paper's 5 B-instruction fast-forward.
    pub warmup: u64,
    /// Measured instructions.
    pub measure: u64,
}

impl Scale {
    /// The default reproduction scale (used for EXPERIMENTS.md): the
    /// paper's 5 B-instruction fast-forward at a 1000× scale-down, then
    /// 2 M measured instructions. Warm-up dominates just as it does in
    /// the paper, which is what the functional fast-forward and the
    /// checkpoint store are for.
    pub fn full() -> Self {
        Scale {
            warmup: 5_000_000,
            measure: 2_000_000,
        }
    }

    /// A fast scale for tests and the simkit benches.
    pub fn quick() -> Self {
        Scale {
            warmup: 150_000,
            measure: 250_000,
        }
    }

    /// The billion-instruction scale (`--huge`). Only practical through
    /// the sampled runner ([`crate::sampling`]): a full detailed
    /// simulation of a billion instructions is wall-clock-prohibitive,
    /// while periodic sampling executes the bulk of it as a functional
    /// fast-forward and times only the measurement windows.
    pub fn huge() -> Self {
        Scale {
            warmup: 5_000_000,
            measure: 1_000_000_000,
        }
    }
}

/// How the warm-up phase executes. Both modes build bit-identical
/// architectural state (proven by the differential tests below and in
/// each cache crate), so the measured phase cannot tell them apart.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum WarmupMode {
    /// Functional fast-forward (the default): apply every architectural
    /// effect while skipping port scheduling, latency math, energy
    /// accounting, and telemetry — the stand-in for the paper's
    /// 5 B-instruction functional fast-forward.
    #[default]
    FastForward,
    /// Full timing simulation during warm-up. Kept as the differential
    /// oracle for [`WarmupMode::FastForward`].
    Timed,
}

/// Optional knobs of a run: warm-up mode, the checkpoint store, and the
/// wall-clock telemetry channel for phase spans.
#[derive(Clone, Copy, Default)]
pub struct RunOptions<'a> {
    /// How to execute warm-up.
    pub mode: WarmupMode,
    /// Reuse/publish warm-up checkpoints through this store.
    pub checkpoints: Option<&'a CheckpointStore>,
    /// Record per-phase wall spans and checkpoint hit/miss marks (the
    /// non-deterministic `wall.json` channel only — never metrics).
    pub wall: Option<&'a Telemetry>,
}

impl L2Kind {
    /// The single construction seam of the plugin architecture: builds
    /// the concrete organization behind a `Box<dyn Organization>`. The
    /// rest of the runner — warm-up, checkpointing, the drain barrier,
    /// the measured loop, and the report — never names a concrete cache
    /// type, so a new organization only needs a variant here with its
    /// knobs tagged once in `L2Kind::digest_into` (DESIGN.md §12).
    pub fn build(&self) -> Box<dyn Organization> {
        match self {
            L2Kind::Base => {
                let mut h = BaseHierarchy::micro2003();
                let e = energy::l2::BaseLevelEnergies::micro2003();
                h.set_level_energies(e.l2_nj, e.l3_nj);
                Box::new(h)
            }
            L2Kind::NuRapid(cfg) => Box::new(NuRapidCache::new(cfg.clone())),
            L2Kind::Coupled(n) => Box::new(CoupledCache::micro2003(*n)),
            L2Kind::Dnuca(policy) => Box::new(DnucaCache::new(DnucaConfig::micro2003(*policy))),
            L2Kind::Cnuca(cfg) => Box::new(CompressedNucaCache::new(*cfg)),
            L2Kind::L4(inner, cfg) => {
                let mut org = inner.build();
                org.main_memory_mut()
                    .expect("the L4 tier needs a DRAM-backed organization")
                    .attach_l4(L4DramCache::new(cfg.clone()));
                org
            }
        }
    }

    /// The measured-phase resize schedule of the L4 tier (empty for
    /// every other kind). Applied by the measured loop at the scheduled
    /// op indices; a timing knob (resizes happen strictly after the
    /// warm-up barrier).
    pub fn resize_schedule(&self) -> &[(u64, u32)] {
        match self {
            L2Kind::L4(_, cfg) => &cfg.resizes,
            _ => &[],
        }
    }

    /// Feeds the configuration into `h`, discriminant first, for the
    /// digest slice `s` (DESIGN.md §11). Every knob is written exactly
    /// once: an architectural knob as a plain write, a timing knob through
    /// `Slice::timing`, which the warm-up slice skips. Every config
    /// struct is destructured without `..`, so a new field does not
    /// compile until it is tagged here.
    pub(crate) fn digest_into(&self, h: &mut Hasher128, s: Slice) {
        match self {
            L2Kind::Base => h.write_u8(0),
            L2Kind::NuRapid(NuRapidConfig {
                capacity,
                assoc,
                n_dgroups,
                promotion,
                distance_victim,
                seed,
                ideal,
                frames_per_region,
            }) => {
                h.write_u8(1);
                h.write_u64(capacity.bytes());
                h.write_u32(*assoc);
                h.write_u64(*n_dgroups as u64);
                h.write_u8(match promotion {
                    PromotionPolicy::DemotionOnly => 0,
                    PromotionPolicy::NextFastest => 1,
                    PromotionPolicy::Fastest => 2,
                });
                h.write_u8(match distance_victim {
                    DistanceVictimPolicy::Random => 0,
                    DistanceVictimPolicy::Lru => 1,
                    DistanceVictimPolicy::ClockApprox => 2,
                });
                h.write_u64(*seed);
                // Ideal latency changes hit latency and port occupancy only.
                s.timing(h, |h| h.write_bool(*ideal));
                h.write_opt_u32(*frames_per_region);
            }
            L2Kind::Coupled(n) => {
                h.write_u8(2);
                h.write_u64(*n as u64);
            }
            L2Kind::Dnuca(policy) => {
                h.write_u8(3);
                // All three policies take identical architectural
                // transitions (hits, fills, bubble swaps, memo-table
                // updates); only when timing starts differs. The way memo
                // is maintained under every policy so this stays true.
                s.timing(h, |h| {
                    h.write_u8(match policy {
                        SearchPolicy::SsPerformance => 0,
                        SearchPolicy::SsEnergy => 1,
                        SearchPolicy::WayMemo => 2,
                    })
                });
            }
            L2Kind::Cnuca(CnucaConfig {
                capacity,
                assoc,
                n_banks,
                n_positions,
                comp_seed,
                decomp_cycles,
            }) => {
                h.write_u8(4);
                h.write_u64(capacity.bytes());
                h.write_u32(*assoc);
                h.write_u64(*n_banks as u64);
                h.write_u64(*n_positions as u64);
                // The compressibility seed decides which blocks may occupy
                // the fast compressed ways, so it shapes warm state.
                h.write_u64(*comp_seed);
                s.timing(h, |h| h.write_u64(*decomp_cycles));
            }
            L2Kind::L4(
                inner,
                L4Config {
                    n_banks,
                    bank_blocks,
                    assoc,
                    vnodes_per_bank,
                    hash_seed,
                    block_bytes,
                    tag_sram_latency,
                    tag_probe_latency,
                    base_latency,
                    cycles_per_8b,
                    tag_cache_entries,
                    resizes,
                },
            ) => {
                h.write_u8(5);
                inner.digest_into(h, s);
                h.write_u32(*n_banks);
                h.write_u64(*bank_blocks);
                h.write_u32(*assoc);
                h.write_u32(*vnodes_per_bank);
                h.write_u64(*hash_seed);
                h.write_u64(*block_bytes);
                s.timing(h, |h| h.write_u64(*tag_sram_latency));
                s.timing(h, |h| h.write_u64(*tag_probe_latency));
                s.timing(h, |h| h.write_u64(*base_latency));
                s.timing(h, |h| h.write_u64(*cycles_per_8b));
                s.timing(h, |h| h.write_u32(*tag_cache_entries));
                // Resizes happen strictly after the warm-up barrier.
                s.timing(h, |h| {
                    h.write_u64(resizes.len() as u64);
                    for &(at, target) in resizes {
                        h.write_u64(at);
                        h.write_u32(target);
                    }
                });
            }
        }
    }
}

/// The slice of a run description a digest covers (DESIGN.md §11).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum Slice {
    /// Every knob: keys the run store and the on-disk artifacts.
    Run,
    /// The architectural knobs only: keys the warm-up checkpoints, so
    /// configurations that differ only in timing knobs share one.
    Warmup,
}

impl Slice {
    /// Writes a **timing** knob: one that changes when work completes, or
    /// only the measured phase, but never the architectural state warm-up
    /// builds. The run slice carries it; the warm-up slice skips it.
    pub(crate) fn timing(self, h: &mut Hasher128, write: impl FnOnce(&mut Hasher128)) {
        if self == Slice::Run {
            write(h);
        }
    }
}

/// Feeds every field of an application profile into `h`.
pub(crate) fn digest_profile(h: &mut Hasher128, profile: &BenchProfile) {
    h.write_str(profile.name);
    h.write_u8(profile.class as u8);
    h.write_bool(profile.fp);
    h.write_f64(profile.load_frac);
    h.write_f64(profile.store_frac);
    h.write_u32(profile.branch_every);
    h.write_f64(profile.branch_bias);
    h.write_f64(profile.l1_reuse);
    h.write_u64(profile.hot_footprint.bytes());
    h.write_f64(profile.hot_frac);
    h.write_u64(profile.stream_footprint.bytes());
    h.write_u32(profile.spatial_run);
    h.write_f64(profile.dep_load_frac);
    h.write_u64(profile.code_footprint.bytes());
}

/// What a run executes on its cores.
#[derive(Debug, Clone, Copy)]
pub enum Workload {
    /// One application on one core.
    App(BenchProfile),
    /// The CMP scenario under this configuration: one core per
    /// `cores`, each running its rostered application
    /// ([`crate::cmp::cmp_profiles`]).
    Cmp(CmpConfig),
}

/// How a run's measured phase executes.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Regime {
    /// Every measured instruction in detail.
    Full,
    /// Periodic sampling ([`crate::sampling`]), split into `intervals`
    /// interval jobs. CMP runs are never split, so their digest ignores
    /// the interval count.
    Sampled {
        /// The sampling regime.
        spec: SampleSpec,
        /// Interval count.
        intervals: u64,
    },
    /// Full detail, sliced into `n` equal instruction windows (the `dram`
    /// resize transients).
    Windowed {
        /// Window count.
        n: u64,
    },
}

/// Domain tag of a sampled single-application run ([`Regime::Sampled`]).
const SAMPLED_TAG: &str = "nurapid-sampled-v1";
/// Domain tag of a sampled CMP run.
const CMP_SAMPLED_TAG: &str = "nurapid-cmp-sampled-v1";
/// Domain tag of a windowed transient run ([`Regime::Windowed`]).
const WINDOWED_TAG: &str = "nurapid-dram-v1";
/// Domain tag of a sampling interval's architectural snapshot.
const INTERVAL_TAG: &str = "nurapid-sample-snap-v1";

/// A derived digest: a domain tag, the inner digest, then a few more
/// fields. Every wrapper digest (sampled, windowed, interval snapshots,
/// the sampling study) has this one form, so none can alias its inner
/// digest or another family.
pub(crate) fn derive(tag: &str, inner: Digest, fields: &[u64]) -> Digest {
    let mut h = Hasher128::new();
    h.write_str(tag);
    h.write_u64((inner.raw() >> 64) as u64);
    h.write_u64(inner.raw() as u64);
    for &f in fields {
        h.write_u64(f);
    }
    h.digest()
}

/// One run, described completely: workload, organization, instruction
/// budget and regime. Both digests derive from it, so what identifies a
/// run and what identifies its warm-up checkpoint cannot drift apart.
#[derive(Debug, Clone, Copy)]
pub struct RunSpec<'a> {
    /// What runs on the cores.
    pub workload: Workload,
    /// The lower-level organization.
    pub kind: &'a L2Kind,
    /// The instruction budget.
    pub scale: Scale,
    /// How the measured phase executes.
    pub regime: Regime,
}

impl<'a> RunSpec<'a> {
    /// A full-detail run of one application.
    pub fn app(profile: BenchProfile, kind: &'a L2Kind, scale: Scale) -> Self {
        RunSpec {
            workload: Workload::App(profile),
            kind,
            scale,
            regime: Regime::Full,
        }
    }

    /// Digest of everything that determines the run's result bit for bit.
    /// Keys the run store and the on-disk artifacts: equal digests mean
    /// interchangeable results.
    pub fn run_digest(&self) -> Digest {
        let full = self.digest(Slice::Run);
        match (self.regime, self.workload) {
            (Regime::Full, _) => full,
            (Regime::Sampled { spec, intervals }, Workload::App(_)) => derive(
                SAMPLED_TAG,
                full,
                &[spec.period, spec.warmup, spec.measure, intervals],
            ),
            (Regime::Sampled { spec, .. }, Workload::Cmp(_)) => {
                derive(CMP_SAMPLED_TAG, full, &[spec.period, spec.warmup, spec.measure])
            }
            (Regime::Windowed { n }, _) => derive(WINDOWED_TAG, full, &[n]),
        }
    }

    /// Digest of the warm-up slice: the architectural knobs, the warm-up
    /// budget, the seed and the checkpoint version. Keys the checkpoint
    /// store. The regime is not part of it: sampled and windowed runs
    /// share their full twin's checkpoint.
    pub fn warmup_digest(&self) -> Digest {
        self.digest(Slice::Warmup)
    }

    /// Digest of the architectural snapshot at absolute trace `offset`,
    /// which seeds a sampling interval. Offset `scale.warmup` is the
    /// warm-up boundary itself, keyed by [`RunSpec::warmup_digest`].
    pub fn interval_digest(&self, offset: u64) -> Digest {
        derive(INTERVAL_TAG, self.warmup_digest(), &[offset])
    }

    fn digest(&self, s: Slice) -> Digest {
        let mut h = Hasher128::new();
        match &self.workload {
            Workload::App(p) => {
                h.write_str(match s {
                    Slice::Run => "nurapid-run-v1",
                    Slice::Warmup => "nurapid-warmup-v1",
                });
                digest_profile(&mut h, p);
            }
            Workload::Cmp(cfg) => {
                h.write_str(match s {
                    Slice::Run => "nurapid-cmp-run-v1",
                    Slice::Warmup => "nurapid-cmp-warmup-v1",
                });
                crate::cmp::digest_workload(&mut h, cfg, s);
            }
        }
        self.kind.digest_into(&mut h, s);
        h.write_u64(self.scale.warmup);
        s.timing(&mut h, |h| h.write_u64(self.scale.measure));
        h.write_u64(TRACE_SEED);
        if s == Slice::Warmup {
            h.write_u32(crate::checkpoint::CHECKPOINT_VERSION);
        }
        h.digest()
    }
}

/// The measured results of one application on one organization.
#[derive(Debug, Clone, PartialEq)]
pub struct AppRun {
    /// Application name.
    pub name: &'static str,
    /// Measured-phase core results.
    pub core: CoreResult,
    /// L2 accesses during the measured phase.
    pub l2_accesses: u64,
    /// L2 misses during the measured phase.
    pub l2_misses: u64,
    /// Fraction of L2 accesses hitting each d-group / bank-position-MB
    /// (empty for the base hierarchy).
    pub group_fracs: Vec<f64>,
    /// Fraction of L2 accesses that missed.
    pub miss_frac: f64,
    /// Total data-array (d-group or bank) accesses including swap and
    /// search traffic (0 for the base hierarchy).
    pub dgroup_accesses: u64,
    /// Block movements (promotions + demotions or bubble swaps).
    pub swaps: u64,
    /// Dynamic L2 energy over the measured phase.
    pub l2_energy: EnergyNj,
    /// Full-system energy tally over the measured phase.
    pub energy: EnergyTally,
}

impl AppRun {
    /// Measured IPC.
    pub fn ipc(&self) -> f64 {
        self.core.ipc()
    }

    /// L2 accesses per kilo-instruction (Table 3's metric).
    pub fn apki(&self) -> f64 {
        1000.0 * self.l2_accesses as f64 / self.core.instructions.max(1) as f64
    }

    /// Energy-delay product (relative unit).
    pub fn edp(&self) -> f64 {
        self.energy.energy_delay(self.core.cycles)
    }
}

/// Runs `profile` on the organization `kind` at `scale` with telemetry
/// disabled (the common path).
pub fn run_app(profile: BenchProfile, kind: &L2Kind, scale: Scale) -> AppRun {
    run_app_opts(profile, kind, scale, &TelemetrySink::disabled(), 0, RunOptions::default())
}

/// Runs `profile` on the organization `kind` at `scale`, recording
/// metrics, cycle-stamped spans, and periodic progress snapshots (every
/// `snap_every` cycles) into `sink`, with the warm-up mode, checkpoint
/// store, and wall-clock channel of [`RunOptions`]. Warm-up telemetry is
/// discarded at the drain barrier, so the sink reflects the measured
/// phase only — the same window the printed tables report.
pub fn run_app_opts(
    profile: BenchProfile,
    kind: &L2Kind,
    scale: Scale,
    sink: &TelemetrySink,
    snap_every: u64,
    opts: RunOptions<'_>,
) -> AppRun {
    drive(profile, kind, scale, sink, snap_every, opts, 1, |_, _| {})
}

/// Runs the warm-up instructions on `core` in the requested mode.
fn warm_up((core, gen): &mut ArchState, n: u64, mode: WarmupMode) {
    match mode {
        WarmupMode::FastForward => core.warm_run(gen, n),
        WarmupMode::Timed => core.run(gen, n),
    }
}

/// A single-core system's architectural state: the core (with its
/// predictor, L1s and lower organization) and the trace generator.
pub(crate) type ArchState = (Core, TraceGenerator);

/// A fresh, prefilled system at trace offset zero.
pub(crate) fn fresh_arch(profile: BenchProfile, kind: &L2Kind) -> ArchState {
    let mut lower = kind.build();
    lower.prefill();
    let mem = CoreMemSystem::micro2003(lower);
    let core = OooCore::new(CoreParams::micro2003(), mem);
    (core, TraceGenerator::new(profile, TRACE_SEED))
}

/// Serialises the architectural state in the checkpoint payload order:
/// generator, predictor, L1, lower organization.
pub(crate) fn save_arch((core, gen): &ArchState) -> Vec<u8> {
    let mut e = Encoder::new();
    gen.save_state(&mut e);
    core.predictor().save_state(&mut e);
    core.mem().save_l1_state(&mut e);
    core.mem().lower().save_state(&mut e);
    e.into_bytes()
}

/// Restores a [`save_arch`] payload. On an error the state is partly
/// overwritten and must be discarded.
pub(crate) fn load_arch((core, gen): &mut ArchState, payload: &[u8]) -> Result<(), SnapshotError> {
    let mut d = Decoder::new(payload);
    gen.load_state(&mut d)?;
    core.predictor_mut().load_state(&mut d)?;
    core.mem_mut().load_l1_state(&mut d)?;
    core.mem_mut().lower_mut().load_state(&mut d)?;
    d.finish()
}

/// Builds a run's warm state: `fresh`, then `warm`. With a checkpoint
/// store the state is restored under `digest` instead — decoded from the
/// blob on both the build and the reuse path, so cold and warm runs are
/// structurally identical by construction — and the hit or miss is
/// marked on the wall channel under `label`. Shared by the single-core
/// and CMP runners.
pub(crate) fn warm_state<S>(
    opts: RunOptions<'_>,
    digest: Digest,
    label: &str,
    mut fresh: impl FnMut() -> S,
    warm: impl FnOnce(&mut S),
    save: impl FnOnce(&S) -> Vec<u8>,
    load: impl Fn(&mut S, &[u8]) -> Result<(), SnapshotError>,
) -> S {
    let Some(store) = opts.checkpoints else {
        let mut state = fresh();
        warm(&mut state);
        return state;
    };
    let build = |state: &mut S| {
        warm(state);
        save(state)
    };
    let (state, _, hit) = store.get_or_build(digest, fresh, build, load);
    if let Some(w) = opts.wall {
        let outcome = if hit { "hit" } else { "miss" };
        w.wall_mark("simchk", &format!("{outcome}/{label}"));
    }
    state
}

/// The single-core organization behind its core and L1s.
pub(crate) type Core = OooCore<Box<dyn Organization>>;

/// The drain barrier at the stats boundary (DESIGN.md §11): clears every
/// piece of timing state, zeroes the statistics, and rebuilds the core
/// at cycle zero over the preserved architectural state. Every measured
/// phase starts here — full and windowed runs and each sampling interval
/// alike — which is what makes it independent of how the warm state was
/// built (timed, fast-forwarded, or restored from a checkpoint).
pub(crate) fn drain_barrier(core: Core, sink: &TelemetrySink, snap_every: u64) -> Core {
    let (mut mem, mut pred) = core.into_parts();
    mem.drain_timing();
    mem.lower_mut().drain_timing();
    mem.reset_stats();
    mem.lower_mut().reset_stats();
    pred.reset_counters();
    // Telemetry attaches only after the barrier, so the exported metrics
    // and spans cover exactly the measured window.
    sink.reset();
    mem.lower_mut().set_telemetry(sink, snap_every);
    mem.set_telemetry(sink.clone());
    let mut core = OooCore::new(CoreParams::micro2003(), mem);
    core.set_predictor(pred);
    core.set_telemetry(sink.clone(), snap_every);
    core
}

/// Applies every resize scheduled at op index `i`, advancing the cursor.
#[inline]
fn apply_resizes(core: &mut Core, resizes: &[(u64, u32)], next: &mut usize, i: u64) {
    while *next < resizes.len() && resizes[*next].0 == i {
        let target = resizes[*next].1;
        let now = simbase::Cycle::new(core.cycles());
        core.mem_mut()
            .lower_mut()
            .main_memory_mut()
            .expect("a resize schedule needs a DRAM-backed organization")
            .resize_l4(target, now);
        *next += 1;
    }
}

/// The one single-core lifecycle driver: warm-up (restored from a
/// checkpoint when the store has one), the drain barrier, then the
/// measured phase in `n_windows` equal instruction windows, applying any
/// L4 resize schedule at its op indices. `at_window` sees the core after
/// each window with the measured-op count so far; it runs only at window
/// boundaries, never per op. Dispatches through the [`Organization`]
/// trait only — this function is identical for every plugin.
#[allow(clippy::too_many_arguments)]
fn drive(
    profile: BenchProfile,
    kind: &L2Kind,
    scale: Scale,
    sink: &TelemetrySink,
    snap_every: u64,
    opts: RunOptions<'_>,
    n_windows: u64,
    mut at_window: impl FnMut(&Core, u64),
) -> AppRun {
    // Phase 1 — warm-up. Telemetry stays detached: warm-up produces
    // architectural state only.
    let t_warm = Instant::now();
    let (core, mut gen) = warm_state(
        opts,
        RunSpec::app(profile, kind, scale).warmup_digest(),
        profile.name,
        || fresh_arch(profile, kind),
        |state| warm_up(state, scale.warmup, opts.mode),
        save_arch,
        load_arch,
    );
    if let Some(w) = opts.wall {
        let cat = match opts.mode {
            WarmupMode::FastForward => "warmup-ff",
            WarmupMode::Timed => "warmup-timed",
        };
        let name = format!("{}/{}-ops", profile.name, scale.warmup);
        w.wall_span(cat, &name, t_warm.elapsed().as_nanos() as u64);
    }
    let mut core = drain_barrier(core, sink, snap_every);

    // Phase 2 — the measured run.
    let t_measure = Instant::now();
    let resizes = kind.resize_schedule();
    let mut next_resize = 0usize;
    let mut done = 0u64;
    for w in 1..=n_windows {
        let end = scale.measure * w / n_windows;
        for i in done..end {
            apply_resizes(&mut core, resizes, &mut next_resize, i);
            let op = gen.next_op();
            core.execute(op);
        }
        done = end;
        at_window(&core, end);
    }
    if let Some(w) = opts.wall {
        w.wall_span("measure", profile.name, t_measure.elapsed().as_nanos() as u64);
    }
    let result = core.finish();
    let mem = core.into_mem();
    let report = mem.lower().report();
    let l4 = mem.lower().main_memory().and_then(|m| m.l4_stats());
    finish_run(profile.name, result, mem.l1_accesses(), report, l4)
}

/// One window of a resize-transient run: the measured phase is split
/// into equal instruction windows and the per-window rates expose the
/// IPC/energy dip at each resize event and the recovery after it.
#[derive(Debug, Clone, PartialEq)]
pub struct TransientWindow {
    /// Instructions committed in this window.
    pub instructions: u64,
    /// Cycles elapsed in this window.
    pub cycles: u64,
    /// L4 event deltas over this window.
    pub l4: L4Stats,
    /// Live L4 bank count at the end of the window.
    pub n_banks: u32,
    /// Memory-tier (L4 + DRAM) energy of this window.
    pub memory_energy: EnergyNj,
}

impl TransientWindow {
    /// Window IPC.
    pub fn ipc(&self) -> f64 {
        self.instructions as f64 / self.cycles.max(1) as f64
    }
}

/// Runs `profile` on `kind` like [`run_app_opts`], but slices the
/// measured phase into `n_windows` equal instruction windows and
/// records per-window IPC, L4 traffic, bank count, and memory energy —
/// the `dram` experiment's resize-transient data. The access stream,
/// resize application, and final [`AppRun`] are bit-identical to an
/// unwindowed run of the same configuration (windowing only samples
/// counters between instructions).
pub fn run_app_transient(
    profile: BenchProfile,
    kind: &L2Kind,
    scale: Scale,
    n_windows: usize,
    opts: RunOptions<'_>,
) -> (AppRun, Vec<TransientWindow>) {
    assert!(n_windows > 0, "a transient run needs at least one window");
    let mut windows = Vec::with_capacity(n_windows);
    let (mut prev_end, mut prev_cycles, mut prev_l4, mut prev_mem) = (0, 0, L4Stats::default(), 0);
    let energy_model = CoreEnergyModel::micro2003();
    let sink = TelemetrySink::disabled();
    let run = drive(profile, kind, scale, &sink, 0, opts, n_windows as u64, |core, end| {
        let main = core.mem().lower().main_memory();
        let l4_now = main.and_then(|m| m.l4_stats());
        let mem_now = main.map_or(0, |m| m.accesses());
        let wl4 = l4_now.unwrap_or_default().minus(&prev_l4);
        let memory_energy = match l4_now {
            Some(_) => energy::l4::memory_energy(wl4.dram_blocks(), wl4.tag_probes, wl4.accesses),
            None => energy_model.memory_energy(mem_now - prev_mem),
        };
        windows.push(TransientWindow {
            instructions: end - prev_end,
            cycles: core.cycles() - prev_cycles,
            l4: wl4,
            n_banks: main.and_then(|m| m.l4()).map_or(0, |l| l.n_banks()),
            memory_energy,
        });
        let now = (end, core.cycles(), l4_now.unwrap_or_default(), mem_now);
        (prev_end, prev_cycles, prev_l4, prev_mem) = now;
    });
    (run, windows)
}

/// Prices the full-system energy tally and assembles the [`AppRun`] from
/// the organization's common [`OrgReport`]. With an L4 attached, the
/// memory tier is priced by [`energy::l4::memory_energy`] — only the
/// traffic that really crossed the DRAM channel costs the off-chip rate,
/// plus the L4's own access and tag-probe energy; without one, every
/// lower-cache miss is a full off-chip transfer, exactly as before.
fn finish_run(
    name: &'static str,
    core: CoreResult,
    l1_accesses: u64,
    r: OrgReport,
    l4: Option<L4Stats>,
) -> AppRun {
    let m = CoreEnergyModel::micro2003();
    let memory = match l4 {
        Some(s) => energy::l4::memory_energy(s.dram_blocks(), s.tag_probes, s.accesses),
        None => m.memory_energy(r.memory_accesses),
    };
    let energy = EnergyTally {
        core: m.core_energy(&core),
        l1: m.l1_energy(l1_accesses),
        l2: r.l2_energy,
        memory,
    };
    AppRun {
        name,
        core,
        l2_accesses: r.l2_accesses,
        l2_misses: r.l2_misses,
        group_fracs: r.group_fracs,
        miss_frac: r.miss_frac,
        dgroup_accesses: r.dgroup_accesses,
        swaps: r.swaps,
        l2_energy: r.l2_energy,
        energy,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use workloads::profiles::by_name;

    fn run_digest(profile: &BenchProfile, kind: &L2Kind, scale: Scale) -> Digest {
        RunSpec::app(*profile, kind, scale).run_digest()
    }

    fn warmup_digest(profile: &BenchProfile, kind: &L2Kind, scale: Scale) -> Digest {
        RunSpec::app(*profile, kind, scale).warmup_digest()
    }

    fn tiny() -> Scale {
        Scale {
            warmup: 30_000,
            measure: 60_000,
        }
    }

    #[test]
    fn base_run_produces_sane_numbers() {
        let r = run_app(by_name("applu").unwrap(), &L2Kind::Base, tiny());
        assert_eq!(r.core.instructions, 60_000);
        assert!(r.ipc() > 0.05 && r.ipc() < 8.0, "ipc={}", r.ipc());
        assert!(r.apki() > 1.0, "high-load app must reach the L2: {}", r.apki());
        assert!(r.energy.total().nj() > 0.0);
        assert!(r.group_fracs.is_empty());
    }

    #[test]
    fn nurapid_run_reports_group_fractions() {
        let r = run_app(
            by_name("galgel").unwrap(),
            &L2Kind::NuRapid(NuRapidConfig::micro2003(4)),
            tiny(),
        );
        assert_eq!(r.group_fracs.len(), 4);
        let total: f64 = r.group_fracs.iter().sum::<f64>() + r.miss_frac;
        assert!((total - 1.0).abs() < 1e-9, "fractions sum to 1, got {total}");
        assert!(r.group_fracs[0] > 0.3, "galgel's 1-MB hot set is fast");
    }

    #[test]
    fn dnuca_run_reports_position_fractions() {
        let r = run_app(
            by_name("galgel").unwrap(),
            &L2Kind::Dnuca(SearchPolicy::SsPerformance),
            tiny(),
        );
        assert_eq!(r.group_fracs.len(), 8);
        assert!(r.dgroup_accesses > r.l2_accesses, "multicast searches many banks");
    }

    #[test]
    fn low_load_app_rarely_reaches_l2() {
        let r = run_app(by_name("wupwise").unwrap(), &L2Kind::Base, tiny());
        assert!(r.apki() < 15.0, "low-load apki={}", r.apki());
    }

    #[test]
    fn deterministic_across_runs() {
        let k = L2Kind::NuRapid(NuRapidConfig::micro2003(4));
        let a = run_app(by_name("parser").unwrap(), &k, tiny());
        let b = run_app(by_name("parser").unwrap(), &k, tiny());
        assert_eq!(a.core.cycles, b.core.cycles);
        assert_eq!(a.l2_accesses, b.l2_accesses);
    }

    /// The warm-up oracle: for every configuration key and an L4 tier, a
    /// functional fast-forward warm-up and a full-timing warm-up produce
    /// the same [`AppRun`] bit for bit (both cross the identical drain
    /// barrier, so only the architectural state could differ — and it
    /// doesn't).
    #[test]
    fn fast_forward_and_timed_warmup_agree_bit_for_bit() {
        let app = by_name("galgel").unwrap();
        let mut kinds: Vec<L2Kind> = crate::exps::CONFIGS.iter().map(|(_, make)| make()).collect();
        let nf4 = L2Kind::NuRapid(NuRapidConfig::micro2003(4));
        kinds.push(L2Kind::L4(Box::new(nf4), L4Config::tdram()));
        let sink = TelemetrySink::disabled();
        for kind in &kinds {
            let opts = |mode| RunOptions { mode, ..Default::default() };
            let run = |mode| run_app_opts(app, kind, tiny(), &sink, 0, opts(mode));
            assert_eq!(
                run(WarmupMode::FastForward),
                run(WarmupMode::Timed),
                "warm-up modes diverged for {kind:?}"
            );
        }
    }

    /// The architectural state after a short fast-forward warm-up.
    fn warm_bytes(kind: &L2Kind) -> Vec<u8> {
        let mut state = fresh_arch(by_name("galgel").unwrap(), kind);
        warm_up(&mut state, 20_000, WarmupMode::FastForward);
        save_arch(&state)
    }

    /// Knob soundness (DESIGN.md §11): every knob tagged timing leaves
    /// the warm-up digest and the warm architectural bytes alone but
    /// moves the run digest; every architectural knob moves both digests.
    /// A mislabelled knob fails here by name.
    #[test]
    fn every_knob_is_tagged_soundly() {
        let app = by_name("galgel").unwrap();
        let nf = NuRapidConfig::micro2003(4);
        let cn = CnucaConfig::micro2003();
        let l4 = |edit: fn(&mut L4Config)| {
            let mut cfg = L4Config::tdram();
            edit(&mut cfg);
            L2Kind::L4(Box::new(L2Kind::NuRapid(nf.clone())), cfg)
        };
        let nurapid = |cfg| L2Kind::NuRapid(cfg);
        let perf = L2Kind::Dnuca(SearchPolicy::SsPerformance);
        let timing = [
            ("nurapid.ideal", nurapid(nf.clone()), nurapid(nf.clone().with_ideal())),
            ("dnuca.policy=ss-energy", perf.clone(), L2Kind::Dnuca(SearchPolicy::SsEnergy)),
            ("dnuca.policy=way-memo", perf.clone(), L2Kind::Dnuca(SearchPolicy::WayMemo)),
            (
                "cnuca.decomp_cycles",
                L2Kind::Cnuca(cn),
                L2Kind::Cnuca(CnucaConfig { decomp_cycles: cn.decomp_cycles + 3, ..cn }),
            ),
            ("l4.tag_sram_latency", l4(|_| {}), l4(|c| c.tag_sram_latency += 1)),
            ("l4.tag_probe_latency", l4(|_| {}), l4(|c| c.tag_probe_latency += 1)),
            ("l4.base_latency", l4(|_| {}), l4(|c| c.base_latency += 20)),
            ("l4.cycles_per_8b", l4(|_| {}), l4(|c| c.cycles_per_8b += 1)),
            ("l4.tag_cache_entries", l4(|_| {}), l4(|c| c.tag_cache_entries *= 2)),
            ("l4.resizes", l4(|_| {}), l4(|c| c.resizes = vec![(1_000, 4)])),
        ];
        for (name, base, knob) in &timing {
            let (b, k) = (RunSpec::app(app, base, tiny()), RunSpec::app(app, knob, tiny()));
            let same = warm_bytes(base) == warm_bytes(knob);
            let warmups = (b.warmup_digest(), k.warmup_digest());
            assert_eq!(warmups.0, warmups.1, "{name}: timing knob in the warm-up digest");
            assert_ne!(b.run_digest(), k.run_digest(), "{name}: knob missing from the run digest");
            assert!(same, "{name}: timing knob changed warm-up state");
        }

        let arch = [
            ("kind", L2Kind::Base, L2Kind::Coupled(4)),
            ("coupled.n", L2Kind::Coupled(4), L2Kind::Coupled(8)),
            (
                "nurapid.capacity",
                nurapid(nf.clone()),
                nurapid(NuRapidConfig { capacity: simbase::Capacity::from_mib(4), ..nf.clone() }),
            ),
            (
                "nurapid.assoc",
                nurapid(nf.clone()),
                nurapid(NuRapidConfig { assoc: 4, ..nf.clone() }),
            ),
            ("nurapid.n_dgroups", nurapid(nf.clone()), nurapid(NuRapidConfig::micro2003(8))),
            (
                "nurapid.promotion",
                nurapid(nf.clone()),
                nurapid(nf.clone().with_promotion(PromotionPolicy::Fastest)),
            ),
            (
                "nurapid.distance_victim",
                nurapid(nf.clone()),
                nurapid(nf.clone().with_distance_victim(DistanceVictimPolicy::Lru)),
            ),
            (
                "nurapid.seed",
                nurapid(nf.clone()),
                nurapid(NuRapidConfig { seed: nf.seed ^ 1, ..nf.clone() }),
            ),
            (
                "nurapid.frames_per_region",
                nurapid(nf.clone()),
                nurapid(nf.clone().with_frames_per_region(64)),
            ),
            (
                "cnuca.capacity",
                L2Kind::Cnuca(cn),
                L2Kind::Cnuca(CnucaConfig { capacity: simbase::Capacity::from_mib(4), ..cn }),
            ),
            (
                "cnuca.assoc",
                L2Kind::Cnuca(cn),
                L2Kind::Cnuca(CnucaConfig { assoc: cn.assoc * 2, ..cn }),
            ),
            (
                "cnuca.n_banks",
                L2Kind::Cnuca(cn),
                L2Kind::Cnuca(CnucaConfig { n_banks: cn.n_banks / 2, ..cn }),
            ),
            (
                "cnuca.n_positions",
                L2Kind::Cnuca(cn),
                L2Kind::Cnuca(CnucaConfig { n_positions: cn.n_positions / 2, ..cn }),
            ),
            (
                "cnuca.comp_seed",
                L2Kind::Cnuca(cn),
                L2Kind::Cnuca(CnucaConfig { comp_seed: cn.comp_seed ^ 1, ..cn }),
            ),
            ("l4.inner", l4(|_| {}), L2Kind::L4(Box::new(L2Kind::Base), L4Config::tdram())),
            ("l4.n_banks", l4(|_| {}), l4(|c| c.n_banks = 4)),
            ("l4.bank_blocks", l4(|_| {}), l4(|c| c.bank_blocks /= 2)),
            ("l4.assoc", l4(|_| {}), l4(|c| c.assoc /= 2)),
            ("l4.vnodes_per_bank", l4(|_| {}), l4(|c| c.vnodes_per_bank += 1)),
            ("l4.hash_seed", l4(|_| {}), l4(|c| c.hash_seed ^= 1)),
            ("l4.block_bytes", l4(|_| {}), l4(|c| c.block_bytes *= 2)),
        ];
        for (name, base, knob) in &arch {
            let (b, k) = (RunSpec::app(app, base, tiny()), RunSpec::app(app, knob, tiny()));
            assert_ne!(b.warmup_digest(), k.warmup_digest(), "{name}: architectural knob missing");
            assert_ne!(b.run_digest(), k.run_digest(), "{name}: knob missing from the run digest");
        }

        // The budget and the workload: the measured budget is timing, the
        // warm-up budget and the profile are architectural.
        let nf = nurapid(nf);
        let base = RunSpec::app(app, &nf, tiny());
        let longer = Scale { measure: tiny().measure + 1, ..tiny() };
        let measured = RunSpec::app(app, &nf, longer);
        assert_eq!(base.warmup_digest(), measured.warmup_digest(), "scale.measure");
        assert_ne!(base.run_digest(), measured.run_digest(), "scale.measure");
        let warmer = Scale { warmup: tiny().warmup + 1, ..tiny() };
        for (name, k) in [
            ("scale.warmup", RunSpec::app(app, &nf, warmer)),
            ("profile", RunSpec::app(by_name("mcf").unwrap(), &nf, tiny())),
        ] {
            assert_ne!(base.warmup_digest(), k.warmup_digest(), "{name}");
            assert_ne!(base.run_digest(), k.run_digest(), "{name}");
        }
    }

    fn temp_store(name: &str) -> (std::path::PathBuf, CheckpointStore) {
        let dir = std::env::temp_dir().join(format!(
            "simchk-runner-{name}-{}",
            std::process::id()
        ));
        let _ = std::fs::remove_dir_all(&dir);
        let store = CheckpointStore::open(&dir).expect("open checkpoint store");
        (dir, store)
    }

    #[test]
    fn checkpointed_runs_are_bit_identical_cold_and_warm() {
        let app = by_name("parser").unwrap();
        let kind = L2Kind::NuRapid(NuRapidConfig::micro2003(4));
        let sink = TelemetrySink::disabled();
        let direct = run_app_opts(app, &kind, tiny(), &sink, 0, RunOptions::default());

        let (dir, store) = temp_store("cold-warm");
        let opts = RunOptions {
            checkpoints: Some(&store),
            ..Default::default()
        };
        let cold = run_app_opts(app, &kind, tiny(), &sink, 0, opts);
        let warm = run_app_opts(app, &kind, tiny(), &sink, 0, opts);
        assert_eq!((store.misses(), store.hits()), (1, 1));
        assert_eq!(direct, cold, "cold store changed the result");
        assert_eq!(cold, warm, "warm store changed the result");

        // A fresh store over the same directory restores from disk.
        let reopened = CheckpointStore::open(&dir).expect("reopen");
        let from_disk = run_app_opts(
            app,
            &kind,
            tiny(),
            &sink,
            0,
            RunOptions {
                checkpoints: Some(&reopened),
                ..Default::default()
            },
        );
        assert_eq!((reopened.misses(), reopened.hits()), (0, 1));
        assert_eq!(direct, from_disk, "disk restore changed the result");
        let _ = std::fs::remove_dir_all(&dir);
    }

    /// `ideal` is a timing-only knob, so the ideal configuration reuses
    /// the checkpoint its non-ideal twin built — and still reproduces its
    /// own numbers exactly.
    #[test]
    fn ideal_config_reuses_twin_checkpoint_without_changing_results() {
        let app = by_name("galgel").unwrap();
        let nf = L2Kind::NuRapid(NuRapidConfig::micro2003(4));
        let id = L2Kind::NuRapid(NuRapidConfig::micro2003(4).with_ideal());
        let sink = TelemetrySink::disabled();
        let id_direct = run_app_opts(app, &id, tiny(), &sink, 0, RunOptions::default());

        let (dir, store) = temp_store("ideal-twin");
        let opts = RunOptions {
            checkpoints: Some(&store),
            ..Default::default()
        };
        let _nf = run_app_opts(app, &nf, tiny(), &sink, 0, opts);
        let id_chk = run_app_opts(app, &id, tiny(), &sink, 0, opts);
        assert_eq!(
            (store.misses(), store.hits()),
            (1, 1),
            "ideal must share its twin's checkpoint"
        );
        assert_eq!(id_direct, id_chk);
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn warmup_digest_separates_architectural_knobs() {
        let app = by_name("galgel").unwrap();
        let nf = L2Kind::NuRapid(NuRapidConfig::micro2003(4));
        let base = warmup_digest(&app, &nf, tiny());
        let shorter = Scale {
            warmup: tiny().warmup - 1,
            measure: tiny().measure,
        };
        let variants = [
            warmup_digest(&by_name("parser").unwrap(), &nf, tiny()),
            warmup_digest(&app, &L2Kind::Base, tiny()),
            warmup_digest(&app, &L2Kind::Coupled(4), tiny()),
            warmup_digest(&app, &L2Kind::Dnuca(SearchPolicy::SsPerformance), tiny()),
            warmup_digest(&app, &L2Kind::NuRapid(NuRapidConfig::micro2003(8)), tiny()),
            warmup_digest(
                &app,
                &L2Kind::NuRapid(
                    NuRapidConfig::micro2003(4).with_promotion(PromotionPolicy::Fastest),
                ),
                tiny(),
            ),
            warmup_digest(
                &app,
                &L2Kind::NuRapid(
                    NuRapidConfig::micro2003(4)
                        .with_distance_victim(DistanceVictimPolicy::Lru),
                ),
                tiny(),
            ),
            warmup_digest(&app, &nf, shorter),
        ];
        for (i, v) in variants.iter().enumerate() {
            assert_ne!(base, *v, "architectural variant {i} aliased the digest");
        }
    }

    /// Compressed NUCA's warm state depends on the compressibility map
    /// (placement follows it), so its digest must be disjoint from every
    /// baseline organization *and* from other compression seeds — a
    /// compressed-NUCA run may never be served a baseline checkpoint.
    #[test]
    fn warmup_digest_isolates_compressed_nuca() {
        let app = by_name("galgel").unwrap();
        let cnuca = L2Kind::Cnuca(CnucaConfig::micro2003());
        let base = warmup_digest(&app, &cnuca, tiny());
        let mut reseeded = CnucaConfig::micro2003();
        reseeded.comp_seed ^= 1;
        let variants = [
            warmup_digest(&app, &L2Kind::Base, tiny()),
            warmup_digest(&app, &L2Kind::Dnuca(SearchPolicy::SsPerformance), tiny()),
            warmup_digest(&app, &L2Kind::Dnuca(SearchPolicy::WayMemo), tiny()),
            warmup_digest(&app, &L2Kind::NuRapid(NuRapidConfig::micro2003(4)), tiny()),
            warmup_digest(&app, &L2Kind::Cnuca(reseeded), tiny()),
        ];
        for (i, v) in variants.iter().enumerate() {
            assert_ne!(base, *v, "variant {i} aliased the compressed-NUCA digest");
        }
    }

    /// Store-level proof of the same property: running D-NUCA and then
    /// compressed NUCA against one [`CheckpointStore`] must build two
    /// separate checkpoints (2 misses, 0 cross-hits), while the way-memo
    /// policy warm-hits the checkpoint its sibling policy built.
    #[test]
    fn compressed_nuca_never_serves_a_baseline_checkpoint() {
        let app = by_name("parser").unwrap();
        let sink = TelemetrySink::disabled();
        let (dir, store) = temp_store("cnuca-isolation");
        let opts = RunOptions {
            checkpoints: Some(&store),
            ..Default::default()
        };
        let dn = run_app_opts(
            app,
            &L2Kind::Dnuca(SearchPolicy::SsPerformance),
            tiny(),
            &sink,
            0,
            opts,
        );
        let cn = run_app_opts(
            app,
            &L2Kind::Cnuca(CnucaConfig::micro2003()),
            tiny(),
            &sink,
            0,
            opts,
        );
        assert_eq!(
            (store.misses(), store.hits()),
            (2, 0),
            "compressed NUCA must not share a baseline warm checkpoint"
        );
        assert_ne!(dn, cn, "organizations with distinct placement agreed exactly");

        // The memo policy reuses the D-NUCA checkpoint and still
        // reproduces its uncheckpointed numbers bit for bit.
        let memo_direct = run_app_opts(
            app,
            &L2Kind::Dnuca(SearchPolicy::WayMemo),
            tiny(),
            &sink,
            0,
            RunOptions::default(),
        );
        let memo_warm = run_app_opts(
            app,
            &L2Kind::Dnuca(SearchPolicy::WayMemo),
            tiny(),
            &sink,
            0,
            opts,
        );
        assert_eq!(
            (store.misses(), store.hits()),
            (2, 1),
            "way memoization must warm-hit the D-NUCA checkpoint"
        );
        assert_eq!(memo_direct, memo_warm, "warm restore changed way-memo results");
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn run_digest_is_stable_and_total() {
        let app = by_name("galgel").unwrap();
        let k = L2Kind::NuRapid(NuRapidConfig::micro2003(4));
        assert_eq!(run_digest(&app, &k, tiny()), run_digest(&app, &k, tiny()));

        // Every axis of the job identity must move the digest.
        let base = run_digest(&app, &k, tiny());
        let variants = [
            run_digest(&by_name("wupwise").unwrap(), &k, tiny()),
            run_digest(&app, &L2Kind::Base, tiny()),
            run_digest(&app, &L2Kind::Coupled(4), tiny()),
            run_digest(&app, &L2Kind::Dnuca(SearchPolicy::SsEnergy), tiny()),
            run_digest(&app, &L2Kind::NuRapid(NuRapidConfig::micro2003(8)), tiny()),
            run_digest(&app, &k, Scale { warmup: 40_000, measure: 60_001 }),
        ];
        for (i, v) in variants.iter().enumerate() {
            assert_ne!(base, *v, "variant {i} aliased the base digest");
        }
    }

    #[test]
    fn run_digest_separates_every_nurapid_knob() {
        use nurapid::{DistanceVictimPolicy, PromotionPolicy};
        let app = by_name("galgel").unwrap();
        let d = |c: NuRapidConfig| run_digest(&app, &L2Kind::NuRapid(c), tiny());
        let base = NuRapidConfig::micro2003(4);
        let mut reseeded = base.clone();
        reseeded.seed ^= 1;
        let knobs = [
            d(base.clone().with_promotion(PromotionPolicy::DemotionOnly)),
            d(base.clone().with_promotion(PromotionPolicy::Fastest)),
            d(base.clone().with_distance_victim(DistanceVictimPolicy::Lru)),
            d(base.clone().with_distance_victim(DistanceVictimPolicy::ClockApprox)),
            d(base.clone().with_ideal()),
            d(base.clone().with_frames_per_region(256)),
            d(base.clone().with_frames_per_region(64)),
            d(reseeded),
        ];
        let baseline = d(base);
        for (i, k) in knobs.iter().enumerate() {
            assert_ne!(baseline, *k, "knob {i} not captured by the digest");
        }
        // And all knob variants are mutually distinct.
        for i in 0..knobs.len() {
            for j in i + 1..knobs.len() {
                assert_ne!(knobs[i], knobs[j], "knobs {i} and {j} collide");
            }
        }
    }

    #[test]
    fn l4_digests_separate_the_tier_and_share_timing_knobs() {
        let app = by_name("galgel").unwrap();
        let inner = L2Kind::NuRapid(NuRapidConfig::micro2003(4));
        let l4 = |c: L4Config| L2Kind::L4(Box::new(inner.clone()), c);
        let base = l4(L4Config::tdram());

        // Attaching an L4 is a different run and different warm state.
        assert_ne!(run_digest(&app, &inner, tiny()), run_digest(&app, &base, tiny()));
        assert_ne!(
            warmup_digest(&app, &inner, tiny()),
            warmup_digest(&app, &base, tiny())
        );

        // Geometry is architectural: it splits the warm-up digest.
        let mut small = L4Config::tdram();
        small.n_banks = 4;
        assert_ne!(
            warmup_digest(&app, &base, tiny()),
            warmup_digest(&app, &l4(small), tiny())
        );

        // Latency and tag-cache sizing are timing-only: their variants
        // share the warm checkpoint but stay distinct runs.
        let mut slow = L4Config::tdram();
        slow.base_latency += 20;
        slow.tag_cache_entries = 256;
        assert_eq!(
            warmup_digest(&app, &base, tiny()),
            warmup_digest(&app, &l4(slow.clone()), tiny())
        );
        assert_ne!(run_digest(&app, &base, tiny()), run_digest(&app, &l4(slow), tiny()));

        // The resize schedule applies to the measured phase only: it
        // enters the run digest but never the warm-up digest.
        let resized = l4(L4Config::tdram().with_resizes(vec![(1_000, 4)]));
        assert_eq!(
            warmup_digest(&app, &base, tiny()),
            warmup_digest(&app, &resized, tiny())
        );
        assert_ne!(run_digest(&app, &base, tiny()), run_digest(&app, &resized, tiny()));
    }

    #[test]
    fn l4_checkpointed_runs_are_bit_identical_cold_and_warm() {
        let app = by_name("parser").unwrap();
        let inner = L2Kind::NuRapid(NuRapidConfig::micro2003(4));
        let kind = L2Kind::L4(
            Box::new(inner.clone()),
            L4Config::tdram().with_resizes(vec![(tiny().measure / 2, 4)]),
        );
        let sink = TelemetrySink::disabled();
        let direct = run_app_opts(app, &kind, tiny(), &sink, 0, RunOptions::default());

        let (dir, store) = temp_store("l4-cold-warm");
        let opts = RunOptions {
            checkpoints: Some(&store),
            ..Default::default()
        };
        let cold = run_app_opts(app, &kind, tiny(), &sink, 0, opts);
        let warm = run_app_opts(app, &kind, tiny(), &sink, 0, opts);
        assert_eq!((store.misses(), store.hits()), (1, 1));
        assert_eq!(direct, cold, "cold store changed the result");
        assert_eq!(cold, warm, "warm store changed the result");

        // The L4-enabled blob never serves the L4-free twin: the inner
        // organization builds (and reuses) its own checkpoint.
        let plain_direct = run_app_opts(app, &inner, tiny(), &sink, 0, RunOptions::default());
        let plain = run_app_opts(app, &inner, tiny(), &sink, 0, opts);
        assert_eq!((store.misses(), store.hits()), (2, 1));
        assert_eq!(plain_direct, plain, "L4-free twin changed under the shared store");
        let _ = std::fs::remove_dir_all(&dir);
    }
}
