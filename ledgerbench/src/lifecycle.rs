//! The run lifecycle of `experiments::runner` — build, functional
//! warm-up, drain barrier, measured phase — driven from the benchmark so
//! that a shim can sit at the core/organization boundary. The ledger
//! proves this mirror faithful: its results must equal
//! `experiments::runner::run_app_opts` bit for bit.

use crate::measure::Ticks;
use cpu::{CoreParams, OooCore};
use experiments::{AppRun, L2Kind};
use memsys::l1::CoreMemSystem;
use memsys::lower::{LowerCache, LowerOutcome};
use memsys::org::{OrgReport, Organization};
use simbase::snapshot::{Decoder, Encoder, SnapshotError};
use simbase::{AccessKind, BlockAddr, Cycle};
use simtel::TelemetrySink;
use std::cell::{Cell, RefCell};
use std::rc::Rc;
use workloads::{BenchProfile, TraceGenerator};

/// The simulated core over a boxed organization, as the runner builds it.
pub type Core = OooCore<Box<dyn Organization>>;

/// One L1-miss access presented to an organization, with its outcome.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Access {
    /// Block in the organization's own framing.
    pub block: BlockAddr,
    /// Read or write.
    pub kind: AccessKind,
    /// Cycle the access was presented at.
    pub now: Cycle,
    /// What the organization answered.
    pub out: LowerOutcome,
}

/// Span totals a timing shim accumulates: ticks exclude the clock's own
/// read overhead.
#[derive(Debug, Default)]
pub struct OrgSpans {
    /// Timed accesses.
    pub calls: Cell<u64>,
    /// Ticks inside timed accesses.
    pub ticks: Cell<u64>,
    /// Functional (warm) accesses.
    pub warm_calls: Cell<u64>,
    /// Ticks inside functional accesses.
    pub warm_ticks: Cell<u64>,
}

enum Tap {
    Time(Ticks, Rc<OrgSpans>),
    Record(Rc<RefCell<Vec<Access>>>),
}

/// An organization wrapper that either times every access (the ledger)
/// or records every timed access with its outcome (org-replay's stream
/// capture). Every other call forwards unchanged, so the simulation is
/// the same with or without it.
pub struct Shim {
    inner: Box<dyn Organization>,
    tap: Tap,
}

impl Shim {
    /// A shim timing `inner`'s accesses into `spans`.
    pub fn timing(inner: Box<dyn Organization>, clock: Ticks, spans: Rc<OrgSpans>) -> Box<Self> {
        Box::new(Shim {
            inner,
            tap: Tap::Time(clock, spans),
        })
    }

    /// A shim appending `inner`'s timed accesses to `log`.
    pub fn recording(inner: Box<dyn Organization>, log: Rc<RefCell<Vec<Access>>>) -> Box<Self> {
        Box::new(Shim {
            inner,
            tap: Tap::Record(log),
        })
    }
}

fn add(cell: &Cell<u64>, v: u64) {
    cell.set(cell.get() + v);
}

impl LowerCache for Shim {
    fn access(&mut self, block: BlockAddr, kind: AccessKind, now: Cycle) -> LowerOutcome {
        match &self.tap {
            Tap::Time(clock, spans) => {
                let t0 = clock.now();
                let out = self.inner.access(block, kind, now);
                add(
                    &spans.ticks,
                    (clock.now() - t0).saturating_sub(clock.overhead),
                );
                add(&spans.calls, 1);
                out
            }
            Tap::Record(log) => {
                let out = self.inner.access(block, kind, now);
                log.borrow_mut().push(Access {
                    block,
                    kind,
                    now,
                    out,
                });
                out
            }
        }
    }

    fn accesses(&self) -> u64 {
        self.inner.accesses()
    }

    fn misses(&self) -> u64 {
        self.inner.misses()
    }

    fn block_bytes(&self) -> u64 {
        self.inner.block_bytes()
    }

    fn warm_access(&mut self, block: BlockAddr, kind: AccessKind) {
        match &self.tap {
            Tap::Time(clock, spans) => {
                let t0 = clock.now();
                self.inner.warm_access(block, kind);
                add(
                    &spans.warm_ticks,
                    (clock.now() - t0).saturating_sub(clock.overhead),
                );
                add(&spans.warm_calls, 1);
            }
            Tap::Record(_) => self.inner.warm_access(block, kind),
        }
    }
}

impl Organization for Shim {
    fn prefill(&mut self) {
        self.inner.prefill();
    }

    fn reset_stats(&mut self) {
        self.inner.reset_stats();
    }

    fn set_telemetry(&mut self, sink: &TelemetrySink, snap_every: u64) {
        self.inner.set_telemetry(sink, snap_every);
    }

    fn drain_timing(&mut self) {
        self.inner.drain_timing();
    }

    fn save_state(&self, e: &mut Encoder) {
        self.inner.save_state(e);
    }

    fn load_state(&mut self, d: &mut Decoder) -> Result<(), SnapshotError> {
        self.inner.load_state(d)
    }

    fn report(&self) -> OrgReport {
        self.inner.report()
    }

    fn main_memory(&self) -> Option<&memsys::memory::MainMemory> {
        self.inner.main_memory()
    }

    fn main_memory_mut(&mut self) -> Option<&mut memsys::memory::MainMemory> {
        self.inner.main_memory_mut()
    }
}

/// Builds the trace generator and the core over `lower`, prefilled —
/// the runner's construction step.
pub fn build(
    profile: BenchProfile,
    seed: u64,
    mut lower: Box<dyn Organization>,
) -> (Core, TraceGenerator) {
    let gen = TraceGenerator::new(profile, seed);
    lower.prefill();
    let core = OooCore::new(CoreParams::micro2003(), CoreMemSystem::micro2003(lower));
    (core, gen)
}

/// The drain barrier at the statistics boundary: timing state cleared,
/// statistics zeroed, the core rebuilt at cycle zero over the preserved
/// architectural state.
pub fn barrier(core: Core) -> Core {
    let (mut mem, mut pred) = core.into_parts();
    mem.drain_timing();
    mem.lower_mut().drain_timing();
    mem.reset_stats();
    mem.lower_mut().reset_stats();
    pred.reset_counters();
    let sink = TelemetrySink::disabled();
    sink.reset();
    mem.lower_mut().set_telemetry(&sink, 0);
    mem.set_telemetry(sink.clone());
    let mut core = OooCore::new(CoreParams::micro2003(), mem);
    core.set_predictor(pred);
    core.set_telemetry(sink, 0);
    core
}

/// Encodes a warm system as the checkpoint store does: generator,
/// predictor, L1s, organization.
pub fn encode(core: &Core, gen: &TraceGenerator) -> Vec<u8> {
    let mut e = Encoder::new();
    gen.save_state(&mut e);
    core.predictor().save_state(&mut e);
    core.mem().save_l1_state(&mut e);
    core.mem().lower().save_state(&mut e);
    e.into_bytes()
}

/// Restores a checkpoint written by [`encode`] into a freshly built
/// system.
///
/// # Errors
///
/// Fails on a payload that does not decode in full.
pub fn decode(blob: &[u8], core: &mut Core, gen: &mut TraceGenerator) -> Result<(), SnapshotError> {
    let mut d = Decoder::new(blob);
    gen.load_state(&mut d)?;
    core.predictor_mut().load_state(&mut d)?;
    core.mem_mut().load_l1_state(&mut d)?;
    core.mem_mut().lower_mut().load_state(&mut d)?;
    d.finish()
}

/// Assembles the [`AppRun`] the runner reports for a finished core —
/// the same pricing as `experiments::runner`'s `finish_run`.
pub fn app_run(name: &'static str, core: &Core) -> AppRun {
    let result = core.finish();
    let lower = core.mem().lower();
    let r = lower.report();
    let m = energy::core::CoreEnergyModel::micro2003();
    let memory = match lower.main_memory().and_then(|mm| mm.l4_stats()) {
        Some(s) => energy::l4::memory_energy(s.dram_blocks(), s.tag_probes, s.accesses),
        None => m.memory_energy(r.memory_accesses),
    };
    let energy = energy::EnergyTally {
        core: m.core_energy(&result),
        l1: m.l1_energy(core.mem().l1_accesses()),
        l2: r.l2_energy,
        memory,
    };
    AppRun {
        name,
        core: result,
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

/// Whether two results are bit-identical: `{:?}` prints every float
/// shortest-round-trip, so equal renderings mean equal bits.
pub fn same_bits<T: std::fmt::Debug>(a: &T, b: &T) -> bool {
    format!("{a:?}") == format!("{b:?}")
}

/// The organization a benchmark key names: the report's keys, plus
/// `nf4-l4` — nf4 over the L4 DRAM-cache tier.
pub fn org_kind(key: &str) -> L2Kind {
    match key {
        "nf4-l4" => L2Kind::L4(
            Box::new(experiments::exps::kind_of("nf4")),
            experiments::L4Config::tdram(),
        ),
        k => experiments::exps::kind_of(k),
    }
}

/// Set-up of the workloads that simulate through the runner: one
/// quick-scale run of mcf on each organization in `keys`, on each of the
/// reference machine's two cores at once (so set-up time does not depend
/// on which core the scheduler picks). It builds and prefills every
/// organization and brings the simulator's code and the allocator to a
/// steady state before anything is timed.
pub fn warm_up(keys: &[&str]) {
    let mcf = workloads::profiles::by_name("mcf").expect("mcf is in the roster");
    std::thread::scope(|scope| {
        for _ in 0..crate::THREADS {
            scope.spawn(|| {
                for key in keys {
                    let kind = experiments::exps::kind_of(key);
                    let run = experiments::runner::run_app(mcf, &kind, experiments::Scale::quick());
                    std::hint::black_box(run);
                }
            });
        }
    });
}
