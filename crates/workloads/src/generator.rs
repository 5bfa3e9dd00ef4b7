//! The trace generator: turns a [`BenchProfile`] into a deterministic
//! micro-op stream.
//!
//! Address streams are a three-component mixture:
//!
//! * **recent-line reuse** — re-touching one of the last few cache lines,
//!   absorbed by the L1 (sets the L2 access rate);
//! * **hot region** — uniform traffic over a multi-megabyte reused
//!   footprint with a skewed inner core, the component whose residency in
//!   the fast d-groups the paper's policies fight over;
//! * **streaming region** — sequential bursts over a large cold footprint
//!   (compulsory L2 misses and d-group pollution).
//!
//! Instruction fetch walks a loop over the profile's code footprint, and
//! branch outcomes are drawn with per-site bias so the hybrid predictor
//! sees realistic (mostly predictable, occasionally not) streams.

use crate::profiles::BenchProfile;
use cpu::uop::{MicroOp, OpClass, TraceSource};
use simbase::rng::{Bernoulli, SimRng};
use simbase::snapshot::{Decoder, Encoder, SnapshotError};
use simbase::Addr;

/// Virtual-address bases for the three data regions and code.
const CODE_BASE: u64 = 0x0040_0000;
const HOT_BASE: u64 = 0x4000_0000;
const STREAM_BASE: u64 = 0x8000_0000;

/// Recently-touched lines remembered for L1-reuse draws.
const RECENT_LINES: usize = 8;

/// Probability of staying in a burst of new-line accesses.
const STAY_IN_BURST: f64 = 0.65;

/// Fixed draw probabilities of the mixture process.
const STAY: Bernoulli = Bernoulli::new(STAY_IN_BURST);
const NO_DEP: Bernoulli = Bernoulli::new(0.15);
const DEP_STEP: Bernoulli = Bernoulli::new(0.45);
const CHASE_STEP: Bernoulli = Bernoulli::new(0.5);
const FP_OP: Bernoulli = Bernoulli::new(0.55);
const FP_MUL: Bernoulli = Bernoulli::new(0.4);
const INT_MUL: Bernoulli = Bernoulli::new(0.05);
/// Hot-region tier boundaries, as thresholds on a `unit_bits` draw.
const TIER_INNER: u64 = Bernoulli::new(0.50).threshold();
const TIER_MIDDLE: u64 = Bernoulli::new(0.88).threshold();

/// Everything the hot path derives from the profile, computed once.
#[derive(Debug, Clone, Copy)]
struct Derived {
    /// Instructions in the code loop.
    loop_len: u64,
    branch_every: u64,
    taken: Bernoulli,
    /// `unit_bits` thresholds for `roll < load_frac` and
    /// `roll < load_frac + store_frac`.
    load_below: u64,
    mem_below: u64,
    dep_load: Bernoulli,
    /// Leaving an L1-reuse run for a burst of new lines.
    enter_burst: Bernoulli,
    hot: Bernoulli,
    /// Line-index bounds of the inner, middle and outer hot tiers.
    tier_lines: [u64; 3],
    /// 128-B blocks in the hot region (the initialization sweep's length).
    hot_blocks: u64,
    /// Hot blocks laid out with folded set bits, and the set residues
    /// they fold into.
    fold_range: u32,
    fold_sets: u32,
    stream_bytes: u64,
    stream_blocks: u64,
    burst_span: u64,
    fp: bool,
}

impl Derived {
    fn new(p: &BenchProfile) -> Self {
        let mean_burst = 1.0 / (1.0 - STAY_IN_BURST);
        let enter = (1.0 - p.l1_reuse) / (mean_burst * p.l1_reuse.max(0.01));
        let lines = p.hot_footprint.bytes() / 32;
        let hot_blocks = p.hot_footprint.bytes() / 128;
        let fold = |n: u64| u32::try_from(n).expect("hot footprint below 4 TiB");
        Derived {
            loop_len: (p.code_footprint.bytes() / 4).max(64),
            branch_every: u64::from(p.branch_every),
            taken: Bernoulli::new(p.branch_bias),
            load_below: Bernoulli::new(p.load_frac).threshold(),
            mem_below: Bernoulli::new(p.load_frac + p.store_frac).threshold(),
            dep_load: Bernoulli::new(p.dep_load_frac),
            enter_burst: Bernoulli::new(enter),
            hot: Bernoulli::new(p.hot_frac),
            tier_lines: [(lines / 16).max(1), (lines / 4).max(1), lines / 2],
            hot_blocks,
            fold_range: fold(hot_blocks / 8),
            fold_sets: fold((hot_blocks / 40).max(16)),
            stream_bytes: p.stream_footprint.bytes(),
            stream_blocks: p.stream_footprint.bytes() / 128,
            burst_span: 2 * u64::from(p.spatial_run),
            fp: p.fp,
        }
    }
}

/// A deterministic micro-op generator for one benchmark.
///
/// # Examples
///
/// ```
/// use workloads::{profiles, TraceGenerator};
/// use cpu::uop::TraceSource;
///
/// let mcf = profiles::by_name("mcf").expect("in the roster");
/// let mut gen = TraceGenerator::new(mcf, 1);
/// let ops: Vec<_> = (0..1000).map(|_| gen.next_op()).collect();
/// // Same profile + seed => the same trace.
/// let mut again = TraceGenerator::new(mcf, 1);
/// assert!(ops.iter().all(|op| *op == again.next_op()));
/// ```
#[derive(Debug, Clone)]
pub struct TraceGenerator {
    profile: BenchProfile,
    k: Derived,
    rng: SimRng,
    /// Instruction counter (drives the PC loop and branch placement).
    i: u64,
    /// `i % loop_len` and `i % branch_every`, kept incrementally; not
    /// snapshot payload ([`Self::load_state`] re-derives them from `i`).
    pc_slot: u64,
    br_slot: u64,
    /// Ring of recently-touched line addresses.
    recent: [u64; RECENT_LINES],
    recent_n: usize,
    /// Current streaming position (bytes from STREAM_BASE).
    stream_pos: u64,
    /// Remaining lines in the current streaming burst.
    burst_left: u32,
    /// Whether the previous op was a load whose value the next op consumes.
    chain_next: bool,
    /// Remaining blocks of the initialization sweep over the hot region
    /// (programs touch their data structures once while building them;
    /// this also guarantees the hot region is warm before measurement).
    init_left: u64,
    /// Instructions since the last fresh hot-region load (for load-to-load
    /// chaining), saturating at 255.
    since_hot_load: u8,
    /// Whether the generator is inside a burst of new-line accesses.
    /// Memory traffic that escapes the L1 is bursty: programs alternate
    /// compute phases (register/L1 traffic) with data-structure traversal
    /// phases (several new lines close together). Burstiness is what lets
    /// dependent lower-level accesses sit within the 64-entry window.
    in_new_burst: bool,
}

impl TraceGenerator {
    /// Creates a generator for `profile` with the given seed.
    pub fn new(profile: BenchProfile, seed: u64) -> Self {
        let k = Derived::new(&profile);
        TraceGenerator {
            profile,
            k,
            rng: SimRng::seeded(seed ^ fxhash(profile.name)),
            i: 0,
            pc_slot: 0,
            br_slot: 0,
            recent: [HOT_BASE; RECENT_LINES],
            recent_n: 0,
            stream_pos: 0,
            burst_left: 0,
            chain_next: false,
            init_left: k.hot_blocks,
            since_hot_load: u8::MAX,
            in_new_burst: false,
        }
    }

    /// The profile driving this generator.
    pub fn profile(&self) -> &BenchProfile {
        &self.profile
    }

    /// Serialises the generator's position in its stream (RNG state and
    /// all mixture-process state). The profile itself is construction
    /// input, not snapshot payload.
    pub fn save_state(&self, e: &mut Encoder) {
        for w in self.rng.state() {
            e.put_u64(w);
        }
        e.put_u64(self.i);
        e.put_u64_slice(&self.recent);
        e.put_u64(self.recent_n as u64);
        e.put_u64(self.stream_pos);
        e.put_u32(self.burst_left);
        e.put_bool(self.chain_next);
        e.put_u64(self.init_left);
        e.put_u8(self.since_hot_load);
        e.put_bool(self.in_new_burst);
    }

    /// Restores state written by [`Self::save_state`] into a generator
    /// built from the same profile and seed.
    ///
    /// # Errors
    ///
    /// Returns [`SnapshotError::Malformed`] on a truncated or mismatched
    /// payload, or on state this profile's generator can never reach: an
    /// initialization sweep longer than the hot region, or a streaming
    /// position outside the streaming region or off a 128-B block.
    pub fn load_state(&mut self, d: &mut Decoder) -> Result<(), SnapshotError> {
        let rng_state = [d.u64()?, d.u64()?, d.u64()?, d.u64()?];
        let i = d.u64()?;
        let recent = d.u64_slice()?;
        if recent.len() != RECENT_LINES {
            return Err(SnapshotError::Malformed("recent-line ring size mismatch"));
        }
        let recent_n = d.u64()? as usize;
        let stream_pos = d.u64()?;
        let burst_left = d.u32()?;
        let chain_next = d.bool()?;
        let init_left = d.u64()?;
        let since_hot_load = d.u8()?;
        let in_new_burst = d.bool()?;
        if init_left > self.k.hot_blocks {
            return Err(SnapshotError::Malformed(
                "initialization sweep longer than the hot region",
            ));
        }
        // A fresh generator's position is 0 even with an empty region.
        if stream_pos % 128 != 0 || (stream_pos >= self.k.stream_bytes && stream_pos != 0) {
            return Err(SnapshotError::Malformed(
                "streaming position outside the streaming region",
            ));
        }
        self.rng = SimRng::from_state(rng_state);
        self.i = i;
        self.pc_slot = i % self.k.loop_len;
        self.br_slot = i.checked_rem(self.k.branch_every).unwrap_or(0);
        self.recent.copy_from_slice(&recent);
        self.recent_n = recent_n;
        self.stream_pos = stream_pos;
        self.burst_left = burst_left;
        self.chain_next = chain_next;
        self.init_left = init_left;
        self.since_hot_load = since_hot_load;
        self.in_new_burst = in_new_burst;
        Ok(())
    }

    fn remember(&mut self, line: u64) {
        self.recent[self.recent_n % RECENT_LINES] = line;
        self.recent_n += 1;
    }

    /// Draws the next data line address (32-B aligned), returning the line
    /// and whether it is a *fresh hot-region* reference (a likely
    /// lower-level-cache access on the program's critical path).
    fn data_line(&mut self) -> (u64, bool) {
        let k = self.k;
        // Initialization sweep: one touch per 128-B block of the hot
        // region, sequential, at full memory-op rate.
        if self.init_left > 0 {
            let idx = k.hot_blocks - self.init_left;
            self.init_left -= 1;
            let line = self.hot_addr(idx * 4);
            self.remember(line);
            return (line, false);
        }
        // Two-state burst process with long-run new-line fraction
        // (1 - l1_reuse): reuse runs (L1 hits) alternate with short bursts
        // of new lines (mean burst ~2.9 lines).
        if self.in_new_burst {
            if !self.rng.bernoulli(STAY) {
                self.in_new_burst = false;
            }
        } else {
            if self.recent_n > 0 && !self.rng.bernoulli(k.enter_burst) {
                // Stay in the reuse run: L1 hit.
                let n = self.recent_n.min(RECENT_LINES);
                return (self.recent[self.rng.index(n)], false);
            }
            self.in_new_burst = true;
        }
        let (line, fresh_hot) = if self.rng.bernoulli(k.hot) {
            // Hot region: three-tier skew (Zipf-like), so reuse intervals
            // span from tens of thousands of instructions (the inner core,
            // which any organization keeps close) to millions (the outer
            // region, where placement policy decides who wins).
            let tier = self.rng.unit_bits();
            let bound = if tier < TIER_INNER {
                k.tier_lines[0]
            } else if tier < TIER_MIDDLE {
                k.tier_lines[1]
            } else {
                k.tier_lines[2]
            };
            let idx = self.rng.below(bound);
            (self.hot_addr(idx), true)
        } else {
            // Streaming: a burst of 128-B-strided touches (one per L2
            // block, the worst case for the lower-level cache), jumping to
            // a random position when the burst ends.
            if self.burst_left == 0 {
                self.burst_left = 1 + self.rng.below(k.burst_span) as u32;
                self.stream_pos = self.rng.below(k.stream_blocks) * 128;
            }
            self.burst_left -= 1;
            let line = STREAM_BASE + self.stream_pos;
            // `stream_pos < stream_bytes`, so one subtract wraps it.
            self.stream_pos += 128;
            if self.stream_pos >= k.stream_bytes {
                self.stream_pos -= k.stream_bytes;
            }
            (line, false)
        };
        self.remember(line);
        (line, fresh_hot)
    }

    /// Maps a 32-B line index within the hot region to its address.
    ///
    /// The hottest eighth of the region is laid out with *folded* set
    /// bits, concentrating it into ~1/25 as many cache sets (about five
    /// live hot blocks per set). This models the paper's hot sets
    /// (Section 2.1: "the tendency of individual sets to be hot with many
    /// accesses to many ways over a short period") — the pressure that
    /// coupled placement cannot serve from the fastest d-group but
    /// distance-associative placement can.
    fn hot_addr(&self, idx: u64) -> u64 {
        const L2_SETS: u64 = 8192;
        let block = idx / 4;
        let within = idx % 4;
        if block < u64::from(self.k.fold_range) {
            // Fold into `fold_sets` set-residues, keeping blocks distinct.
            let (block, sets) = (block as u32, self.k.fold_sets);
            let aliased = u64::from(block % sets) + u64::from(block / sets) * L2_SETS;
            HOT_BASE + (aliased * 4 + within) * 32
        } else {
            HOT_BASE + idx * 32
        }
    }

    /// Dependency distance for a register source: short geometric within
    /// the window, or none.
    fn dep(&mut self) -> u8 {
        if self.rng.bernoulli(NO_DEP) {
            0
        } else {
            1 + self.rng.geometric_with(DEP_STEP, 20) as u8
        }
    }
}

fn fxhash(s: &str) -> u64 {
    s.bytes()
        .fold(0xcbf2_9ce4_8422_2325u64, |h, b| {
            (h ^ b as u64).wrapping_mul(0x100_0000_01b3)
        })
}

impl cpu::uop::TraceCursor for TraceGenerator {
    /// The stream is offset-addressable through its op counter: a
    /// generator restored from [`TraceGenerator::load_state`] reports the
    /// position the snapshot was taken at, so sampled and
    /// interval-parallel runs can fast-forward to absolute trace offsets
    /// without replaying (or even knowing) the prefix.
    fn position(&self) -> u64 {
        self.i
    }
}

impl TraceSource for TraceGenerator {
    fn next_op(&mut self) -> MicroOp {
        let k = self.k;
        self.i += 1;
        self.pc_slot += 1;
        if self.pc_slot == k.loop_len {
            self.pc_slot = 0;
        }
        let pc = Addr::new(CODE_BASE + self.pc_slot * 4);
        self.since_hot_load = self.since_hot_load.saturating_add(1);

        let chained = std::mem::take(&mut self.chain_next);

        // Branch sites are periodic in the loop body.
        self.br_slot += 1;
        if self.br_slot == k.branch_every {
            self.br_slot = 0;
            let mut op = MicroOp::branch(pc, self.rng.bernoulli(k.taken));
            op.dep1 = if chained { 1 } else { self.dep() };
            return op;
        }

        let roll = self.rng.unit_bits();
        if roll < k.load_below {
            let (line, fresh_hot) = self.data_line();
            let addr = Addr::new(line + self.rng.below(4) * 8);
            let mut op = MicroOp::load(pc, addr, 0);
            // Pointer chasing: this load's address came from a recent load.
            op.dep1 = if self.rng.bernoulli(k.dep_load) {
                1 + self.rng.geometric_with(CHASE_STEP, 3) as u8
            } else {
                self.dep()
            };
            // Fresh hot-region loads walk linked/indexed structures: each
            // depends on the previous one (the address came from its
            // value), putting the lower-level cache's hit latency on the
            // program's critical path — the paper's operative assumption.
            if fresh_hot {
                if self.since_hot_load < 60 {
                    op.dep1 = self.since_hot_load;
                }
                self.since_hot_load = 0;
                self.chain_next = true;
            } else if self.rng.bernoulli(k.dep_load) {
                self.chain_next = true;
            }
            op
        } else if roll < k.mem_below {
            let (line, _) = self.data_line();
            let addr = Addr::new(line + self.rng.below(4) * 8);
            let mut op = MicroOp::store(pc, addr, 0);
            op.dep1 = if chained { 1 } else { self.dep() };
            op
        } else {
            let mut op = MicroOp::alu(pc);
            op.class = if k.fp && self.rng.bernoulli(FP_OP) {
                if self.rng.bernoulli(FP_MUL) {
                    OpClass::FpMul
                } else {
                    OpClass::FpAlu
                }
            } else if self.rng.bernoulli(INT_MUL) {
                OpClass::IntMul
            } else {
                OpClass::IntAlu
            };
            op.dep1 = if chained { 1 } else { self.dep() };
            op.dep2 = self.dep();
            op
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::profiles::{by_name, ROSTER};

    fn gen(name: &str) -> TraceGenerator {
        TraceGenerator::new(by_name(name).unwrap(), 1)
    }

    #[test]
    fn deterministic_given_seed() {
        let mut a = gen("applu");
        let mut b = gen("applu");
        for _ in 0..1000 {
            assert_eq!(a.next_op(), b.next_op());
        }
    }

    #[test]
    fn different_apps_produce_different_streams() {
        let mut a = gen("applu");
        let mut b = gen("mcf");
        let same = (0..1000).filter(|_| a.next_op() == b.next_op()).count();
        assert!(same < 100, "streams should diverge, {same} identical");
    }

    #[test]
    fn instruction_mix_tracks_profile() {
        let p = by_name("equake").unwrap();
        let mut g = TraceGenerator::new(p, 3);
        let n = 100_000;
        let mut loads = 0;
        let mut stores = 0;
        let mut branches = 0;
        for _ in 0..n {
            match g.next_op().class {
                OpClass::Load => loads += 1,
                OpClass::Store => stores += 1,
                OpClass::Branch => branches += 1,
                _ => {}
            }
        }
        let lf = loads as f64 / n as f64;
        let sf = stores as f64 / n as f64;
        let bf = branches as f64 / n as f64;
        // Branches displace some of the mix; allow tolerance.
        assert!((lf - p.load_frac).abs() < 0.05, "load frac {lf}");
        assert!((sf - p.store_frac).abs() < 0.04, "store frac {sf}");
        assert!((bf - 1.0 / p.branch_every as f64).abs() < 0.02, "branch frac {bf}");
    }

    /// Drives `g` for `ops` ops, failing on any address outside the hot
    /// and streaming regions.
    fn assert_addresses_in_regions(g: &mut TraceGenerator, ops: usize) {
        let p = *g.profile();
        for _ in 0..ops {
            let op = g.next_op();
            if let Some(a) = op.mem_addr {
                let a = a.raw();
                // The folded hot-set mapping spreads the hottest
                // eighth over up to 40 set-strides of 8192 blocks.
                let hot_span = p.hot_footprint.bytes() + 41 * 8192 * 128;
                let in_hot = (HOT_BASE..HOT_BASE + hot_span).contains(&a);
                let in_stream = (STREAM_BASE
                    ..STREAM_BASE + p.stream_footprint.bytes() + 32)
                    .contains(&a);
                assert!(in_hot || in_stream, "{}: stray address {a:#x}", p.name);
            }
        }
    }

    #[test]
    fn memory_addresses_stay_in_their_regions() {
        for p in ROSTER {
            assert_addresses_in_regions(&mut TraceGenerator::new(p, 9), 20_000);
        }
    }

    /// A hand-built `save_state` payload with the given initialization
    /// sweep and streaming position (everything else plausible).
    fn payload(init_left: u64, stream_pos: u64) -> Vec<u8> {
        let mut e = Encoder::new();
        for w in SimRng::seeded(3).state() {
            e.put_u64(w);
        }
        e.put_u64(1_000); // i
        e.put_u64_slice(&[HOT_BASE; RECENT_LINES]);
        e.put_u64(RECENT_LINES as u64); // recent_n
        e.put_u64(stream_pos);
        e.put_u32(4); // burst_left
        e.put_bool(false); // chain_next
        e.put_u64(init_left);
        e.put_u8(9); // since_hot_load
        e.put_bool(true); // in_new_burst
        e.into_bytes()
    }

    #[test]
    fn load_state_rejects_unreachable_sweep_and_stream_positions() {
        let p = by_name("mcf").unwrap();
        let blocks = p.hot_footprint.bytes() / 128;
        let stream = p.stream_footprint.bytes();
        let load = |bytes: &[u8]| {
            let mut g = TraceGenerator::new(p, 1);
            g.load_state(&mut Decoder::new(bytes)).map(|()| g)
        };
        // The extremes a real stream reaches load and stay in region.
        for (init_left, stream_pos) in [(0, 0), (blocks, 0), (1, stream - 128)] {
            let mut g = load(&payload(init_left, stream_pos))
                .unwrap_or_else(|e| panic!("({init_left}, {stream_pos:#x}): {e:?}"));
            assert_addresses_in_regions(&mut g, 50_000);
        }
        // A sweep longer than the hot region used to underflow the sweep
        // index; a streaming position past the region or off a block
        // boundary used to emit stray addresses.
        let bad = [
            (blocks + 1, 0),
            (u64::MAX, 0),
            (0, stream),
            (0, stream + 128),
            (0, u64::MAX - 127),
            (0, 64),
            (0, stream - 1),
        ];
        for (init_left, stream_pos) in bad {
            let mut g = TraceGenerator::new(p, 1);
            let before = g.clone().next_op();
            let err = g.load_state(&mut Decoder::new(&payload(init_left, stream_pos)));
            assert!(
                matches!(err, Err(SnapshotError::Malformed(_))),
                "({init_left}, {stream_pos:#x}) must be malformed, got {err:?}"
            );
            // A rejected payload leaves the generator untouched.
            assert_eq!(g.next_op(), before);
        }
    }

    #[test]
    fn an_empty_streaming_region_still_roundtrips() {
        let mut p = by_name("gcc").unwrap();
        p.hot_frac = 1.0;
        p.stream_footprint = simbase::Capacity::from_bytes(0);
        let g = TraceGenerator::new(p, 2);
        let mut e = Encoder::new();
        g.save_state(&mut e);
        let mut restored = TraceGenerator::new(p, 2);
        restored
            .load_state(&mut Decoder::new(&e.into_bytes()))
            .expect("a fresh generator's own state loads");
    }

    #[test]
    fn pcs_walk_the_code_loop() {
        let p = by_name("gcc").unwrap();
        let mut g = TraceGenerator::new(p, 5);
        let span = p.code_footprint.bytes();
        for _ in 0..10_000 {
            let pc = g.next_op().pc.raw();
            assert!((CODE_BASE..CODE_BASE + span).contains(&pc));
        }
    }

    #[test]
    fn fp_apps_emit_fp_ops() {
        let mut g = gen("swim");
        let fp = (0..10_000)
            .filter(|_| {
                matches!(g.next_op().class, OpClass::FpAlu | OpClass::FpMul)
            })
            .count();
        assert!(fp > 1000, "fp app must emit fp ops, got {fp}");
        let mut g = gen("mcf");
        let fp = (0..10_000)
            .filter(|_| {
                matches!(g.next_op().class, OpClass::FpAlu | OpClass::FpMul)
            })
            .count();
        assert_eq!(fp, 0, "int app must not emit fp ops");
    }

    #[test]
    fn pointer_chasers_chain_dependencies() {
        // mcf's dep_load_frac (0.45) must yield more tightly-dependent
        // loads than swim's (0.06); fresh hot-region loads chain in both.
        let chain_rate = |name: &str| {
            let mut g = gen(name);
            let mut loads = 0;
            let mut chained = 0;
            for _ in 0..50_000 {
                let op = g.next_op();
                if op.class == OpClass::Load {
                    loads += 1;
                    if op.dep1 > 0 && op.dep1 <= 4 {
                        chained += 1;
                    }
                }
            }
            chained as f64 / loads as f64
        };
        let mcf = chain_rate("mcf");
        let swim = chain_rate("swim");
        assert!(mcf > swim + 0.05, "mcf {mcf} vs swim {swim}");
        assert!(mcf > 0.3, "pointer chaser must chain often: {mcf}");
    }

    #[test]
    fn state_roundtrip_resumes_the_exact_stream() {
        for p in ROSTER {
            let mut g = TraceGenerator::new(p, 17);
            for _ in 0..50_000 {
                let _ = g.next_op();
            }
            let mut e = simbase::snapshot::Encoder::new();
            g.save_state(&mut e);
            let bytes = e.into_bytes();

            let mut restored = TraceGenerator::new(p, 17);
            let mut d = simbase::snapshot::Decoder::new(&bytes);
            restored.load_state(&mut d).expect("load");
            d.finish().expect("no trailing bytes");
            for i in 0..20_000 {
                assert_eq!(
                    g.next_op(),
                    restored.next_op(),
                    "{}: op {i} diverged after restore",
                    p.name
                );
            }
        }
    }

    #[test]
    fn position_survives_state_roundtrip() {
        use cpu::uop::TraceCursor;
        let p = by_name("galgel").unwrap();
        let mut g = TraceGenerator::new(p, 17);
        assert_eq!(g.position(), 0);
        for _ in 0..12_345 {
            let _ = g.next_op();
        }
        assert_eq!(g.position(), 12_345);

        let mut e = simbase::snapshot::Encoder::new();
        g.save_state(&mut e);
        let bytes = e.into_bytes();
        let mut restored = TraceGenerator::new(p, 17);
        let mut d = simbase::snapshot::Decoder::new(&bytes);
        restored.load_state(&mut d).expect("load");
        // A restored stream knows the absolute offset its snapshot was
        // taken at — the contract offset-addressed (sampled) runs rely on.
        assert_eq!(restored.position(), 12_345);
        let _ = restored.next_op();
        assert_eq!(restored.position(), 12_346);
    }

    #[test]
    fn streaming_bursts_are_sequential() {
        // With hot_frac forced to 0 and l1_reuse 0, consecutive lines
        // should often differ by exactly 32 bytes.
        let mut p = by_name("swim").unwrap();
        p.hot_frac = 0.0;
        p.l1_reuse = 0.0;
        let mut g = TraceGenerator::new(p, 11);
        let mut prev = None;
        let mut seq = 0;
        let mut total = 0;
        let mut skip_init = 70_000; // skip the initialization sweep
        while skip_init > 0 {
            let op = g.next_op();
            if op.mem_addr.is_some() {
                skip_init -= 1;
            }
        }
        for _ in 0..50_000 {
            let op = g.next_op();
            if let Some(a) = op.mem_addr {
                let line = a.raw() & !31;
                if let Some(pl) = prev {
                    total += 1;
                    if line == pl + 128 || line == pl {
                        seq += 1;
                    }
                }
                prev = Some(line);
            }
        }
        assert!(
            seq as f64 / total as f64 > 0.7,
            "streaming must be mostly sequential: {seq}/{total}"
        );
    }
}
