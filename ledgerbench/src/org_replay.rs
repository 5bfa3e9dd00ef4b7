//! `org-replay`: real L1-miss streams replayed through
//! `Organization::access` alone.
//!
//! Set-up captures, for each high-APKI profile and each organization,
//! the stream of timed accesses `(block, kind, now, outcome)` the core
//! presents after warm-up, plus the organization's post-barrier
//! snapshot. The profiles are driven by the benchmark's seed. A timed
//! pass restores a fresh organization from each snapshot and replays its
//! stream on one thread; every replayed outcome must equal the recorded
//! one. The generator and the core do no work here, so an
//! organization change shows in full.

use crate::lifecycle::{self, Access, Shim};
use crate::measure::{self, Ticks};
use crate::{Family, Report, Samples, Stat};
use cpu::uop::TraceSource;
use experiments::{L2Kind, Scale};
use memsys::org::OrgReport;
use simbase::snapshot::{Decoder, Encoder, SnapshotError};
use std::cell::RefCell;
use std::rc::Rc;
use std::time::{Duration, Instant};
use workloads::BenchProfile;

/// Organizations replayed: (key, module the code lives in, family).
pub const ORGS: &[(&str, &str, Family)] = &[
    ("base", "memsys", Family::Base),
    ("nf4", "nurapid", Family::NuRapid),
    ("nf8", "nurapid", Family::NuRapid),
    ("sa4", "nurapid", Family::NuRapid),
    ("dn-perf", "nuca", Family::Nuca),
    ("dn-energy", "nuca", Family::Nuca),
    ("cnuca", "nuca", Family::Nuca),
    ("nf4-l4", "memsys.dramcache", Family::Dram),
];

/// High-APKI profiles whose streams are captured (Table 3: mcf 68.7 and
/// equake 41.4 L2 accesses per kilo-instruction).
pub const PROFILES: &[&str] = &["mcf", "equake"];

/// Capture budget: a functional warm-up long enough to settle the
/// prefilled arrays, then the measured instructions whose L1 misses form
/// the stream.
pub const CAPTURE: Scale = Scale {
    warmup: 500_000,
    measure: 400_000,
};

/// Set-up repetitions; every repetition must capture identical streams.
const SETUP_REPS: usize = 5;

/// One captured stream.
pub struct Stream {
    /// Index into [`ORGS`].
    pub org: usize,
    kind: L2Kind,
    /// Post-barrier architectural snapshot of the organization.
    pub snapshot: Vec<u8>,
    /// The timed accesses in presentation order.
    pub accesses: Vec<Access>,
}

/// Captures the streams of every profile × organization with `seed`,
/// one thread per profile, in profile-major order.
pub fn capture(seed: u64) -> Vec<Stream> {
    std::thread::scope(|scope| {
        let workers: Vec<_> = PROFILES
            .iter()
            .map(|name| {
                scope.spawn(move || {
                    let profile =
                        workloads::profiles::by_name(name).expect("profile in the roster");
                    (0..ORGS.len())
                        .map(|org| capture_one(profile, seed, org, CAPTURE))
                        .collect::<Vec<_>>()
                })
            })
            .collect();
        workers
            .into_iter()
            .flat_map(|w| w.join().expect("capture thread panicked"))
            .collect()
    })
}

fn capture_one(profile: BenchProfile, seed: u64, org: usize, scale: Scale) -> Stream {
    let kind = lifecycle::org_kind(ORGS[org].0);
    let log = Rc::new(RefCell::new(Vec::new()));
    let (mut core, mut gen) = lifecycle::build(
        profile,
        seed,
        Shim::recording(kind.build(), Rc::clone(&log)),
    );
    core.warm_run(&mut gen, scale.warmup);
    let mut core = lifecycle::barrier(core);
    let mut e = Encoder::new();
    core.mem().lower().save_state(&mut e);
    let snapshot = e.into_bytes();
    for _ in 0..scale.measure {
        core.execute(gen.next_op());
    }
    drop(core);
    let accesses = Rc::try_unwrap(log).expect("the core is gone").into_inner();
    Stream {
        org,
        kind,
        snapshot,
        accesses,
    }
}

/// Accesses per timed chunk of a replay. A chunk takes well under a
/// millisecond, far shorter than the seconds a busy neighbour on a shared
/// host stays, so every chunk is seen at its best several times a run.
pub const CHUNK: usize = 4096;

/// The result of replaying one stream.
pub struct Replayed {
    /// Ticks spent in the access loop alone.
    pub ticks: u64,
    /// The same, per chunk of [`CHUNK`] accesses.
    pub chunks: Vec<u64>,
    /// Wall time of restore plus replay.
    pub wall: Duration,
    /// Accesses whose outcome differed from the recorded one.
    pub mismatches: u64,
    /// The organization's report after the replay.
    pub report: OrgReport,
}

/// Restores a fresh organization from `stream`'s snapshot, crossing the
/// runner's barrier (prefill → `load_state` → `drain_timing` →
/// `reset_stats`), and replays the stream. `slowdown` stretches the
/// access loop by that fraction of its own time (the sensitivity proof;
/// 0 in normal runs).
///
/// # Errors
///
/// Fails when the snapshot does not decode.
pub fn replay(stream: &Stream, clock: &Ticks, slowdown: f64) -> Result<Replayed, SnapshotError> {
    let start = Instant::now();
    let mut org = stream.kind.build();
    org.prefill();
    let mut d = Decoder::new(&stream.snapshot);
    org.load_state(&mut d)?;
    d.finish()?;
    org.drain_timing();
    org.reset_stats();
    let mut mismatches = 0;
    let mut chunks = Vec::with_capacity(stream.accesses.len().div_ceil(CHUNK));
    for part in stream.accesses.chunks(CHUNK) {
        let t0 = clock.now();
        for a in part {
            if org.access(a.block, a.kind, a.now) != a.out {
                mismatches += 1;
            }
        }
        measure::inject(
            slowdown,
            Duration::from_nanos(clock.ns(clock.now() - t0) as u64),
        );
        chunks.push(clock.now() - t0);
    }
    Ok(Replayed {
        ticks: chunks.iter().sum(),
        chunks,
        wall: start.elapsed(),
        mismatches,
        report: org.report(),
    })
}

/// One timed pass over every stream.
pub struct Pass {
    /// Wall time of the whole pass.
    pub wall: Duration,
    /// Per stream, in capture order.
    pub streams: Vec<Replayed>,
}

/// Replays every stream once, on the calling thread. One thread leaves
/// the reference machine's other core to everything else the host runs
/// for the process, so the replays see no contention of their own.
pub fn pass(streams: &[Stream], clock: &Ticks, slowdown: f64) -> Result<Pass, SnapshotError> {
    let start = Instant::now();
    let streams = streams
        .iter()
        .map(|s| replay(s, clock, slowdown))
        .collect::<Result<_, _>>()?;
    Ok(Pass {
        wall: start.elapsed(),
        streams,
    })
}

/// Operations and checks of a series of timed passes.
#[derive(Default)]
pub struct Tally {
    /// Replayed accesses.
    pub attempted: u64,
    /// Replayed accesses whose outcome differed from the recorded one.
    pub failed: u64,
    /// Whether some pass's organization reports differed from `reference`.
    pub reports_changed: bool,
}

/// [`pass`], tallying its operations and checking every stream's report
/// against `reference`.
///
/// # Errors
///
/// Fails when a snapshot does not decode.
pub fn checked_pass(
    streams: &[Stream],
    reference: &[OrgReport],
    clock: &Ticks,
    slowdown: f64,
    tally: &mut Tally,
) -> Result<Pass, String> {
    let p = pass(streams, clock, slowdown).map_err(|e| format!("snapshot restore failed: {e}"))?;
    for ((s, r), want) in streams.iter().zip(&p.streams).zip(reference) {
        tally.attempted += s.accesses.len() as u64;
        tally.failed += r.mismatches;
        tally.reports_changed |= !lifecycle::same_bits(&r.report, want);
    }
    Ok(p)
}

/// The `org-replay` workload.
pub fn run(seed: u64, budget: Duration, slowdown: f64) -> Result<Report, String> {
    let clock = Ticks::calibrate();
    let mut out = Samples::default();
    let mut captures = Vec::new();
    let (streams, setup_s) = measure::median_setup(SETUP_REPS, || {
        let s = capture(seed);
        captures.push(fingerprint(&s));
        s
    });
    if captures.iter().any(|c| *c != captures[0]) {
        out.problem("stream capture did not repeat exactly across set-ups");
    }
    let reference = reports(&streams, &clock).map_err(|e| e.to_string())?;
    let instructions = (streams.len() as u64 * CAPTURE.measure) as f64;
    let mut tally = Tally::default();
    measure::repeat_for(budget, 3, || {
        let p = checked_pass(&streams, &reference, &clock, slowdown, &mut tally)?;
        let mut unit = 0;
        for (i, (s, r)) in streams.iter().zip(&p.streams).enumerate() {
            out.job(i, r.wall.as_secs_f64());
            for (part, &ticks) in s.accesses.chunks(CHUNK).zip(&r.chunks) {
                let seconds = clock.ns(ticks) * 1e-9;
                out.served(unit, ORGS[s.org].2, part.len() as f64, seconds);
                unit += 1;
            }
        }
        out.rep(p.wall.as_secs_f64(), instructions);
        Ok::<(), String>(())
    })?;
    (out.attempted, out.failed) = (tally.attempted, tally.failed);
    if tally.reports_changed {
        out.problem("a replay's organization report changed between passes");
    }
    out.report(Stat::Best, setup_s)
}

/// Each stream's report after one untimed replay — the counters every
/// timed pass must reproduce exactly.
pub fn reports(streams: &[Stream], clock: &Ticks) -> Result<Vec<OrgReport>, SnapshotError> {
    streams
        .iter()
        .map(|s| replay(s, clock, 0.0).map(|r| r.report))
        .collect()
}

/// A digest of a capture (snapshots and streams), to check that set-up
/// repeats exactly.
fn fingerprint(streams: &[Stream]) -> u128 {
    let mut h = simbase::digest::Hasher128::new();
    for s in streams {
        h.write_str(ORGS[s.org].0);
        h.write_u64(s.snapshot.len() as u64);
        h.write_bytes(&s.snapshot);
        for a in &s.accesses {
            h.write_u64(a.block.index());
            h.write_bool(a.kind.is_write());
            h.write_u64(a.now.raw());
            h.write_u64(a.out.complete_at.raw());
            h.write_bool(a.out.hit);
        }
    }
    h.digest().raw()
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tiny(key: &'static str) -> Stream {
        let profile = workloads::profiles::by_name("mcf").expect("mcf");
        let org = ORGS.iter().position(|o| o.0 == key).expect("known key");
        capture_one(
            profile,
            7,
            org,
            Scale {
                warmup: 20_000,
                measure: 30_000,
            },
        )
    }

    #[test]
    fn replay_reproduces_every_outcome() {
        let clock = Ticks::calibrate();
        for key in ["base", "nf4", "nf4-l4"] {
            let s = tiny(key);
            assert!(s.accesses.len() > 100, "{key}: too few accesses to test");
            let r = replay(&s, &clock, 0.0).expect("snapshot decodes");
            assert_eq!(r.mismatches, 0, "{key}");
            assert_eq!(r.report.l2_accesses, s.accesses.len() as u64);
        }
    }

    #[test]
    fn a_corrupted_outcome_counts_as_one_failed_access() {
        let clock = Ticks::calibrate();
        let mut s = tiny("nf4");
        let mid = s.accesses.len() / 2;
        s.accesses[mid].out.hit = !s.accesses[mid].out.hit;
        assert_eq!(
            replay(&s, &clock, 0.0)
                .expect("snapshot decodes")
                .mismatches,
            1
        );
    }

    #[test]
    fn a_corrupted_snapshot_is_an_error_not_a_panic() {
        let clock = Ticks::calibrate();
        let mut s = tiny("base");
        s.snapshot.truncate(s.snapshot.len() / 2);
        assert!(replay(&s, &clock, 0.0).is_err());
    }

    #[test]
    fn capture_repeats_exactly_for_a_seed() {
        let (a, b) = (tiny("dn-perf"), tiny("dn-perf"));
        assert_eq!(fingerprint(&[a]), fingerprint(&[b]));
    }
}
