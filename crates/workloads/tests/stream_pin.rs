//! Pins the trace generator's output stream and snapshot bytes.
//!
//! Every experiment result in the repo is a function of the micro-op
//! stream `TraceGenerator` emits, and every stored `.simchk` checkpoint
//! embeds its `save_state` bytes. Two legs hold both fixed:
//!
//! * `stream_and_snapshot_digests_are_frozen` (always runs): FNV-1a
//!   digests, as literal constants, of the first 1 M ops of every roster
//!   profile at the experiments' trace seed and at seed 1, plus of the
//!   `save_state` bytes at op 500 000; a generator restored from those
//!   bytes must continue the stream op-for-op for 10 000 ops.
//! * `matches_the_frozen_oracle_op_for_op` (`#[ignore]`, run with
//!   `cargo test --release -p workloads -- --ignored`): the pre-rewrite
//!   generator, kept verbatim in `oracle/mod.rs`, against the production
//!   one over 15 profiles × 5 seeds × 3 M ops, comparing every op and
//!   the `save_state` bytes at several points, including after a restore
//!   from the oracle's bytes.

mod oracle;

use cpu::uop::{MicroOp, OpClass, TraceSource};
use oracle::OracleGenerator;
use simbase::snapshot::{Decoder, Encoder};
use workloads::{TraceGenerator, ROSTER};

/// `experiments::runner::TRACE_SEED`, the seed every reported run uses.
const TRACE_SEED: u64 = 0x5eed;

const FNV_OFFSET: u64 = 0xcbf2_9ce4_8422_2325;

fn fnv1a(h: &mut u64, bytes: &[u8]) {
    for &b in bytes {
        *h = (*h ^ u64::from(b)).wrapping_mul(0x100_0000_01b3);
    }
}

fn fold_op(h: &mut u64, op: &MicroOp) {
    let class: u8 = match op.class {
        OpClass::IntAlu => 0,
        OpClass::IntMul => 1,
        OpClass::FpAlu => 2,
        OpClass::FpMul => 3,
        OpClass::Load => 4,
        OpClass::Store => 5,
        OpClass::Branch => 6,
    };
    fnv1a(h, &[class]);
    fnv1a(h, &op.pc.raw().to_le_bytes());
    match op.mem_addr {
        Some(a) => {
            fnv1a(h, &[1]);
            fnv1a(h, &a.raw().to_le_bytes());
        }
        None => fnv1a(h, &[0]),
    }
    fnv1a(h, &[op.dep1, op.dep2, u8::from(op.taken)]);
}

fn state_bytes(gen: &TraceGenerator) -> Vec<u8> {
    let mut e = Encoder::new();
    gen.save_state(&mut e);
    e.into_bytes()
}

const OPS: u64 = 1_000_000;
const SNAPSHOT_AT: u64 = 500_000;
const RESUMED_OPS: u64 = 10_000;

/// `(stream digest, state digest)` for one profile and seed, checking
/// the restored generator against the original along the way.
fn digests(profile: workloads::BenchProfile, seed: u64) -> (u64, u64) {
    let mut gen = TraceGenerator::new(profile, seed);
    let mut stream = FNV_OFFSET;
    let mut state = FNV_OFFSET;
    let mut restored: Option<TraceGenerator> = None;
    for i in 1..=OPS {
        let op = gen.next_op();
        fold_op(&mut stream, &op);
        if let Some(r) = restored.as_mut().filter(|_| i <= SNAPSHOT_AT + RESUMED_OPS) {
            assert_eq!(
                r.next_op(),
                op,
                "{}/{seed:#x}: restored stream diverged at op {i}",
                profile.name
            );
        }
        if i == SNAPSHOT_AT {
            let bytes = state_bytes(&gen);
            fnv1a(&mut state, &bytes);
            let mut r = TraceGenerator::new(profile, seed);
            let mut d = Decoder::new(&bytes);
            r.load_state(&mut d).expect("snapshot loads");
            d.finish().expect("no trailing bytes");
            restored = Some(r);
        }
    }
    (stream, state)
}

/// Per profile: stream and state digests at `TRACE_SEED`, then at seed 1.
#[rustfmt::skip]
const FROZEN: [(&str, [u64; 4]); 15] = [
    ("applu", [0x8453ff0c2f23efeb, 0x83d3fe7d3a5bdda4, 0x16212b35811c2ab0, 0x76224bedab0bee05]),
    ("apsi", [0x40d9595b9294d686, 0x16998bbbfcbb8411, 0xebbc4789881e65fb, 0x1c394406325a0332]),
    ("art", [0x42d130067bf1fd7f, 0x664c0b5d36e594bc, 0x33ff3a67206fe277, 0x2c81378f999dd253]),
    ("bzip2", [0x7a2264548243cba0, 0x68dbb3a094efb1d8, 0x432977125a2bd995, 0x1e36f264ef8cc242]),
    ("equake", [0x5013149c0dc23ae1, 0xa3c9d997ea8eaddc, 0x83cd0066376fe196, 0x85acc8a54252440f]),
    ("galgel", [0xe949bac064e85955, 0x6b9fef36a7d99288, 0x3bf733d174fbcd81, 0xeaa179e31ee718db]),
    ("gcc", [0x17efcf165f84f9eb, 0x0cd1eda65ae698a1, 0x0580de3340517769, 0xcbbaf721afec2edf]),
    ("mcf", [0x6747730af624634a, 0xb268a9db547ec490, 0x43cb4f20b6faea41, 0x5f5b4d69ce3d54d7]),
    ("mgrid", [0xa9d88b92c38edd3e, 0x6cb8e9a02d2df7ba, 0x82c97ba5c5e20b7c, 0x46cdff32297d0d7b]),
    ("parser", [0x2203b7b99f56f058, 0xf40e7dc664a3f37f, 0x7271a225e9602d7b, 0x78362a2c42e9e671]),
    ("swim", [0x814d3f300c31b1b0, 0xf72a6b215c7bfc3e, 0xcc31ef0b8aa6cba2, 0x6026a26aaaa37237]),
    ("twolf", [0x47250a3c7ff33c09, 0x6cd812db3ec9ddff, 0x2e5778ba1d36f5ce, 0x3a9562326719eb2a]),
    ("vpr", [0xac29eaab3c50af1f, 0x4a47b3db0c152295, 0x890852d5ab4cfb40, 0x04e5c439a17d3ccf]),
    ("lucas", [0x86ef7fd5b6cc3603, 0x8dcea2e89817e4bf, 0x2730ffff48074b09, 0x63b315239a10b4f1]),
    ("wupwise", [0x79ef7581f014d135, 0xa810dd14691e1ecc, 0xd53fc87037d5d5a6, 0x58e376774712f5d7]),
];

#[test]
fn stream_and_snapshot_digests_are_frozen() {
    assert_eq!(FROZEN.len(), ROSTER.len());
    let mut drift = Vec::new();
    for (p, (name, want)) in ROSTER.iter().zip(FROZEN) {
        assert_eq!(p.name, name, "roster order changed");
        let (s0, t0) = digests(*p, TRACE_SEED);
        let (s1, t1) = digests(*p, 1);
        let got = [s0, t0, s1, t1];
        if got != want {
            drift.push(format!("{name}: {got:#018x?}"));
        }
    }
    assert!(
        drift.is_empty(),
        "trace stream or snapshot bytes drifted for {drift:?}"
    );
}

#[test]
#[ignore = "long: 225 M ops per side; run with --release -- --ignored"]
fn matches_the_frozen_oracle_op_for_op() {
    const SEEDS: [u64; 5] = [TRACE_SEED, 1, 2, 0xdead_beef, u64::MAX];
    const LONG_OPS: u64 = 3_000_000;
    for p in ROSTER {
        for seed in SEEDS {
            let mut gen = TraceGenerator::new(p, seed);
            let mut old = OracleGenerator::new(p, seed);
            for i in 1..=LONG_OPS {
                let (a, b) = (gen.next_op(), old.next_op());
                assert_eq!(a, b, "{}/{seed:#x}: op {i} differs from the oracle", p.name);
                if i % 750_000 == 0 {
                    let mut e = Encoder::new();
                    old.save_state(&mut e);
                    let want = e.into_bytes();
                    assert_eq!(
                        state_bytes(&gen),
                        want,
                        "{}/{seed:#x}: state bytes at op {i}",
                        p.name
                    );
                    // Continue from a generator restored from the
                    // oracle's bytes, so the counters re-derived on
                    // restore are exercised mid-stream.
                    gen = TraceGenerator::new(p, seed);
                    gen.load_state(&mut Decoder::new(&want))
                        .expect("oracle snapshot loads");
                }
            }
        }
    }
}
