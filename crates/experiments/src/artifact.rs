//! JSON codecs ([`Artifact`]) for every job family's result — the
//! payloads of simsched run artifacts.
//!
//! Every `f64` is stored as its IEEE-754 **bit pattern** (a `u64` field
//! named `*_bits`), because a resumed sweep must reproduce results
//! **bit-identically**: re-parsing a shortest-roundtrip decimal is exact
//! in theory, but bit patterns make the guarantee structural and the
//! manifest greppable for exact equality. A few derived, human-readable
//! fields (`ipc`) are written for manifest readers and ignored by the
//! decoder.
//!
//! The payload shapes are mutually exclusive by construction: each
//! carries its own discriminator field (`"app"`, `"cmp_cores"`,
//! `"dram_app"`, `"sampled_app"`) and each decoder requires its own, so
//! a digest collision across families (impossible by domain separation
//! anyway) could never decode the wrong type.

use crate::cmp::CmpRun;
use crate::exps::DramRun;
use crate::runner::{AppRun, TransientWindow};
use crate::sampling::{SampleSpec, SampledRun, WindowObs};
use cpu::CoreResult;
use energy::EnergyTally;
use memsys::dramcache::L4Stats;
use memsys::org::OrgReport;
use simbase::EnergyNj;
use simsched::json::Json;

fn f64_bits(v: f64) -> Json {
    Json::U64(v.to_bits())
}

fn bits_f64(j: &Json) -> Option<f64> {
    j.as_u64().map(f64::from_bits)
}

fn f64s_bits(v: &[f64]) -> Json {
    Json::Arr(v.iter().map(|&f| f64_bits(f)).collect())
}

fn bits_f64s(j: &Json) -> Option<Vec<f64>> {
    list(j, bits_f64)
}

/// Decodes an array element by element; `None` if any element fails.
fn list<T>(j: &Json, decode: impl Fn(&Json) -> Option<T>) -> Option<Vec<T>> {
    j.as_arr()?.iter().map(decode).collect()
}

/// Decodes an energy, rejecting a non-finite or negative bit pattern
/// (which `EnergyNj::new` would panic on).
fn bits_nj(j: &Json) -> Option<EnergyNj> {
    let nj = bits_f64(j)?;
    (nj.is_finite() && nj >= 0.0).then(|| EnergyNj::new(nj))
}

fn encode_core(c: &CoreResult) -> Json {
    Json::obj(vec![
        ("instructions", Json::U64(c.instructions)),
        ("cycles", Json::U64(c.cycles)),
        ("loads", Json::U64(c.loads)),
        ("stores", Json::U64(c.stores)),
        ("branches", Json::U64(c.branches)),
        ("mispredicts", Json::U64(c.mispredicts)),
        ("int_ops", Json::U64(c.int_ops)),
        ("fp_ops", Json::U64(c.fp_ops)),
    ])
}

fn decode_core(j: &Json) -> Option<CoreResult> {
    let u = |k: &str| j.field(k)?.as_u64();
    Some(CoreResult {
        instructions: u("instructions")?,
        cycles: u("cycles")?,
        loads: u("loads")?,
        stores: u("stores")?,
        branches: u("branches")?,
        mispredicts: u("mispredicts")?,
        int_ops: u("int_ops")?,
        fp_ops: u("fp_ops")?,
    })
}

fn encode_energy(e: &EnergyTally) -> Json {
    Json::obj(vec![
        ("core", f64_bits(e.core.nj())),
        ("l1", f64_bits(e.l1.nj())),
        ("l2", f64_bits(e.l2.nj())),
        ("memory", f64_bits(e.memory.nj())),
    ])
}

fn decode_energy(j: &Json) -> Option<EnergyTally> {
    Some(EnergyTally {
        core: bits_nj(j.field("core")?)?,
        l1: bits_nj(j.field("l1")?)?,
        l2: bits_nj(j.field("l2")?)?,
        memory: bits_nj(j.field("memory")?)?,
    })
}

/// A result type stored as a run artifact: its family's payload codec.
pub trait Artifact: Sized {
    /// Encodes the result as a JSON object (the artifact payload).
    fn encode(&self) -> Json;

    /// Decodes a payload. Returns `None` if any field is missing or
    /// ill-typed, or the payload belongs to another family (the caller
    /// then re-simulates).
    fn decode(j: &Json) -> Option<Self>;
}

/// The plain run payload. Decoding also fails on an application name
/// outside the roster.
impl Artifact for AppRun {
    fn encode(&self) -> Json {
        Json::obj(vec![
            ("app", Json::Str(self.name.to_string())),
            ("ipc", Json::F64((self.ipc() * 1e4).round() / 1e4)),
            ("core", encode_core(&self.core)),
            ("l2_accesses", Json::U64(self.l2_accesses)),
            ("l2_misses", Json::U64(self.l2_misses)),
            ("group_frac_bits", f64s_bits(&self.group_fracs)),
            ("miss_frac_bits", f64_bits(self.miss_frac)),
            ("dgroup_accesses", Json::U64(self.dgroup_accesses)),
            ("swaps", Json::U64(self.swaps)),
            ("l2_energy_bits", f64_bits(self.l2_energy.nj())),
            ("energy_bits", encode_energy(&self.energy)),
        ])
    }

    fn decode(j: &Json) -> Option<Self> {
        let u = |k: &str| j.field(k)?.as_u64();
        Some(AppRun {
            name: workloads::profiles::by_name(j.field("app")?.as_str()?)?.name,
            core: decode_core(j.field("core")?)?,
            l2_accesses: u("l2_accesses")?,
            l2_misses: u("l2_misses")?,
            group_fracs: bits_f64s(j.field("group_frac_bits")?)?,
            miss_frac: bits_f64(j.field("miss_frac_bits")?)?,
            dgroup_accesses: u("dgroup_accesses")?,
            swaps: u("swaps")?,
            l2_energy: bits_nj(j.field("l2_energy_bits")?)?,
            energy: decode_energy(j.field("energy_bits")?)?,
        })
    }
}

/// The CMP payload. The `cmp_cores` field discriminates the family: the
/// plain decoder requires an `"app"` field this payload never has, and
/// this one requires `cmp_cores`, so the two can never cross-decode.
/// Decoding also fails on a configuration key
/// [`crate::exps::kind_of`] does not know, an application outside the
/// roster, or per-core vector lengths that disagree with the core count.
impl Artifact for CmpRun {
    fn encode(&self) -> Json {
        let r = &self.result;
        Json::obj(vec![
            ("cmp_cores", Json::U64(u64::from(self.cores))),
            ("config", Json::Str(self.key.to_string())),
            (
                "apps",
                Json::Arr(self.apps.iter().map(|a| Json::Str((*a).to_string())).collect()),
            ),
            ("mean_ipc", Json::F64((self.mean_ipc() * 1e4).round() / 1e4)),
            ("per_core", Json::Arr(r.per_core.iter().map(encode_core).collect())),
            ("l2_accesses", Json::U64(r.report.l2_accesses)),
            ("l2_misses", Json::U64(r.report.l2_misses)),
            ("group_frac_bits", f64s_bits(&r.report.group_fracs)),
            ("miss_frac_bits", f64_bits(r.report.miss_frac)),
            ("dgroup_accesses", Json::U64(r.report.dgroup_accesses)),
            ("swaps", Json::U64(r.report.swaps)),
            ("memory_accesses", Json::U64(r.report.memory_accesses)),
            ("l2_energy_bits", f64_bits(r.report.l2_energy.nj())),
            ("bank_conflicts", Json::U64(r.bank_conflicts)),
            ("bank_stall_cycles", Json::U64(r.bank_stall_cycles)),
            (
                "per_core_bank_stalls",
                Json::Arr(r.per_core_bank_stalls.iter().map(|&v| Json::U64(v)).collect()),
            ),
            (
                "invalidations",
                Json::Arr(r.invalidations.iter().map(|&v| Json::U64(v)).collect()),
            ),
        ])
    }

    fn decode(j: &Json) -> Option<Self> {
        let cores = u32::try_from(j.field("cmp_cores")?.as_u64()?).ok()?;
        let key = crate::exps::config_key(j.field("config")?.as_str()?)?;
        let apps = list(j.field("apps")?, |a| {
            Some(workloads::profiles::by_name(a.as_str()?)?.name)
        })?;
        let per_core = list(j.field("per_core")?, decode_core)?;
        let per_core_bank_stalls = list(j.field("per_core_bank_stalls")?, Json::as_u64)?;
        let invalidations = list(j.field("invalidations")?, Json::as_u64)?;
        let n = cores as usize;
        if apps.len() != n
            || per_core.len() != n
            || per_core_bank_stalls.len() != n
            || invalidations.len() != n
        {
            return None;
        }
        let u = |k: &str| j.field(k)?.as_u64();
        Some(CmpRun {
            key,
            cores,
            apps,
            result: ::cmp::CmpResult {
                per_core,
                report: OrgReport {
                    l2_accesses: u("l2_accesses")?,
                    l2_misses: u("l2_misses")?,
                    group_fracs: bits_f64s(j.field("group_frac_bits")?)?,
                    miss_frac: bits_f64(j.field("miss_frac_bits")?)?,
                    dgroup_accesses: u("dgroup_accesses")?,
                    swaps: u("swaps")?,
                    memory_accesses: u("memory_accesses")?,
                    l2_energy: bits_nj(j.field("l2_energy_bits")?)?,
                },
                bank_conflicts: u("bank_conflicts")?,
                bank_stall_cycles: u("bank_stall_cycles")?,
                per_core_bank_stalls,
                invalidations,
            },
        })
    }
}

/// A window object carries its L4 stats inline, as top-level fields.
fn encode_window(w: &TransientWindow) -> Json {
    let mut pairs = vec![
        ("instructions", Json::U64(w.instructions)),
        ("cycles", Json::U64(w.cycles)),
        ("n_banks", Json::U64(u64::from(w.n_banks))),
    ];
    pairs.extend(l4_pairs(&w.l4));
    pairs.push(("memory_energy_bits", f64_bits(w.memory_energy.nj())));
    Json::obj(pairs)
}

fn decode_window(j: &Json) -> Option<TransientWindow> {
    let u = |k: &str| j.field(k)?.as_u64();
    Some(TransientWindow {
        instructions: u("instructions")?,
        cycles: u("cycles")?,
        n_banks: u32::try_from(u("n_banks")?).ok()?,
        l4: decode_l4(j)?,
        memory_energy: bits_nj(j.field("memory_energy_bits")?)?,
    })
}

/// The DRAM-transient payload. The `dram_app` field discriminates the
/// family — neither the plain decoder (wants a top-level `"app"`) nor
/// the CMP one (wants `"cmp_cores"`) will touch this payload, and this
/// one requires `dram_app`, so the three can never cross-decode. The
/// whole-run [`AppRun`] nests under `"run"` using the plain codec.
/// Decoding also fails on an empty window list or a discriminator that
/// disagrees with the nested run's application.
impl Artifact for DramRun {
    fn encode(&self) -> Json {
        Json::obj(vec![
            ("dram_app", Json::Str(self.run.name.to_string())),
            ("run", self.run.encode()),
            ("windows", Json::Arr(self.windows.iter().map(encode_window).collect())),
        ])
    }

    fn decode(j: &Json) -> Option<Self> {
        let name = j.field("dram_app")?.as_str()?;
        let run = AppRun::decode(j.field("run")?)?;
        if run.name != name {
            return None;
        }
        let windows = list(j.field("windows")?, decode_window)?;
        if windows.is_empty() {
            return None;
        }
        Some(DramRun { run, windows })
    }
}

fn l4_pairs(s: &L4Stats) -> Vec<(&'static str, Json)> {
    vec![
        ("accesses", Json::U64(s.accesses)),
        ("hits", Json::U64(s.hits)),
        ("misses", Json::U64(s.misses)),
        ("fills", Json::U64(s.fills)),
        ("dirty_fills", Json::U64(s.dirty_fills)),
        ("writebacks", Json::U64(s.writebacks)),
        ("tag_probes", Json::U64(s.tag_probes)),
        ("tag_cache_hits", Json::U64(s.tag_cache_hits)),
        ("resize_writebacks", Json::U64(s.resize_writebacks)),
        ("resizes", Json::U64(s.resizes)),
    ]
}

fn decode_l4(j: &Json) -> Option<L4Stats> {
    let u = |k: &str| j.field(k)?.as_u64();
    Some(L4Stats {
        accesses: u("accesses")?,
        hits: u("hits")?,
        misses: u("misses")?,
        fills: u("fills")?,
        dirty_fills: u("dirty_fills")?,
        writebacks: u("writebacks")?,
        tag_probes: u("tag_probes")?,
        tag_cache_hits: u("tag_cache_hits")?,
        resize_writebacks: u("resize_writebacks")?,
        resizes: u("resizes")?,
    })
}

fn encode_obs(w: &WindowObs) -> Json {
    let mut pairs = vec![
        ("index", Json::U64(w.index)),
        ("start", Json::U64(w.start)),
        ("core", encode_core(&w.core)),
        ("l1_accesses", Json::U64(w.l1_accesses)),
        ("l2_accesses", Json::U64(w.l2_accesses)),
        ("l2_misses", Json::U64(w.l2_misses)),
        ("dgroup_accesses", Json::U64(w.dgroup_accesses)),
        ("swaps", Json::U64(w.swaps)),
        ("group_hit_bits", f64s_bits(&w.group_hits)),
        ("memory_accesses", Json::U64(w.memory_accesses)),
        ("energy_bits", encode_energy(&w.energy)),
    ];
    if let Some(s) = &w.l4 {
        pairs.push(("l4", Json::obj(l4_pairs(s))));
    }
    Json::obj(pairs)
}

fn decode_obs(j: &Json) -> Option<WindowObs> {
    let u = |k: &str| j.field(k)?.as_u64();
    Some(WindowObs {
        index: u("index")?,
        start: u("start")?,
        core: decode_core(j.field("core")?)?,
        l1_accesses: u("l1_accesses")?,
        l2_accesses: u("l2_accesses")?,
        l2_misses: u("l2_misses")?,
        dgroup_accesses: u("dgroup_accesses")?,
        swaps: u("swaps")?,
        group_hits: bits_f64s(j.field("group_hit_bits")?)?,
        memory_accesses: u("memory_accesses")?,
        l4: match j.field("l4") {
            Some(l4) => Some(decode_l4(l4)?),
            None => None,
        },
        energy: decode_energy(j.field("energy_bits")?)?,
    })
}

/// The sampled-run payload. The `sampled_app` field discriminates the
/// family from the `"app"`, `"cmp_cores"`, and `"dram_app"` payloads;
/// the estimated [`AppRun`] nests under `"run"` using the plain codec
/// and the per-window observations under `"windows"`, so a resumed
/// sampling study reproduces both the estimate and its confidence
/// intervals bit-identically. Decoding also fails on an empty window
/// list or a discriminator that disagrees with the nested run's
/// application.
impl Artifact for SampledRun {
    fn encode(&self) -> Json {
        Json::obj(vec![
            ("sampled_app", Json::Str(self.run.name.to_string())),
            (
                "spec",
                Json::obj(vec![
                    ("period", Json::U64(self.spec.period)),
                    ("warmup", Json::U64(self.spec.warmup)),
                    ("measure", Json::U64(self.spec.measure)),
                ]),
            ),
            ("intervals", Json::U64(self.intervals)),
            ("total_instructions", Json::U64(self.total_instructions)),
            ("detailed_instructions", Json::U64(self.detailed_instructions)),
            ("run", self.run.encode()),
            ("windows", Json::Arr(self.windows.iter().map(encode_obs).collect())),
        ])
    }

    fn decode(j: &Json) -> Option<Self> {
        let name = j.field("sampled_app")?.as_str()?;
        let run = AppRun::decode(j.field("run")?)?;
        if run.name != name {
            return None;
        }
        let spec = j.field("spec")?;
        let su = |k: &str| spec.field(k)?.as_u64();
        let windows = list(j.field("windows")?, decode_obs)?;
        if windows.is_empty() {
            return None;
        }
        Some(SampledRun {
            run,
            spec: SampleSpec {
                period: su("period")?,
                warmup: su("warmup")?,
                measure: su("measure")?,
            },
            intervals: j.field("intervals")?.as_u64()?,
            total_instructions: j.field("total_instructions")?.as_u64()?,
            detailed_instructions: j.field("detailed_instructions")?.as_u64()?,
            windows,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::exps::kind_of;
    use crate::runner::{run_app, Scale};
    use workloads::profiles::by_name;

    fn sample() -> AppRun {
        run_app(
            by_name("galgel").unwrap(),
            &kind_of("nf4"),
            Scale {
                warmup: 20_000,
                measure: 30_000,
            },
        )
    }

    #[test]
    fn encode_decode_is_bit_identical() {
        let run = sample();
        let back = AppRun::decode(&run.encode()).expect("decodes");
        // PartialEq on AppRun compares every field, including exact f64s.
        assert_eq!(run, back);
    }

    #[test]
    fn decode_survives_a_disk_roundtrip() {
        let run = sample();
        let line = run.encode().render();
        let parsed = simsched::json::parse(&line).expect("parses");
        assert_eq!(AppRun::decode(&parsed).expect("decodes"), run);
    }

    #[test]
    fn corrupt_payloads_decode_to_none() {
        let run = sample();
        let mut j = run.encode();
        // Unknown app.
        if let Json::Obj(pairs) = &mut j {
            pairs[0].1 = Json::Str("not-a-benchmark".into());
        }
        assert!(AppRun::decode(&j).is_none());
        // Missing field.
        let mut j = run.encode();
        if let Json::Obj(pairs) = &mut j {
            pairs.retain(|(k, _)| k != "swaps");
        }
        assert!(AppRun::decode(&j).is_none());
        // Negative energy bit pattern must not panic EnergyNj::new.
        let mut j = run.encode();
        if let Json::Obj(pairs) = &mut j {
            for (k, v) in pairs.iter_mut() {
                if k == "l2_energy_bits" {
                    *v = Json::U64((-1.0f64).to_bits());
                }
            }
        }
        assert!(AppRun::decode(&j).is_none());
    }

    fn cmp_sample() -> crate::cmp::CmpRun {
        crate::cmp::run_cmp_opts(
            "nf4",
            2,
            &kind_of("nf4"),
            Scale {
                warmup: 10_000,
                measure: 16_000,
            },
            &simtel::TelemetrySink::disabled(),
            0,
            crate::runner::RunOptions::default(),
            None,
        )
    }

    #[test]
    fn cmp_encode_decode_is_bit_identical() {
        let run = cmp_sample();
        let line = run.encode().render();
        let parsed = simsched::json::parse(&line).expect("parses");
        assert_eq!(CmpRun::decode(&parsed).expect("decodes"), run);
    }

    #[test]
    fn cmp_and_app_codecs_never_cross_decode() {
        let cmp_run = cmp_sample();
        let app_run = sample();
        assert!(AppRun::decode(&cmp_run.encode()).is_none(), "AppRun decoder rejects CMP");
        assert!(CmpRun::decode(&app_run.encode()).is_none(), "CMP decoder rejects AppRun");
    }

    #[test]
    fn corrupt_cmp_payloads_decode_to_none() {
        let run = cmp_sample();
        // Core-count / vector-length mismatch.
        let mut j = run.encode();
        if let Json::Obj(pairs) = &mut j {
            for (k, v) in pairs.iter_mut() {
                if k == "cmp_cores" {
                    *v = Json::U64(4);
                }
            }
        }
        assert!(CmpRun::decode(&j).is_none());
        // Unknown configuration key.
        let mut j = run.encode();
        if let Json::Obj(pairs) = &mut j {
            for (k, v) in pairs.iter_mut() {
                if k == "config" {
                    *v = Json::Str("not-a-config".into());
                }
            }
        }
        assert!(CmpRun::decode(&j).is_none());
        // Missing field.
        let mut j = run.encode();
        if let Json::Obj(pairs) = &mut j {
            pairs.retain(|(k, _)| k != "bank_conflicts");
        }
        assert!(CmpRun::decode(&j).is_none());
    }

    fn dram_sample() -> DramRun {
        let scale = Scale {
            warmup: 10_000,
            measure: 16_000,
        };
        let (run, windows) = crate::runner::run_app_transient(
            by_name("galgel").unwrap(),
            &crate::exps::dram_kind(scale),
            scale,
            crate::exps::DRAM_WINDOWS,
            crate::runner::RunOptions::default(),
        );
        DramRun { run, windows }
    }

    #[test]
    fn dram_encode_decode_survives_a_disk_roundtrip() {
        let run = dram_sample();
        let line = run.encode().render();
        let parsed = simsched::json::parse(&line).expect("parses");
        assert_eq!(DramRun::decode(&parsed).expect("decodes"), run);
    }

    #[test]
    fn dram_codec_never_cross_decodes() {
        let dram_run = dram_sample();
        let j = dram_run.encode();
        assert!(AppRun::decode(&j).is_none(), "AppRun decoder rejects DramRun");
        assert!(CmpRun::decode(&j).is_none(), "CMP decoder rejects DramRun");
        assert!(DramRun::decode(&sample().encode()).is_none(), "DramRun decoder rejects AppRun");
        assert!(
            DramRun::decode(&cmp_sample().encode()).is_none(),
            "DramRun decoder rejects CmpRun"
        );
    }

    fn sampled_sample() -> SampledRun {
        crate::sampling::run_app_sampled(
            by_name("galgel").unwrap(),
            &kind_of("nf4"),
            Scale {
                warmup: 10_000,
                measure: 20_000,
            },
            SampleSpec {
                period: 4_000,
                warmup: 100,
                measure: 400,
            },
            2,
            1,
            crate::runner::RunOptions::default(),
        )
    }

    #[test]
    fn sampled_encode_decode_survives_a_disk_roundtrip() {
        let run = sampled_sample();
        let line = run.encode().render();
        let parsed = simsched::json::parse(&line).expect("parses");
        assert_eq!(SampledRun::decode(&parsed).expect("decodes"), run);
    }

    #[test]
    fn sampled_codec_never_cross_decodes() {
        let s = sampled_sample();
        let j = s.encode();
        assert!(AppRun::decode(&j).is_none(), "AppRun decoder rejects SampledRun");
        assert!(CmpRun::decode(&j).is_none(), "CMP decoder rejects SampledRun");
        assert!(DramRun::decode(&j).is_none(), "DramRun decoder rejects SampledRun");
        assert!(
            SampledRun::decode(&sample().encode()).is_none(),
            "SampledRun decoder rejects AppRun"
        );
    }

    #[test]
    fn corrupt_sampled_payloads_decode_to_none() {
        let run = sampled_sample();
        // Discriminator disagreeing with the nested run.
        let mut j = run.encode();
        if let Json::Obj(pairs) = &mut j {
            pairs[0].1 = Json::Str("wupwise".into());
        }
        assert!(SampledRun::decode(&j).is_none());
        // Empty window list.
        let mut j = run.encode();
        if let Json::Obj(pairs) = &mut j {
            for (k, v) in pairs.iter_mut() {
                if k == "windows" {
                    *v = Json::Arr(vec![]);
                }
            }
        }
        assert!(SampledRun::decode(&j).is_none());
        // A window missing a field.
        let mut j = run.encode();
        if let Json::Obj(pairs) = &mut j {
            for (k, v) in pairs.iter_mut() {
                if k == "windows" {
                    if let Json::Arr(ws) = v {
                        if let Json::Obj(w) = &mut ws[0] {
                            w.retain(|(k, _)| k != "memory_accesses");
                        }
                    }
                }
            }
        }
        assert!(SampledRun::decode(&j).is_none());
    }

    #[test]
    fn corrupt_dram_payloads_decode_to_none() {
        let run = dram_sample();
        // Discriminator disagreeing with the nested run.
        let mut j = run.encode();
        if let Json::Obj(pairs) = &mut j {
            pairs[0].1 = Json::Str("wupwise".into());
        }
        assert!(DramRun::decode(&j).is_none());
        // Empty window list.
        let mut j = run.encode();
        if let Json::Obj(pairs) = &mut j {
            for (k, v) in pairs.iter_mut() {
                if k == "windows" {
                    *v = Json::Arr(vec![]);
                }
            }
        }
        assert!(DramRun::decode(&j).is_none());
        // A window missing one stats field.
        let mut j = run.encode();
        if let Json::Obj(pairs) = &mut j {
            for (k, v) in pairs.iter_mut() {
                if k == "windows" {
                    if let Json::Arr(ws) = v {
                        if let Json::Obj(w) = &mut ws[0] {
                            w.retain(|(k, _)| k != "resize_writebacks");
                        }
                    }
                }
            }
        }
        assert!(DramRun::decode(&j).is_none());
    }
}
