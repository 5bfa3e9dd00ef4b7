//! Steady-state allocation guard — the fourth leg of the Organization
//! conformance contract (see `tests/organization_conformance.rs`): after
//! warm-up, the per-access hot path of **every** organization the
//! [`L2Kind::build`] factory produces must not touch the heap at all.
//!
//! The flat-arena rewrite removed the per-access `Vec` churn the original
//! implementations carried (candidate lists in the D-NUCA search paths,
//! recency reordering in the naive LRU, `VecDeque` pruning in the port
//! schedule). This test pins that property with a counting global
//! allocator: drive each organization past its warm-up transient (free
//! lists drained, port-schedule and run buffers at their high-water
//! capacity), then require the allocation count to stay *exactly* flat
//! over a long measured window.
//!
//! The same holds one layer up, for the per-instruction path that
//! dominates every run's wall time: the trace generator's `next_op`
//! feeding the out-of-order core's timed `execute`, and the functional
//! `warm_execute` that fast-forward and checkpointed warm-up use.
//!
//! The whole file is a single `#[test]` because the counter is
//! process-global: parallel test threads would attribute their setup
//! allocations to whichever window happens to be open.

use cpu::uop::TraceSource;
use cpu::{CoreParams, OooCore};
use experiments::L2Kind;
use memsys::l1::CoreMemSystem;
use memsys::org::Organization;
use nuca::{CnucaConfig, SearchPolicy};
use nurapid::NuRapidConfig;
use simbase::{AccessKind, BlockAddr, Cycle};
use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicU64, Ordering};
use workloads::TraceGenerator;

struct CountingAlloc;

static ALLOCATIONS: AtomicU64 = AtomicU64::new(0);

unsafe impl GlobalAlloc for CountingAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        ALLOCATIONS.fetch_add(1, Ordering::Relaxed);
        System.alloc(layout)
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        System.dealloc(ptr, layout)
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        ALLOCATIONS.fetch_add(1, Ordering::Relaxed);
        System.realloc(ptr, layout, new_size)
    }
}

#[global_allocator]
static ALLOC: CountingAlloc = CountingAlloc;

/// A deterministic mixed read/write stream with enough footprint to keep
/// hits, misses, evictions, demotion chains, and promotions all live.
fn drive(cache: &mut Box<dyn Organization>, accesses: u64, footprint: u64) -> Cycle {
    let mut t = Cycle::ZERO;
    let mut x = 0x9e37_79b9_7f4a_7c15u64;
    for i in 0..accesses {
        // xorshift: cheap, allocation-free, full-period enough here.
        x ^= x << 13;
        x ^= x >> 7;
        x ^= x << 17;
        let block = BlockAddr::from_index(x % footprint);
        let kind = if i % 3 == 0 {
            AccessKind::Write
        } else {
            AccessKind::Read
        };
        let out = cache.access(block, kind, t);
        t = out.complete_at + 1;
    }
    t
}

/// Heap allocations performed by `f`.
fn allocations_in(f: impl FnOnce()) -> u64 {
    let before = ALLOCATIONS.load(Ordering::Relaxed);
    f();
    ALLOCATIONS.load(Ordering::Relaxed) - before
}

fn measure(name: &str, cache: &mut Box<dyn Organization>, footprint: u64) {
    // Warm-up: fill the cache, drain every free list, and let internal
    // buffers (port schedule, memory queue) reach steady capacity.
    drive(cache, 150_000, footprint);
    let n = allocations_in(|| {
        drive(cache, 40_000, footprint);
    });
    assert_eq!(
        n, 0,
        "{name}: {n} heap allocations in 40k steady-state accesses"
    );
}

#[test]
fn steady_state_access_paths_do_not_allocate() {
    // Footprint 4x the 8-MB block count so misses, tag evictions, and
    // full demotion/promotion chains fire constantly. The base
    // hierarchy's smaller L2/L3 thrash even harder, which is the point.
    let roster: [(&str, L2Kind); 7] = [
        ("base", L2Kind::Base),
        ("nurapid", L2Kind::NuRapid(NuRapidConfig::micro2003(4))),
        ("coupled", L2Kind::Coupled(4)),
        (
            "dnuca-ss-performance",
            L2Kind::Dnuca(SearchPolicy::SsPerformance),
        ),
        ("dnuca-ss-energy", L2Kind::Dnuca(SearchPolicy::SsEnergy)),
        ("dnuca-way-memo", L2Kind::Dnuca(SearchPolicy::WayMemo)),
        ("cnuca", L2Kind::Cnuca(CnucaConfig::micro2003())),
    ];
    for (name, kind) in roster {
        let mut org = kind.build();
        org.prefill();
        measure(name, &mut org, 262_144);
    }

    // The L4 DRAM-cache tier joins the contract: after a shrink (which
    // may allocate while it retires banks and flushes dirty blocks) and
    // a grow (which allocates the fresh banks), the steady-state access
    // path through the resized tier — tag-cache probes, ring lookups,
    // fills into live banks, orphaned blocks aging out — must stay
    // allocation-free. One representative inner organization suffices:
    // the tier wraps every roster entry through the same MainMemory
    // entry points.
    let kind = L2Kind::L4(
        Box::new(L2Kind::NuRapid(NuRapidConfig::micro2003(4))),
        experiments::L4Config::tdram(),
    );
    let mut org = kind.build();
    org.prefill();
    drive(&mut org, 100_000, 262_144);
    let resize = |org: &mut Box<dyn Organization>, target: u32| {
        org.main_memory_mut()
            .expect("the L4 wrapper is DRAM-backed")
            .resize_l4(target, Cycle::ZERO);
    };
    resize(&mut org, 4);
    resize(&mut org, 12);
    measure("nurapid+l4 after shrink+grow", &mut org, 262_144);

    // The instruction path: generator into the core, timed and warm.
    // Warm-up runs each profile past its hot-region initialization sweep
    // and fills the core's windows and the L2's free lists.
    for name in ["mcf", "swim"] {
        let profile = workloads::profiles::by_name(name).expect("in the roster");
        let mut lower = L2Kind::NuRapid(NuRapidConfig::micro2003(4)).build();
        lower.prefill();
        let mut core = OooCore::new(CoreParams::micro2003(), CoreMemSystem::micro2003(lower));
        let mut gen = TraceGenerator::new(profile, 0x5eed);
        core.warm_run(&mut gen, 300_000);
        let warm = allocations_in(|| core.warm_run(&mut gen, 200_000));
        assert_eq!(
            warm, 0,
            "{name}: {warm} heap allocations in 200k warm_execute ops"
        );
        core.run(&mut gen, 50_000);
        let timed = allocations_in(|| {
            for _ in 0..50_000 {
                let op = gen.next_op();
                core.execute(op);
            }
        });
        assert_eq!(
            timed, 0,
            "{name}: {timed} heap allocations in 50k next_op + execute ops"
        );
    }
}
