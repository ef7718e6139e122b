//! Building and dropping a simulation costs a fixed number of heap
//! allocations, whatever the router count, and writes little per
//! router.
//!
//! Per-router state lives in network-wide slabs (router buffers, lane
//! owners, round-robin pointers, RNG streams, idle-run and sleep-FSM
//! lanes), so `Simulation::new` allocates one block per slab and its
//! drop frees one per slab — never one per router. A counting global
//! allocator pins that: a 128×128 mesh (16× the routers) must allocate
//! exactly as often as a 32×32 one, less the XY route table only small
//! meshes build.
//!
//! The same allocator sums the bytes requested through `alloc` and
//! `realloc` — memory the caller fills with values, so every byte is
//! written at construction — apart from `alloc_zeroed`, whose pages
//! stay unwritten until a router is first touched. The lane columns
//! are zero-encoded, so the value-initialized bytes per router must
//! not depend on the VC count.

use leakage_noc::netsim::topology::RouteTable;
use leakage_noc::netsim::{MeshConfig, SimKernel, Simulation};
use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;

thread_local! {
    /// Whether this thread's allocations are being counted.
    static COUNTING: Cell<bool> = const { Cell::new(false) };
    /// Allocations, reallocations and frees counted so far.
    static ALLOCS: Cell<u64> = const { Cell::new(0) };
    static REALLOCS: Cell<u64> = const { Cell::new(0) };
    static FREES: Cell<u64> = const { Cell::new(0) };
    /// Bytes requested through `alloc` and `realloc` (value-filled by
    /// the caller) and through `alloc_zeroed`.
    static VALUE_BYTES: Cell<u64> = const { Cell::new(0) };
    static ZEROED_BYTES: Cell<u64> = const { Cell::new(0) };
}

/// Counts the calling thread's allocations while `COUNTING` is set and
/// forwards everything to the system allocator.
struct Counting;

fn bump(counter: &'static std::thread::LocalKey<Cell<u64>>) {
    add(counter, 1);
}

fn add(counter: &'static std::thread::LocalKey<Cell<u64>>, n: usize) {
    // `try_with`: thread-locals may already be gone while a thread
    // tears down; those frees are never counted anyway.
    let _ = COUNTING.try_with(|on| {
        if on.get() {
            let _ = counter.try_with(|c| c.set(c.get() + n as u64));
        }
    });
}

// The counters are const-initialized thread-locals: bumping them never
// allocates or re-enters the allocator.
// SAFETY: every method forwards its arguments unchanged to `System`,
// which upholds the `GlobalAlloc` contract.
unsafe impl GlobalAlloc for Counting {
    // SAFETY: same contract as `GlobalAlloc`, forwarded below.
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        bump(&ALLOCS);
        add(&VALUE_BYTES, layout.size());
        // SAFETY: caller's `layout` obligations pass through unchanged.
        unsafe { System.alloc(layout) }
    }

    // SAFETY: same contract as `GlobalAlloc`, forwarded below.
    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        bump(&ALLOCS);
        add(&ZEROED_BYTES, layout.size());
        // SAFETY: caller's `layout` obligations pass through unchanged.
        unsafe { System.alloc_zeroed(layout) }
    }

    // SAFETY: same contract as `GlobalAlloc`, forwarded below.
    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        bump(&REALLOCS);
        add(&VALUE_BYTES, new_size);
        // SAFETY: `ptr` came from this allocator (i.e. from `System`)
        // with `layout`, as the caller guarantees.
        unsafe { System.realloc(ptr, layout, new_size) }
    }

    // SAFETY: same contract as `GlobalAlloc`, forwarded below.
    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        bump(&FREES);
        // SAFETY: `ptr` came from this allocator (i.e. from `System`)
        // with `layout`, as the caller guarantees.
        unsafe { System.dealloc(ptr, layout) }
    }
}

#[global_allocator]
static GLOBAL: Counting = Counting;

/// Heap calls made by `Simulation::new` plus the drop of the
/// simulation, on this thread, and the bytes `Simulation::new`
/// requested.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
struct Calls {
    allocs: u64,
    reallocs: u64,
    frees: u64,
    value_bytes: u64,
    zeroed_bytes: u64,
}

fn construction_allocs(side: usize, vcs: usize) -> Calls {
    let cfg = MeshConfig {
        width: side,
        height: side,
        injection_rate: 0.01,
        vcs,
        kernel: SimKernel::Sharded,
        shards: 1,
        ..MeshConfig::default()
    };
    for counter in [&ALLOCS, &REALLOCS, &FREES, &VALUE_BYTES, &ZEROED_BYTES] {
        counter.with(|c| c.set(0));
    }
    COUNTING.with(|on| on.set(true));
    let sim = Simulation::new(cfg);
    let value_bytes = VALUE_BYTES.with(Cell::get);
    let zeroed_bytes = ZEROED_BYTES.with(Cell::get);
    drop(sim);
    COUNTING.with(|on| on.set(false));
    Calls {
        allocs: ALLOCS.with(Cell::get),
        reallocs: REALLOCS.with(Cell::get),
        frees: FREES.with(Cell::get),
        value_bytes,
        zeroed_bytes,
    }
}

#[test]
fn construction_allocations_do_not_grow_with_the_mesh() {
    // Warm up once so lazily initialized process state (e.g. the CPU
    // count lookup) is not charged to the first measured size.
    let _ = construction_allocs(8, 1);
    let small = construction_allocs(32, 1);
    let large = construction_allocs(128, 1);
    assert_eq!(
        small.allocs, small.frees,
        "32×32 construction leaked: {small:?}"
    );
    assert_eq!(
        large.allocs, large.frees,
        "128×128 construction leaked: {large:?}"
    );
    // The XY route table is built only up to RouteTable::MAX_ROUTERS.
    let table = |side: usize| (side * side <= RouteTable::MAX_ROUTERS) as u64;
    assert_eq!(
        (small.allocs - table(32), small.reallocs),
        (large.allocs - table(128), large.reallocs),
        "heap calls grew with the router count: {small:?} at 32×32, {large:?} at 128×128"
    );
    assert!(
        small.allocs < 64,
        "construction should allocate per slab, not per router: {small:?}"
    );
}

#[test]
fn construction_value_initializes_few_bytes_per_router() {
    let _ = construction_allocs(8, 1);
    let routers = 128 * 128;
    let per_router = |vcs: usize| {
        let calls = construction_allocs(128, vcs);
        assert!(
            calls.zeroed_bytes > 0,
            "lane columns are zero-allocated: {calls:?}"
        );
        calls.value_bytes / routers
    };
    let (one, two) = (per_router(1), per_router(2));
    assert!(
        one <= 96,
        "Simulation::new value-initializes {one} bytes per router at vcs 1"
    );
    assert_eq!(
        one, two,
        "value-initialized bytes per router grew with the VC count"
    );
}
