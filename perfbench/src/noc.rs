//! One pass of a NoC workload: configuration → `Simulation::new` →
//! `try_run` (including close-out) → leakage answer → drop.
//!
//! The pass is timed from outside, at the crate's public functions. Its
//! outputs are checked against flit and credit conservation on every
//! seed, and against a pinned `NetworkStats` digest on the default seed.

use crate::trace::Tracer;
use crate::workload::{NocSpec, CLOCK};
use lnoc_netsim::{MeshConfig, NetworkStats, SimKernel, Simulation};
use lnoc_power::gating::{energy_from_counters, evaluate_policy, IdleHistogram};
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::time::Instant;

/// Everything one NoC pass measured; `error` is set when an output
/// check failed (a panic or abort never reaches here — it unwinds to
/// the pass runner).
#[derive(Debug)]
pub struct NocPass {
    pub metrics: Vec<(&'static str, f64)>,
    pub shards: usize,
    pub threads: usize,
    pub digest: String,
    pub error: Option<String>,
}

/// FNV-1a over every deterministic field of the statistics, with the
/// idle distribution taken from the already-merged histogram. Kernels,
/// shard counts and thread counts must all produce the same value.
pub fn stats_digest(stats: &NetworkStats, hist: &IdleHistogram) -> String {
    let mut h = Fnv::new();
    for v in [
        stats.measured_cycles,
        stats.packets_injected,
        stats.packets_dropped_at_source,
        stats.packets_delivered,
        stats.flits_delivered,
        stats.latency_sum,
        stats.latency_max,
        stats.flits_dropped_by_fault,
        stats.packets_dropped_by_fault,
        stats.packets_unroutable,
        stats.packets_delivered_post_fault,
        stats.latency_sum_post_fault,
        stats.min_reachable_fraction.to_bits(),
        stats.vcs as u64,
        stats.router_activity.len() as u64,
    ] {
        h.u64(v);
    }
    for a in &stats.router_activity {
        for v in [
            a.cycles,
            a.buffer_writes,
            a.buffer_reads,
            a.arbitrations,
            a.crossbar_traversals,
            a.link_traversals,
        ] {
            h.u64(v);
        }
    }
    for c in &stats.gating {
        for v in [
            c.cycles_busy,
            c.cycles_idle_awake,
            c.cycles_asleep,
            c.cycles_waking,
            c.sleep_entries,
            c.wake_stall_cycles,
        ] {
            h.u64(v);
        }
    }
    for (len, count) in hist.iter_lengths() {
        h.u64(len);
        h.u64(count);
    }
    for &len in hist.open_runs() {
        h.u64(len);
    }
    format!("{:016x}", h.0)
}

struct Fnv(u64);

impl Fnv {
    fn new() -> Self {
        Fnv(0xcbf2_9ce4_8422_2325)
    }

    fn u64(&mut self, v: u64) {
        for byte in v.to_le_bytes() {
            self.0 = (self.0 ^ byte as u64).wrapping_mul(0x0000_0100_0000_01b3);
        }
    }
}

/// Compares a run's digest with the pinned one, when there is one: only
/// the default inputs are pinned, other seeds rely on the conservation
/// checks alone.
pub fn check_digest(want: Option<&str>, digest: &str) -> Result<(), String> {
    match want {
        Some(want) if want != digest => Err(format!(
            "NetworkStats digest {digest} differs from the pinned {want}"
        )),
        _ => Ok(()),
    }
}

/// Runs one untimed simulation and returns its digest — the pinning tool
/// (`perfbench digest`), with the kernel forced when asked.
pub fn digest_only(spec: &NocSpec, kernel: SimKernel) -> String {
    let mut sim = Simulation::new(MeshConfig {
        kernel,
        ..spec.cfg.clone()
    });
    let stats = sim
        .try_run(0, spec.cycles)
        .unwrap_or_else(|abort| panic!("run aborted: {abort}"));
    stats_digest(
        &stats,
        &stats.merged_idle_histogram(NetworkStats::DEFAULT_IDLE_BINS),
    )
}

/// Flit conservation (exact, since the run is measured from cycle 0)
/// plus the credit invariant.
fn conservation(sim: &Simulation, stats: &NetworkStats) -> Result<(), String> {
    let injected = sim.flits_injected_total();
    let accounted =
        stats.flits_delivered + sim.in_flight_flits() + sim.flits_dropped_by_fault_total();
    if injected != accounted {
        return Err(format!(
            "flit conservation broken: {injected} injected != {accounted} \
             delivered + in flight + dropped by fault"
        ));
    }
    catch_unwind(AssertUnwindSafe(|| sim.check_credit_conservation()))
        .map_err(|payload| crate::panic_text(payload.as_ref()))
}

pub fn run_pass(spec: &NocSpec, want_digest: Option<&str>, tr: &mut Tracer) -> NocPass {
    let policy = spec.policy();
    let start = Instant::now();
    let (mut sim, setup_s) = tr.time("netsim.new", |_| Simulation::new(spec.cfg.clone()));
    let (result, run_s) = tr.time("netsim.try_run", |_| sim.try_run(0, spec.cycles));
    let stats = match result {
        Ok(stats) => stats,
        // A deterministic abort is a failed run, reported like a panic.
        Err(abort) => panic!("run aborted: {abort}"),
    };
    let ((hist, in_loop), accounting_s) = tr.time("power.accounting", |tr| {
        let (hist, _) = tr.time("power.merged_idle_histogram", |_| {
            stats.merged_idle_histogram(NetworkStats::DEFAULT_IDLE_BINS)
        });
        let counters = stats.total_gating_counters();
        let (in_loop, _) = tr.time("power.energy_from_counters", |_| {
            energy_from_counters(&counters, &spec.params, CLOCK)
        });
        tr.time("power.evaluate_policy", |_| {
            evaluate_policy(&hist, &spec.params, policy, CLOCK)
        });
        (hist, in_loop)
    });
    let answer_s = start.elapsed().as_secs_f64();

    // Output checks and counters, outside every timed segment.
    let digest = stats_digest(&stats, &hist);
    let error = conservation(&sim, &stats)
        .and_then(|()| check_digest(want_digest, &digest))
        .err();
    let routers = spec.cfg.width * spec.cfg.height;
    let cycles = spec.cycles;
    let leapt = sim.cycles_leapt_total();
    let leaps = sim.leaps_total();
    let steps = sim.routers_stepped_total();
    let counters = stats.total_gating_counters();
    let sharded = sim.kernel() == SimKernel::Sharded;
    let mut pass = NocPass {
        shards: sim.shards(),
        threads: sim.threads(),
        digest,
        error,
        metrics: vec![
            ("leakage_saved_pct", 100.0 * in_loop.savings_fraction()),
            ("latency_cy", stats.avg_latency()),
            ("netsim.cycles_leapt", leapt as f64),
            ("netsim.leap_fraction", leapt as f64 / cycles as f64),
            ("netsim.leaps", leaps as f64),
            ("netsim.events", sim.events_processed_total() as f64),
            ("netsim.routers_settled", sim.routers_settled_total() as f64),
            (
                "netsim.settle_ops_per_leap",
                if leaps == 0 {
                    0.0
                } else {
                    sim.settle_ops_total() as f64 / leaps as f64
                },
            ),
            ("netsim.max_debt_span", sim.max_debt_span() as f64),
            ("netsim.router_steps", steps as f64),
            (
                "netsim.active_frac",
                steps as f64 / (routers as f64 * (cycles - leapt).max(1) as f64),
            ),
            (
                "netsim.ns_per_router_step",
                run_s * 1e9 / steps.max(1) as f64,
            ),
            (
                "netsim.flits_dropped_by_fault",
                stats.flits_dropped_by_fault as f64,
            ),
            ("netsim.packets_unroutable", stats.packets_unroutable as f64),
            (
                "netsim.dropped_at_source",
                stats.packets_dropped_at_source as f64,
            ),
            ("power.sleep_entries", counters.sleep_entries as f64),
            ("power.wake_stall_cycles", stats.wake_stall_cycles() as f64),
        ],
    };

    let ((drop_stats_s, drop_sim_s), teardown_s) = tr.time("netsim.teardown", |tr| {
        (
            tr.time("netsim.drop_stats", |_| drop((stats, hist))).1,
            tr.time("netsim.drop_sim", |_| drop(sim)).1,
        )
    });
    // Further constructions, outside `total_s`, so that `setup_s` is a
    // median even where one construction takes milliseconds.
    let mut setups = vec![setup_s];
    for _ in 1..spec.setup_reps {
        let t = Instant::now();
        let sim = Simulation::new(spec.cfg.clone());
        setups.push(t.elapsed().as_secs_f64());
        drop(sim);
    }
    pass.metrics.extend([
        ("total_s", answer_s + teardown_s),
        ("setup_s", crate::median(&mut setups)),
        ("run_s", run_s),
        ("teardown_s", teardown_s),
        ("netsim.new_s", setup_s),
        ("netsim.drop_sim_s", drop_sim_s),
        ("netsim.drop_stats_s", drop_stats_s),
        ("power.accounting_s", accounting_s),
    ]);

    if tr.is_on() {
        let scaling = if sharded && pass.threads > 1 {
            thread_scaling(spec, run_s, tr)
        } else {
            // The serial kernels ignore the thread count.
            1.0
        };
        pass.metrics.push(("netsim.thread_scaling", scaling));
    }
    pass
}

/// `run_s` with one worker thread over `run_s` with the resolved count,
/// on the same shard geometry.
fn thread_scaling(spec: &NocSpec, run_s: f64, tr: &mut Tracer) -> f64 {
    let cfg = MeshConfig {
        threads: 1,
        ..spec.cfg.clone()
    };
    let (serial_s, _) = tr.time("netsim.thread_scaling", |tr| {
        let mut sim = Simulation::new(cfg);
        let (result, secs) = tr.time("netsim.try_run_1_thread", |_| sim.try_run(0, spec.cycles));
        if let Err(abort) = result {
            panic!("run aborted: {abort}");
        }
        secs
    });
    serial_s / run_s
}
