//! Deferred (lazy) per-router leap settlement vs the eager oracle.
//!
//! The lazy path never settles a quiescent router at the measurement
//! boundary; it records a watermark and pays each router's *settlement
//! debt* on first touch — or at close-out, or when a deadline abort
//! freezes the run mid-window. The dense [`SimKernel::Reference`]
//! kernel steps every router every cycle and so settles eagerly by
//! construction: it is the oracle. These properties pin that every
//! deferring kernel (event-driven, sharded on one tile and on several)
//! is **bit-identical** to it in every observable way:
//!
//! * final [`NetworkStats`] (counters, gating, every histogram bin),
//!   across gating policies, traffic patterns, VC counts and fault
//!   plans — wakes and fault reaps interleave with leaps freely;
//! * typed [`SimAbort`] values when a cycle budget cuts the run short
//!   mid-measurement, **and** the post-abort engine state: a second
//!   run from the aborted state must also produce identical stats,
//!   which a debtor router can only satisfy by settling a *partial*
//!   span at the abort boundary;
//! * the state a *completed* run's close-out leaves behind: follow-up
//!   runs with a nonzero warmup step the network on it before their
//!   own measurement boundary resets the gating lanes, so a debtor
//!   whose close-out skipped its FSM template or left a stale idle run
//!   — or gating counts that leak from warmup into the window — changes
//!   their stats.

use leakage_noc::netsim::{
    FaultPlan, GatingPolicy, InjectionProcess, MeshConfig, NetworkStats, SimAbort, SimKernel,
    Simulation, SleepConfig, TrafficPattern,
};
use proptest::prelude::*;

/// The first run's outcome, then the outcomes of the follow-up runs,
/// each from the state its predecessor left.
type Outcome = Vec<Result<NetworkStats, SimAbort>>;

/// Short follow-up runs chained after the first: each close-out leaves
/// full-window debtors on their FSM template (`Asleep` once the window
/// outlasts the threshold), and each follow-up's single warmup cycle
/// steps whatever injects on it against those lanes — a stall the
/// template causes and a fresh lane does not — before its boundary
/// resets them. Twelve cycles fit every budget a first run can have.
const FOLLOW_UPS: usize = 8;
const FOLLOW_MEASURE: u64 = 11;

fn outcome(cfg: MeshConfig, warmup: u64, measure: u64) -> Outcome {
    let abort_follow = cfg.cycle_budget.min(60);
    let mut sim = Simulation::new(cfg);
    let mut runs = vec![sim.try_run(warmup, measure)];
    if runs[0].is_err() {
        // The abort froze the run with debts outstanding; the only way
        // a later run agrees with the oracle is if the lazy engine
        // settled every debtor's *partial* span (boundary → abort
        // cycle) exactly as the eager boundary reset did.
        let after = sim
            .try_run(0, abort_follow)
            .expect("follow-up within budget must complete");
        runs.push(Ok(after));
    }
    for _ in 0..FOLLOW_UPS {
        runs.push(sim.try_run(1, FOLLOW_MEASURE));
    }
    runs
}

/// Runs `cfg` once under the eager reference oracle and under every
/// deferring kernel, asserting identical outcomes — including a
/// follow-up run that observes the slabs the first run left, aborted or
/// completed.
fn all_kernels_lazy_match_eager(cfg: MeshConfig, warmup: u64, measure: u64) {
    let oracle = outcome(
        MeshConfig {
            kernel: SimKernel::Reference,
            ..cfg.clone()
        },
        warmup,
        measure,
    );
    let tiles = [2, 4][(cfg.seed % 2) as usize];
    for (kernel, shards) in [
        (SimKernel::EventDriven, 1),
        (SimKernel::Sharded, 1),
        (SimKernel::Sharded, tiles),
    ] {
        let lazy = outcome(
            MeshConfig {
                kernel,
                shards,
                threads: 1,
                ..cfg.clone()
            },
            warmup,
            measure,
        );
        assert_eq!(
            lazy, oracle,
            "{kernel:?} at {shards} shards diverged from the eager reference oracle"
        );
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(40))]

    /// Leaps, wakes and close-out interleaved at random: rates span
    /// the leap-heavy regime through busy meshes, across gating
    /// policies (threshold boundaries inside and outside typical idle
    /// spans), VC counts, torus wrap and bursty injection.
    #[test]
    fn deferred_settlement_is_bit_identical(
        pattern_idx in 0usize..TrafficPattern::ALL.len(),
        rate_sel in 0u8..3,
        rate in 0.0005f64..0.10,
        seed in 0u64..10_000,
        wrap_sel in 0u8..2,
        bursty_sel in 0u8..2,
        vcs_sel in 0usize..3,
        gating_sel in 0u8..5,
        wake in 0u32..3,
        warmup in 0u64..150,
        measure in 100u64..500,
    ) {
        let gating = match gating_sel {
            0 => None,
            1 => Some(GatingPolicy::Never),
            2 => Some(GatingPolicy::Immediate),
            3 => Some(GatingPolicy::IdleThreshold(2)),
            _ => Some(GatingPolicy::IdleThreshold(9)),
        }
        .map(|policy| SleepConfig { policy, wake_latency: wake });
        let cfg = MeshConfig {
            pattern: TrafficPattern::ALL[pattern_idx],
            // Skew toward near-dead meshes: that is where debts span
            // the whole window and the close-out walk does the work.
            injection_rate: match rate_sel { 0 => rate * 0.01, 1 => rate * 0.1, _ => rate },
            seed,
            wrap: wrap_sel == 1,
            vcs: [1, 2, 4][vcs_sel].max(if wrap_sel == 1 { 2 } else { 1 }),
            injection: if bursty_sel == 1 {
                InjectionProcess::BurstyOnOff { mean_burst: 8, mean_idle: 24 }
            } else {
                InjectionProcess::Bernoulli
            },
            gating,
            ..MeshConfig::default()
        };
        all_kernels_lazy_match_eager(cfg, warmup, measure);
    }

    /// Fault reaps interleave with outstanding debt: epochs land
    /// mid-window (often mid-leap for the event kernel), reaping worms
    /// and rerouting — none of which may disturb deferred gating state.
    #[test]
    fn deferred_settlement_survives_fault_reaps(
        rate in 0.002f64..0.08,
        seed in 0u64..10_000,
        fault_seed in 0u64..1_000,
        wrap_sel in 0u8..2,
        link_faults in 0usize..3,
        router_faults in 0usize..2,
        transients in 0usize..2,
        start in 50u64..300,
        window in 1u64..300,
        warmup in 0u64..120,
    ) {
        prop_assume!(link_faults + router_faults + transients > 0);
        let cfg = MeshConfig {
            width: 6,
            height: 6,
            injection_rate: rate,
            seed,
            wrap: wrap_sel == 1,
            vcs: if wrap_sel == 1 { 2 } else { 1 },
            gating: Some(SleepConfig {
                policy: GatingPolicy::IdleThreshold(3),
                wake_latency: 1,
            }),
            faults: Some(FaultPlan {
                seed: fault_seed,
                link_faults,
                router_faults,
                transient_link_faults: transients,
                transient_duration: 120,
                start_cycle: start,
                window,
                ..FaultPlan::default()
            }),
            ..MeshConfig::default()
        };
        all_kernels_lazy_match_eager(cfg, warmup, 400);
    }

    /// Deadline aborts cut debtors mid-span: budgets land before,
    /// on and after the measurement boundary; abort values and
    /// post-abort state must match the oracle exactly.
    #[test]
    fn deferred_settlement_survives_budget_aborts(
        rate_sel in 0u8..2,
        rate in 0.001f64..0.08,
        seed in 0u64..10_000,
        gating_sel in 0u8..3,
        warmup in 20u64..120,
        measure in 100u64..400,
        budget_frac in 0.1f64..1.5,
    ) {
        let total = warmup + measure;
        // Spread the deadline across the whole run, biased inside the
        // measurement window (mid-window partial-span settlement).
        let budget = ((total as f64 * budget_frac) as u64).max(1);
        let gating = match gating_sel {
            0 => None,
            1 => Some(GatingPolicy::Immediate),
            _ => Some(GatingPolicy::IdleThreshold(4)),
        }
        .map(|policy| SleepConfig { policy, wake_latency: 1 });
        let cfg = MeshConfig {
            injection_rate: if rate_sel == 0 { rate * 0.05 } else { rate },
            seed,
            gating,
            cycle_budget: budget,
            ..MeshConfig::default()
        };
        all_kernels_lazy_match_eager(cfg, warmup, measure);
    }
}
