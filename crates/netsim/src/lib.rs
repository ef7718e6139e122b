//! # lnoc-netsim — flit-level NoC simulator
//!
//! The paper proposes its crossbars for on-chip networks and defines a
//! *Minimum Idle Time* for the sleep decision, but never shows network
//! data. This crate supplies the missing substrate: a flit-level 2-D
//! mesh/torus simulator with input-buffered wormhole routers carrying
//! **virtual channels with credit-based flow control** ([`router`]),
//! dimension-order routing with **dateline VC switching** on the torus
//! (deadlock-free DOR at `vcs ≥ 2`), synthetic traffic patterns (with
//! Bernoulli or bursty ON–OFF injection) and — crucially — a
//! network-wide **idle-interval histogram** of every VC lane's idle
//! runs plus an **in-loop sleep FSM** per
//! output VC lane ([`sleep`]), so power gating is simulated where it
//! belongs: inside the cycle loop, where wake latency back-pressures
//! real flits and an empty VC bank can sleep while its sibling carries
//! a worm. The offline policy models in [`lnoc_power::gating`] are
//! cross-validated against these in-loop measurements.
//!
//! The cycle loop itself runs on one of three result-identical kernels
//! ([`SimKernel`]): the dense `Reference` oracle; the `Sharded`
//! worklist kernel, which skips quiescent routers entirely and
//! bulk-accounts their idleness — a multiple-× cycle-rate win exactly
//! in the low-injection-rate regime the leakage study sweeps — and
//! partitions the mesh into row-band tiles ([`topology::TileMap`])
//! stepped by parallel workers exchanging boundary traffic through
//! double-buffered mailboxes: deterministic by construction,
//! bit-identical for every shard and thread count (one tile is the
//! serial kernel), and the way 64×64/128×128 sweeps stay tractable;
//! and the `EventDriven` kernel, which predicts each source's next
//! injection arrival ([`InjectionProcess::next_arrival`]) on a
//! calendar-queue time wheel and **leaps the global clock over dead
//! windows**, bulk-replaying the skipped span with the same
//! closed-form idle machinery — the raw-speed lever that makes huge
//! low-rate sweeps routine. `Auto` (the default) picks between the
//! fast two by mesh size and offered load
//! ([`SimKernel::AUTO_EVENT_MAX_RATE`],
//! [`SimKernel::AUTO_EVENT_MIN_ROUTERS`]), and the sharded kernel's
//! default tile count grows with the mesh
//! ([`SimKernel::AUTO_SHARD_MIN_ROUTERS`]). A
//! zero-progress watchdog ([`MeshConfig::watchdog_cycles`]) turns any
//! routing-deadlock regression into a fast, named failure instead of a
//! hung run — a panic from [`Simulation::run`], or a typed
//! [`SimAbort`] value from [`Simulation::try_run`] so sweep
//! orchestrators can record a deadlocked point and keep going.
//!
//! Robustness is first-class: a seeded [`FaultPlan`]
//! ([`MeshConfig::faults`]) schedules permanent and transient link and
//! router failures; routing swaps to per-epoch BFS detour tables
//! ([`FaultMap`], dateline-safe on the torus), doomed worms are reaped
//! with exact flit/credit conservation, unreachable destinations are
//! dropped with accounting, and [`NetworkStats`] reports the
//! degradation (drops, unroutable packets, reachable-pair floor,
//! post-fault latency) — all bit-identical across every kernel and
//! shard/thread geometry, faults included.
//!
//! ## Example
//!
//! ```
//! use lnoc_netsim::{
//!     GatingPolicy, InjectionProcess, MeshConfig, Simulation, SleepConfig, TrafficPattern,
//! };
//!
//! let cfg = MeshConfig {
//!     width: 4,
//!     height: 4,
//!     injection_rate: 0.05,
//!     pattern: TrafficPattern::UniformRandom,
//!     packet_len_flits: 4,
//!     buffer_depth: 4,                         // flits per VC
//!     vcs: 2,                                  // VCs per port
//!     seed: 7,
//!     wrap: false,                             // set for a torus
//!     injection: InjectionProcess::Bernoulli,  // or BurstyOnOff
//!     gating: Some(SleepConfig {
//!         policy: GatingPolicy::IdleThreshold(3),
//!         wake_latency: 1,
//!     }),
//!     // kernel: SimKernel::{Auto, Reference, Sharded, EventDriven}
//!     // — Auto picks by mesh size and load (one-tile sharded here);
//!     // all kernels produce bit-identical statistics.
//!     // faults: Some(FaultPlan { .. }) arms a seeded fault scenario.
//!     ..MeshConfig::default()
//! };
//! let mut sim = Simulation::new(cfg);
//! let stats = sim.run(200, 1000);
//! assert!(stats.flits_delivered > 0);
//! assert!(stats.total_gating_counters().sleep_entries > 0);
//! ```

#![warn(missing_docs)]
#![warn(missing_debug_implementations)]
#![deny(unsafe_code)]

pub mod fault;
pub mod router;
mod shard;
pub mod sim;
pub mod sleep;
pub mod stats;
pub mod sync;
pub mod topology;
pub mod traffic;
mod wheel;
mod worklist;

pub use fault::{FaultEvent, FaultKind, FaultPlan};
pub use lnoc_power::gating::GatingPolicy;
pub use router::{RouteTarget, MAX_VCS};
pub use sim::{MeshConfig, SimAbort, SimKernel, Simulation};
pub use sleep::{SleepConfig, SleepState};
pub use stats::NetworkStats;
pub use topology::FaultMap;
pub use traffic::{Flit, GapSampler, InjectionProcess, TrafficPattern};
