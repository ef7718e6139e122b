//! The inputs of each part a benchmark pass can run (`run.py` groups the
//! parts into workloads): every input is fixed here, as a function of
//! the seed alone.
//!
//! The NoC gating inputs are pinned constants rather than derived from a
//! characterization at run time, so a change to the circuit layers cannot
//! silently change what the NoC workloads simulate. The
//! `pinned_lane_params_match_characterization` test re-derives them and
//! fails, printing both, when the two drift apart.

use lnoc_netsim::{
    FaultPlan, GatingPolicy, InjectionProcess, MeshConfig, SimKernel, SleepConfig, TrafficPattern,
};
use lnoc_power::gating::GatingParams;
use lnoc_tech::units::{Hertz, Joules, Watts};

/// The seed the pinned digests and values were recorded with.
pub const DEFAULT_SEED: u64 = 2005;

/// Per-VC input buffer depth of every NoC workload, shared by the mesh and
/// the lane power model.
pub const DEPTH_PER_VC: usize = 4;

/// Flits per packet in every NoC workload.
pub const PACKET_FLITS: usize = 4;

/// The paper configuration's clock (`CrossbarConfig::paper().clock`).
pub const CLOCK: Hertz = Hertz(3.0e9);

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    Table1Paper,
    NocSparse1m,
    NocUniform64,
    NocFaulted16,
}

impl Workload {
    pub const ALL: [Workload; 4] = [
        Workload::Table1Paper,
        Workload::NocSparse1m,
        Workload::NocUniform64,
        Workload::NocFaulted16,
    ];

    pub fn name(self) -> &'static str {
        match self {
            Workload::Table1Paper => "table1_paper",
            Workload::NocSparse1m => "noc_sparse_1m",
            Workload::NocUniform64 => "noc_uniform_64",
            Workload::NocFaulted16 => "noc_faulted_16",
        }
    }

    pub fn parse(name: &str) -> Option<Workload> {
        Workload::ALL.into_iter().find(|w| w.name() == name)
    }
}

/// One NoC workload instance: the mesh configuration, the cycles it runs
/// and the lane power model its leakage answer is computed with. Every
/// cycle is measured (no warm-up), so flit conservation holds exactly
/// over the run.
#[derive(Debug, Clone)]
pub struct NocSpec {
    pub cfg: MeshConfig,
    pub cycles: u64,
    pub params: GatingParams,
    /// `Simulation::new` calls timed per pass for `setup_s`.
    pub setup_reps: usize,
}

impl NocSpec {
    pub fn policy(&self) -> GatingPolicy {
        self.cfg.gating.expect("NoC workloads are gated").policy
    }

    /// Replaces the pinned sleep-FSM wake latency, in the mesh and in the
    /// lane power model alike.
    #[cfg(test)]
    pub fn set_wake_latency(&mut self, cycles: u32) {
        if let Some(gating) = &mut self.cfg.gating {
            gating.wake_latency = cycles;
        }
        self.params.wake_latency_cycles = cycles;
    }
}

/// Pinned output-VC-lane gating parameters of the paper-config DPC
/// crossbar (`RouterPowerModel::from_characterization(..)
/// .with_buffer_geometry(vcs, DEPTH_PER_VC).vc_lane_gating_params(5, vcs)`),
/// stored as exact bit patterns, with the Minimum Idle Time they imply.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct PinnedLane {
    pub vcs: usize,
    pub p_idle_awake_bits: u64,
    pub p_standby_bits: u64,
    pub e_transition_bits: u64,
    pub wake_latency_cycles: u32,
    pub min_idle_cycles: u32,
}

pub const DPC_LANE_V1: PinnedLane = PinnedLane {
    vcs: 1,
    p_idle_awake_bits: 0x3f6c84e66c303a7c,
    p_standby_bits: 0x3f44fc42feda56a2,
    e_transition_bits: 0x3d7d33b5532570dc,
    wake_latency_cycles: 1,
    min_idle_cycles: 2,
};

pub const DPC_LANE_V2: PinnedLane = PinnedLane {
    vcs: 2,
    p_idle_awake_bits: 0x3f611c8a40e9bcb0,
    p_standby_bits: 0x3f3744556de86fca,
    e_transition_bits: 0x3d71856ccb7cdd50,
    wake_latency_cycles: 1,
    min_idle_cycles: 2,
};

impl PinnedLane {
    pub fn params(&self) -> GatingParams {
        GatingParams {
            p_idle_awake: Watts(f64::from_bits(self.p_idle_awake_bits)),
            p_standby: Watts(f64::from_bits(self.p_standby_bits)),
            e_transition: Joules(f64::from_bits(self.e_transition_bits)),
            wake_latency_cycles: self.wake_latency_cycles,
        }
    }

    /// The in-loop sleep FSM configuration: sleep after the Minimum Idle
    /// Time, wake in the lane's wake latency.
    pub fn sleep(&self) -> SleepConfig {
        SleepConfig {
            policy: GatingPolicy::IdleThreshold(self.min_idle_cycles),
            wake_latency: self.wake_latency_cycles,
        }
    }
}

fn gated_mesh(lane: &PinnedLane, seed: u64) -> MeshConfig {
    MeshConfig {
        packet_len_flits: PACKET_FLITS,
        buffer_depth: DEPTH_PER_VC,
        vcs: lane.vcs,
        seed,
        gating: Some(lane.sleep()),
        // Kernel, shard and thread choice stay the program's business.
        kernel: SimKernel::Auto,
        shards: 0,
        threads: 0,
        ..MeshConfig::default()
    }
}

/// The NoC workload definitions; `None` for `table1_paper`.
pub fn noc_spec(w: Workload, seed: u64) -> Option<NocSpec> {
    let (lane, cfg, cycles, setup_reps) = match w {
        Workload::Table1Paper => return None,
        // A million routers, almost no traffic: construction, teardown and
        // the event kernel's leaps dominate.
        Workload::NocSparse1m => (
            DPC_LANE_V1,
            MeshConfig {
                width: 1024,
                height: 1024,
                injection_rate: 5e-8,
                pattern: TrafficPattern::NearestNeighbor,
                ..gated_mesh(&DPC_LANE_V1, seed)
            },
            20_000,
            1,
        ),
        // A busy torus: per-cycle stepping across shards, boundary
        // exchange, barriers and the dateline.
        Workload::NocUniform64 => (
            DPC_LANE_V2,
            MeshConfig {
                width: 64,
                height: 64,
                wrap: true,
                injection_rate: 0.025,
                pattern: TrafficPattern::UniformRandom,
                ..gated_mesh(&DPC_LANE_V2, seed)
            },
            1_000,
            5,
        ),
        // Bursty traffic over a torus losing links and a router: the fault
        // layer under the serial kernel.
        Workload::NocFaulted16 => (
            DPC_LANE_V2,
            MeshConfig {
                width: 16,
                height: 16,
                wrap: true,
                injection_rate: 0.03,
                pattern: TrafficPattern::UniformRandom,
                injection: InjectionProcess::BurstyOnOff {
                    mean_burst: 20,
                    mean_idle: 80,
                },
                faults: Some(FaultPlan {
                    seed,
                    link_faults: 4,
                    router_faults: 1,
                    transient_link_faults: 8,
                    ..FaultPlan::default()
                }),
                ..gated_mesh(&DPC_LANE_V2, seed)
            },
            3_000,
            5,
        ),
    };
    Some(NocSpec {
        cfg,
        cycles,
        params: lane.params(),
        setup_reps,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use lnoc_core::characterize::Characterizer;
    use lnoc_core::config::CrossbarConfig;
    use lnoc_core::scheme::Scheme;
    use lnoc_power::router::RouterPowerModel;

    /// Derives the lane from a fresh paper-config DPC characterization.
    fn derive(vcs: usize) -> PinnedLane {
        let cfg = CrossbarConfig::paper();
        let dpc = Characterizer::new(&cfg)
            .characterize(Scheme::Dpc)
            .expect("DPC characterization");
        let p = RouterPowerModel::from_characterization(&dpc, &cfg)
            .with_buffer_geometry(vcs, DEPTH_PER_VC)
            .vc_lane_gating_params(cfg.radix, vcs);
        PinnedLane {
            vcs,
            p_idle_awake_bits: p.p_idle_awake.0.to_bits(),
            p_standby_bits: p.p_standby.0.to_bits(),
            e_transition_bits: p.e_transition.0.to_bits(),
            wake_latency_cycles: p.wake_latency_cycles,
            min_idle_cycles: p.min_idle_cycles(cfg.clock),
        }
    }

    #[test]
    fn pinned_lane_params_match_characterization() {
        assert_eq!(CrossbarConfig::paper().clock, CLOCK);
        for pinned in [DPC_LANE_V1, DPC_LANE_V2] {
            assert_eq!(derive(pinned.vcs), pinned);
        }
    }
}
