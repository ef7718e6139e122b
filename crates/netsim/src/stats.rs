//! Network statistics: latency, throughput, activity, idle-interval
//! histograms and in-loop gating counters.

use lnoc_power::gating::{GatingCounters, IdleHistogram};
use lnoc_power::router::RouterActivity;
use serde::{Deserialize, Serialize};

/// Aggregate results of one simulation run (measurement phase only).
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct NetworkStats {
    /// Cycles in the measurement phase.
    pub measured_cycles: u64,
    /// Packets injected during measurement.
    pub packets_injected: u64,
    /// Packets the traffic pattern offered during measurement that were
    /// rejected because the node's source queue was at
    /// [`crate::sim::MeshConfig::source_queue_cap`]. Dropped packets
    /// never enter the network, so flit conservation stays exact.
    pub packets_dropped_at_source: u64,
    /// Packets fully delivered during measurement.
    pub packets_delivered: u64,
    /// Flits delivered during measurement.
    pub flits_delivered: u64,
    /// Sum of packet latencies (injection → tail ejection), cycles.
    pub latency_sum: u64,
    /// Max packet latency seen.
    pub latency_max: u64,
    /// Flits discarded at fault boundaries during measurement: every
    /// buffered or still-queued flit of a packet killed by a fault
    /// (dead router, torn worm, or a path change that would tear the
    /// worm). Each removal returns its buffer credit upstream, so flit
    /// conservation stays exact:
    /// `injected == delivered + in_flight + dropped_by_fault`.
    pub flits_dropped_by_fault: u64,
    /// Packets killed mid-flight by a fault during measurement
    /// (counted once, at the packet's source tile).
    pub packets_dropped_by_fault: u64,
    /// Packets abandoned because no surviving route to their
    /// destination existed — offered traffic whose destination was
    /// unreachable at injection time, plus queued-but-unsent packets
    /// discarded when a fault disconnected their destination.
    pub packets_unroutable: u64,
    /// Packets delivered at or after the first fault onset — with
    /// `latency_sum_post_fault`, the degraded-mode latency the sweep
    /// reports.
    pub packets_delivered_post_fault: u64,
    /// Sum of latencies of post-fault deliveries, cycles.
    pub latency_sum_post_fault: u64,
    /// Worst reachable-pair fraction over the run's fault epochs
    /// (`1.0` when no fault plan is active). Set by the runner after
    /// the shard merge; a pure function of the fault schedule.
    pub min_reachable_fraction: f64,
    /// Per-router activity counters.
    pub router_activity: Vec<RouterActivity>,
    /// Virtual channels per port the run was simulated with.
    pub vcs: usize,
    /// Idle intervals of every output VC lane of the record's routers,
    /// in one histogram. Closed intervals are binned as they end; the
    /// close-out appends each lane's trailing open interval in router
    /// order, lanes ascending within a router (`port * vcs + vc`, ports
    /// in [`crate::topology::Direction`] order), so the open runs'
    /// order is the same for every kernel and shard geometry. They are
    /// stored run-length — the lanes of routers left idle through the
    /// whole window share one entry — and
    /// [`IdleHistogram::open_runs`] yields them one per lane in that
    /// order.
    pub idle_histogram: IdleHistogram,
    /// Per-router in-loop gating counters (all output VC lanes
    /// summed); all-zero when the run was ungated. The simulation adds
    /// into these directly — it keeps no copy of its own.
    pub gating: Vec<GatingCounters>,
}

impl NetworkStats {
    /// Default idle-interval histogram bin count: intervals *shorter*
    /// than this many cycles are binned exactly; intervals of this
    /// length and longer land in the overflow bin (which still tracks
    /// their exact total cycle count). Every simulation, test and
    /// sweep in the workspace uses this cap unless it has a reason not
    /// to, so their histograms merge on the exact bin-wise fast path.
    pub const DEFAULT_IDLE_BINS: usize = 4096;

    /// Creates zeroed stats for `routers` routers with `vcs` virtual
    /// channels per port.
    pub fn new(routers: usize, vcs: usize, histogram_cap: usize) -> Self {
        NetworkStats {
            measured_cycles: 0,
            packets_injected: 0,
            packets_dropped_at_source: 0,
            packets_delivered: 0,
            flits_delivered: 0,
            latency_sum: 0,
            latency_max: 0,
            flits_dropped_by_fault: 0,
            packets_dropped_by_fault: 0,
            packets_unroutable: 0,
            packets_delivered_post_fault: 0,
            latency_sum_post_fault: 0,
            min_reachable_fraction: 1.0,
            router_activity: vec![RouterActivity::default(); routers],
            vcs,
            idle_histogram: IdleHistogram::new(histogram_cap),
            gating: vec![GatingCounters::default(); routers],
        }
    }

    /// Merges another stats record of the **same network dimensions**
    /// into this one. Equivalent to [`NetworkStats::merge_shard`] with
    /// a zero router offset and a full-network record.
    ///
    /// # Panics
    ///
    /// Panics when the two records describe different network shapes
    /// (router count or VC count).
    pub fn merge(&mut self, other: &NetworkStats) {
        assert_eq!(
            self.router_activity.len(),
            other.router_activity.len(),
            "merging stats of different networks"
        );
        self.merge_shard(other, 0);
    }

    /// Merges a tile's stats record — covering the contiguous router
    /// range `base_router ..` — into this network-wide record: the
    /// reduction the sharded kernel uses to combine per-shard
    /// statistics (each shard records only its own routers, so its
    /// record stays proportional to the tile, not the network).
    ///
    /// Merge semantics per field:
    ///
    /// * scalar counters (packets, flits, drops, latency sum) — added;
    /// * `latency_max` / `measured_cycles` — maximum;
    /// * per-router activity, gating counters — element-wise addition
    ///   at the offset;
    /// * idle histogram — bin-wise [`IdleHistogram::merge`] (open runs
    ///   appended in the other record's order).
    ///
    /// **Deterministic merge order.** The sharded runner merges shard
    /// records in ascending shard id. Every other field is an integer
    /// sum or maximum, so only the open-run vector depends on the
    /// order: tiles are ascending router ranges, so merging them in
    /// shard order keeps the open runs in router order, exactly as a
    /// single full-network record lists them.
    ///
    /// # Panics
    ///
    /// Panics when the VC counts differ or the offset record does not
    /// fit inside this one.
    pub fn merge_shard(&mut self, other: &NetworkStats, base_router: usize) {
        assert!(
            base_router + other.router_activity.len() <= self.router_activity.len(),
            "merged tile exceeds the network"
        );
        assert_eq!(self.vcs, other.vcs, "merging stats of different VC counts");
        self.measured_cycles = self.measured_cycles.max(other.measured_cycles);
        self.packets_injected += other.packets_injected;
        self.packets_dropped_at_source += other.packets_dropped_at_source;
        self.packets_delivered += other.packets_delivered;
        self.flits_delivered += other.flits_delivered;
        self.latency_sum += other.latency_sum;
        self.latency_max = self.latency_max.max(other.latency_max);
        self.flits_dropped_by_fault += other.flits_dropped_by_fault;
        self.packets_dropped_by_fault += other.packets_dropped_by_fault;
        self.packets_unroutable += other.packets_unroutable;
        self.packets_delivered_post_fault += other.packets_delivered_post_fault;
        self.latency_sum_post_fault += other.latency_sum_post_fault;
        self.min_reachable_fraction = self
            .min_reachable_fraction
            .min(other.min_reachable_fraction);
        for (mine, theirs) in self.router_activity[base_router..]
            .iter_mut()
            .zip(&other.router_activity)
        {
            mine.add(theirs);
        }
        self.idle_histogram.merge(&other.idle_histogram);
        for (mine, theirs) in self.gating[base_router..].iter_mut().zip(&other.gating) {
            mine.add(theirs);
        }
    }

    /// Mean packet latency in cycles.
    pub fn avg_latency(&self) -> f64 {
        if self.packets_delivered == 0 {
            return 0.0;
        }
        self.latency_sum as f64 / self.packets_delivered as f64
    }

    /// Mean latency (cycles) of packets delivered at or after the
    /// first fault onset — the degraded-mode latency.
    pub fn avg_latency_post_fault(&self) -> f64 {
        if self.packets_delivered_post_fault == 0 {
            return 0.0;
        }
        self.latency_sum_post_fault as f64 / self.packets_delivered_post_fault as f64
    }

    /// Delivered flits per router per cycle — the standard accepted
    /// throughput metric.
    pub fn throughput(&self) -> f64 {
        if self.measured_cycles == 0 || self.router_activity.is_empty() {
            return 0.0;
        }
        self.flits_delivered as f64
            / (self.measured_cycles as f64 * self.router_activity.len() as f64)
    }

    /// The network-wide idle-interval distribution, binned at `cap`.
    ///
    /// At the record's own cap (every simulation records at
    /// [`NetworkStats::DEFAULT_IDLE_BINS`]) this is a copy of
    /// [`NetworkStats::idle_histogram`]. At any other cap the bins are
    /// re-recorded in O(bins) via [`IdleHistogram::merge_rebinned`],
    /// which keeps interval counts and total idle cycles exact; the
    /// overflow intervals are re-binned at their *network-wide* average
    /// length, since per-lane overflow totals are not kept.
    pub fn merged_idle_histogram(&self, cap: usize) -> IdleHistogram {
        let mut merged = IdleHistogram::new(cap);
        merged.merge_rebinned(&self.idle_histogram);
        merged
    }

    /// Network-wide in-loop gating counters (all routers summed).
    pub fn total_gating_counters(&self) -> GatingCounters {
        let mut total = GatingCounters::default();
        for c in &self.gating {
            total.add(c);
        }
        total
    }

    /// Total cycles flits stalled behind sleeping ports — the measured
    /// latency cost of in-loop power gating.
    pub fn wake_stall_cycles(&self) -> u64 {
        self.gating.iter().map(|c| c.wake_stall_cycles).sum()
    }

    /// Network-wide crossbar-output utilization: fraction of
    /// router-output-cycles that carried a flit.
    pub fn crossbar_utilization(&self) -> f64 {
        if self.measured_cycles == 0 {
            return 0.0;
        }
        let traversals: u64 = self
            .router_activity
            .iter()
            .map(|a| a.crossbar_traversals)
            .sum();
        traversals as f64 / (self.measured_cycles as f64 * self.router_activity.len() as f64 * 5.0)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn zeroed_stats_are_safe() {
        let s = NetworkStats::new(4, 1, 64);
        assert_eq!(s.avg_latency(), 0.0);
        assert_eq!(s.throughput(), 0.0);
        assert_eq!(s.crossbar_utilization(), 0.0);
        assert_eq!(s.total_gating_counters(), GatingCounters::default());
    }

    #[test]
    fn merged_histogram_at_the_default_cap_is_the_record() {
        let mut s = NetworkStats::new(2, 1, NetworkStats::DEFAULT_IDLE_BINS);
        s.idle_histogram.record(5);
        s.idle_histogram.record(5);
        s.idle_histogram.record(7);
        s.idle_histogram.record(5000); // overflow
        s.idle_histogram.record_open(40);
        s.idle_histogram.record_open(3);
        let merged = s.merged_idle_histogram(NetworkStats::DEFAULT_IDLE_BINS);
        assert_eq!(merged, s.idle_histogram);
        assert_eq!(merged.interval_count(), 6);
        assert_eq!(merged.total_idle_cycles(), 5060);
        assert_eq!(merged.open_runs().copied().collect::<Vec<_>>(), [40, 3]);
    }

    #[test]
    fn merged_histogram_at_another_cap_keeps_totals() {
        // Re-binning at a different cap keeps interval counts and
        // idle cycles exact — including overflow intervals whose
        // average is not an integer (3201 cycles over 5 intervals).
        // The overflow is re-binned at its network-wide average.
        let mut s = NetworkStats::new(2, 2, 64);
        let h = &mut s.idle_histogram;
        h.record_n(5, 400);
        h.record_n(9, 2);
        h.record_n(63, 10);
        h.record_n(1000, 3); // overflow bin
        h.record(100); // overflow, inexact average
        h.record(101);
        h.record_open(77);
        let same = s.merged_idle_histogram(64);
        assert_eq!(same, s.idle_histogram);
        for cap in [128, 2048] {
            let other = s.merged_idle_histogram(cap);
            assert_eq!(other.max_len(), cap);
            assert_eq!(other.interval_count(), 418);
            assert_eq!(other.total_idle_cycles(), same.total_idle_cycles());
            assert_eq!(other.total_idle_cycles(), 2000 + 18 + 630 + 3000 + 201 + 77);
            assert_eq!(other.open_runs().copied().collect::<Vec<_>>(), [77]);
        }
        // 3201 / 5 = 640.2: four intervals at 640, one at 641.
        let wide: Vec<_> = s.merged_idle_histogram(2048).iter_lengths().collect();
        assert_eq!(wide, vec![(5, 400), (9, 2), (63, 10), (640, 4), (641, 1)]);
    }

    #[test]
    fn merge_shard_places_tiles_and_merge_matches_whole_network() {
        // Two tile records (routers 0..2 and 2..4 of a 4-router
        // network) reduced at their offsets must equal the same events
        // recorded into one full-size record — and `merge` must be
        // exactly `merge_shard` at offset 0 with a full-size record.
        let mut tile0 = NetworkStats::new(2, 1, 64);
        tile0.packets_injected = 3;
        tile0.packets_delivered = 2;
        tile0.flits_delivered = 8;
        tile0.latency_sum = 40;
        tile0.latency_max = 25;
        tile0.measured_cycles = 100;
        tile0.router_activity[1].cycles = 100;
        tile0.idle_histogram.record(5);
        tile0.idle_histogram.record_open(3);
        tile0.gating[1].sleep_entries = 7;
        let mut tile1 = NetworkStats::new(2, 1, 64);
        tile1.packets_injected = 1;
        tile1.packets_delivered = 1;
        tile1.flits_delivered = 4;
        tile1.latency_sum = 10;
        tile1.latency_max = 10;
        tile1.measured_cycles = 100;
        tile1.router_activity[0].cycles = 50;
        tile1.idle_histogram.record_open(9);

        let mut reduced = NetworkStats::new(4, 1, 64);
        reduced.merge_shard(&tile0, 0);
        reduced.merge_shard(&tile1, 2);

        let mut whole = NetworkStats::new(4, 1, 64);
        whole.packets_injected = 4;
        whole.packets_delivered = 3;
        whole.flits_delivered = 12;
        whole.latency_sum = 50;
        whole.latency_max = 25;
        whole.measured_cycles = 100;
        whole.router_activity[1].cycles = 100;
        whole.router_activity[2].cycles = 50;
        whole.idle_histogram.record(5);
        whole.idle_histogram.record_open(3);
        whole.idle_histogram.record_open(9);
        whole.gating[1].sleep_entries = 7;
        assert_eq!(reduced, whole);

        // Same-size merge is the offset-0 special case.
        let mut via_merge = NetworkStats::new(4, 1, 64);
        via_merge.merge(&whole);
        assert_eq!(via_merge, whole);
    }

    #[test]
    fn shard_merge_keeps_open_runs_in_router_order() {
        // Each tile lists its open runs router by router, lanes
        // ascending; merging the tiles in ascending shard order lists
        // them router by router network-wide. Any other order would
        // change the record, which is why the runner fixes it.
        let tile = |runs: &[u64]| {
            let mut t = NetworkStats::new(1, 1, 64);
            for &r in runs {
                t.idle_histogram.record_open(r);
            }
            t
        };
        let tiles = [
            tile(&[11, 12, 0, 14, 15]),
            tile(&[21, 22, 23, 24, 25]),
            tile(&[31]),
        ];
        let mut ascending = NetworkStats::new(3, 1, 64);
        for (base, t) in tiles.iter().enumerate() {
            ascending.merge_shard(t, base);
        }
        assert_eq!(
            ascending
                .idle_histogram
                .open_runs()
                .copied()
                .collect::<Vec<_>>(),
            [11, 12, 14, 15, 21, 22, 23, 24, 25, 31]
        );
        let mut descending = NetworkStats::new(3, 1, 64);
        for (base, t) in tiles.iter().enumerate().rev() {
            descending.merge_shard(t, base);
        }
        assert_eq!(
            descending.idle_histogram.interval_count(),
            ascending.idle_histogram.interval_count()
        );
        assert_ne!(descending, ascending);
    }

    #[test]
    #[should_panic(expected = "exceeds the network")]
    fn merge_shard_rejects_overhanging_tiles() {
        let mut net = NetworkStats::new(4, 1, 64);
        let tile = NetworkStats::new(2, 1, 64);
        net.merge_shard(&tile, 3);
    }

    #[test]
    fn latency_math() {
        let mut s = NetworkStats::new(1, 1, 8);
        s.packets_delivered = 4;
        s.latency_sum = 40;
        assert!((s.avg_latency() - 10.0).abs() < 1e-12);
    }
}
