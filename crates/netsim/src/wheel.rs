//! Calendar-queue time wheel for the event-driven kernel.
//!
//! [`TimeWheel`] holds at most one pending wake per router — the next
//! predicted injection arrival — keyed by absolute cycle. The hot
//! operations are O(1): scheduling into the slot ring, draining the
//! events due at the current cycle, and (via an occupancy bitmap)
//! finding the next scheduled cycle so the kernel knows how far it may
//! leap. Events beyond the ring's window park in an overflow list and
//! are folded back in when the window advances — the classic calendar
//! queue. The event kernel schedules only arrivals that fall inside
//! the current run, so overflow holds just the run's own arrivals past
//! the first 4096 cycles: runs shorter than the window never touch it,
//! and a rebase re-slots at most one run's events.
//!
//! Everything here is deterministic: slot order is canonicalized by
//! sorting drained ids, there is no hashing and no wall clock, so the
//! wheel never perturbs the bit-identical-stats contract.

use std::fmt;

/// Slot-ring length (cycles representable without overflow). A power
/// of two so slot arithmetic is a mask. At the low injection rates the
/// event kernel targets, mean arrival gaps are `1/rate` cycles —
/// 4096 covers rates down to ~2.5e-4 without touching overflow.
const SLOTS: usize = 4096;

/// A calendar queue over absolute cycles, holding `u32` event ids
/// (local router indices for the event kernel).
pub(crate) struct TimeWheel {
    /// Cycle of slot 0. Advances monotonically on rebase.
    base: u64,
    /// Lower bound on schedulable cycles: everything below has been
    /// drained. Draining cycle `c` raises the floor to `c + 1`.
    floor: u64,
    /// Event lists, slot `i` holding cycle `base + i`.
    slots: Vec<Vec<u32>>,
    /// Occupancy bitmap over slots (bit set ⇔ slot non-empty), so
    /// next-event queries scan 64 slots per word instead of one Vec
    /// emptiness check per slot.
    occ: Vec<u64>,
    /// Events at cycles `≥ base + SLOTS`, folded in on rebase.
    overflow: Vec<(u64, u32)>,
    /// Earliest overflow cycle (`u64::MAX` when empty), so the
    /// next-event query never scans the overflow list.
    overflow_min: u64,
    /// Total events currently scheduled.
    scheduled: usize,
}

impl fmt::Debug for TimeWheel {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("TimeWheel")
            .field("base", &self.base)
            .field("floor", &self.floor)
            .field("scheduled", &self.scheduled)
            .field("overflow", &self.overflow.len())
            .finish()
    }
}

impl TimeWheel {
    /// An empty wheel whose window starts at `now` (the first
    /// schedulable cycle).
    pub(crate) fn new(now: u64) -> Self {
        TimeWheel {
            base: now,
            floor: now,
            slots: vec![Vec::new(); SLOTS],
            occ: vec![0; SLOTS / 64],
            overflow: Vec::new(),
            overflow_min: u64::MAX,
            scheduled: 0,
        }
    }

    /// Events currently scheduled.
    pub(crate) fn len(&self) -> usize {
        self.scheduled
    }

    /// Schedules event `id` at absolute `cycle`.
    ///
    /// `cycle` must be at or above the floor (nothing may be scheduled
    /// into the drained past).
    pub(crate) fn schedule(&mut self, cycle: u64, id: u32) {
        debug_assert!(
            cycle >= self.floor,
            "scheduling into the drained past: cycle {cycle} < floor {}",
            self.floor
        );
        self.scheduled += 1;
        match usize::try_from(cycle - self.base) {
            Ok(i) if i < SLOTS => {
                self.slots[i].push(id);
                self.occ[i / 64] |= 1u64 << (i % 64);
            }
            _ => {
                self.overflow.push((cycle, id));
                self.overflow_min = self.overflow_min.min(cycle);
            }
        }
    }

    /// Removes every event due at exactly `cycle`, appending the ids to
    /// `out` in ascending order, and raises the floor past `cycle`.
    /// Cycles must be drained in nondecreasing order.
    pub(crate) fn drain_due(&mut self, cycle: u64, out: &mut Vec<u32>) {
        debug_assert!(cycle >= self.floor, "draining cycles out of order");
        if self.overflow_min <= cycle || cycle - self.base >= SLOTS as u64 {
            // The clock reached (or leapt past) the window's edge; pull
            // the window forward so due and future events are
            // slot-resident. Rebasing to the drained cycle keeps
            // `base ≤ floor`, so later schedules never land below the
            // window. (The floor rises only afterwards: rebasing
            // re-schedules events due at `cycle` itself.)
            self.rebase(cycle);
        }
        self.floor = cycle + 1;
        if let Ok(i) = usize::try_from(cycle - self.base) {
            if i < SLOTS && self.occ[i / 64] & (1u64 << (i % 64)) != 0 {
                self.occ[i / 64] &= !(1u64 << (i % 64));
                let start = out.len();
                out.append(&mut self.slots[i]);
                self.scheduled -= out.len() - start;
                // Canonical firing order regardless of insertion order.
                out[start..].sort_unstable();
            }
        }
    }

    /// The earliest scheduled cycle at or after `from`, if any.
    pub(crate) fn next_event(&self, from: u64) -> Option<u64> {
        if self.scheduled == 0 {
            return None;
        }
        let lo = from.max(self.base);
        if let Ok(i0) = usize::try_from(lo - self.base) {
            if i0 < SLOTS {
                if let Some(i) = self.scan_occupied(i0) {
                    let hit = self.base + i as u64;
                    // An occupied slot below `from` would mean undrained
                    // past events — the drain order contract forbids it.
                    debug_assert!(hit >= from);
                    return Some(hit);
                }
            }
        }
        if self.overflow_min == u64::MAX {
            return None;
        }
        // Every slot-resident event has been ruled out, so the answer
        // is the overflow minimum (always past the window, hence past
        // any slot hit; `drain_due` keeps it out of the drained past).
        debug_assert!(self.overflow_min >= from, "undrained overflow events");
        Some(self.overflow_min)
    }

    /// The latest scheduled cycle, if any. O(SLOTS + overflow): for
    /// assertions, not the hot path.
    pub(crate) fn latest(&self) -> Option<u64> {
        let slotted = (0..SLOTS)
            .rev()
            .find(|&i| self.occ[i / 64] & (1u64 << (i % 64)) != 0)
            .map(|i| self.base + i as u64);
        let parked = self.overflow.iter().map(|&(cy, _)| cy).max();
        slotted.max(parked)
    }

    /// First occupied slot index `≥ i0`, via the occupancy bitmap.
    fn scan_occupied(&self, i0: usize) -> Option<usize> {
        let mut w = i0 / 64;
        let mut word = self.occ[w] & (!0u64 << (i0 % 64));
        loop {
            if word != 0 {
                return Some(w * 64 + word.trailing_zeros() as usize);
            }
            w += 1;
            if w >= self.occ.len() {
                return None;
            }
            word = self.occ[w];
        }
    }

    /// Moves the window so slot 0 is `new_base`, re-slotting every live
    /// event. O(live events + SLOTS); called only when the clock
    /// outruns the window, at most once per 4096 cycles of a run.
    fn rebase(&mut self, new_base: u64) {
        debug_assert!(new_base >= self.base, "the window only moves forward");
        let mut live: Vec<(u64, u32)> = std::mem::take(&mut self.overflow);
        for w in 0..self.occ.len() {
            let mut word = std::mem::take(&mut self.occ[w]);
            while word != 0 {
                let i = w * 64 + word.trailing_zeros() as usize;
                word &= word - 1;
                let cy = self.base + i as u64;
                debug_assert!(cy >= new_base, "rebasing past a live event");
                live.extend(self.slots[i].drain(..).map(|id| (cy, id)));
            }
        }
        self.base = new_base;
        self.overflow_min = u64::MAX;
        self.scheduled -= live.len();
        for (cy, id) in live {
            self.schedule(cy, id);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Model oracle: a plain sorted list of (cycle, id) pairs.
    #[derive(Default)]
    struct Model {
        events: Vec<(u64, u32)>,
    }

    impl Model {
        fn schedule(&mut self, cycle: u64, id: u32) {
            self.events.push((cycle, id));
        }
        fn drain_due(&mut self, cycle: u64) -> Vec<u32> {
            let mut due: Vec<u32> = self
                .events
                .iter()
                .filter(|&&(c, _)| c == cycle)
                .map(|&(_, id)| id)
                .collect();
            due.sort_unstable();
            self.events.retain(|&(c, _)| c != cycle);
            due
        }
        fn next_event(&self, from: u64) -> Option<u64> {
            self.events
                .iter()
                .map(|&(c, _)| c)
                .filter(|&c| c >= from)
                .min()
        }
    }

    #[test]
    fn drains_in_ascending_id_order() {
        let mut w = TimeWheel::new(0);
        w.schedule(5, 9);
        w.schedule(5, 2);
        w.schedule(5, 7);
        let mut out = Vec::new();
        w.drain_due(5, &mut out);
        assert_eq!(out, vec![2, 7, 9]);
        assert_eq!(w.len(), 0);
    }

    #[test]
    fn next_event_scans_past_empty_slots() {
        let mut w = TimeWheel::new(100);
        w.schedule(100, 1);
        w.schedule(103, 2);
        w.schedule(4000, 3);
        assert_eq!(w.next_event(100), Some(100));
        let mut out = Vec::new();
        w.drain_due(100, &mut out);
        assert_eq!(w.next_event(101), Some(103));
        out.clear();
        w.drain_due(103, &mut out);
        assert_eq!(out, vec![2]);
        assert_eq!(w.next_event(104), Some(4000));
    }

    #[test]
    fn overflow_events_come_back_on_rebase() {
        let mut w = TimeWheel::new(0);
        // Far beyond the slot window: must park in overflow…
        w.schedule(3 * SLOTS as u64, 7);
        w.schedule(10 * SLOTS as u64 + 5, 8);
        assert_eq!(w.len(), 2);
        // …and surface exactly through the next-event query.
        assert_eq!(w.next_event(0), Some(3 * SLOTS as u64));
        let mut out = Vec::new();
        w.drain_due(3 * SLOTS as u64, &mut out);
        assert_eq!(out, vec![7]);
        assert_eq!(
            w.next_event(3 * SLOTS as u64 + 1),
            Some(10 * SLOTS as u64 + 5)
        );
        out.clear();
        w.drain_due(10 * SLOTS as u64 + 5, &mut out);
        assert_eq!(out, vec![8]);
        assert_eq!(w.len(), 0);
        assert_eq!(w.next_event(0), None);
    }

    #[test]
    fn latest_spans_slots_and_overflow() {
        let mut w = TimeWheel::new(10);
        assert_eq!(w.latest(), None);
        w.schedule(12, 1);
        w.schedule(500, 2);
        assert_eq!(w.latest(), Some(500));
        w.schedule(10 + 5 * SLOTS as u64, 3);
        assert_eq!(w.latest(), Some(10 + 5 * SLOTS as u64));
    }

    #[test]
    fn drain_through_overflow_without_query() {
        // A drain may land directly on an overflow cycle (the kernel
        // steps cycle by cycle through a congested span).
        let mut w = TimeWheel::new(0);
        let far = SLOTS as u64 + 17;
        w.schedule(far, 4);
        let mut out = Vec::new();
        w.drain_due(far, &mut out);
        assert_eq!(out, vec![4]);
        assert_eq!(w.len(), 0);
    }

    #[test]
    fn matches_model_on_mixed_schedule() {
        // Deterministic pseudo-random workload (LCG — no wall clocks,
        // no external entropy) interleaving schedules, drains and
        // queries, checked against the sorted-list oracle.
        let mut w = TimeWheel::new(0);
        let mut m = Model::default();
        let mut state = 0x2545f4914f6cdd1du64;
        let mut lcg = move || {
            state = state
                .wrapping_mul(6364136223846793005)
                .wrapping_add(1442695040888963407);
            state >> 33
        };
        let mut now = 0u64;
        let mut out = Vec::new();
        for step in 0..20_000u32 {
            if lcg() % 3 > 0 {
                let cycle = now + lcg() % (SLOTS as u64 * 3);
                w.schedule(cycle, step);
                m.schedule(cycle, step);
            }
            assert_eq!(w.next_event(now), m.next_event(now), "query at {now}");
            out.clear();
            w.drain_due(now, &mut out);
            assert_eq!(out, m.drain_due(now), "drain at {now}");
            assert_eq!(w.len(), m.events.len());
            // Advance one cycle, or leap — like the kernel, never past
            // a scheduled event (cycles must be drained in order).
            let gap = match lcg() % 13 {
                0 => 1 + lcg() % (SLOTS as u64 * 2),
                _ => 1 + lcg() % 3,
            };
            let mut target = now + gap;
            if let Some(e) = w.next_event(now + 1) {
                target = target.min(e);
            }
            now = target;
        }
    }
}
