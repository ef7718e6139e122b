//! Property test: the grow-on-demand [`IdleHistogram`] against a dense
//! reference model that allocates every bin up front and keeps the open
//! runs as a plain list.
//!
//! Random sequences of `record_n`, `record_open`, `merge` and
//! `merge_rebinned` (across caps) run on both; after every sequence the
//! two must agree on `==`, `iter_lengths`, `interval_count`,
//! `total_idle_cycles`, the open runs in record order (expanded from
//! the histogram's run-length storage) and, bit for bit, the
//! [`evaluate_policy`] outcome of every policy. Lengths are biased
//! toward the cap edges (0, `cap − 1`, `cap`, `cap + 1`), where exact
//! bins end and the overflow bin begins, and open runs are often
//! recorded several times in a row, so run-length entries grow, split
//! and join across merges.

use lnoc_power::gating::{
    evaluate_policy, GatingOutcome, GatingParams, GatingPolicy, IdleHistogram,
};
use lnoc_tech::units::{Hertz, Joules, Watts};
use proptest::prelude::*;

/// Caps the properties draw from: degenerate, tiny, odd and the
/// simulator's default.
const CAPS: [usize; 5] = [1, 2, 7, 64, 4096];

/// The dense model: `cap` exact bins plus an overflow count, all
/// allocated at construction.
#[derive(Debug, Clone, PartialEq)]
struct Dense {
    cap: usize,
    bins: Vec<u64>,
    overflow_n: u64,
    overflow_len_sum: u64,
    open: Vec<u64>,
}

impl Dense {
    fn new(cap: usize) -> Self {
        Dense {
            cap,
            bins: vec![0; cap],
            overflow_n: 0,
            overflow_len_sum: 0,
            open: Vec::new(),
        }
    }

    fn record_n(&mut self, len: u64, count: u64) {
        if len == 0 || count == 0 {
            return;
        }
        if len >= self.cap as u64 {
            self.overflow_n += count;
            self.overflow_len_sum += len * count;
        } else {
            self.bins[len as usize] += count;
        }
    }

    fn record_open(&mut self, len: u64) {
        if len > 0 {
            self.open.push(len);
        }
    }

    fn merge(&mut self, other: &Dense) {
        assert_eq!(self.cap, other.cap);
        for (a, b) in self.bins.iter_mut().zip(&other.bins) {
            *a += b;
        }
        self.overflow_n += other.overflow_n;
        self.overflow_len_sum += other.overflow_len_sum;
        self.open.extend_from_slice(&other.open);
    }

    fn merge_rebinned(&mut self, other: &Dense) {
        if self.cap == other.cap {
            return self.merge(other);
        }
        for (len, &n) in other.bins.iter().enumerate() {
            self.record_n(len as u64, n);
        }
        if let Some(avg) = other.overflow_len_sum.checked_div(other.overflow_n) {
            let rem = other.overflow_len_sum - avg * other.overflow_n;
            self.record_n(avg, other.overflow_n - rem);
            self.record_n(avg + 1, rem);
        }
        for &len in &other.open {
            self.record_open(len);
        }
    }

    fn lengths(&self) -> Vec<(u64, u64)> {
        let mut out: Vec<(u64, u64)> = (0..self.cap)
            .filter(|&k| self.bins[k] > 0)
            .map(|k| (k as u64, self.bins[k]))
            .collect();
        if let Some(avg) = self.overflow_len_sum.checked_div(self.overflow_n) {
            out.push((avg, self.overflow_n));
        }
        out
    }

    fn interval_count(&self) -> u64 {
        self.bins.iter().sum::<u64>() + self.overflow_n + self.open.len() as u64
    }

    fn total_idle_cycles(&self) -> u64 {
        let exact: u64 = (0..self.cap).map(|k| k as u64 * self.bins[k]).sum();
        exact + self.overflow_len_sum + self.open.iter().sum::<u64>()
    }

    /// [`evaluate_policy`]'s documented arithmetic over the model:
    /// closed intervals length by length (the overflow bin at its
    /// average), then every open run on its own, in record order.
    fn evaluate(&self, params: &GatingParams, policy: GatingPolicy, clock: Hertz) -> GatingOutcome {
        let t_cycle = 1.0 / clock.0;
        let (p_idle, p_standby) = (params.p_idle_awake.0, params.p_standby.0);
        let breakeven = params.min_idle_cycles(clock) as u64;
        let mut out = GatingOutcome {
            energy_never: Joules(0.0),
            energy_policy: Joules(0.0),
            sleep_events: 0,
            wake_penalty_cycles: 0,
        };
        let closed = self.lengths().into_iter().map(|(len, n)| (len, n, true));
        let open = self.open.iter().map(|&len| (len, 1, false));
        for (len, count, wakes) in closed.chain(open) {
            let n = count as f64;
            out.energy_never.0 += n * len as f64 * t_cycle * p_idle;
            let sleep_at = match policy {
                GatingPolicy::Never => None,
                GatingPolicy::Immediate => Some(0),
                GatingPolicy::IdleThreshold(th) => (len >= th as u64).then_some(th as u64),
                GatingPolicy::Oracle => (len >= breakeven.max(1)).then_some(0),
            };
            match sleep_at {
                None => out.energy_policy.0 += n * len as f64 * t_cycle * p_idle,
                Some(s) => {
                    let awake = s.min(len) as f64;
                    let slept = (len - s.min(len)) as f64;
                    out.energy_policy.0 += n
                        * (awake * t_cycle * p_idle
                            + slept * t_cycle * p_standby
                            + params.e_transition.0);
                    out.sleep_events += count;
                    if wakes {
                        out.wake_penalty_cycles += count * params.wake_latency_cycles as u64;
                    }
                }
            }
        }
        out
    }

    /// The same content rebuilt into a sparse histogram, longest bin
    /// first — a different growth order than any recorded sequence.
    fn to_sparse(&self) -> IdleHistogram {
        let mut h = IdleHistogram::new(self.cap);
        for k in (0..self.cap).rev() {
            h.record_n(k as u64, self.bins[k]);
        }
        if self.overflow_n > 0 {
            // Same count and sum: one interval carries the remainder.
            let rest = self.overflow_len_sum - (self.overflow_n - 1) * self.cap as u64;
            h.record_n(self.cap as u64, self.overflow_n - 1);
            h.record(rest);
        }
        for &len in &self.open {
            h.record_open(len);
        }
        h
    }
}

/// A sparse histogram paired with its model.
#[derive(Debug, Clone)]
struct Pair {
    sparse: IdleHistogram,
    dense: Dense,
}

impl Pair {
    fn new(cap: usize) -> Self {
        Pair {
            sparse: IdleHistogram::new(cap),
            dense: Dense::new(cap),
        }
    }
}

/// Decodes a length from a random word, one draw in two at a cap edge.
fn length(word: u64, cap: usize) -> u64 {
    let cap = cap as u64;
    match word % 8 {
        0 => 0,
        1 => cap.saturating_sub(1),
        2 => cap,
        3 => cap + 1,
        _ => (word >> 3) % (3 * cap + 2),
    }
}

/// Checks every observable of one pair against its model.
fn agree(p: &Pair) -> Result<(), TestCaseError> {
    let (s, d) = (&p.sparse, &p.dense);
    prop_assert_eq!(s.max_len(), d.cap);
    prop_assert_eq!(s.iter_lengths().collect::<Vec<_>>(), d.lengths());
    prop_assert_eq!(s.interval_count(), d.interval_count());
    prop_assert_eq!(s.total_idle_cycles(), d.total_idle_cycles());
    prop_assert_eq!(s.open_runs().copied().collect::<Vec<_>>(), d.open.clone());
    prop_assert_eq!(s, &d.to_sparse());
    // Paper-scale lane parameters: a 3-cycle breakeven at 3 GHz.
    let params = GatingParams {
        p_idle_awake: Watts(10.0e-6),
        p_standby: Watts(1.0e-6),
        e_transition: Joules(9.0e-15),
        wake_latency_cycles: 2,
    };
    let clock = Hertz(3.0e9);
    let cap = d.cap as u32;
    for policy in [
        GatingPolicy::Never,
        GatingPolicy::Immediate,
        GatingPolicy::IdleThreshold(2),
        GatingPolicy::IdleThreshold(cap),
        GatingPolicy::IdleThreshold(cap + 1),
        GatingPolicy::Oracle,
    ] {
        let got = evaluate_policy(s, &params, policy, clock);
        let want = d.evaluate(&params, policy, clock);
        prop_assert_eq!(got.energy_never.0.to_bits(), want.energy_never.0.to_bits());
        prop_assert_eq!(
            got.energy_policy.0.to_bits(),
            want.energy_policy.0.to_bits()
        );
        prop_assert_eq!(got.sleep_events, want.sleep_events);
        prop_assert_eq!(got.wake_penalty_cycles, want.wake_penalty_cycles);
    }
    Ok(())
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    #[test]
    fn sparse_histogram_matches_dense_model(
        caps in proptest::collection::vec(0usize..CAPS.len(), 3),
        ops in proptest::collection::vec(0u64..u64::MAX, 1..80),
    ) {
        // Two same-cap accumulators and one of a different cap (equal
        // when the draw repeats a cap, which exercises the fast path
        // of `merge_rebinned`).
        let cap = CAPS[caps[0]];
        let mut acc = [Pair::new(cap), Pair::new(cap)];
        let mut other = Pair::new(CAPS[caps[1]]);
        let scratch_cap = CAPS[caps[2]];
        for &word in &ops {
            let which = (word >> 60) as usize & 1;
            let arg = word >> 3;
            match word % 6 {
                0 | 1 => {
                    let len = length(arg, cap);
                    let count = (arg >> 40) % 4;
                    acc[which].sparse.record_n(len, count);
                    acc[which].dense.record_n(len, count);
                }
                2 => {
                    // Often the same length several times in a row:
                    // one run-length entry, grown in place.
                    let len = length(arg, cap);
                    for _ in 0..1 + (arg >> 40) % 4 {
                        acc[which].sparse.record_open(len);
                        acc[which].dense.record_open(len);
                    }
                }
                3 => {
                    let from = acc[1 - which].clone();
                    acc[which].sparse.merge(&from.sparse);
                    acc[which].dense.merge(&from.dense);
                }
                4 => {
                    let len = length(arg, other.dense.cap);
                    let count = 1 + (arg >> 40) % 3;
                    other.sparse.record_n(len, count);
                    other.dense.record_n(len, count);
                    if arg >> 50 & 1 == 1 {
                        other.sparse.record_open(len);
                        other.dense.record_open(len);
                    }
                    acc[which].sparse.merge_rebinned(&other.sparse);
                    acc[which].dense.merge_rebinned(&other.dense);
                }
                _ => {
                    // Re-bin into a fresh histogram of a third cap and
                    // back: counts and idle cycles survive exactly.
                    let mut there = Pair::new(scratch_cap);
                    there.sparse.merge_rebinned(&acc[which].sparse);
                    there.dense.merge_rebinned(&acc[which].dense);
                    agree(&there)?;
                    prop_assert_eq!(
                        there.sparse.total_idle_cycles(),
                        acc[which].dense.total_idle_cycles()
                    );
                    prop_assert_eq!(
                        there.sparse.interval_count(),
                        acc[which].dense.interval_count()
                    );
                }
            }
        }
        for p in acc.iter().chain([&other]) {
            agree(p)?;
        }
        prop_assert_eq!(
            acc[0].sparse == acc[1].sparse,
            acc[0].dense == acc[1].dense
        );
        prop_assert_eq!(acc[0].sparse == other.sparse, acc[0].dense == other.dense);
    }

    #[test]
    fn cap_edges_bin_like_the_dense_model(cap_idx in 0usize..CAPS.len(), n in 1u64..5) {
        let cap = CAPS[cap_idx];
        let mut p = Pair::new(cap);
        for len in [0, cap as u64 - 1, cap as u64, cap as u64 + 1] {
            p.sparse.record_n(len, n);
            p.dense.record_n(len, n);
            p.sparse.record_open(len);
            p.dense.record_open(len);
        }
        agree(&p)?;
    }
}
