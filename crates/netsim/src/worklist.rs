//! The per-tile router worklist: a two-level bitset.
//!
//! Bit `i` of the lower level is set while local router `i` is on the
//! worklist; bit `w` of the summary is set while lower word `w` is
//! nonzero. Walking the set visits only nonzero words, so a cycle with
//! a handful of active routers in a million-router tile costs a few
//! summary words instead of a scan of every word — while the walk
//! stays in router-index order, cache-linear over the SoA slabs.

/// A set of tile-local router indices with ordered, O(active) walks.
#[derive(Debug, Clone)]
pub(crate) struct Worklist {
    words: Vec<u64>,
    /// Bit `w` set ⇔ `words[w] != 0`.
    summary: Vec<u64>,
}

impl Worklist {
    /// An empty worklist over indices `0..len`.
    pub(crate) fn new(len: usize) -> Self {
        let words = len.div_ceil(64);
        Worklist {
            words: vec![0; words],
            summary: vec![0; words.div_ceil(64)],
        }
    }

    /// Whether index `i` is on the worklist.
    #[inline]
    pub(crate) fn contains(&self, i: usize) -> bool {
        self.words[i / 64] & (1u64 << (i % 64)) != 0
    }

    /// Adds index `i`.
    #[inline]
    pub(crate) fn insert(&mut self, i: usize) {
        let w = i / 64;
        self.words[w] |= 1u64 << (i % 64);
        self.summary[w / 64] |= 1u64 << (w % 64);
    }

    /// Removes index `i`.
    #[inline]
    pub(crate) fn remove(&mut self, i: usize) {
        let w = i / 64;
        self.words[w] &= !(1u64 << (i % 64));
        if self.words[w] == 0 {
            self.summary[w / 64] &= !(1u64 << (w % 64));
        }
    }

    /// Puts every index of `0..len` on the worklist (`len` as passed to
    /// [`Worklist::new`]).
    pub(crate) fn fill(&mut self, len: usize) {
        for (wi, w) in self.words.iter_mut().enumerate() {
            let bits = (len - (wi * 64).min(len)).min(64);
            *w = if bits == 64 { !0 } else { (1u64 << bits) - 1 };
        }
        for (si, s) in self.summary.iter_mut().enumerate() {
            let bits = (self.words.len() - si * 64).min(64);
            *s = if bits == 64 { !0 } else { (1u64 << bits) - 1 };
        }
    }

    /// Number of indices on the worklist.
    pub(crate) fn count(&self) -> usize {
        self.words.iter().map(|w| w.count_ones() as usize).sum()
    }

    /// Whether the worklist is empty.
    pub(crate) fn is_empty(&self) -> bool {
        self.summary.iter().all(|&s| s == 0)
    }

    /// The smallest index `≥ from` on the worklist. Walk ascending with
    /// `next_from(0)`, then `next_from(i + 1)`; removing `i` between
    /// calls is allowed.
    #[inline]
    pub(crate) fn next_from(&self, from: usize) -> Option<usize> {
        let w = from / 64;
        let word = *self.words.get(w)? & (!0u64 << (from % 64));
        if word != 0 {
            return Some(w * 64 + word.trailing_zeros() as usize);
        }
        // The first nonzero word after `w`, via the summary.
        let next = w + 1;
        let mut si = next / 64;
        let mut s = *self.summary.get(si)? & (!0u64 << (next % 64));
        loop {
            if s != 0 {
                let w = si * 64 + s.trailing_zeros() as usize;
                return Some(w * 64 + self.words[w].trailing_zeros() as usize);
            }
            si += 1;
            s = *self.summary.get(si)?;
        }
    }

    /// The largest index `≤ through` on the worklist. Walk descending
    /// with `prev_through(usize::MAX)`, then `prev_through(i - 1)`;
    /// removing `i` between calls is allowed.
    #[inline]
    pub(crate) fn prev_through(&self, through: usize) -> Option<usize> {
        let last = (self.words.len() * 64).checked_sub(1)?;
        let through = through.min(last);
        let w = through / 64;
        let word = self.words[w] & (!0u64 >> (63 - through % 64));
        if word != 0 {
            return Some(w * 64 + 63 - word.leading_zeros() as usize);
        }
        // The last nonzero word before `w`, via the summary.
        let prev = w.checked_sub(1)?;
        let mut si = prev / 64;
        let mut s = self.summary[si] & (!0u64 >> (63 - prev % 64));
        loop {
            if s != 0 {
                let w = si * 64 + 63 - s.leading_zeros() as usize;
                return Some(w * 64 + 63 - self.words[w].leading_zeros() as usize);
            }
            si = si.checked_sub(1)?;
            s = self.summary[si];
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::collections::BTreeSet;

    fn ascending(wl: &Worklist) -> Vec<usize> {
        std::iter::successors(wl.next_from(0), |&i| wl.next_from(i + 1)).collect()
    }

    fn descending(wl: &Worklist) -> Vec<usize> {
        std::iter::successors(wl.prev_through(usize::MAX), |&i| {
            i.checked_sub(1).and_then(|p| wl.prev_through(p))
        })
        .collect()
    }

    #[test]
    fn empty_and_full_worklists() {
        for len in [0, 1, 63, 64, 65, 4096, 4097, 64 * 64 * 2 + 3] {
            let mut wl = Worklist::new(len);
            assert!(wl.is_empty());
            assert_eq!(wl.next_from(0), None);
            assert_eq!(wl.prev_through(usize::MAX), None);
            wl.fill(len);
            assert_eq!(wl.count(), len);
            assert_eq!(ascending(&wl), (0..len).collect::<Vec<_>>());
            assert_eq!(descending(&wl), (0..len).rev().collect::<Vec<_>>());
            assert_eq!(wl.is_empty(), len == 0);
        }
    }

    /// Deterministic pseudo-random source (LCG — no external entropy).
    fn lcg(mut state: u64) -> impl FnMut() -> u64 {
        move || {
            state = state
                .wrapping_mul(6364136223846793005)
                .wrapping_add(1442695040888963407);
            state >> 33
        }
    }

    /// Walks `wl` ascending (or descending), removing the members
    /// `retire` picks as it goes — the way the router loop retires
    /// quiescent routers mid-walk — and returns the members visited.
    fn walk_retiring(
        wl: &mut Worklist,
        reversed: bool,
        retire: impl Fn(usize) -> bool,
    ) -> Vec<usize> {
        let mut seen = Vec::new();
        let mut at = if reversed {
            wl.prev_through(usize::MAX)
        } else {
            wl.next_from(0)
        };
        while let Some(i) = at {
            seen.push(i);
            if retire(i) {
                wl.remove(i);
            }
            at = if reversed {
                i.checked_sub(1).and_then(|p| wl.prev_through(p))
            } else {
                wl.next_from(i + 1)
            };
        }
        seen
    }

    /// Random inserts and removes against a `BTreeSet` model, over
    /// sparse sets (members scattered over many summary words) and
    /// dense ones (members clustered in a few), then both walks, plain
    /// and retiring.
    #[test]
    fn matches_a_btreeset_model() {
        let mut rng = lcg(0x9e3779b97f4a7c15);
        for case in 0..300 {
            let len = 1 + rng() as usize % 20_000;
            let span = if case % 2 == 0 { len } else { len.min(200) };
            let offset = rng() as usize % len;
            let mut wl = Worklist::new(len);
            let mut model = BTreeSet::new();
            for _ in 0..rng() % 500 {
                let i = (offset + rng() as usize % span) % len;
                if !rng().is_multiple_of(3) {
                    wl.insert(i);
                    model.insert(i);
                } else {
                    wl.remove(i);
                    model.remove(&i);
                }
                assert_eq!(wl.contains(i), model.contains(&i));
            }
            let up: Vec<usize> = model.iter().copied().collect();
            let down: Vec<usize> = model.iter().rev().copied().collect();
            assert_eq!(wl.count(), model.len());
            assert_eq!(wl.is_empty(), model.is_empty());
            assert_eq!(ascending(&wl), up);
            assert_eq!(descending(&wl), down);

            let mask = rng();
            let retire = |i: usize| (mask >> (i % 64)) & 1 == 1;
            let kept: Vec<usize> = up.iter().copied().filter(|&i| !retire(i)).collect();
            for (reversed, order) in [(false, &up), (true, &down)] {
                let mut w = wl.clone();
                assert_eq!(&walk_retiring(&mut w, reversed, retire), order);
                assert_eq!(ascending(&w), kept);
                assert_eq!(w.is_empty(), kept.is_empty());
            }
        }
    }
}
