//! Input-buffered wormhole router with virtual channels and
//! credit-based flow control.
//!
//! One router has five input ports (one per [`Direction`]), each split
//! into `V` virtual-channel ring buffers, and a 5×5 crossbar — the
//! paper's evaluation object generalized to VC flow control. Switching
//! is wormhole per VC: a head flit claims an *output VC lane* (an
//! `(output port, VC)` pair — physically the downstream router's input
//! VC buffer), body flits follow on that lane, and the tail flit
//! releases it. Backpressure is credit-based: the simulation carries an
//! explicit credit counter per output lane (free slots in the
//! downstream VC buffer), decremented when a flit departs and
//! incremented when the downstream router pops one.
//!
//! Allocation is two-stage, both stages resolved within a cycle:
//!
//! ```text
//!  input port 0 ─ VC0 ─┐
//!              ─ VC1 ─┤   ┌────────────────┐      ┌────────────────┐
//!  input port 1 ─ VC0 ─┼──►│ VC allocation  │─────►│ switch          │──► at most one
//!              ─ VC1 ─┤   │ (head flits     │ body │ allocation      │    flit per
//!      ⋮              │   │  claim a free   │flits │ (per output     │    output port
//!  input port 4 ─ VC0 ─┤   │  output VC with │ skip │  port: RR over  │    per cycle
//!              ─ VC1 ─┘   │  a credit)      │ VA   │  its V lanes;   │
//!                         └────────────────┘      │  per input port:│
//!                                                 │  one read/cycle)│
//!                                                 └────────────────┘
//! ```
//!
//! * **VC allocation** — a head flit at the front of an input VC
//!   requests one specific output lane (a pure function of the route
//!   and the dateline class, see [`Mesh::hop_vc`]); it is granted when
//!   the lane is free, it holds a credit, and the head wins the lane's
//!   round-robin among competing heads. The grant happens at traversal
//!   time and persists until the tail passes.
//! * **Switch allocation** — each output port carries one crossbar
//!   line, so per cycle at most one of its V lanes sends (round-robin
//!   among the lanes, [`Router`]-internal `sa_rr` state); each input
//!   port also has one crossbar line, so at most one of its VCs is
//!   read per cycle.
//!
//! With `V = 1` both stages degenerate to the pre-VC single-FIFO
//! arbitration bit-for-bit — pinned by `tests/v1_behaviour_pinned.rs`.
//!
//! No router owns its state. The buffers, output-lane owners and
//! round-robin pointers of every router live in network-wide
//! [`RouterSlabs`] columns (indexed `router * 5 * V + port * V + vc`)
//! whose all-zero value is an empty router, so a million-router mesh
//! is built and dropped without touching per-router memory; a
//! [`Router`] is a borrowed view of one router's rows. Per-lane *state
//! that every cycle must touch* — idle-run counters, the [`SleepFsm`]
//! sleep controllers, and the [`GatingCounters`] — is owned by the
//! simulation as further SoA arrays and lent to [`Router::step`] as a
//! [`PortLane`]. Gating is therefore per **VC lane**: an empty VC bank
//! can sleep while a sibling VC of the same port carries a worm.
//!
//! [`Router::step_fast`] performs no heap allocation — the hot loop of
//! the whole simulator.
//!
//! [`Mesh::hop_vc`]: crate::topology::Mesh::hop_vc

use crate::sleep::{SleepConfig, SleepFsm};
use crate::topology::Direction;
use crate::traffic::Flit;
use lnoc_power::gating::GatingCounters;

/// Hard cap on virtual channels per port: keeps the per-cycle
/// head-wants mask in one `u64` (`5 * 8 = 40` output lanes) and the
/// lane-owner encoding in one byte.
pub const MAX_VCS: usize = 8;

/// Maximum lanes per router (`5 * MAX_VCS`) — sizes the fixed per-cycle
/// scratch arrays so [`Router::step_fast`] stays allocation-free for
/// any VC count.
pub const MAX_LANES: usize = 5 * MAX_VCS;

/// Where a flit wants to go next: an output port plus the virtual
/// channel it must ride on the outgoing link (the downstream input VC).
/// Produced by the routing closure for every buffered flit; pure in the
/// flit, so body flits recompute their head's choice exactly.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct RouteTarget {
    /// Output port.
    pub out: Direction,
    /// Virtual channel on the outgoing link (`0` for ejection).
    pub vc: u8,
}

/// Per-output-lane state: which input lane currently owns the lane.
/// One byte per lane, stored **owner + 1** so that a zeroed slab means
/// every lane is free: `0` is free, `k + 1` is owned by input lane `k`
/// (`port * V + vc`).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
struct PortOwner(u8);

impl PortOwner {
    /// Free for a new head flit.
    const FREE: PortOwner = PortOwner(0);

    /// Allocated to the given input lane until a tail flit passes.
    fn owned(input_lane: usize) -> PortOwner {
        debug_assert!(input_lane < MAX_LANES);
        PortOwner(input_lane as u8 + 1)
    }

    fn is_free(self) -> bool {
        self == PortOwner::FREE
    }

    /// The owning input lane, if any.
    fn input(self) -> Option<usize> {
        (!self.is_free()).then(|| self.0 as usize - 1)
    }
}

/// Largest router id a buffered flit's `src`/`dst` may carry: the
/// packed slot below keeps each in 24 bits, the same bound the packet
/// id packing already imposes on sources.
pub(crate) const MAX_ROUTER_ID: usize = (1 << 24) - 2;

/// One buffered flit packed into three integer words, so a buffer slab
/// is an integer column whose all-zero state is "empty":
///
/// * word 0 — `packet_id + 1` (`0` = no flit: [`Flit::INVALID`]'s id
///   `u64::MAX` wraps to it, so the empty slot decodes to the filler);
/// * word 1 — `injected_at`;
/// * word 2 — `src | dst << 24 | vc << 48 | is_head << 56 | is_tail << 57
///   | route << 58`, where `route` (6 bits) memoizes the flit's output
///   lane at this router plus one (`0` = not routed yet; lanes are
///   below [`MAX_LANES`] `= 40`).
///
/// [`pack`] leaves the route memo clear, so every buffer write — a hop
/// to the next router, or the fault purge's re-push of every buffered
/// flit at each fault epoch — makes the flit route afresh.
type Slot = [u64; 3];

/// Bit offset of the route memo in a slot's word 2.
const ROUTE_SHIFT: u32 = 58;

fn pack(f: &Flit) -> Slot {
    debug_assert!(f.src <= MAX_ROUTER_ID && f.dst <= MAX_ROUTER_ID);
    [
        f.packet_id.wrapping_add(1),
        f.injected_at,
        f.src as u64
            | (f.dst as u64) << 24
            | (f.vc as u64) << 48
            | (f.is_head as u64) << 56
            | (f.is_tail as u64) << 57,
    ]
}

fn unpack(s: &Slot) -> Flit {
    let meta = s[2];
    Flit {
        packet_id: s[0].wrapping_sub(1),
        src: (meta & 0xff_ffff) as usize,
        dst: (meta >> 24 & 0xff_ffff) as usize,
        vc: (meta >> 48) as u8,
        is_head: meta >> 56 & 1 != 0,
        is_tail: meta >> 57 & 1 != 0,
        injected_at: s[1],
    }
}

/// The network-wide constants every router view needs.
#[derive(Debug, Clone, Copy)]
struct Shape {
    vcs: u8,
    depth: u32,
    sleep_cfg: Option<SleepConfig>,
}

impl Shape {
    fn lanes(self) -> usize {
        5 * self.vcs as usize
    }
}

/// Every router's state in flat, network-wide slabs: the input VC ring
/// buffers, output-lane owners, and both round-robin pointers, each a
/// column indexed `router * 5V + lane` (buffer slots
/// `(router * 5V + lane) * depth + k`, switch-allocation pointers
/// `router * 5 + port`).
///
/// Every column is an integer type whose all-zero value means "empty
/// router" (no flits, free lanes, round-robin at lane 0), so building
/// the slabs is a handful of zeroed allocations — untouched pages that
/// cost nothing until a router first holds a flit — and dropping them
/// is as cheap, whatever the router count.
#[derive(Debug)]
pub(crate) struct RouterSlabs {
    shape: Shape,
    slots: Vec<Slot>,
    head: Vec<u32>,
    len: Vec<u32>,
    owners: Vec<u8>,
    /// Packet id of the worm holding each output lane — only
    /// meaningful while the matching owner is allocated. Lets the
    /// fault layer release lanes held by doomed packets whose
    /// remaining flits were purged upstream.
    owner_pkt: Vec<u64>,
    /// VC-allocation round-robin pointer per output lane, over the
    /// `5 * V` input lanes.
    rr_next: Vec<u8>,
    /// Switch-allocation round-robin pointer per output *port*, over
    /// its `V` lanes.
    sa_rr: Vec<u8>,
}

impl RouterSlabs {
    /// Empty, quiescent state for `routers` routers with `vcs` virtual
    /// channels of `buffer_depth` flits each per port, their output VC
    /// lanes running the given sleep FSM configuration (`None`
    /// disables in-loop gating).
    ///
    /// # Panics
    ///
    /// Panics when `vcs` is 0 or exceeds [`MAX_VCS`], or the buffer
    /// depth does not fit a `u32`.
    pub(crate) fn new(
        routers: usize,
        buffer_depth: usize,
        vcs: usize,
        sleep_cfg: Option<SleepConfig>,
    ) -> Self {
        assert!((1..=MAX_VCS).contains(&vcs), "vcs must be in 1..={MAX_VCS}");
        let depth = u32::try_from(buffer_depth).expect("buffer depth fits u32");
        let shape = Shape {
            vcs: vcs as u8,
            depth,
            sleep_cfg,
        };
        let lanes = routers * shape.lanes();
        RouterSlabs {
            shape,
            slots: vec![[0; 3]; lanes * buffer_depth],
            head: vec![0; lanes],
            len: vec![0; lanes],
            owners: vec![0; lanes],
            owner_pkt: vec![0; lanes],
            rr_next: vec![0; lanes],
            sa_rr: vec![0; routers * 5],
        }
    }

    /// A mutable view of router `id`.
    #[cfg(test)]
    fn router(&mut self, id: usize) -> Router<'_> {
        self.tile(0).into_router(id)
    }

    /// Every router as one tile whose local index `lr` is router
    /// `base + lr`; carve it per shard with
    /// [`RouterTile::split_at_mut`].
    pub(crate) fn tile(&mut self, base: usize) -> RouterTile<'_> {
        RouterTile {
            shape: self.shape,
            base,
            slots: &mut self.slots,
            head: &mut self.head,
            len: &mut self.len,
            owners: &mut self.owners,
            owner_pkt: &mut self.owner_pkt,
            rr_next: &mut self.rr_next,
            sa_rr: &mut self.sa_rr,
        }
    }

    /// Buffer occupancy of router `id`'s input VC `(port, vc)`.
    pub(crate) fn occupancy(&self, id: usize, port: Direction, vc: usize) -> usize {
        let v = self.shape.vcs as usize;
        self.len[id * 5 * v + port.index() * v + vc] as usize
    }

    /// Flits buffered anywhere in the network.
    pub(crate) fn total_occupancy(&self) -> usize {
        self.len.iter().map(|&l| l as usize).sum()
    }
}

/// A contiguous range of routers' slabs — a shard's share of
/// [`RouterSlabs`], indexed by tile-local router `lr`.
#[derive(Debug)]
pub(crate) struct RouterTile<'a> {
    shape: Shape,
    /// Global id of local router 0.
    base: usize,
    slots: &'a mut [Slot],
    head: &'a mut [u32],
    len: &'a mut [u32],
    owners: &'a mut [u8],
    owner_pkt: &'a mut [u64],
    rr_next: &'a mut [u8],
    sa_rr: &'a mut [u8],
}

impl<'a> RouterTile<'a> {
    /// Splits off the first `routers` routers (same contract as the
    /// slice method, so tiles carve alongside the other slabs).
    pub(crate) fn split_at_mut(self, routers: usize) -> (RouterTile<'a>, RouterTile<'a>) {
        let lanes = routers * self.shape.lanes();
        let (slots, slots_rest) = self.slots.split_at_mut(lanes * self.shape.depth as usize);
        let (head, head_rest) = self.head.split_at_mut(lanes);
        let (len, len_rest) = self.len.split_at_mut(lanes);
        let (owners, owners_rest) = self.owners.split_at_mut(lanes);
        let (owner_pkt, owner_pkt_rest) = self.owner_pkt.split_at_mut(lanes);
        let (rr_next, rr_next_rest) = self.rr_next.split_at_mut(lanes);
        let (sa_rr, sa_rr_rest) = self.sa_rr.split_at_mut(routers * 5);
        let shape = self.shape;
        (
            RouterTile {
                shape,
                base: self.base,
                slots,
                head,
                len,
                owners,
                owner_pkt,
                rr_next,
                sa_rr,
            },
            RouterTile {
                shape,
                base: self.base + routers,
                slots: slots_rest,
                head: head_rest,
                len: len_rest,
                owners: owners_rest,
                owner_pkt: owner_pkt_rest,
                rr_next: rr_next_rest,
                sa_rr: sa_rr_rest,
            },
        )
    }

    /// A mutable view of local router `lr`.
    pub(crate) fn router(&mut self, lr: usize) -> Router<'_> {
        RouterTile {
            shape: self.shape,
            base: self.base,
            slots: &mut *self.slots,
            head: &mut *self.head,
            len: &mut *self.len,
            owners: &mut *self.owners,
            owner_pkt: &mut *self.owner_pkt,
            rr_next: &mut *self.rr_next,
            sa_rr: &mut *self.sa_rr,
        }
        .into_router(lr)
    }

    /// [`RouterTile::router`], consuming the tile.
    fn into_router(self, lr: usize) -> Router<'a> {
        let lanes = self.shape.lanes();
        let l = lr * lanes..(lr + 1) * lanes;
        let depth = self.shape.depth as usize;
        Router {
            id: self.base + lr,
            shape: self.shape,
            slots: &mut self.slots[l.start * depth..l.end * depth],
            head: &mut self.head[l.clone()],
            len: &mut self.len[l.clone()],
            owners: &mut self.owners[l.clone()],
            owner_pkt: &mut self.owner_pkt[l.clone()],
            rr_next: &mut self.rr_next[l],
            sa_rr: &mut self.sa_rr[lr * 5..lr * 5 + 5],
        }
    }

    /// Buffer occupancy of local router `lr`'s input VC `(port, vc)`.
    pub(crate) fn occupancy(&self, lr: usize, port: Direction, vc: usize) -> usize {
        let v = self.shape.vcs as usize;
        self.len[lr * 5 * v + port.index() * v + vc] as usize
    }

    /// Calls `f` with every flit buffered in local router `lr`, in
    /// input-lane order and FIFO order within a lane — the fault
    /// layer's boundary scan.
    pub(crate) fn for_each_flit(&self, lr: usize, mut f: impl FnMut(&Flit)) {
        let lanes = self.shape.lanes();
        let depth = self.shape.depth as usize;
        for lane in lr * lanes..(lr + 1) * lanes {
            let head = self.head[lane] as usize;
            for k in 0..self.len[lane] as usize {
                let mut idx = head + k;
                if idx >= depth {
                    idx -= depth;
                }
                f(&unpack(&self.slots[lane * depth + idx]));
            }
        }
    }
}

/// One router's block of the simulation-owned SoA per-lane state, lent
/// to [`Router::step`] for one cycle. All slices have `5 * V` entries,
/// indexed `port * V + vc`.
#[derive(Debug)]
pub struct PortLane<'a> {
    /// Consecutive idle cycles per output VC lane (the authoritative
    /// idle-run counters behind the idle-interval histograms).
    pub idle_run: &'a mut [u64],
    /// Sleep controller per output VC lane.
    pub fsm: &'a mut [SleepFsm],
    /// This router's accumulated gating counters (all lanes summed).
    pub counters: &'a mut GatingCounters,
    /// Out-parameter: length of the idle run that ended on each lane
    /// this cycle (0 if the lane stayed idle or was already busy).
    /// Cleared by the router at the start of the step.
    pub idle_ended: &'a mut [u64],
}

/// One wormhole router: a borrowed view of its rows in
/// [`RouterSlabs`]. The view owns no heap data; building one is a few
/// slice bounds checks, so the simulation makes one per router step.
#[derive(Debug)]
pub struct Router<'a> {
    /// This router's id in the mesh.
    pub id: usize,
    shape: Shape,
    /// `5 * V` input VC ring buffers: lane `l` (`port * V + vc`) owns
    /// the slot range `l*depth..(l+1)*depth`.
    slots: &'a mut [Slot],
    head: &'a mut [u32],
    len: &'a mut [u32],
    /// Owner per output lane ([`PortOwner`] encoding).
    owners: &'a mut [u8],
    owner_pkt: &'a mut [u64],
    rr_next: &'a mut [u8],
    sa_rr: &'a mut [u8],
}

/// A flit departing the router this cycle.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Departure {
    /// Input port it was popped from (so callers can return the freed
    /// slot's credit to the upstream router).
    pub input: Direction,
    /// Input virtual channel it was popped from.
    pub input_vc: u8,
    /// Output port it leaves through.
    pub output: Direction,
    /// The flit itself; `flit.vc` is the output VC it departs on.
    pub flit: Flit,
}

impl Router<'_> {
    /// Virtual channels per port.
    pub fn vcs(&self) -> usize {
        self.shape.vcs as usize
    }

    /// Lanes per router (`5 * vcs`).
    fn lanes(&self) -> usize {
        self.shape.lanes()
    }

    fn owner(&self, ol: usize) -> PortOwner {
        PortOwner(self.owners[ol])
    }

    fn set_owner(&mut self, ol: usize, owner: PortOwner) {
        self.owners[ol] = owner.0;
    }

    fn is_full(&self, lane: usize) -> bool {
        self.len[lane] == self.shape.depth
    }

    fn front(&self, lane: usize) -> Option<Flit> {
        (self.len[lane] > 0).then(|| {
            unpack(&self.slots[lane * self.shape.depth as usize + self.head[lane] as usize])
        })
    }

    fn push_back(&mut self, lane: usize, flit: Flit) {
        debug_assert!(!self.is_full(lane));
        debug_assert!(!flit.is_invalid(), "buffered a filler flit");
        let depth = self.shape.depth;
        // Conditional wrap instead of `%`: the depth is a runtime
        // value, so a modulo here is a hardware divide in the hottest
        // loop of the simulator.
        let mut tail = self.head[lane] + self.len[lane];
        if tail >= depth {
            tail -= depth;
        }
        self.slots[lane * depth as usize + tail as usize] = pack(&flit);
        self.len[lane] += 1;
    }

    fn pop_front(&mut self, lane: usize) -> Option<Flit> {
        if self.len[lane] == 0 {
            return None;
        }
        let depth = self.shape.depth;
        let head = self.head[lane];
        let flit = unpack(&self.slots[lane * depth as usize + head as usize]);
        debug_assert!(!flit.is_invalid(), "popped a filler flit");
        self.head[lane] = if head + 1 == depth { 0 } else { head + 1 };
        self.len[lane] -= 1;
        Some(flit)
    }

    /// Whether the input VC buffer `(port, vc)` can accept a flit.
    pub fn can_accept(&self, port: Direction, vc: usize) -> bool {
        !self.is_full(port.index() * self.vcs() + vc)
    }

    /// Pushes an arriving flit into the input VC buffer named by
    /// `flit.vc`.
    ///
    /// # Panics
    ///
    /// Panics if that VC buffer is full — callers hold one credit per
    /// free slot, so an overflow means the credit accounting broke —
    /// or if the flit's `src` or `dst` exceeds the 24-bit router id
    /// range its packed buffer slot holds.
    pub fn accept(&mut self, port: Direction, flit: Flit) {
        let vc = flit.vc as usize;
        assert!(
            self.can_accept(port, vc),
            "VC buffer overflow at router {} port {port} vc {vc}",
            self.id
        );
        assert!(
            flit.src <= MAX_ROUTER_ID && flit.dst <= MAX_ROUTER_ID,
            "flit endpoints exceed the packed router id range"
        );
        self.push_back(port.index() * self.vcs() + vc, flit);
    }

    /// Buffer occupancy of one input VC.
    pub fn occupancy(&self, port: Direction, vc: usize) -> usize {
        self.len[port.index() * self.vcs() + vc] as usize
    }

    /// Total buffered flits across an input port's VCs.
    pub fn port_occupancy(&self, port: Direction) -> usize {
        (0..self.vcs()).map(|vc| self.occupancy(port, vc)).sum()
    }

    /// Total buffered flits.
    pub fn total_occupancy(&self) -> usize {
        self.len.iter().map(|&l| l as usize).sum()
    }

    /// Whether the router holds no flits and no output lane is held
    /// mid-packet — the buffer/crossbar half of the active-set kernel's
    /// quiescence predicate. A quiet router's [`Router::step`] can only
    /// tick idle counters, so it may be skipped and bulk-accounted.
    pub fn is_quiet(&self) -> bool {
        self.len.iter().all(|&l| l == 0) && self.owners.iter().all(|&o| o == PortOwner::FREE.0)
    }

    /// Removes every buffered flit of a doomed packet and releases
    /// output lanes held by doomed worms (their remaining flits are
    /// being purged network-wide, so the tail that would free the lane
    /// will never arrive). Survivors keep their FIFO order.
    ///
    /// `on_removed` receives each removed flit and the input lane
    /// (`port * V + vc`) it was buffered in, so the caller can return
    /// the freed slot's credit upstream. Returns the number of flits
    /// removed.
    pub(crate) fn purge_packets(
        &mut self,
        doomed: impl Fn(u64) -> bool,
        mut on_removed: impl FnMut(usize, &Flit),
    ) -> usize {
        let mut removed = 0;
        for lane in 0..self.lanes() {
            // Pop exactly the original occupancy; survivors re-pushed
            // at the tail come back around in their original order.
            for _ in 0..self.len[lane] {
                let flit = self.pop_front(lane).expect("occupancy counted");
                if doomed(flit.packet_id) {
                    on_removed(lane, &flit);
                    removed += 1;
                } else {
                    self.push_back(lane, flit);
                }
            }
        }
        for ol in 0..self.lanes() {
            if !self.owner(ol).is_free() && doomed(self.owner_pkt[ol]) {
                self.set_owner(ol, PortOwner::FREE);
            }
        }
        removed
    }

    /// The single implementation of the VC-allocation candidate rule
    /// for output lane `ol`: the owning input lane while the lane is
    /// allocated, otherwise the round-robin winner among waiting head
    /// flits. `targets(il)` reports whether input lane `il`'s current
    /// front flit requests `ol` (`Some(is_head)`) or not (`None`) —
    /// the hot step path answers from its cycle-start `want`/`head`
    /// scratch, the Immediate-policy after-send lookahead from fresh
    /// routing, but the eligibility rule itself lives only here.
    /// Input *ports* flagged in `port_used` already sent a flit this
    /// cycle and are skipped — an input port has one crossbar line, so
    /// it can feed at most one output per cycle across all its VCs.
    fn select_candidate(
        &self,
        ol: usize,
        port_used: &[bool; 5],
        targets: impl Fn(usize) -> Option<bool>,
    ) -> Option<usize> {
        let v = self.vcs();
        match self.owner(ol).input() {
            Some(il) => (!port_used[il / v] && targets(il).is_some()).then_some(il),
            None => {
                let n = self.lanes();
                let start = self.rr_next[ol] as usize;
                (0..n)
                    .map(|k| {
                        let i = start + k;
                        if i >= n {
                            i - n
                        } else {
                            i
                        }
                    })
                    .find(|&il| !port_used[il / v] && targets(il) == Some(true))
            }
        }
    }

    /// [`Router::select_candidate`] against the *live* buffer fronts —
    /// used for the Immediate policy's after-send park decision, where
    /// the pop that just happened has already changed the fronts.
    fn candidate_for_lane(
        &self,
        ol: usize,
        route: impl Fn(&Flit) -> RouteTarget,
        used: &[bool; 5],
    ) -> Option<usize> {
        let v = self.vcs();
        self.select_candidate(ol, used, |il| {
            self.front(il)
                .filter(|f| {
                    let t = route(f);
                    t.out.index() * v + t.vc as usize == ol
                })
                .map(|f| f.is_head)
        })
    }

    /// One VC-allocation + switch-allocation + traversal cycle.
    ///
    /// `route` maps a flit to its [`RouteTarget`] (output port + output
    /// VC). It must answer the same for a flit as long as the flit sits
    /// in this router: the answer is memoized in the flit's buffer slot
    /// and asked again only after the flit is re-buffered. `lane_ready`
    /// reports whether the output lane holds a credit (a free slot in
    /// the downstream VC buffer; the ejection port always sinks) —
    /// callers must evaluate it against cycle-start credit state so
    /// results are independent of router iteration order. `ports` is this router's block of the simulation-owned
    /// SoA lane state (idle runs, sleep FSMs, gating counters, and the
    /// `idle_ended` out-slice).
    ///
    /// Returns the flits that leave this cycle (at most one per output
    /// port) and the number of arbitrations performed.
    pub fn step(
        &mut self,
        route: impl Fn(&Flit) -> RouteTarget,
        lane_ready: impl Fn(Direction, usize) -> bool,
        ports: PortLane<'_>,
    ) -> StepOutcome {
        let mut departures = [None; 5];
        let arbitrations = self.step_fast(route, lane_ready, ports, |dep| {
            departures[dep.output.index()] = Some(dep);
        });
        StepOutcome {
            departures,
            arbitrations: arbitrations.arbitrations,
        }
    }

    /// [`Router::step`] with departures streamed through `on_depart`
    /// instead of returned by value — the active-set kernel's hot path.
    /// Monomorphized on gating so ungated runs never touch the FSM
    /// lanes (or their cache lines) at all.
    pub fn step_fast(
        &mut self,
        route: impl Fn(&Flit) -> RouteTarget,
        lane_ready: impl Fn(Direction, usize) -> bool,
        ports: PortLane<'_>,
        on_depart: impl FnMut(Departure),
    ) -> FastOutcome {
        if self.shape.sleep_cfg.is_some() {
            self.step_impl::<true>(route, lane_ready, ports, on_depart)
        } else {
            self.step_impl::<false>(route, lane_ready, ports, on_depart)
        }
    }

    #[inline(always)]
    fn step_impl<const GATED: bool>(
        &mut self,
        route: impl Fn(&Flit) -> RouteTarget,
        lane_ready: impl Fn(Direction, usize) -> bool,
        ports: PortLane<'_>,
        mut on_depart: impl FnMut(Departure),
    ) -> FastOutcome {
        const NO_WANT: u8 = u8::MAX;
        let v = self.vcs();
        let nlanes = 5 * v;
        let mut arbitrations = 0u64;
        let mut input_used = [false; 5];
        ports.idle_ended[..nlanes].fill(0);

        // Route every occupied input lane's front flit — once per hop:
        // the output lane is memoized in the flit's buffer slot, so a
        // flit blocked for many cycles routes only on its first — and
        // build a per-output-lane mask of waiting head flits so lanes
        // nobody requests skip the VC-allocation scan entirely.
        let mut want = [NO_WANT; MAX_LANES];
        let mut head = [false; MAX_LANES];
        let mut head_wants = 0u64;
        let depth = self.shape.depth as usize;
        for il in 0..nlanes {
            if self.len[il] == 0 {
                continue;
            }
            let slot = &mut self.slots[il * depth + self.head[il] as usize];
            let is_head = slot[2] >> 56 & 1 != 0;
            let ol = match slot[2] >> ROUTE_SHIFT {
                0 => {
                    let f = unpack(slot);
                    debug_assert!(!f.is_invalid(), "routing a filler flit");
                    let t = route(&f);
                    let ol = t.out.index() * v + t.vc as usize;
                    slot[2] |= (ol as u64 + 1) << ROUTE_SHIFT;
                    ol
                }
                memo => memo as usize - 1,
            };
            want[il] = ol as u8;
            head[il] = is_head;
            if is_head {
                head_wants |= 1 << ol;
            }
        }

        for out in Direction::ALL {
            let oi = out.index();
            // Switch allocation: round-robin start among this output
            // port's V lanes; the first lane that can send wins the
            // port's single crossbar line this cycle.
            let sa_start = self.sa_rr[oi] as usize;
            let mut winner_vc: Option<usize> = None;
            for j in 0..v {
                let mut ovc = sa_start + j;
                if ovc >= v {
                    ovc -= v;
                }
                let ol = oi * v + ovc;

                let owner = self.owner(ol);
                // Mask short-circuit: a free lane no head requested
                // this cycle skips the round-robin scan entirely. The
                // eligibility rule itself is shared with the fresh-scan
                // path in `select_candidate`, answered here from the
                // cycle-start `want`/`head` scratch.
                let candidate = if owner.is_free() && head_wants & (1 << ol) == 0 {
                    None
                } else {
                    self.select_candidate(ol, &input_used, |il| {
                        (want[il] == ol as u8).then_some(head[il])
                    })
                };
                // A flit "wants" the lane only when it could actually
                // move: a sleeping lane stays in standby while the
                // downstream VC is out of credits instead of waking
                // into backpressure.
                let wants = candidate.is_some() && lane_ready(out, ovc);

                let can_transmit = if GATED {
                    let cfg = self.shape.sleep_cfg.expect("GATED implies a sleep config");
                    ports.fsm[ol].gate(wants, cfg.wake_latency)
                } else {
                    true
                };

                if can_transmit && owner.is_free() {
                    arbitrations += 1;
                }

                let mut sent = false;
                if can_transmit && wants && winner_vc.is_none() {
                    let il = candidate.expect("wants implies candidate");
                    let mut flit = self.pop_front(il).expect("front exists");
                    if owner.is_free() {
                        // VC allocation: the head flit claims the lane
                        // (released again immediately for single-flit
                        // packets) and advances its round-robin.
                        if !flit.is_tail {
                            self.set_owner(ol, PortOwner::owned(il));
                            self.owner_pkt[ol] = flit.packet_id;
                        }
                        let next = il + 1;
                        self.rr_next[ol] = (if next == nlanes { 0 } else { next }) as u8;
                    } else if flit.is_tail {
                        self.set_owner(ol, PortOwner::FREE);
                    }
                    let input_vc = (il % v) as u8;
                    flit.vc = ovc as u8;
                    on_depart(Departure {
                        input: Direction::from_index(il / v),
                        input_vc,
                        output: out,
                        flit,
                    });
                    input_used[il / v] = true;
                    sent = true;
                    winner_vc = Some(ovc);
                }

                // Idle-run bookkeeping for the power model, per lane.
                if sent {
                    ports.idle_ended[ol] = ports.idle_run[ol];
                    ports.idle_run[ol] = 0;
                } else {
                    ports.idle_run[ol] += 1;
                }

                if GATED {
                    let cfg = self.shape.sleep_cfg.expect("GATED implies a sleep config");
                    // Only FSM-blocked cycles are wake stalls; losing
                    // switch allocation to a sibling lane is ordinary
                    // contention, not a gating penalty.
                    let stalled = wants && !can_transmit;
                    // Only Immediate's after-send park decision needs to
                    // know whether another flit is already waiting; the
                    // rescan reads the fresh buffer fronts (the pop just
                    // changed them). The just-used input port is free
                    // again next cycle, so the lookahead ignores this
                    // cycle's usage flags.
                    let wants_after = sent
                        && cfg.threshold() == Some(0)
                        && lane_ready(out, ovc)
                        && self.candidate_for_lane(ol, &route, &[false; 5]).is_some();
                    let run = if sent {
                        ports.idle_ended[ol]
                    } else {
                        ports.idle_run[ol]
                    };
                    ports.fsm[ol].settle(sent, stalled, wants_after, run, &cfg, ports.counters);
                }
            }
            if let Some(wvc) = winner_vc {
                if v > 1 {
                    let next = wvc + 1;
                    self.sa_rr[oi] = (if next == v { 0 } else { next }) as u8;
                }
            }
        }

        FastOutcome { arbitrations }
    }
}

/// What happened in one [`Router::step_fast`] cycle (departures stream
/// through `on_depart`; per-lane idle runs land in
/// [`PortLane::idle_ended`]).
#[derive(Debug, Clone, Copy)]
pub struct FastOutcome {
    /// Arbitration events (for the arbiter energy model): one per
    /// awake, unallocated output lane per cycle.
    pub arbitrations: u64,
}

/// What happened in one router cycle.
#[derive(Debug, Clone, Copy)]
pub struct StepOutcome {
    /// Flit leaving each output port this cycle (indexed by
    /// [`Direction::index`]).
    pub departures: [Option<Departure>; 5],
    /// Arbitration events (for the arbiter energy model).
    pub arbitrations: u64,
}

impl StepOutcome {
    /// Iterates the departures that actually happened.
    pub fn departures(&self) -> impl Iterator<Item = Departure> + '_ {
        self.departures.iter().flatten().copied()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::sleep::SleepState;
    use lnoc_power::gating::GatingPolicy;

    /// Standalone owner of one router's SoA lane block for unit tests
    /// (the simulation owns these arrays network-wide).
    struct Ports {
        idle: Vec<u64>,
        fsm: Vec<SleepFsm>,
        counters: GatingCounters,
        idle_ended: Vec<u64>,
    }

    impl Ports {
        fn new(vcs: usize) -> Self {
            Ports {
                idle: vec![0; 5 * vcs],
                fsm: vec![SleepFsm::default(); 5 * vcs],
                counters: GatingCounters::default(),
                idle_ended: vec![0; 5 * vcs],
            }
        }

        fn lane(&mut self) -> PortLane<'_> {
            PortLane {
                idle_run: &mut self.idle,
                fsm: &mut self.fsm,
                counters: &mut self.counters,
                idle_ended: &mut self.idle_ended,
            }
        }
    }

    fn flit(id: u64, head: bool, tail: bool) -> Flit {
        Flit {
            packet_id: id,
            src: 0,
            dst: 1,
            vc: 0,
            is_head: head,
            is_tail: tail,
            injected_at: 0,
        }
    }

    fn vflit(id: u64, vc: u8, head: bool, tail: bool) -> Flit {
        Flit {
            vc,
            ..flit(id, head, tail)
        }
    }

    /// Route everything to one output port on VC 0.
    fn to(out: Direction) -> impl Fn(&Flit) -> RouteTarget {
        move |_| RouteTarget { out, vc: 0 }
    }

    #[test]
    fn single_flit_passes_through() {
        let mut slabs = RouterSlabs::new(1, 4, 1, None);
        let mut r = slabs.router(0);
        let mut p = Ports::new(1);
        r.accept(Direction::West, flit(1, true, true));
        let out = r.step(to(Direction::East), |_, _| true, p.lane());
        let deps: Vec<_> = out.departures().collect();
        assert_eq!(deps.len(), 1);
        assert_eq!(deps[0].output, Direction::East);
        assert_eq!(deps[0].input, Direction::West);
        assert_eq!(deps[0].input_vc, 0);
        assert_eq!(r.total_occupancy(), 0);
        assert!(r.is_quiet());
    }

    #[test]
    fn wormhole_holds_lane_for_whole_packet() {
        let mut slabs = RouterSlabs::new(1, 8, 1, None);
        let mut r = slabs.router(0);
        let mut p = Ports::new(1);
        r.accept(Direction::West, flit(1, true, false));
        r.accept(Direction::West, flit(1, false, false));
        r.accept(Direction::West, flit(1, false, true));
        // A competing head on another input wants the same output.
        r.accept(Direction::North, flit(2, true, true));

        let mut winners = Vec::new();
        for _ in 0..4 {
            let out = r.step(to(Direction::East), |_, _| true, p.lane());
            for d in out.departures() {
                winners.push(d.flit.packet_id);
            }
        }
        // All four flits cross, and packet 1's three flits stay
        // contiguous (the lane is held until the tail) — which input
        // wins the initial allocation is round-robin state, not part of
        // the contract.
        assert_eq!(winners.len(), 4);
        let first_one = winners.iter().position(|&p| p == 1).expect("packet 1 sent");
        assert_eq!(&winners[first_one..first_one + 3], &[1, 1, 1]);
    }

    #[test]
    fn no_credit_blocks() {
        let mut slabs = RouterSlabs::new(1, 4, 1, None);
        let mut r = slabs.router(0);
        let mut p = Ports::new(1);
        r.accept(Direction::West, flit(1, true, true));
        let out = r.step(to(Direction::East), |_, _| false, p.lane());
        assert_eq!(out.departures().count(), 0);
        assert_eq!(r.total_occupancy(), 1);
        assert!(!r.is_quiet());
    }

    #[test]
    fn mid_packet_router_is_not_quiet() {
        // The head leaves but the lane stays Owned awaiting body flits:
        // the router is empty yet must not be treated as quiescent (the
        // held lane must not arbitrate).
        let mut slabs = RouterSlabs::new(1, 4, 1, None);
        let mut r = slabs.router(0);
        let mut p = Ports::new(1);
        r.accept(Direction::West, flit(1, true, false));
        let out = r.step(to(Direction::East), |_, _| true, p.lane());
        assert_eq!(out.departures().count(), 1);
        assert_eq!(r.total_occupancy(), 0);
        assert!(!r.is_quiet(), "owned output lane keeps the router active");
    }

    #[test]
    fn buffer_overflow_panics() {
        let mut slabs = RouterSlabs::new(1, 1, 1, None);
        let mut r = slabs.router(0);
        r.accept(Direction::West, flit(1, true, true));
        assert!(!r.can_accept(Direction::West, 0));
        let result = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            r.accept(Direction::West, flit(2, true, true));
        }));
        assert!(result.is_err());
    }

    #[test]
    fn vc_buffers_are_independent() {
        // Filling VC 0 must leave VC 1 accepting, and vice versa.
        let mut slabs = RouterSlabs::new(1, 1, 2, None);
        let mut r = slabs.router(0);
        r.accept(Direction::West, vflit(1, 0, true, true));
        assert!(!r.can_accept(Direction::West, 0));
        assert!(r.can_accept(Direction::West, 1));
        r.accept(Direction::West, vflit(2, 1, true, true));
        assert!(!r.can_accept(Direction::West, 1));
        assert_eq!(r.occupancy(Direction::West, 0), 1);
        assert_eq!(r.occupancy(Direction::West, 1), 1);
        assert_eq!(r.port_occupancy(Direction::West), 2);
    }

    #[test]
    fn ring_buffer_wraps_cleanly() {
        // Push/pop more flits than the depth so heads wrap around.
        let mut slabs = RouterSlabs::new(1, 3, 1, None);
        let mut r = slabs.router(0);
        let mut p = Ports::new(1);
        for round in 0..5u64 {
            r.accept(Direction::West, flit(round, true, true));
            r.accept(Direction::West, flit(round + 100, true, true));
            let f1 = r.step(to(Direction::East), |_, _| true, p.lane());
            let f2 = r.step(to(Direction::East), |_, _| true, p.lane());
            assert_eq!(f1.departures().next().unwrap().flit.packet_id, round);
            assert_eq!(f2.departures().next().unwrap().flit.packet_id, round + 100);
        }
        assert_eq!(r.total_occupancy(), 0);
    }

    #[test]
    fn one_input_port_feeds_at_most_one_output_per_cycle() {
        // Input West holds [tail of packet 1 → East, head of packet 2 →
        // Local]. A single input port has one crossbar line, so the
        // two flits must leave on different cycles even though both
        // outputs are free.
        let mut slabs = RouterSlabs::new(1, 4, 1, None);
        let mut r = slabs.router(0);
        let mut p = Ports::new(1);
        r.accept(Direction::West, flit(1, true, true));
        r.accept(Direction::West, flit(2, true, true));
        let route = |f: &Flit| RouteTarget {
            out: if f.packet_id == 1 {
                Direction::East
            } else {
                Direction::Local
            },
            vc: 0,
        };
        let first = r.step(route, |_, _| true, p.lane());
        assert_eq!(first.departures().count(), 1, "one read per input port");
        assert_eq!(first.departures().next().unwrap().output, Direction::East);
        let second = r.step(route, |_, _| true, p.lane());
        assert_eq!(second.departures().next().unwrap().output, Direction::Local);
    }

    #[test]
    fn sibling_vcs_share_the_input_port_crossbar_line() {
        // Two single-flit packets on different VCs of the same input
        // port, to different outputs: one read per port per cycle, so
        // they leave on consecutive cycles.
        let mut slabs = RouterSlabs::new(1, 4, 2, None);
        let mut r = slabs.router(0);
        let mut p = Ports::new(2);
        r.accept(Direction::West, vflit(1, 0, true, true));
        r.accept(Direction::West, vflit(2, 1, true, true));
        let route = |f: &Flit| RouteTarget {
            out: if f.packet_id == 1 {
                Direction::East
            } else {
                Direction::Local
            },
            vc: 0,
        };
        let first = r.step(route, |_, _| true, p.lane());
        assert_eq!(first.departures().count(), 1);
        let second = r.step(route, |_, _| true, p.lane());
        assert_eq!(second.departures().count(), 1);
        assert_eq!(r.total_occupancy(), 0);
    }

    #[test]
    fn output_port_sends_one_flit_per_cycle_across_vcs() {
        // Heads on two different input ports request the two different
        // VCs of the same output port: both win VC allocation, but the
        // port's single crossbar line carries one flit per cycle, and
        // switch allocation round-robins between the lanes.
        let mut slabs = RouterSlabs::new(1, 4, 2, None);
        let mut r = slabs.router(0);
        let mut p = Ports::new(2);
        for _ in 0..2 {
            r.accept(Direction::West, vflit(1, 0, true, true));
            r.accept(Direction::North, vflit(2, 0, true, true));
        }
        let route = |f: &Flit| RouteTarget {
            out: Direction::East,
            vc: if f.packet_id == 1 { 0 } else { 1 },
        };
        let mut per_cycle = Vec::new();
        let mut vcs_seen = Vec::new();
        for _ in 0..4 {
            let out = r.step(route, |_, _| true, p.lane());
            per_cycle.push(out.departures().count());
            for d in out.departures() {
                vcs_seen.push(d.flit.vc);
            }
        }
        assert_eq!(per_cycle, vec![1, 1, 1, 1], "one flit per output port");
        // Switch allocation alternates between the two lanes.
        assert_ne!(vcs_seen[0], vcs_seen[1]);
        assert_ne!(vcs_seen[1], vcs_seen[2]);
        assert_eq!(r.total_occupancy(), 0);
    }

    #[test]
    fn blocked_vc_does_not_block_its_sibling() {
        // VC 0 of the output has no credit; a packet on VC 1 must still
        // flow — the head-of-line blocking VCs exist to remove.
        let mut slabs = RouterSlabs::new(1, 4, 2, None);
        let mut r = slabs.router(0);
        let mut p = Ports::new(2);
        r.accept(Direction::West, vflit(1, 0, true, true));
        r.accept(Direction::North, vflit(2, 1, true, true));
        let route = |f: &Flit| RouteTarget {
            out: Direction::East,
            vc: if f.packet_id == 1 { 0 } else { 1 },
        };
        let ready = |_d: Direction, vc: usize| vc == 1;
        let mut delivered = Vec::new();
        for _ in 0..2 {
            let out = r.step(route, ready, p.lane());
            for d in out.departures() {
                delivered.push((d.flit.packet_id, d.flit.vc));
            }
        }
        assert_eq!(delivered, vec![(2, 1)], "only the credited VC moves");
        assert_eq!(r.total_occupancy(), 1, "VC 0's packet stays buffered");
    }

    #[test]
    fn round_robin_rotates_between_competitors() {
        let mut slabs = RouterSlabs::new(1, 4, 1, None);
        let mut r = slabs.router(0);
        let mut p = Ports::new(1);
        // Two single-flit packets per input, both to East.
        for _ in 0..2 {
            r.accept(Direction::West, flit(10, true, true));
            r.accept(Direction::North, flit(20, true, true));
        }
        let mut order = Vec::new();
        for _ in 0..4 {
            let out = r.step(to(Direction::East), |_, _| true, p.lane());
            for d in out.departures() {
                order.push(d.flit.packet_id);
            }
        }
        assert_eq!(order.len(), 4);
        // Alternation: no input sends twice in a row.
        assert_ne!(order[0], order[1]);
        assert_ne!(order[1], order[2]);
    }

    #[test]
    fn idle_runs_are_tracked_per_lane() {
        let mut slabs = RouterSlabs::new(1, 4, 2, None);
        let mut r = slabs.router(0);
        let mut p = Ports::new(2);
        // Three idle cycles on every lane.
        for _ in 0..3 {
            let _ = r.step(to(Direction::East), |_, _| true, p.lane());
        }
        r.accept(Direction::West, flit(1, true, true));
        let _ = r.step(to(Direction::East), |_, _| true, p.lane());
        let east0 = Direction::East.index() * 2;
        // East VC 0's 3-cycle idle run ended when the flit crossed; its
        // sibling VC 1 lane stays idle.
        assert_eq!(p.idle_ended[east0], 3);
        assert_eq!(p.idle[east0], 0);
        assert!(p.idle[east0 + 1] >= 4, "sibling lane keeps idling");
        assert!(p.idle[Direction::North.index() * 2] >= 4);
    }

    #[test]
    fn sleeping_lane_stalls_flit_by_wake_latency() {
        let wake = 3u32;
        let mut slabs = RouterSlabs::new(
            1,
            4,
            1,
            Some(SleepConfig {
                policy: GatingPolicy::IdleThreshold(2),
                wake_latency: wake,
            }),
        );
        let mut r = slabs.router(0);
        let mut p = Ports::new(1);
        // Idle past the threshold: the lane sleeps.
        for _ in 0..4 {
            let _ = r.step(to(Direction::East), |_, _| true, p.lane());
        }
        assert_eq!(p.fsm[Direction::East.index()].state(), SleepState::Asleep);

        // A flit arrives; it must wait out exactly `wake` cycles.
        r.accept(Direction::West, flit(1, true, true));
        let mut stalls = 0;
        loop {
            let out = r.step(to(Direction::East), |_, _| true, p.lane());
            if out.departures().count() == 1 {
                break;
            }
            stalls += 1;
            assert!(stalls < 10, "flit never departed");
        }
        assert_eq!(stalls, wake);
        assert_eq!(p.counters.wake_stall_cycles, wake as u64);
        assert_eq!(p.counters.cycles_waking, wake as u64);
        // All five idle lanes slept; only East had to wake.
        assert_eq!(p.counters.sleep_entries, 5);
    }

    #[test]
    fn empty_vc_sleeps_while_sibling_carries_a_worm() {
        // The per-VC gating granularity the refactor exists for: VC 1
        // of the East port sleeps through a worm crossing on VC 0.
        let cfg = SleepConfig {
            policy: GatingPolicy::IdleThreshold(2),
            wake_latency: 1,
        };
        let mut slabs = RouterSlabs::new(1, 8, 2, Some(cfg));
        let mut r = slabs.router(0);
        let mut p = Ports::new(2);
        // A long worm on VC 0 keeps the port busy…
        r.accept(Direction::West, vflit(1, 0, true, false));
        for _ in 0..6 {
            r.accept(Direction::West, vflit(1, 0, false, false));
        }
        let route = |_: &Flit| RouteTarget {
            out: Direction::East,
            vc: 0,
        };
        for _ in 0..6 {
            let _ = r.step(route, |_, _| true, p.lane());
        }
        let east = Direction::East.index() * 2;
        assert_eq!(
            p.fsm[east].state(),
            SleepState::Active,
            "the worm's lane stays awake"
        );
        assert_eq!(
            p.fsm[east + 1].state(),
            SleepState::Asleep,
            "the empty sibling VC lane sleeps"
        );
        assert!(p.counters.cycles_busy >= 6);
        assert!(p.counters.cycles_asleep > 0);
    }

    #[test]
    fn ungated_router_has_zero_counters() {
        let mut slabs = RouterSlabs::new(1, 4, 1, None);
        let mut r = slabs.router(0);
        let mut p = Ports::new(1);
        for _ in 0..10 {
            let _ = r.step(to(Direction::East), |_, _| true, p.lane());
        }
        assert_eq!(p.counters, GatingCounters::default());
        assert_eq!(p.fsm[Direction::East.index()].state(), SleepState::Active);
    }

    #[test]
    fn never_policy_matches_ungated_behaviour_with_accounting() {
        let mut slabs = RouterSlabs::new(
            1,
            4,
            1,
            Some(SleepConfig {
                policy: GatingPolicy::Never,
                wake_latency: 1,
            }),
        );
        let mut r = slabs.router(0);
        let mut p = Ports::new(1);
        for _ in 0..5 {
            let _ = r.step(to(Direction::East), |_, _| true, p.lane());
        }
        r.accept(Direction::West, flit(1, true, true));
        let out = r.step(to(Direction::East), |_, _| true, p.lane());
        assert_eq!(out.departures().count(), 1, "Never gating never stalls");
        assert_eq!(p.counters.sleep_entries, 0);
        assert_eq!(p.counters.cycles_busy, 1);
        // 5 idle cycles × 5 lanes + 4 idle lanes on the send cycle.
        assert_eq!(p.counters.cycles_idle_awake, 29);
    }

    #[test]
    fn step_and_step_fast_agree() {
        // `step` is a thin wrapper over `step_fast`; this guards the
        // wrapper plumbing (departure collection, outcome fields)
        // across VC counts and gating configs.
        for vcs in [1usize, 2, 4] {
            for gating in [
                None,
                Some(SleepConfig {
                    policy: GatingPolicy::IdleThreshold(2),
                    wake_latency: 2,
                }),
            ] {
                let mut slow_slabs = RouterSlabs::new(1, 4, vcs, gating);
                let mut fast_slabs = RouterSlabs::new(1, 4, vcs, gating);
                let mut slow = slow_slabs.router(0);
                let mut fast = fast_slabs.router(0);
                let mut sp = Ports::new(vcs);
                let mut fp = Ports::new(vcs);
                let mut x = 0x9e3779b97f4a7c15u64;
                let mut rnd = move || {
                    x ^= x << 13;
                    x ^= x >> 7;
                    x ^= x << 17;
                    x
                };
                let route = move |f: &Flit| RouteTarget {
                    out: Direction::from_index(f.dst % 5),
                    vc: (f.packet_id % vcs as u64) as u8,
                };
                let mut pkt = 0u64;
                for cycle in 0..300u64 {
                    for _ in 0..(rnd() % 3) {
                        let port = Direction::from_index((rnd() % 5) as usize);
                        let vc = (rnd() % vcs as u64) as u8;
                        let dst = (rnd() % 5) as usize;
                        let len = 1 + (rnd() % 3) as usize;
                        if slow.occupancy(port, vc as usize) + len <= 4 {
                            pkt += 1;
                            for k in 0..len {
                                let f = Flit {
                                    packet_id: pkt,
                                    src: 0,
                                    dst,
                                    vc,
                                    is_head: k == 0,
                                    is_tail: k + 1 == len,
                                    injected_at: cycle,
                                };
                                slow.accept(port, f);
                                fast.accept(port, f);
                            }
                        }
                    }
                    let ready_mask = rnd();
                    let ready = move |d: Direction, vc: usize| {
                        ready_mask & (1 << (d.index() * 8 + vc)) != 0
                    };
                    let a = slow.step(route, ready, sp.lane());
                    let mut fast_deps: Vec<Departure> = Vec::new();
                    let b = fast.step_fast(route, ready, fp.lane(), |d| fast_deps.push(d));
                    let slow_deps: Vec<Departure> = a.departures().collect();
                    assert_eq!(slow_deps, fast_deps, "cycle {cycle} vcs {vcs} {gating:?}");
                    assert_eq!(a.arbitrations, b.arbitrations, "cycle {cycle}");
                    assert_eq!(sp.idle, fp.idle, "cycle {cycle}");
                    assert_eq!(sp.idle_ended, fp.idle_ended, "cycle {cycle}");
                    assert_eq!(sp.fsm, fp.fsm, "cycle {cycle}");
                    assert_eq!(sp.counters, fp.counters, "cycle {cycle}");
                    assert_eq!(slow.total_occupancy(), fast.total_occupancy());
                }
            }
        }
    }

    #[test]
    fn flits_route_once_per_hop_and_again_after_a_purge() {
        use std::cell::Cell;
        let calls = Cell::new(0usize);
        let route = |_: &Flit| {
            calls.set(calls.get() + 1);
            RouteTarget {
                out: Direction::East,
                vc: 0,
            }
        };
        let mut slabs = RouterSlabs::new(1, 4, 1, None);
        let mut r = slabs.router(0);
        let mut p = Ports::new(1);
        for id in 1..=3 {
            r.accept(Direction::West, flit(id, true, true));
        }
        r.accept(Direction::North, flit(4, true, true));
        // Blocked for several cycles: each input front routes once.
        for _ in 0..5 {
            let out = r.step(route, |_, _| false, p.lane());
            assert_eq!(out.departures().count(), 0);
        }
        assert_eq!(calls.get(), 2);
        // Draining: every later front routes once as it reaches the
        // head of its buffer — one call per flit in all.
        while r.total_occupancy() > 0 {
            r.step(route, |_, _| true, p.lane());
        }
        assert_eq!(calls.get(), 4);

        // A fault purge re-buffers the survivors, which route afresh.
        r.accept(Direction::West, flit(5, true, true));
        r.accept(Direction::North, flit(6, true, true));
        r.step(route, |_, _| false, p.lane());
        r.step(route, |_, _| false, p.lane());
        assert_eq!(calls.get(), 6);
        assert_eq!(r.purge_packets(|_| false, |_, _| {}), 0);
        r.step(route, |_, _| false, p.lane());
        r.step(route, |_, _| false, p.lane());
        assert_eq!(calls.get(), 8);
    }

    #[test]
    fn zeroed_slot_is_the_filler_and_real_flits_round_trip() {
        assert_eq!(pack(&Flit::INVALID), [0; 3]);
        assert_eq!(unpack(&[0; 3]), Flit::INVALID);
        for f in [
            flit(0, true, false),
            Flit {
                packet_id: u64::MAX - 1,
                src: MAX_ROUTER_ID,
                dst: MAX_ROUTER_ID - 1,
                vc: (MAX_VCS - 1) as u8,
                is_head: false,
                is_tail: true,
                injected_at: u64::MAX,
            },
        ] {
            assert_ne!(pack(&f), [0; 3]);
            assert_eq!(unpack(&pack(&f)), f);
        }
    }

    #[test]
    fn fresh_slabs_are_quiet_and_tiles_address_their_own_rows() {
        let mut slabs = RouterSlabs::new(3, 2, 2, None);
        for id in 0..3 {
            let r = slabs.router(id);
            assert!(r.is_quiet());
            assert!(r.can_accept(Direction::North, 1));
        }
        {
            let (_first, mut rest) = slabs.tile(0).split_at_mut(1);
            let mut r = rest.router(1);
            assert_eq!(r.id, 2);
            r.accept(Direction::North, vflit(7, 1, true, false));
            let mut seen = Vec::new();
            rest.for_each_flit(1, |f| seen.push(f.packet_id));
            assert_eq!(seen, vec![7]);
            assert_eq!(rest.occupancy(1, Direction::North, 1), 1);
        }
        assert_eq!(slabs.occupancy(2, Direction::North, 1), 1);
        assert_eq!(slabs.occupancy(1, Direction::North, 1), 0);
        assert_eq!(slabs.total_occupancy(), 1);
        assert!(!slabs.router(2).is_quiet());
    }
}
