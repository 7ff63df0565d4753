//! Communicators and point-to-point messaging.
//!
//! A [`Comm`] is the SPMD handle a PE uses to talk to its peers — the
//! moral equivalent of an `MPI_Comm`. Messages are tagged byte buffers
//! delivered through per-PE unbounded channels; a receive filters by
//! `(communicator, source, tag)` and parks out-of-order arrivals in a
//! pending list (MPI-style matching).
//!
//! [`Comm::split`] creates subcommunicators (hQuick's hypercube subcubes),
//! which route through the same world mailboxes but match on their own
//! communicator id.
//!
//! ## Accounting rules
//!
//! * every payload byte sent to *another* PE is counted (self-delivery is
//!   free, as local data movement is not communication);
//! * a bare [`Comm::recv`] contributes one latency round; collectives
//!   instead add their critical-path depth explicitly (see
//!   [`collectives`](crate::collectives));
//! * wall time inside any communication call is attributed to `comm_ns`,
//!   time between calls to `compute_ns`, per phase.

use crate::metrics::PeMetrics;
use crate::rng::SplitMix64;
use crate::trace::{self, cat, SpanGuard};
use crossbeam::channel::{Receiver, RecvTimeoutError, Sender, TryRecvError};
use std::cell::{Cell, RefCell};
use std::rc::Rc;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

/// Communicator id reserved for the poison pill broadcast on PE panic.
pub(crate) const POISON_COMM: u64 = u64::MAX;

/// Message tag. User tags live in their own namespace, distinct from the
/// sequence tags collectives generate internally.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Tag(pub(crate) u64);

impl Tag {
    const USER_BIT: u64 = 1 << 63;

    /// A user-level tag (p2p protocols of the algorithms).
    pub fn user(t: u64) -> Self {
        debug_assert!(t < Self::USER_BIT);
        Tag(t | Self::USER_BIT)
    }

    pub(crate) fn coll(seq: u64) -> Self {
        debug_assert!(seq < Self::USER_BIT);
        Tag(seq)
    }
}

pub(crate) struct Envelope {
    pub comm: u64,
    /// Sender's rank *within* the destination communicator.
    pub src: u32,
    pub tag: u64,
    pub payload: Vec<u8>,
}

/// Shared world state: one mailbox sender per PE.
pub struct WorldShared {
    pub(crate) senders: Vec<Sender<Envelope>>,
    pub(crate) size: usize,
    /// World rank of the first PE to call [`Self::poison_all`]
    /// (`usize::MAX` while no PE has failed). Every later panic is a
    /// secondary abort on the poison pill or on a closed mailbox, so this
    /// is the PE whose panic the runner re-raises.
    first_failure: AtomicUsize,
}

impl WorldShared {
    pub(crate) fn new(senders: Vec<Sender<Envelope>>) -> Self {
        Self {
            size: senders.len(),
            senders,
            first_failure: AtomicUsize::new(usize::MAX),
        }
    }

    /// The world rank that failed first, if any PE has failed. Read after
    /// joining the PE threads, so the join orders every write before it.
    pub(crate) fn first_failure(&self) -> Option<usize> {
        let r = self.first_failure.load(Ordering::Relaxed);
        (r != usize::MAX).then_some(r)
    }

    /// Records `rank` as failed (the first caller wins) and sends the
    /// poison pill to every PE (called on panic, so blocked receives fail
    /// fast instead of deadlocking the run).
    pub(crate) fn poison_all(&self, rank: usize) {
        let _ = self.first_failure.compare_exchange(
            usize::MAX,
            rank,
            Ordering::Relaxed,
            Ordering::Relaxed,
        );
        for s in &self.senders {
            // Ignore failures: the receiver may already be gone.
            let _ = s.send(Envelope {
                comm: POISON_COMM,
                src: 0,
                tag: 0,
                payload: Vec::new(),
            });
        }
    }
}

/// A posted (not yet completed) receive request: the matching engine of
/// both the blocking `recv` and the non-blocking `irecv` paths.
pub(crate) struct RecvSlot {
    comm: u64,
    src: u32,
    tag: u64,
    /// Filled once a matching envelope is routed here.
    payload: Option<Vec<u8>>,
    /// Whether consuming the payload counts `bytes_recv` (false for
    /// self-receives, which are free local moves).
    count: bool,
}

/// Per-PE endpoint state, shared by all communicators of this PE.
pub(crate) struct PeCore {
    pub world_rank: usize,
    pub world: Arc<WorldShared>,
    pub rx: Receiver<Envelope>,
    pub pending: Vec<Envelope>,
    pub metrics: PeMetrics,
    pub seed: u64,
    pub recv_timeout: Duration,
    /// Slab of receive requests (`None` = free slot, recycled via
    /// `free_slots`).
    pub(crate) slots: Vec<Option<RecvSlot>>,
    /// Live slot ids in posting order — the FIFO tie-breaker when several
    /// requests with the same `(comm, src, tag)` key are in flight.
    pub(crate) posted: Vec<usize>,
    pub(crate) free_slots: Vec<usize>,
    /// Trace span of the current metrics phase (inert when tracing is
    /// off). Declared before `run_span` so struct drop closes the phase
    /// span first, keeping the per-thread begin/end stream balanced even
    /// when a PE unwinds mid-phase.
    pub phase_span: SpanGuard,
    /// Trace span covering this PE thread's whole lifetime.
    pub run_span: SpanGuard,
}

impl PeCore {
    /// Posts a receive request for `(comm, src, tag)`. If a matching
    /// envelope is already parked, the earliest-arrived one completes the
    /// request immediately.
    pub(crate) fn post_slot(&mut self, comm: u64, src: u32, tag: u64, count: bool) -> usize {
        let mut slot = RecvSlot {
            comm,
            src,
            tag,
            payload: None,
            count,
        };
        if let Some(i) = self
            .pending
            .iter()
            .position(|e| e.comm == comm && e.src == src && e.tag == tag)
        {
            // `remove` (not `swap_remove`) keeps later same-key envelopes
            // in arrival order — the per-(src, dst, tag) FIFO guarantee.
            slot.payload = Some(self.pending.remove(i).payload);
        }
        let id = match self.free_slots.pop() {
            Some(id) => {
                self.slots[id] = Some(slot);
                id
            }
            None => {
                self.slots.push(Some(slot));
                self.slots.len() - 1
            }
        };
        self.posted.push(id);
        id
    }

    /// Routes an arrived envelope to the earliest-posted matching unfilled
    /// request, parking it in arrival order otherwise. Panics on the
    /// poison pill so blocked PEs abort instead of deadlocking.
    pub(crate) fn deliver(&mut self, env: Envelope) {
        if env.comm == POISON_COMM {
            panic!("peer PE panicked; aborting this PE");
        }
        for &id in &self.posted {
            let slot = self.slots[id].as_mut().expect("posted slot is live");
            if slot.payload.is_none()
                && slot.comm == env.comm
                && slot.src == env.src
                && slot.tag == env.tag
            {
                slot.payload = Some(env.payload);
                return;
            }
        }
        self.pending.push(env);
    }

    /// Whether the request has a payload waiting to be taken.
    pub(crate) fn slot_ready(&self, id: usize) -> bool {
        self.slots[id].as_ref().is_some_and(|s| s.payload.is_some())
    }

    /// Consumes a completed request: frees the slot and records the
    /// receive in the metrics (unless it was a self-receive).
    pub(crate) fn take_slot(&mut self, id: usize) -> Vec<u8> {
        let slot = self.slots[id].take().expect("slot is live");
        let payload = slot.payload.expect("slot completed");
        self.posted.retain(|&x| x != id);
        self.free_slots.push(id);
        if slot.count {
            self.metrics.on_recv(payload.len());
        }
        payload
    }

    /// Routes every already-arrived envelope without blocking.
    pub(crate) fn try_progress(&mut self) {
        loop {
            match self.rx.try_recv() {
                Ok(env) => self.deliver(env),
                Err(TryRecvError::Empty) | Err(TryRecvError::Disconnected) => return,
            }
        }
    }

    /// Blocks for one more envelope and routes it. `Err` means the
    /// receive timeout elapsed (the caller panics with its own context).
    pub(crate) fn progress_blocking(&mut self) -> Result<(), Duration> {
        let timeout = self.recv_timeout;
        match self.rx.recv_timeout(timeout) {
            Ok(env) => {
                self.deliver(env);
                Ok(())
            }
            Err(RecvTimeoutError::Timeout) => Err(timeout),
            Err(RecvTimeoutError::Disconnected) => {
                panic!("world mailbox disconnected — runner tore down mid-operation")
            }
        }
    }
}

/// Membership of one communicator.
struct CommGroup {
    id: u64,
    /// World ranks of the members, in communicator rank order.
    members: Vec<u32>,
    /// This PE's rank within the communicator.
    my_rank: usize,
    /// Sequence numbers for collective tags and for child communicators.
    coll_seq: Cell<u64>,
    split_seq: Cell<u64>,
}

/// The SPMD communicator handle (per PE; not `Send` — each PE thread owns
/// its own).
pub struct Comm {
    core: Rc<RefCell<PeCore>>,
    group: Rc<CommGroup>,
}

impl Comm {
    /// Builds the world communicator for one PE (runner-internal).
    pub(crate) fn world(core: PeCore) -> Self {
        let size = core.world.size;
        let my_rank = core.world_rank;
        Self {
            core: Rc::new(RefCell::new(core)),
            group: Rc::new(CommGroup {
                id: 0,
                members: (0..size as u32).collect(),
                my_rank,
                coll_seq: Cell::new(0),
                split_seq: Cell::new(0),
            }),
        }
    }

    /// Rank of this PE within the communicator.
    pub fn rank(&self) -> usize {
        self.group.my_rank
    }

    /// Number of PEs in the communicator.
    pub fn size(&self) -> usize {
        self.group.members.len()
    }

    /// Rank of this PE in the world communicator.
    pub fn world_rank(&self) -> usize {
        self.core.borrow().world_rank
    }

    /// Whether this PE is rank 0 of the communicator.
    pub fn is_root(&self) -> bool {
        self.group.my_rank == 0
    }

    /// Deterministic per-(run, communicator, rank) RNG.
    pub fn rng(&self) -> SplitMix64 {
        let core = self.core.borrow();
        let mut mixer = SplitMix64::new(
            core.seed ^ self.group.id.rotate_left(17) ^ (self.group.my_rank as u64) << 1,
        );
        let s = mixer.next_u64();
        SplitMix64::new(s)
    }

    /// Switches the metrics phase label (SPMD-collective by convention:
    /// call it on every PE at the same point). `PeMetrics::set_phase`
    /// itself flushes elapsed compute into the outgoing phase, exactly
    /// once.
    pub fn set_phase(&self, name: &str) {
        let mut core = self.core.borrow_mut();
        core.metrics.set_phase(name);
        // Close the outgoing phase's span *before* opening the new one —
        // a direct assignment would record Begin(new) and only then drop
        // the old guard, crossing the spans.
        core.phase_span = SpanGuard::inert();
        core.phase_span = trace::span(cat::PHASE, name);
    }

    /// Runs `f` with the raw per-PE metrics (diagnostics).
    pub fn with_metrics<R>(&self, f: impl FnOnce(&PeMetrics) -> R) -> R {
        f(&self.core.borrow().metrics)
    }

    // ------------------------------------------------------------------
    // point-to-point
    // ------------------------------------------------------------------

    /// Sends `payload` to communicator rank `dst` (non-blocking; the
    /// channel buffers). Counts bytes unless `dst` is this PE.
    pub fn send(&self, dst: usize, tag: Tag, payload: Vec<u8>) {
        let _g = trace::span_args(
            cat::SEND,
            "send",
            [("dst", dst as u64), ("bytes", payload.len() as u64)],
        );
        self.enter();
        self.raw_send(dst, tag.0, payload, true);
        self.exit();
    }

    /// Receives the message from `src` with `tag` (blocking). Adds one
    /// latency round.
    pub fn recv(&self, src: usize, tag: Tag) -> Vec<u8> {
        let _g = trace::span_args(cat::WAIT, "recv", [("src", src as u64), ("", 0)]);
        self.enter();
        let p = self.raw_recv(src, tag.0, true);
        {
            let mut core = self.core.borrow_mut();
            core.metrics.add_rounds(1);
        }
        self.exit();
        p
    }

    /// Simultaneous exchange with a partner (MPI sendrecv): one round.
    pub fn exchange(&self, partner: usize, tag: Tag, payload: Vec<u8>) -> Vec<u8> {
        let _g = trace::span_args(
            cat::SEND,
            "sendrecv",
            [("partner", partner as u64), ("bytes", payload.len() as u64)],
        );
        self.enter();
        self.raw_send(partner, tag.0, payload, true);
        let p = self.raw_recv(partner, tag.0, true);
        {
            let mut core = self.core.borrow_mut();
            core.metrics.add_rounds(1);
        }
        self.exit();
        p
    }

    // ------------------------------------------------------------------
    // internals used by the collectives module
    // ------------------------------------------------------------------

    pub(crate) fn enter(&self) {
        self.core.borrow_mut().metrics.flush_compute();
    }

    pub(crate) fn exit(&self) {
        self.core.borrow_mut().metrics.flush_comm();
    }

    pub(crate) fn add_rounds(&self, rounds: u64) {
        self.core.borrow_mut().metrics.add_rounds(rounds);
    }

    /// Fresh tag for one collective operation (same sequence on every
    /// member because collectives are SPMD-ordered).
    pub(crate) fn next_coll_tag(&self) -> u64 {
        let t = self.group.coll_seq.get();
        self.group.coll_seq.set(t + 1);
        t
    }

    pub(crate) fn raw_send(&self, dst: usize, tag: u64, payload: Vec<u8>, count: bool) {
        let mut core = self.core.borrow_mut();
        if dst == self.group.my_rank {
            // Self-delivery: free local move, routed like an arrival so a
            // posted receive request matches it.
            core.deliver(Envelope {
                comm: self.group.id,
                src: self.group.my_rank as u32,
                tag,
                payload,
            });
            return;
        }
        if count {
            core.metrics.on_send(payload.len());
        }
        let dst_world = self.group.members[dst] as usize;
        core.world.senders[dst_world]
            .send(Envelope {
                comm: self.group.id,
                src: self.group.my_rank as u32,
                tag,
                payload,
            })
            .expect("mailbox closed: peer PE terminated early");
    }

    pub(crate) fn raw_recv(&self, src: usize, tag: u64, count: bool) -> Vec<u8> {
        let mut core = self.core.borrow_mut();
        let comm_id = self.group.id;
        let count = count && src != self.group.my_rank;
        let id = core.post_slot(comm_id, src as u32, tag, count);
        if !core.slot_ready(id) {
            // Drain already-arrived envelopes first: a message sitting in
            // the mailbox is delivery latency, not a stall.
            core.try_progress();
        }
        if !core.slot_ready(id) {
            // Genuinely blocked: nothing matching has arrived anywhere.
            let _stall = trace::span_args(cat::STALL, "recv", [("src", src as u64), ("tag", tag)]);
            let t0 = Instant::now();
            loop {
                if let Err(timeout) = core.progress_blocking() {
                    panic!(
                        "PE {} (comm {comm_id}, rank {}): recv(src={src}, tag={tag}) timed out \
                         after {timeout:?} — likely deadlock",
                        core.world_rank, self.group.my_rank,
                    );
                }
                if core.slot_ready(id) {
                    break;
                }
            }
            core.metrics.add_stall(t0.elapsed().as_nanos() as u64);
        }
        core.take_slot(id)
    }

    // ------------------------------------------------------------------
    // internals used by the non-blocking runtime (see `nonblocking`)
    // ------------------------------------------------------------------

    /// Id of this communicator (slot keys are `(comm id, src, tag)`).
    pub(crate) fn comm_id(&self) -> u64 {
        self.group.id
    }

    /// Runs `f` with exclusive access to the per-PE endpoint state.
    pub(crate) fn with_core<R>(&self, f: impl FnOnce(&mut PeCore) -> R) -> R {
        f(&mut self.core.borrow_mut())
    }

    // ------------------------------------------------------------------
    // communicator management
    // ------------------------------------------------------------------

    /// Splits the communicator: PEs passing the same `color` form a new
    /// communicator, ordered by their rank in `self`. Involves one
    /// all-gather of colors (counted, like a real `MPI_Comm_split`).
    pub fn split(&self, color: u64) -> Comm {
        let colors = self.allgather_u64(color);
        let members: Vec<u32> = (0..self.size())
            .filter(|&i| colors[i] == color)
            .map(|i| self.group.members[i])
            .collect();
        let my_rank = (0..self.size())
            .filter(|&i| colors[i] == color)
            .position(|i| i == self.group.my_rank)
            .expect("calling PE is a member of its own color class");
        let seq = self.group.split_seq.get();
        self.group.split_seq.set(seq + 1);
        let id = crate::rng::SplitMix64::new(self.group.id ^ (seq << 32) ^ color.rotate_left(7))
            .next_u64()
            // Avoid colliding with the reserved ids.
            & !(1 << 63);
        Comm {
            core: Rc::clone(&self.core),
            group: Rc::new(CommGroup {
                id,
                members,
                my_rank,
                coll_seq: Cell::new(0),
                split_seq: Cell::new(0),
            }),
        }
    }

    /// Extracts a clone of this PE's metrics (runner-internal). Also
    /// closes the PE's phase and run trace spans, while still on the PE
    /// thread, so drained event streams end balanced.
    pub(crate) fn take_metrics(&self) -> PeMetrics {
        let mut core = self.core.borrow_mut();
        core.phase_span = SpanGuard::inert();
        core.run_span = SpanGuard::inert();
        core.metrics.flush_compute();
        core.metrics.clone()
    }

    pub(crate) fn world_shared(&self) -> Arc<WorldShared> {
        Arc::clone(&self.core.borrow().world)
    }
}
