//! In-process message-passing fabric — the MPI stand-in, hardened.
//!
//! Ranks run as OS threads and communicate through per-link envelope queues.
//! Unlike a bare channel mesh, the transport is built to survive an
//! adversarial network (droped, duplicated, delayed, reordered and replayed
//! messages, injected deterministically by a [`FaultPlan`]):
//!
//! * every message carries a per-link **sequence number** and the current
//!   **epoch**; receivers deliver in sequence order through a reorder
//!   buffer, discard duplicates/stale replays, and drop traffic from dead
//!   epochs;
//! * delivery into the peer's queue doubles as the **ack** (the transport is
//!   in-process, so hand-off is synchronous); a dropped transmission is
//!   retried with exponential backoff up to a bounded budget, after which
//!   the sender gets [`CommError::RetriesExhausted`];
//! * every blocking operation (`recv`, `barrier`, `allreduce_sum`) has a
//!   **deadline** and returns [`CommError::Timeout`] instead of hanging;
//! * ranks **heartbeat** while alive; a peer whose heartbeat goes stale past
//!   the deadline — or that dies by panic or by a fault-plan kill — is
//!   declared failed, blocking peers get [`CommError::RankFailed`], and the
//!   survivors can re-form the fabric with [`Comm::recover`] (clearing all
//!   in-flight state and shrinking the collective group), after which the
//!   time-march restores from a checkpoint (see [`crate::exec`]).
//!
//! The collectives are deterministic exactly as before: barrier via arrival
//! counters, `allreduce` as a gather in ascending *group* order at the
//! lowest surviving rank followed by a broadcast.
//!
//! Tags with the top bit set ([`COLLECTIVE_TAG_BIT`]) are reserved for
//! collectives; user sends/recvs into that namespace are rejected with
//! [`CommError::ReservedTag`].
//!
//! ## Overlap support
//!
//! Two additions serve the comm/compute-overlapped march (see
//! [`crate::exec`]):
//!
//! * each link carries **two independent sequence channels** — user
//!   point-to-point traffic and collective traffic (selected by
//!   [`COLLECTIVE_TAG_BIT`]). A deferred collective (below) parks its gather
//!   contributions on the same links the next iteration's halo messages use;
//!   separate channels let the receiver drain halo traffic ahead of queued
//!   collective envelopes without tripping the in-sequence tag check.
//! * **non-blocking primitives**: [`Comm::try_recv`] polls a link without
//!   blocking (so interior compute can proceed while boundary receives are
//!   outstanding), and [`Comm::iallreduce_sum`] / [`Comm::iallreduce_max`]
//!   split an allreduce into a start ([`PendingReduce`]) and a
//!   [`Comm::complete_reduce`] harvest, pipelining step *k*'s reduction
//!   under step *k+1*'s compute. The completed result is bitwise identical
//!   to the blocking collective (same ascending gather order at the same
//!   root); a pending reduce that crosses a recovery epoch refuses to
//!   complete, so stale contributions can never leak into a reduction.

use std::cell::RefCell;
use std::collections::{BTreeMap, VecDeque};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

use op2_trace::{pack2, EventKind, NO_NAME};
use parking_lot::{Condvar, Mutex};

use crate::fault::{FaultAction, FaultPlan, FaultReport, FaultStats};

/// Tag namespace reserved for collective operations (top bit). User
/// point-to-point traffic must keep this bit clear.
pub const COLLECTIVE_TAG_BIT: u64 = 1 << 63;

const TAG_GATHER: u64 = COLLECTIVE_TAG_BIT | 1;
const TAG_BCAST: u64 = COLLECTIVE_TAG_BIT | 2;
const TAG_BARRIER: u64 = COLLECTIVE_TAG_BIT | 3;

/// Granularity of blocking waits (each slice re-checks failure flags).
const WAIT_SLICE: Duration = Duration::from_millis(2);

/// Communication failure reported by fabric operations.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum CommError {
    /// A receive (or barrier) deadline expired with no matching message.
    Timeout {
        /// The waiting rank.
        rank: usize,
        /// The peer the rank was waiting on.
        from: usize,
        /// The expected tag ([`TAG_BARRIER`-like reserved values for
        /// collectives]).
        tag: u64,
        /// How long the rank waited, in milliseconds.
        waited_ms: u64,
    },
    /// A send exhausted its retransmission budget (every attempt dropped).
    RetriesExhausted {
        /// The sending rank.
        rank: usize,
        /// The destination rank.
        to: usize,
        /// The message tag.
        tag: u64,
        /// The per-link sequence number of the message.
        seq: u64,
        /// Total transmission attempts made.
        attempts: u32,
    },
    /// A peer rank was detected failed (kill, panic, or stale heartbeat).
    /// The caller should enter recovery ([`Comm::recover`]).
    RankFailed {
        /// The detecting rank.
        rank: usize,
        /// The rank that failed.
        failed: usize,
    },
    /// This rank itself has been marked failed (fault-plan kill or a peer's
    /// staleness verdict); all its fabric operations are fenced off.
    Fenced {
        /// The fenced rank.
        rank: usize,
    },
    /// A user send/recv used a tag in the reserved collective namespace.
    ReservedTag {
        /// The offending tag.
        tag: u64,
    },
    /// In-sequence message carried an unexpected tag — a protocol bug.
    TagMismatch {
        /// The receiving rank.
        rank: usize,
        /// The sending peer.
        from: usize,
        /// The tag the receiver expected.
        expected: u64,
        /// The tag actually received.
        got: u64,
    },
    /// Collective payload lengths disagreed across ranks.
    LengthMismatch {
        /// The reducing rank.
        rank: usize,
        /// The contributing peer.
        from: usize,
        /// Expected element count.
        expected: usize,
        /// Received element count.
        got: usize,
    },
    /// Fabric re-formation failed (rendezvous timeout, no survivors, …).
    RecoveryFailed {
        /// The rank reporting the failure.
        rank: usize,
        /// Human-readable cause.
        reason: &'static str,
    },
    /// Recovery found no consistent checkpoint to restore from.
    NoCheckpoint,
    /// A durable checkpoint commit failed in a way that cannot be degraded
    /// (`ENOSPC` *is* degraded — this is for real IO/validation failures,
    /// carried as text so `CommError` stays `Clone + PartialEq`).
    Checkpoint {
        /// The committing rank.
        rank: usize,
        /// Rendered [`crate::checkpoint::CheckpointError`].
        detail: String,
    },
}

impl std::fmt::Display for CommError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            CommError::Timeout { rank, from, tag, waited_ms } => write!(
                f,
                "rank {rank}: deadline expired after {waited_ms} ms waiting for tag {tag} from rank {from}"
            ),
            CommError::RetriesExhausted { rank, to, tag, seq, attempts } => write!(
                f,
                "rank {rank}: send to {to} (tag {tag}, seq {seq}) dropped on all {attempts} attempts"
            ),
            CommError::RankFailed { rank, failed } => {
                write!(f, "rank {rank}: detected failure of rank {failed}")
            }
            CommError::Fenced { rank } => write!(f, "rank {rank} is fenced (marked failed)"),
            CommError::ReservedTag { tag } => {
                write!(f, "tag {tag:#x} is in the reserved collective namespace")
            }
            CommError::TagMismatch { rank, from, expected, got } => write!(
                f,
                "rank {rank}: expected tag {expected} from {from}, got {got}"
            ),
            CommError::LengthMismatch { rank, from, expected, got } => write!(
                f,
                "rank {rank}: collective length mismatch from {from}: expected {expected}, got {got}"
            ),
            CommError::RecoveryFailed { rank, reason } => {
                write!(f, "rank {rank}: recovery failed: {reason}")
            }
            CommError::NoCheckpoint => write!(f, "no consistent checkpoint to restore from"),
            CommError::Checkpoint { rank, detail } => {
                write!(f, "rank {rank}: durable checkpoint failed: {detail}")
            }
        }
    }
}

impl std::error::Error for CommError {}

/// Deadlines and retry budgets of the fabric.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct CommConfig {
    /// How long a `recv`/`barrier` waits before returning
    /// [`CommError::Timeout`].
    pub recv_deadline: Duration,
    /// Retransmission budget per message (attempts = `max_retries + 1`).
    pub max_retries: u32,
    /// Base of the exponential backoff between retransmissions.
    pub backoff_base: Duration,
    /// A live rank whose heartbeat is older than this is declared failed.
    pub heartbeat_timeout: Duration,
}

impl Default for CommConfig {
    fn default() -> CommConfig {
        CommConfig {
            recv_deadline: Duration::from_secs(2),
            max_retries: 10,
            backoff_base: Duration::from_micros(20),
            heartbeat_timeout: Duration::from_secs(5),
        }
    }
}

/// Reduction operator of an allreduce.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum ReduceOp {
    /// Element-wise sum, accumulated in ascending group order.
    Sum,
    /// Element-wise max (order-independent).
    Max,
}

/// An allreduce in flight, returned by [`Comm::iallreduce_sum`] /
/// [`Comm::iallreduce_max`] and harvested by [`Comm::complete_reduce`].
/// Holds the group and epoch snapshot from start time: completing after a
/// recovery bumped the epoch is refused, because the purge of dead-epoch
/// traffic discarded the gather contributions.
#[derive(Debug)]
#[must_use = "a pending reduce must be harvested with complete_reduce"]
pub struct PendingReduce {
    op: ReduceOp,
    root: usize,
    group: Vec<usize>,
    epoch: u64,
    /// This rank's contribution (the root folds it in at harvest time).
    local: Vec<f64>,
}

/// A sequenced, epoch-stamped message on one link.
#[derive(Debug, Clone)]
struct Envelope {
    seq: u64,
    epoch: u64,
    tag: u64,
    payload: Vec<f64>,
}

/// Sequence channel of a tag: user point-to-point traffic (0) and
/// collective traffic (1) are sequenced independently per link, so a
/// deferred collective's queued envelopes never stall or mis-order the next
/// iteration's user messages on the same link.
#[inline]
fn chan_of(tag: u64) -> usize {
    usize::from(tag & COLLECTIVE_TAG_BIT != 0)
}

/// Shared state of one directed link `from → to`.
#[derive(Default)]
struct LinkState {
    /// Delivered envelopes, transmission order.
    queue: VecDeque<Envelope>,
    /// Envelopes parked "in the network" by a Delay fault; they arrive when
    /// newer traffic flushes past them or the receiver drains the queue.
    held: Vec<Envelope>,
    /// Sender-side: next sequence number to assign, per channel
    /// (user, collective).
    next_seq: [u64; 2],
    /// Sender-side: last transmitted envelope per channel (source of Replay
    /// faults).
    last: [Option<Envelope>; 2],
}

struct Link {
    state: Mutex<LinkState>,
    cv: Condvar,
}

/// Barrier / rendezvous counters (one mutex so arrivals can't be missed).
#[derive(Default)]
struct Coord {
    bar: Vec<u64>,
    rec_arrived: Vec<u64>,
    rec_cleared: Vec<u64>,
}

/// Fabric-wide shared state.
struct Shared {
    nranks: usize,
    /// `links[from * nranks + to]`.
    links: Vec<Link>,
    coord: Mutex<Coord>,
    coord_cv: Condvar,
    alive: Vec<AtomicBool>,
    done: Vec<AtomicBool>,
    heartbeat: Vec<AtomicU64>,
    last_beat: Vec<Mutex<Instant>>,
    /// Set when any rank fails; cleared by the recovery leader.
    rec_flag: AtomicBool,
    /// Current fabric epoch; bumped once per successful recovery.
    rec_epoch: AtomicU64,
    stats: FaultStats,
    plan: Option<FaultPlan>,
    config: CommConfig,
}

impl Shared {
    fn declare_dead(&self, rank: usize) {
        if self.alive[rank].swap(false, Ordering::SeqCst) {
            FaultStats::inc(&self.stats.rank_failures);
            self.rec_flag.store(true, Ordering::SeqCst);
            self.coord_cv.notify_all();
        }
    }

    fn mark_done(&self, rank: usize) {
        self.done[rank].store(true, Ordering::SeqCst);
        self.coord_cv.notify_all();
    }
}

/// Receive-side protocol state of one sequence channel.
#[derive(Default)]
struct RecvChan {
    /// Next expected sequence number.
    next: u64,
    /// Out-of-order envelopes awaiting their turn.
    reorder: BTreeMap<u64, Envelope>,
}

/// Per-peer receive-side protocol state: one [`RecvChan`] per sequence
/// channel (user, collective). Envelopes pulled off the link are filed into
/// the channel their tag selects, so receiving on one channel buffers — not
/// discards or mis-matches — traffic of the other.
#[derive(Default)]
struct RecvState {
    chans: [RecvChan; 2],
}

impl RecvState {
    /// Take the head-of-line envelope of `chan` if it has arrived.
    fn take_next(&mut self, chan: usize) -> Option<Envelope> {
        let c = &mut self.chans[chan];
        let env = c.reorder.remove(&c.next)?;
        c.next += 1;
        Some(env)
    }

    /// File a pulled envelope into its channel's reorder buffer, discarding
    /// stale-epoch traffic and duplicates.
    fn file(&mut self, env: Envelope, epoch: u64, stats: &FaultStats) {
        if env.epoch < epoch {
            FaultStats::inc(&stats.stale_discarded);
            return;
        }
        let c = &mut self.chans[chan_of(env.tag)];
        if env.seq < c.next || c.reorder.contains_key(&env.seq) {
            FaultStats::inc(&stats.dup_discarded);
            return;
        }
        c.reorder.insert(env.seq, env);
    }
}

/// Per-rank communicator handle (the `MPI_COMM_WORLD` analogue).
pub struct Comm {
    rank: usize,
    shared: Arc<Shared>,
    /// Sorted ranks participating in collectives (all ranks until a
    /// recovery shrinks it to the survivors).
    group: RefCell<Vec<usize>>,
    recv_state: Vec<RefCell<RecvState>>,
}

impl Comm {
    /// This rank's id (0-based).
    pub fn rank(&self) -> usize {
        self.rank
    }

    /// Total rank count the fabric was launched with.
    pub fn nranks(&self) -> usize {
        self.shared.nranks
    }

    /// The current collective group (sorted; shrinks after a recovery).
    pub fn group(&self) -> Vec<usize> {
        self.group.borrow().clone()
    }

    /// The fabric's deadline/retry configuration.
    pub fn config(&self) -> &CommConfig {
        &self.shared.config
    }

    /// The active fault plan, if any.
    pub fn plan(&self) -> Option<&FaultPlan> {
        self.shared.plan.as_ref()
    }

    /// True if a rank failure has been flagged and a re-formation
    /// ([`Comm::recover`]) is pending.
    pub fn recovery_pending(&self) -> bool {
        self.shared.rec_flag.load(Ordering::SeqCst)
    }

    /// Record a liveness heartbeat for this rank. Called automatically
    /// inside every blocking wait; long compute phases should call it at
    /// natural boundaries (the time-march beats once per iteration).
    pub fn beat(&self) {
        self.shared.heartbeat[self.rank].fetch_add(1, Ordering::Relaxed);
        *self.shared.last_beat[self.rank].lock() = Instant::now();
    }

    /// Mark this rank failed (the fault-plan kill path): peers will detect
    /// the failure and re-form. Returns the [`CommError::Fenced`] value the
    /// caller should propagate while unwinding its work.
    pub fn kill_self(&self) -> CommError {
        self.shared.declare_dead(self.rank);
        self.notify_all_links();
        CommError::Fenced { rank: self.rank }
    }

    fn notify_all_links(&self) {
        for l in &self.shared.links {
            l.cv.notify_all();
        }
    }

    fn check_self(&self) -> Result<(), CommError> {
        if self.shared.alive[self.rank].load(Ordering::SeqCst) {
            Ok(())
        } else {
            Err(CommError::Fenced { rank: self.rank })
        }
    }

    fn first_dead(&self) -> Option<usize> {
        let group = self.group.borrow();
        group
            .iter()
            .copied()
            .find(|&r| !self.shared.alive[r].load(Ordering::SeqCst))
    }

    /// Declare `peer` failed if its heartbeat is stale. Returns true if the
    /// verdict was reached (by this or any earlier observer).
    fn stale_check(&self, peer: usize) -> bool {
        let sh = &self.shared;
        if sh.done[peer].load(Ordering::SeqCst) || !sh.alive[peer].load(Ordering::SeqCst) {
            return false;
        }
        let stale = sh.last_beat[peer].lock().elapsed() > sh.config.heartbeat_timeout;
        if stale {
            sh.declare_dead(peer);
        }
        stale
    }

    /// Send `payload` to rank `to` with `tag` (buffered; retries masked
    /// transmission faults internally).
    ///
    /// # Errors
    /// [`CommError::ReservedTag`] for tags in the collective namespace,
    /// [`CommError::RetriesExhausted`] if every transmission attempt was
    /// dropped, [`CommError::Fenced`] if this rank has been marked failed.
    ///
    /// # Panics
    /// Panics if `to` is out of range.
    pub fn send(&self, to: usize, tag: u64, payload: Vec<f64>) -> Result<(), CommError> {
        if tag & COLLECTIVE_TAG_BIT != 0 {
            return Err(CommError::ReservedTag { tag });
        }
        self.send_raw(to, tag, payload)
    }

    /// Trace-instrumented transport wrapper: records a
    /// [`EventKind::FabricSend`] span with `a` = packed (from, to) ranks and
    /// `b` = packed (epoch, seq), covering retries and backoff.
    fn send_raw(&self, to: usize, tag: u64, payload: Vec<f64>) -> Result<(), CommError> {
        let span = op2_trace::begin();
        let epoch = self.shared.rec_epoch.load(Ordering::SeqCst);
        let r = self.send_impl(to, tag, payload);
        let seq = *r.as_ref().unwrap_or(&u64::from(u32::MAX));
        op2_trace::end(
            span,
            EventKind::FabricSend,
            NO_NAME,
            pack2(self.rank as u32, to as u32),
            pack2(epoch as u32, seq as u32),
        );
        r.map(|_| ())
    }

    fn send_impl(&self, to: usize, tag: u64, payload: Vec<f64>) -> Result<u64, CommError> {
        self.check_self()?;
        assert!(to < self.shared.nranks, "send to out-of-range rank {to}");
        let sh = &self.shared;
        let link = &sh.links[self.rank * sh.nranks + to];
        let epoch = sh.rec_epoch.load(Ordering::SeqCst);
        FaultStats::inc(&sh.stats.sent);
        let chan = chan_of(tag);
        let seq = {
            let mut st = link.state.lock();
            let s = st.next_seq[chan];
            st.next_seq[chan] += 1;
            s
        };
        let env = Envelope { seq, epoch, tag, payload };
        let mut attempt: u32 = 0;
        loop {
            let action = match &sh.plan {
                Some(p) => p.decide(epoch, self.rank, to, seq, attempt),
                None => FaultAction::Deliver,
            };
            if action == FaultAction::Drop {
                FaultStats::inc(&sh.stats.dropped);
                if attempt >= sh.config.max_retries {
                    return Err(CommError::RetriesExhausted {
                        rank: self.rank,
                        to,
                        tag,
                        seq,
                        attempts: attempt + 1,
                    });
                }
                FaultStats::inc(&sh.stats.retries);
                let backoff = sh.config.backoff_base * (1 << attempt.min(6));
                std::thread::sleep(backoff);
                attempt += 1;
                continue;
            }
            let mut st = link.state.lock();
            match action {
                FaultAction::Duplicate => {
                    st.queue.push_back(env.clone());
                    st.queue.push_back(env.clone());
                    FaultStats::inc(&sh.stats.duplicated);
                }
                FaultAction::Delay => {
                    st.held.push(env.clone());
                    FaultStats::inc(&sh.stats.delayed);
                }
                FaultAction::Replay => {
                    if let Some(last) = st.last[chan].clone() {
                        st.queue.push_back(last);
                        FaultStats::inc(&sh.stats.replayed);
                    }
                    st.queue.push_back(env.clone());
                }
                FaultAction::Deliver => st.queue.push_back(env.clone()),
                FaultAction::Drop => unreachable!("handled above"),
            }
            st.last[chan] = Some(env);
            drop(st);
            link.cv.notify_all();
            return Ok(seq);
        }
    }

    /// Pull the next raw envelope off the link `from → self`, with deadline
    /// and failure detection.
    fn pull(&self, from: usize, tag: u64) -> Result<Envelope, CommError> {
        let sh = &self.shared;
        let link = &sh.links[from * sh.nranks + self.rank];
        let deadline = sh.config.recv_deadline;
        let start = Instant::now();
        let mut st = link.state.lock();
        loop {
            if !sh.alive[self.rank].load(Ordering::SeqCst) {
                return Err(CommError::Fenced { rank: self.rank });
            }
            if let Some(env) = st.queue.pop_front() {
                return Ok(env);
            }
            if !st.held.is_empty() {
                // The network finally releases the oldest parked envelope.
                let i = st
                    .held
                    .iter()
                    .enumerate()
                    .min_by_key(|(_, e)| e.seq)
                    .map(|(i, _)| i)
                    .expect("non-empty");
                return Ok(st.held.remove(i));
            }
            if !sh.alive[from].load(Ordering::SeqCst) {
                return Err(CommError::RankFailed { rank: self.rank, failed: from });
            }
            if sh.rec_flag.load(Ordering::SeqCst) {
                if let Some(d) = self.first_dead() {
                    return Err(CommError::RankFailed { rank: self.rank, failed: d });
                }
            }
            if self.stale_check(from) {
                return Err(CommError::RankFailed { rank: self.rank, failed: from });
            }
            let waited = start.elapsed();
            if waited >= deadline || sh.done[from].load(Ordering::SeqCst) {
                // A cleanly-exited peer will never send again: fail fast
                // with the same deadline error a full wait would produce.
                FaultStats::inc(&sh.stats.timeouts);
                return Err(CommError::Timeout {
                    rank: self.rank,
                    from,
                    tag,
                    waited_ms: waited.as_millis() as u64,
                });
            }
            self.beat();
            link.cv.wait_for(&mut st, WAIT_SLICE.min(deadline - waited));
        }
    }

    /// Receive the next in-sequence message from rank `from`; its tag must
    /// equal `tag` (per-link delivery is sequenced, so a mismatch is a
    /// protocol bug reported as [`CommError::TagMismatch`]).
    ///
    /// # Errors
    /// [`CommError::Timeout`] when the deadline expires with no message,
    /// [`CommError::RankFailed`] when the peer is detected dead,
    /// [`CommError::ReservedTag`] for collective-namespace tags.
    pub fn recv(&self, from: usize, tag: u64) -> Result<Vec<f64>, CommError> {
        if tag & COLLECTIVE_TAG_BIT != 0 {
            return Err(CommError::ReservedTag { tag });
        }
        self.recv_raw(from, tag)
    }

    /// Trace-instrumented transport wrapper: records a
    /// [`EventKind::FabricRecv`] span with `a` = packed (from, to) ranks and
    /// `b` = packed (epoch, seq), covering the blocking reorder-buffer wait.
    fn recv_raw(&self, from: usize, tag: u64) -> Result<Vec<f64>, CommError> {
        let span = op2_trace::begin();
        let epoch = self.shared.rec_epoch.load(Ordering::SeqCst);
        let r = self.recv_impl(from, tag);
        let seq = r.as_ref().map(|e| e.seq as u32).unwrap_or(u32::MAX);
        op2_trace::end(
            span,
            EventKind::FabricRecv,
            NO_NAME,
            pack2(from as u32, self.rank as u32),
            pack2(epoch as u32, seq),
        );
        r.map(|env| env.payload)
    }

    fn recv_impl(&self, from: usize, tag: u64) -> Result<Envelope, CommError> {
        let sh = &self.shared;
        let epoch = sh.rec_epoch.load(Ordering::SeqCst);
        let chan = chan_of(tag);
        let mut st = self.recv_state[from].borrow_mut();
        loop {
            if let Some(env) = st.take_next(chan) {
                if env.tag != tag {
                    return Err(CommError::TagMismatch {
                        rank: self.rank,
                        from,
                        expected: tag,
                        got: env.tag,
                    });
                }
                return Ok(env);
            }
            let env = self.pull(from, tag)?;
            st.file(env, epoch, &sh.stats);
        }
    }

    /// Poll for the next in-sequence message from rank `from` without
    /// blocking: `Ok(Some(payload))` if the head-of-line message has
    /// arrived, `Ok(None)` if nothing is deliverable yet. The overlapped
    /// march calls this between interior-compute chunks to fire boundary
    /// blocks the moment their halo data lands.
    ///
    /// Failure detection stays prompt even though the call never waits: a
    /// dead or fenced peer, a pending recovery, or a stale heartbeat surface
    /// as the same errors [`Comm::recv`] would return, and a cleanly-exited
    /// peer that can no longer send reports [`CommError::Timeout`]
    /// immediately.
    pub fn try_recv(&self, from: usize, tag: u64) -> Result<Option<Vec<f64>>, CommError> {
        if tag & COLLECTIVE_TAG_BIT != 0 {
            return Err(CommError::ReservedTag { tag });
        }
        let span = op2_trace::begin();
        let sh = &self.shared;
        let epoch = sh.rec_epoch.load(Ordering::SeqCst);
        let chan = chan_of(tag);
        let mut st = self.recv_state[from].borrow_mut();
        loop {
            if let Some(env) = st.take_next(chan) {
                if env.tag != tag {
                    return Err(CommError::TagMismatch {
                        rank: self.rank,
                        from,
                        expected: tag,
                        got: env.tag,
                    });
                }
                op2_trace::end(
                    span,
                    EventKind::FabricRecv,
                    NO_NAME,
                    pack2(from as u32, self.rank as u32),
                    pack2(epoch as u32, env.seq as u32),
                );
                return Ok(Some(env.payload));
            }
            match self.try_pull(from, tag)? {
                Some(env) => st.file(env, epoch, &sh.stats),
                None => return Ok(None),
            }
        }
    }

    /// Non-blocking variant of [`Comm::pull`]: drain one envelope if the
    /// link has one, otherwise run the same failure checks and return
    /// `Ok(None)`.
    fn try_pull(&self, from: usize, tag: u64) -> Result<Option<Envelope>, CommError> {
        let sh = &self.shared;
        if !sh.alive[self.rank].load(Ordering::SeqCst) {
            return Err(CommError::Fenced { rank: self.rank });
        }
        let link = &sh.links[from * sh.nranks + self.rank];
        {
            let mut st = link.state.lock();
            if let Some(env) = st.queue.pop_front() {
                return Ok(Some(env));
            }
            if !st.held.is_empty() {
                let i = st
                    .held
                    .iter()
                    .enumerate()
                    .min_by_key(|(_, e)| e.seq)
                    .map(|(i, _)| i)
                    .expect("non-empty");
                return Ok(Some(st.held.remove(i)));
            }
        }
        if !sh.alive[from].load(Ordering::SeqCst) {
            return Err(CommError::RankFailed { rank: self.rank, failed: from });
        }
        if sh.rec_flag.load(Ordering::SeqCst) {
            if let Some(d) = self.first_dead() {
                return Err(CommError::RankFailed { rank: self.rank, failed: d });
            }
        }
        if self.stale_check(from) {
            return Err(CommError::RankFailed { rank: self.rank, failed: from });
        }
        if sh.done[from].load(Ordering::SeqCst) {
            // A cleanly-exited peer will never send again: the missing
            // head-of-line message can't arrive, so fail fast as a blocking
            // recv would.
            FaultStats::inc(&sh.stats.timeouts);
            return Err(CommError::Timeout { rank: self.rank, from, tag, waited_ms: 0 });
        }
        Ok(None)
    }

    /// Block until every rank of the current group has reached the barrier.
    ///
    /// Records a [`EventKind::FabricBarrier`] span with `a` = packed (rank,
    /// group size) and `b` = packed (epoch, barrier generation).
    ///
    /// # Errors
    /// [`CommError::RankFailed`] if a group member dies while waiting,
    /// [`CommError::Timeout`] if the deadline expires.
    pub fn barrier(&self) -> Result<(), CommError> {
        let span = op2_trace::begin();
        let epoch = self.shared.rec_epoch.load(Ordering::SeqCst);
        let r = self.barrier_impl();
        op2_trace::end(
            span,
            EventKind::FabricBarrier,
            NO_NAME,
            pack2(self.rank as u32, self.group.borrow().len() as u32),
            pack2(epoch as u32, 0),
        );
        r
    }

    fn barrier_impl(&self) -> Result<(), CommError> {
        self.check_self()?;
        let sh = &self.shared;
        let group = self.group.borrow().clone();
        let deadline = sh.config.recv_deadline;
        let start = Instant::now();
        let mut c = sh.coord.lock();
        c.bar[self.rank] += 1;
        let my = c.bar[self.rank];
        sh.coord_cv.notify_all();
        loop {
            let mut pending = None;
            for &r in &group {
                if r == self.rank || c.bar[r] >= my {
                    continue;
                }
                if !sh.alive[r].load(Ordering::SeqCst) {
                    return Err(CommError::RankFailed { rank: self.rank, failed: r });
                }
                pending = Some(r);
            }
            let Some(p) = pending else { return Ok(()) };
            if self.stale_check(p) {
                return Err(CommError::RankFailed { rank: self.rank, failed: p });
            }
            let waited = start.elapsed();
            if waited >= deadline {
                FaultStats::inc(&sh.stats.timeouts);
                return Err(CommError::Timeout {
                    rank: self.rank,
                    from: p,
                    tag: TAG_BARRIER,
                    waited_ms: waited.as_millis() as u64,
                });
            }
            self.beat();
            sh.coord_cv.wait_for(&mut c, WAIT_SLICE.min(deadline - waited));
        }
    }

    /// Element-wise sum across the current group, identical result on every
    /// member: the lowest surviving rank accumulates contributions in
    /// ascending rank order, then broadcasts.
    ///
    /// Records a [`EventKind::FabricAllreduce`] span (the constituent
    /// gather/broadcast sends and recvs record their own spans inside it).
    ///
    /// # Errors
    /// Propagates transport errors; [`CommError::LengthMismatch`] if the
    /// contributions disagree in length.
    pub fn allreduce_sum(&self, local: &[f64]) -> Result<Vec<f64>, CommError> {
        self.allreduce(local, ReduceOp::Sum)
    }

    /// Element-wise max across the current group (same gather/broadcast
    /// shape as [`Comm::allreduce_sum`]; max is order-independent, so the
    /// result is exact).
    ///
    /// # Errors
    /// As [`Comm::allreduce_sum`].
    pub fn allreduce_max(&self, local: &[f64]) -> Result<Vec<f64>, CommError> {
        self.allreduce(local, ReduceOp::Max)
    }

    fn allreduce(&self, local: &[f64], op: ReduceOp) -> Result<Vec<f64>, CommError> {
        let span = op2_trace::begin();
        let epoch = self.shared.rec_epoch.load(Ordering::SeqCst);
        let r = self.ireduce_start(local, op).and_then(|p| self.complete_impl(p));
        op2_trace::end(
            span,
            EventKind::FabricAllreduce,
            NO_NAME,
            pack2(self.rank as u32, self.group.borrow().len() as u32),
            pack2(epoch as u32, 0),
        );
        r
    }

    /// Start a non-blocking sum-allreduce: this rank's contribution is
    /// dispatched (non-roots send their gather message immediately; the root
    /// holds its own part), and the returned [`PendingReduce`] is harvested
    /// later with [`Comm::complete_reduce`]. The completed result is bitwise
    /// identical to [`Comm::allreduce_sum`] of the same contributions.
    ///
    /// # Errors
    /// Transport errors from the eager gather send.
    pub fn iallreduce_sum(&self, local: &[f64]) -> Result<PendingReduce, CommError> {
        self.ireduce_start(local, ReduceOp::Sum)
    }

    /// Start a non-blocking max-allreduce (see [`Comm::iallreduce_sum`]).
    ///
    /// # Errors
    /// Transport errors from the eager gather send.
    pub fn iallreduce_max(&self, local: &[f64]) -> Result<PendingReduce, CommError> {
        self.ireduce_start(local, ReduceOp::Max)
    }

    fn ireduce_start(&self, local: &[f64], op: ReduceOp) -> Result<PendingReduce, CommError> {
        self.check_self()?;
        let group = self.group.borrow().clone();
        let root = *group.first().expect("non-empty group");
        let epoch = self.shared.rec_epoch.load(Ordering::SeqCst);
        if self.rank != root {
            self.send_raw(root, TAG_GATHER, local.to_vec())?;
        }
        Ok(PendingReduce { op, root, group, epoch, local: local.to_vec() })
    }

    /// Finish a reduction started by [`Comm::iallreduce_sum`] /
    /// [`Comm::iallreduce_max`]: the root drains the gather contributions in
    /// ascending group order and broadcasts; non-roots block on the
    /// broadcast. Records a [`EventKind::FabricAllreduce`] span covering the
    /// harvest only — the overlap win is precisely the compute that ran
    /// between start and harvest.
    ///
    /// # Errors
    /// [`CommError::RecoveryFailed`] if a recovery bumped the epoch since
    /// the reduce started (its contributions were purged with the dead
    /// epoch's traffic, so completing would hang or mix epochs); otherwise
    /// as [`Comm::allreduce_sum`].
    pub fn complete_reduce(&self, pending: PendingReduce) -> Result<Vec<f64>, CommError> {
        let span = op2_trace::begin();
        let epoch = pending.epoch;
        let group_len = pending.group.len();
        let r = self.complete_impl(pending);
        op2_trace::end(
            span,
            EventKind::FabricAllreduce,
            NO_NAME,
            pack2(self.rank as u32, group_len as u32),
            pack2(epoch as u32, 0),
        );
        r
    }

    fn complete_impl(&self, pending: PendingReduce) -> Result<Vec<f64>, CommError> {
        self.check_self()?;
        if pending.epoch != self.shared.rec_epoch.load(Ordering::SeqCst) {
            return Err(CommError::RecoveryFailed {
                rank: self.rank,
                reason: "pending reduce crosses a recovery epoch",
            });
        }
        let PendingReduce { op, root, group, local, .. } = pending;
        if self.rank == root {
            let mut acc = local;
            for &from in group.iter().filter(|&&r| r != root) {
                let part = self.recv_raw(from, TAG_GATHER)?;
                if part.len() != acc.len() {
                    return Err(CommError::LengthMismatch {
                        rank: self.rank,
                        from,
                        expected: acc.len(),
                        got: part.len(),
                    });
                }
                for (a, v) in acc.iter_mut().zip(part) {
                    match op {
                        ReduceOp::Sum => *a += v,
                        ReduceOp::Max => *a = a.max(v),
                    }
                }
            }
            for &to in group.iter().filter(|&&r| r != root) {
                self.send_raw(to, TAG_BCAST, acc.clone())?;
            }
            Ok(acc)
        } else {
            self.recv_raw(root, TAG_BCAST)
        }
    }

    /// Re-form the fabric after a rank failure: rendezvous with every other
    /// surviving rank, clear all in-flight transport state (queues, parked
    /// envelopes, sequence counters, reorder buffers), bump the epoch, and
    /// shrink the collective group to the survivors.
    ///
    /// Returns the sorted survivor ranks. Deterministic given the set of
    /// failed ranks: stale traffic from before the failure is discarded, so
    /// post-recovery state depends only on the restored checkpoint.
    pub fn recover(&self) -> Result<Vec<usize>, CommError> {
        self.check_self()?;
        let sh = &self.shared;
        let me = self.rank;
        let n = sh.nranks;
        let target = sh.rec_epoch.load(Ordering::SeqCst) + 1;
        let deadline = sh.config.recv_deadline * 4;
        let start = Instant::now();

        // Phase 1: every surviving rank arrives (so nobody is still
        // marching and sending while state is cleared).
        {
            let mut c = sh.coord.lock();
            if c.rec_arrived[me] < target {
                c.rec_arrived[me] = target;
            }
            sh.coord_cv.notify_all();
            loop {
                let all = (0..n).all(|r| {
                    !sh.alive[r].load(Ordering::SeqCst) || c.rec_arrived[r] >= target
                });
                if all {
                    break;
                }
                if start.elapsed() > deadline {
                    return Err(CommError::RecoveryFailed {
                        rank: me,
                        reason: "rendezvous (arrival phase) timed out",
                    });
                }
                self.beat();
                sh.coord_cv.wait_for(&mut c, WAIT_SLICE);
            }
        }

        // Phase 2: each rank resets its inbound links (which also hold the
        // peers' sender-side counters for those links) and its own receive
        // state; a second rendezvous keeps sends out until all are clean.
        for from in 0..n {
            let mut st = sh.links[from * n + me].state.lock();
            st.queue.clear();
            st.held.clear();
            st.next_seq = [0; 2];
            st.last = [None, None];
        }
        for rs in &self.recv_state {
            *rs.borrow_mut() = RecvState::default();
        }
        {
            let mut c = sh.coord.lock();
            // Realign the barrier generation: survivors may disagree on how
            // many barriers they entered before the failure (one can error
            // out *inside* a barrier another never reached), and a skewed
            // counter would deadlock the first post-recovery barrier.
            c.bar[me] = 0;
            c.rec_cleared[me] = target;
            sh.coord_cv.notify_all();
            loop {
                let all = (0..n).all(|r| {
                    !sh.alive[r].load(Ordering::SeqCst) || c.rec_cleared[r] >= target
                });
                if all {
                    break;
                }
                if start.elapsed() > deadline {
                    return Err(CommError::RecoveryFailed {
                        rank: me,
                        reason: "rendezvous (clear phase) timed out",
                    });
                }
                self.beat();
                sh.coord_cv.wait_for(&mut c, WAIT_SLICE);
            }
        }

        let survivors: Vec<usize> = (0..n)
            .filter(|&r| sh.alive[r].load(Ordering::SeqCst))
            .collect();
        if survivors.is_empty() {
            return Err(CommError::RecoveryFailed { rank: me, reason: "no survivors" });
        }
        if survivors[0] == me {
            FaultStats::inc(&sh.stats.recoveries);
            sh.rec_flag.store(false, Ordering::SeqCst);
            sh.rec_epoch.store(target, Ordering::SeqCst);
            sh.coord_cv.notify_all();
        } else {
            while sh.rec_epoch.load(Ordering::SeqCst) < target {
                if start.elapsed() > deadline {
                    return Err(CommError::RecoveryFailed {
                        rank: me,
                        reason: "epoch publication timed out",
                    });
                }
                std::thread::sleep(Duration::from_micros(200));
            }
        }
        *self.group.borrow_mut() = survivors.clone();
        Ok(survivors)
    }
}

/// All-rank failure summary from a fabric launch: every rank that panicked,
/// with its panic message (not just the first in join order).
#[derive(Debug)]
pub struct FabricError {
    /// `(rank, panic message)` for every failed rank, ascending by rank.
    pub failures: Vec<(usize, String)>,
}

impl std::fmt::Display for FabricError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "{} rank(s) failed:", self.failures.len())?;
        for (rank, msg) in &self.failures {
            write!(f, "\n  rank {rank}: {msg}")?;
        }
        Ok(())
    }
}

impl std::error::Error for FabricError {}

/// Successful fabric launch: per-rank results plus the end-of-run fault
/// report.
#[derive(Debug)]
pub struct FabricRun<T> {
    /// Per-rank closure results, rank order.
    pub results: Vec<T>,
    /// Snapshot of the fabric's fault/robustness counters.
    pub faults: FaultReport,
}

/// Configures and launches a fixed-size group of ranks.
pub struct FabricBuilder {
    nranks: usize,
    config: CommConfig,
    plan: Option<FaultPlan>,
}

impl FabricBuilder {
    /// Override the deadline/retry configuration.
    pub fn config(mut self, config: CommConfig) -> FabricBuilder {
        self.config = config;
        self
    }

    /// Inject faults per `plan` (deterministic, seed-replayable).
    pub fn faults(mut self, plan: FaultPlan) -> FabricBuilder {
        self.plan = Some(plan);
        self
    }

    /// Run `f(comm)` on every rank (one OS thread each); returns the
    /// per-rank results in rank order plus the fault report, or — if any
    /// rank panicked — a [`FabricError`] listing *every* failed rank.
    pub fn launch<T, F>(self, f: F) -> Result<FabricRun<T>, FabricError>
    where
        T: Send,
        F: Fn(Comm) -> T + Send + Sync,
    {
        let nranks = self.nranks.max(1);
        let now = Instant::now();
        let shared = Arc::new(Shared {
            nranks,
            links: (0..nranks * nranks)
                .map(|_| Link {
                    state: Mutex::new(LinkState::default()),
                    cv: Condvar::new(),
                })
                .collect(),
            coord: Mutex::new(Coord {
                bar: vec![0; nranks],
                rec_arrived: vec![0; nranks],
                rec_cleared: vec![0; nranks],
            }),
            coord_cv: Condvar::new(),
            alive: (0..nranks).map(|_| AtomicBool::new(true)).collect(),
            done: (0..nranks).map(|_| AtomicBool::new(false)).collect(),
            heartbeat: (0..nranks).map(|_| AtomicU64::new(0)).collect(),
            last_beat: (0..nranks).map(|_| Mutex::new(now)).collect(),
            rec_flag: AtomicBool::new(false),
            rec_epoch: AtomicU64::new(0),
            stats: FaultStats::default(),
            plan: self.plan,
            config: self.config,
        });

        let comms: Vec<Comm> = (0..nranks)
            .map(|rank| Comm {
                rank,
                shared: Arc::clone(&shared),
                group: RefCell::new((0..nranks).collect()),
                recv_state: (0..nranks).map(|_| RefCell::new(RecvState::default())).collect(),
            })
            .collect();

        let f = &f;
        let outcomes: Vec<Result<T, Box<dyn std::any::Any + Send>>> =
            std::thread::scope(|scope| {
                let handles: Vec<_> = comms
                    .into_iter()
                    .map(|comm| {
                        let shared = Arc::clone(&shared);
                        scope.spawn(move || {
                            let rank = comm.rank;
                            let guard = RankGuard { shared, rank, armed: true };
                            let out = f(comm);
                            guard.finish();
                            out
                        })
                    })
                    .collect();
                handles.into_iter().map(|h| h.join()).collect()
            });

        let mut failures = Vec::new();
        let mut results = Vec::with_capacity(nranks);
        for (rank, out) in outcomes.into_iter().enumerate() {
            match out {
                Ok(v) => results.push(v),
                Err(p) => failures.push((rank, panic_message(&p))),
            }
        }
        if failures.is_empty() {
            Ok(FabricRun { results, faults: shared.stats.report() })
        } else {
            Err(FabricError { failures })
        }
    }
}

/// Marks a rank failed if its thread unwinds, and done either way — so
/// peers detect panics exactly like kills, and cleanly-exited ranks are
/// never declared stale.
struct RankGuard {
    shared: Arc<Shared>,
    rank: usize,
    armed: bool,
}

impl RankGuard {
    fn finish(mut self) {
        self.armed = false;
        self.shared.mark_done(self.rank);
    }
}

impl Drop for RankGuard {
    fn drop(&mut self) {
        if self.armed {
            self.shared.declare_dead(self.rank);
            self.shared.mark_done(self.rank);
            for l in &self.shared.links {
                l.cv.notify_all();
            }
        }
    }
}

fn panic_message(p: &Box<dyn std::any::Any + Send>) -> String {
    if let Some(s) = p.downcast_ref::<&str>() {
        (*s).to_string()
    } else if let Some(s) = p.downcast_ref::<String>() {
        s.clone()
    } else {
        "non-string panic payload".to_string()
    }
}

/// Launches a fixed-size group of ranks and runs a closure on each.
pub struct Fabric;

impl Fabric {
    /// Configure a fabric (deadlines, retry budgets, fault injection).
    pub fn builder(nranks: usize) -> FabricBuilder {
        FabricBuilder {
            nranks,
            config: CommConfig::default(),
            plan: None,
        }
    }

    /// Run `f(comm)` on `nranks` ranks with default configuration and no
    /// fault injection; returns the per-rank results in rank order.
    ///
    /// # Panics
    /// Panics if any rank panicked, listing **every** failed rank.
    pub fn run<T, F>(nranks: usize, f: F) -> Vec<T>
    where
        T: Send,
        F: Fn(Comm) -> T + Send + Sync,
    {
        match Self::builder(nranks).launch(f) {
            Ok(run) => run.results,
            Err(e) => panic!("{e}"),
        }
    }

    /// Like [`Fabric::run`] but returns rank panics as a [`FabricError`]
    /// listing every failed rank instead of panicking.
    pub fn try_run<T, F>(nranks: usize, f: F) -> Result<Vec<T>, FabricError>
    where
        T: Send,
        F: Fn(Comm) -> T + Send + Sync,
    {
        Self::builder(nranks).launch(f).map(|run| run.results)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn single_rank_runs() {
        let out = Fabric::run(1, |comm| {
            assert_eq!(comm.rank(), 0);
            assert_eq!(comm.nranks(), 1);
            comm.barrier().unwrap();
            comm.allreduce_sum(&[2.0, 3.0]).unwrap()
        });
        assert_eq!(out, vec![vec![2.0, 3.0]]);
    }

    #[test]
    fn ping_pong() {
        let out = Fabric::run(2, |comm| {
            if comm.rank() == 0 {
                comm.send(1, 7, vec![1.0, 2.0]).unwrap();
                comm.recv(1, 8).unwrap()
            } else {
                let got = comm.recv(0, 7).unwrap();
                comm.send(0, 8, got.iter().map(|v| v * 10.0).collect()).unwrap();
                vec![]
            }
        });
        assert_eq!(out[0], vec![10.0, 20.0]);
    }

    #[test]
    fn allreduce_sums_across_ranks() {
        let out = Fabric::run(4, |comm| {
            comm.allreduce_sum(&[comm.rank() as f64, 1.0]).unwrap()
        });
        for r in out {
            assert_eq!(r, vec![6.0, 4.0]);
        }
    }

    #[test]
    fn allreduce_is_deterministic_in_rank_order() {
        // Values chosen so different summation orders give different bits.
        let vals = [0.1, 0.2, 0.3, 0.7, 1e-17, -0.3];
        let run = || {
            Fabric::run(vals.len(), |comm| {
                comm.allreduce_sum(&[vals[comm.rank()]]).unwrap()
            })[0][0]
        };
        let expect = vals.iter().fold(0.0f64, |a, &v| a + v);
        let got = run();
        assert_eq!(got.to_bits(), expect.to_bits(), "rank-order accumulation");
        assert_eq!(run().to_bits(), got.to_bits(), "repeatable");
    }

    #[test]
    fn barriers_synchronize() {
        use std::sync::atomic::{AtomicUsize, Ordering};
        let counter = AtomicUsize::new(0);
        Fabric::run(4, |comm| {
            counter.fetch_add(1, Ordering::SeqCst);
            comm.barrier().unwrap();
            // After the barrier every rank must observe all increments.
            assert_eq!(counter.load(Ordering::SeqCst), 4);
        });
    }

    #[test]
    #[should_panic(expected = "TagMismatch")]
    fn tag_mismatch_is_a_protocol_bug() {
        Fabric::run(2, |comm| {
            if comm.rank() == 0 {
                comm.send(1, 1, vec![]).unwrap();
            } else {
                comm.recv(0, 2).unwrap();
            }
        });
    }

    #[test]
    fn many_ranks_mesh_traffic() {
        // Every rank sends its rank id to every other rank.
        let out = Fabric::run(5, |comm| {
            for to in 0..comm.nranks() {
                if to != comm.rank() {
                    comm.send(to, 42, vec![comm.rank() as f64]).unwrap();
                }
            }
            let mut sum = 0.0;
            for from in 0..comm.nranks() {
                if from != comm.rank() {
                    sum += comm.recv(from, 42).unwrap()[0];
                }
            }
            sum
        });
        for (rank, sum) in out.iter().enumerate() {
            assert_eq!(*sum, (0..5).sum::<usize>() as f64 - rank as f64);
        }
    }

    #[test]
    fn reserved_tag_rejected_on_send_and_recv() {
        Fabric::run(2, |comm| {
            let bad = COLLECTIVE_TAG_BIT | 5;
            assert_eq!(
                comm.send((comm.rank() + 1) % 2, bad, vec![]),
                Err(CommError::ReservedTag { tag: bad })
            );
            assert_eq!(
                comm.recv((comm.rank() + 1) % 2, bad),
                Err(CommError::ReservedTag { tag: bad })
            );
        });
    }

    #[test]
    fn user_tags_below_reserved_bit_still_work_alongside_collectives() {
        // u64::MAX-1 / -2 were the old ad-hoc collective tags; user traffic
        // on *unreserved* high tag values must now coexist with allreduce
        // (per-link delivery stays sequenced, so the user message is
        // received before the collective reuses the same link).
        let tag = (1u64 << 63) - 1; // all low 63 bits set, top bit clear
        let out = Fabric::run(2, |comm| {
            if comm.rank() == 0 {
                comm.send(1, tag, vec![5.0]).unwrap();
            } else {
                let got = comm.recv(0, tag).unwrap();
                assert_eq!(got, vec![5.0]);
            }
            comm.allreduce_sum(&[1.0]).unwrap()[0]
        });
        assert_eq!(out, vec![2.0, 2.0]);
    }

    #[test]
    fn every_panicked_rank_is_reported() {
        let err = Fabric::try_run(4, |comm| {
            if comm.rank() % 2 == 1 {
                panic!("rank {} exploded", comm.rank());
            }
            comm.rank()
        })
        .expect_err("two ranks panicked");
        let ranks: Vec<usize> = err.failures.iter().map(|(r, _)| *r).collect();
        assert_eq!(ranks, vec![1, 3], "both failed ranks reported");
        assert!(err.failures[0].1.contains("rank 1 exploded"));
        assert!(err.failures[1].1.contains("rank 3 exploded"));
        let msg = err.to_string();
        assert!(msg.contains("rank 1") && msg.contains("rank 3"), "{msg}");
    }

    #[test]
    fn recv_with_no_send_times_out() {
        let cfg = CommConfig {
            recv_deadline: Duration::from_millis(120),
            ..CommConfig::default()
        };
        let out = Fabric::builder(2)
            .config(cfg)
            .launch(|comm| {
                if comm.rank() == 0 {
                    comm.recv(1, 9)
                } else {
                    // Keep rank 1 alive (but silent) past rank 0's deadline
                    // so the error is a true deadline expiry, not peer-exit.
                    std::thread::sleep(Duration::from_millis(160));
                    Ok(vec![])
                }
            })
            .unwrap();
        match &out.results[0] {
            Err(CommError::Timeout { rank: 0, from: 1, tag: 9, .. }) => {}
            other => panic!("expected Timeout, got {other:?}"),
        }
        assert!(out.faults.timeouts >= 1);
    }

    #[test]
    fn dropped_messages_are_retried_transparently() {
        let plan = FaultPlan::drop_first(3);
        let run = Fabric::builder(2)
            .faults(plan)
            .launch(|comm| {
                if comm.rank() == 0 {
                    comm.send(1, 1, vec![4.25]).unwrap();
                    Vec::new()
                } else {
                    comm.recv(0, 1).unwrap()
                }
            })
            .unwrap();
        assert_eq!(run.results[1], vec![4.25]);
        assert_eq!(run.faults.dropped, 3);
        assert_eq!(run.faults.retries, 3);
    }

    #[test]
    fn drops_beyond_retry_budget_error_out() {
        let cfg = CommConfig { max_retries: 2, ..CommConfig::default() };
        let plan = FaultPlan::drop_first(10);
        let run = Fabric::builder(2)
            .config(cfg)
            .faults(plan)
            .launch(|comm| {
                if comm.rank() == 0 {
                    comm.send(1, 1, vec![1.0])
                } else {
                    match comm.recv(0, 1) {
                        Ok(_) => panic!("message should never arrive"),
                        Err(_) => Ok(()),
                    }
                }
            })
            .unwrap();
        match &run.results[0] {
            Err(CommError::RetriesExhausted { attempts: 3, to: 1, .. }) => {}
            other => panic!("expected RetriesExhausted, got {other:?}"),
        }
    }

    #[test]
    fn duplicates_delays_and_replays_are_masked() {
        // High shape-fault rates, no drops: a 100-message ping stream must
        // come through in order and intact.
        let plan = FaultPlan {
            seed: 11,
            drop_p: 0.0,
            dup_p: 0.4,
            delay_p: 0.3,
            replay_p: 0.2,
            max_drops_per_message: 0,
            kill: None,
        };
        let run = Fabric::builder(2)
            .faults(plan)
            .launch(|comm| {
                if comm.rank() == 0 {
                    for i in 0..100u64 {
                        comm.send(1, 5, vec![i as f64]).unwrap();
                    }
                    Vec::new()
                } else {
                    (0..100u64).map(|_| comm.recv(0, 5).unwrap()[0]).collect()
                }
            })
            .unwrap();
        let expect: Vec<f64> = (0..100).map(|i| i as f64).collect();
        assert_eq!(run.results[1], expect, "stream corrupted by shape faults");
        assert!(run.faults.duplicated > 10, "{:?}", run.faults);
        assert!(run.faults.delayed > 5, "{:?}", run.faults);
        assert!(run.faults.dup_discarded >= run.faults.duplicated);
    }

    #[test]
    fn stale_heartbeat_is_detected_as_rank_failure() {
        let cfg = CommConfig {
            recv_deadline: Duration::from_secs(5),
            heartbeat_timeout: Duration::from_millis(80),
            ..CommConfig::default()
        };
        let run = Fabric::builder(2)
            .config(cfg)
            .launch(|comm| {
                if comm.rank() == 0 {
                    comm.recv(1, 1).map(|_| ())
                } else {
                    // Go silent well past the heartbeat deadline.
                    std::thread::sleep(Duration::from_millis(400));
                    // Once fenced, this rank's own operations must refuse.
                    comm.send(0, 1, vec![1.0])
                }
            })
            .unwrap();
        match &run.results[0] {
            Err(CommError::RankFailed { rank: 0, failed: 1 }) => {}
            other => panic!("expected RankFailed, got {other:?}"),
        }
        match &run.results[1] {
            Err(CommError::Fenced { rank: 1 }) => {}
            other => panic!("expected Fenced, got {other:?}"),
        }
    }

    #[test]
    fn kill_and_recover_shrinks_group_and_collectives_still_work() {
        let cfg = CommConfig {
            recv_deadline: Duration::from_millis(500),
            ..CommConfig::default()
        };
        let run = Fabric::builder(3)
            .config(cfg)
            .launch(|comm| {
                if comm.rank() == 1 {
                    let _ = comm.kill_self();
                    return Err(CommError::Fenced { rank: 1 });
                }
                // Survivors: detect the failure via a collective, re-form,
                // then allreduce over the shrunken group.
                let err = comm.allreduce_sum(&[1.0]).expect_err("rank 1 is dead");
                assert!(matches!(err, CommError::RankFailed { .. }), "{err:?}");
                let survivors = comm.recover()?;
                assert_eq!(survivors, vec![0, 2]);
                let sum = comm.allreduce_sum(&[comm.rank() as f64])?;
                Ok(sum[0])
            })
            .unwrap();
        assert_eq!(run.results[0], Ok(2.0));
        assert_eq!(run.results[2], Ok(2.0));
        assert!(matches!(run.results[1], Err(CommError::Fenced { rank: 1 })));
        assert_eq!(run.faults.rank_failures, 1);
        assert_eq!(run.faults.recoveries, 1);
    }

    #[test]
    fn try_recv_polls_without_blocking() {
        let out = Fabric::run(2, |comm| {
            if comm.rank() == 0 {
                std::thread::sleep(Duration::from_millis(30));
                comm.send(1, 3, vec![7.5]).unwrap();
                0.0
            } else {
                // The first polls find nothing (sender is asleep) but must
                // return immediately instead of blocking.
                let mut polls = 0u32;
                loop {
                    match comm.try_recv(0, 3).unwrap() {
                        Some(payload) => {
                            assert!(polls > 0, "first poll should miss");
                            return payload[0];
                        }
                        None => {
                            polls += 1;
                            std::thread::sleep(Duration::from_millis(1));
                        }
                    }
                }
            }
        });
        assert_eq!(out[1], 7.5);
    }

    #[test]
    fn try_recv_delivers_in_sequence_despite_shape_faults() {
        let plan = FaultPlan {
            seed: 23,
            drop_p: 0.0,
            dup_p: 0.4,
            delay_p: 0.3,
            replay_p: 0.2,
            max_drops_per_message: 0,
            kill: None,
        };
        let run = Fabric::builder(2)
            .faults(plan)
            .launch(|comm| {
                if comm.rank() == 0 {
                    for i in 0..50u64 {
                        comm.send(1, 5, vec![i as f64]).unwrap();
                    }
                    Vec::new()
                } else {
                    let mut got = Vec::new();
                    while got.len() < 50 {
                        match comm.try_recv(0, 5).unwrap() {
                            Some(p) => got.push(p[0]),
                            None => std::thread::sleep(Duration::from_micros(200)),
                        }
                    }
                    got
                }
            })
            .unwrap();
        let expect: Vec<f64> = (0..50).map(|i| i as f64).collect();
        assert_eq!(run.results[1], expect, "polled stream corrupted");
    }

    #[test]
    fn user_and_collective_channels_interleave() {
        // Start a deferred reduce (queuing gather envelopes on the links),
        // then run a ring of user traffic on the *same* links before the
        // harvest. With a single sequence channel the ring recv would trip
        // TagMismatch on the queued gather; separate channels must mask it.
        let n = 3;
        let out = Fabric::run(n, |comm| {
            let p = comm.iallreduce_sum(&[comm.rank() as f64]).unwrap();
            let next = (comm.rank() + 1) % n;
            let prev = (comm.rank() + n - 1) % n;
            comm.send(next, 5, vec![comm.rank() as f64]).unwrap();
            let got = comm.recv(prev, 5).unwrap();
            assert_eq!(got, vec![prev as f64]);
            comm.complete_reduce(p).unwrap()[0]
        });
        assert_eq!(out, vec![3.0; 3]);
    }

    #[test]
    fn iallreduce_matches_blocking_bitwise() {
        // Values chosen so different summation orders give different bits.
        let vals = [0.1, 0.2, 0.3, 0.7, 1e-17, -0.3];
        let blocking = Fabric::run(vals.len(), |comm| {
            comm.allreduce_sum(&[vals[comm.rank()]]).unwrap()[0]
        });
        let deferred = Fabric::run(vals.len(), |comm| {
            let p = comm.iallreduce_sum(&[vals[comm.rank()]]).unwrap();
            comm.complete_reduce(p).unwrap()[0]
        });
        for (b, d) in blocking.iter().zip(&deferred) {
            assert_eq!(b.to_bits(), d.to_bits(), "deferred reduce diverged");
        }
    }

    #[test]
    fn allreduce_max_is_exact_across_ranks() {
        let vals = [0.3, -1.5, 2.25, 0.7];
        let out = Fabric::run(vals.len(), |comm| {
            comm.allreduce_max(&[vals[comm.rank()]]).unwrap()[0]
        });
        for v in out {
            assert_eq!(v.to_bits(), 2.25f64.to_bits());
        }
    }

    #[test]
    fn pending_reduce_does_not_cross_recovery_epochs() {
        let cfg = CommConfig {
            recv_deadline: Duration::from_millis(500),
            ..CommConfig::default()
        };
        let run = Fabric::builder(3)
            .config(cfg)
            .launch(|comm| {
                if comm.rank() == 1 {
                    let _ = comm.kill_self();
                    return Err(CommError::Fenced { rank: 1 });
                }
                let p = comm.iallreduce_sum(&[1.0])?;
                while !comm.recovery_pending() {
                    std::thread::sleep(Duration::from_millis(1));
                }
                comm.recover()?;
                // The pre-recovery reduce must refuse to complete: its
                // gather traffic was purged with the dead epoch.
                match comm.complete_reduce(p) {
                    Err(CommError::RecoveryFailed { reason, .. }) => {
                        assert!(reason.contains("epoch"), "{reason}");
                    }
                    other => panic!("stale reduce completed: {other:?}"),
                }
                // A fresh reduce over the shrunken group works.
                Ok(comm.allreduce_sum(&[1.0])?[0])
            })
            .unwrap();
        assert_eq!(run.results[0], Ok(2.0));
        assert_eq!(run.results[2], Ok(2.0));
    }

    #[test]
    fn recovery_discards_stale_in_flight_traffic() {
        let cfg = CommConfig {
            recv_deadline: Duration::from_millis(500),
            ..CommConfig::default()
        };
        let run = Fabric::builder(3)
            .config(cfg)
            .launch(|comm| {
                match comm.rank() {
                    1 => {
                        let _ = comm.kill_self();
                        Err(CommError::Fenced { rank: 1 })
                    }
                    0 => {
                        // Pre-failure message that rank 2 never receives
                        // before recovery: must be purged, not delivered.
                        comm.send(2, 7, vec![99.0]).unwrap();
                        while !comm.recovery_pending() {
                            std::thread::sleep(Duration::from_millis(1));
                        }
                        comm.recover()?;
                        comm.send(2, 8, vec![1.0])?;
                        Ok(0.0)
                    }
                    _ => {
                        while !comm.recovery_pending() {
                            std::thread::sleep(Duration::from_millis(1));
                        }
                        comm.recover()?;
                        // First (and only) message after re-formation must
                        // be the fresh epoch's seq 0 with tag 8.
                        let got = comm.recv(0, 8)?;
                        Ok(got[0])
                    }
                }
            })
            .unwrap();
        assert_eq!(run.results[2], Ok(1.0), "stale pre-recovery message leaked");
    }
}
