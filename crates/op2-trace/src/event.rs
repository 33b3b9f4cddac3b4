//! The typed event model shared by the recorder and the assembler.

/// Sentinel for "no interned name attached to this event".
pub const NO_NAME: u32 = u32::MAX;

/// Sentinel instance id for "no loop instance" (instance ids start at 1).
pub const NO_INSTANCE: u64 = 0;

/// What happened. Span kinds carry `start_ns < end_ns`; instant kinds carry
/// `start_ns == end_ns`.
///
/// Each kind stands in for an HPX performance counter (see DESIGN.md §
/// "Observability"): e.g. [`EventKind::Task`] for
/// `/threads/count/cumulative`, [`EventKind::Park`] for `/threads/idle-rate`.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
#[repr(u8)]
pub enum EventKind {
    /// A task was submitted to a pool (instant).
    TaskSpawn = 0,
    /// A task executed on a worker (span).
    Task = 1,
    /// A successful steal from a sibling worker's deque (instant).
    Steal = 2,
    /// A worker (or helper) slept because no task was runnable (span).
    Park = 3,
    /// A parallel loop started executing; `name` = loop name, `a` = loop
    /// instance id, `b` = interned executor name (instant; paired with
    /// [`EventKind::LoopEnd`] by the assembler).
    LoopBegin = 4,
    /// A parallel loop finished; `a` = loop instance id (instant).
    LoopEnd = 5,
    /// A thread was held at an implicit end-of-loop barrier (span). Tagged
    /// spans (`a` = loop instance) come from synchronous executors; untagged
    /// spans (`a` = 0) are raw latch waits inside loop bodies (per-color
    /// barriers), reported separately.
    BarrierWait = 6,
    /// A thread blocked waiting for a future/dataflow dependency (span).
    /// Tagged spans (`a` = awaited loop instance) come from `LoopHandle`
    /// waits; untagged spans are raw `Future::get` waits.
    DepWait = 7,
    /// Dependency edge `a → b` between two loop instances (instant): the
    /// measured task graph the critical path is computed over.
    DepEdge = 8,
    /// Fabric point-to-point send; `a` = packed (from, to) ranks, `b` =
    /// packed (epoch, seq) (span covering retries and backoff).
    FabricSend = 9,
    /// Fabric point-to-point receive; same payload packing (span).
    FabricRecv = 10,
    /// Fabric barrier; `a` = packed (rank, group size), `b` = packed
    /// (epoch, generation) (span).
    FabricBarrier = 11,
    /// Fabric allreduce; `a` = packed (rank, group size), `b` = packed
    /// (epoch, 0) (span).
    FabricAllreduce = 12,
    /// Free-form marker (auto-partitioner probe, when_all joins, …).
    Mark = 13,
    /// A transactional loop rolled its write-set back; `name` = loop name,
    /// `a` = number of dats restored (instant).
    Rollback = 14,
    /// A supervisor re-attempted a failed loop; `name` = loop name, `a` =
    /// attempt number within the rung, `b` = degradation-ladder rung index
    /// (instant).
    Retry = 15,
    /// A dataflow node was poisoned by an upstream failure without running;
    /// `name` = loop name, `a` = loop instance id (instant).
    Poison = 16,
    /// A rank idled waiting for halo traffic while overlapped boundary work
    /// was still gated on outstanding receives; `a` = packed (rank, pending
    /// peers) (span). Attributed separately from barrier-wait so the
    /// comm/compute-overlap win is measurable.
    HaloWait = 17,
    /// A service job executed; `name` = job name, `a` = job id, `b` =
    /// interned tenant name (span). Every loop/rollback/retry event inside
    /// the span belongs to that job — the per-job scope `op2-serve` reports.
    Job = 18,
    /// A service shed a submission under overload; `name` = tenant, `a` =
    /// rejection code (0 queue-full, 1 quota, 2 shutdown), `b` = queue depth
    /// at rejection (instant).
    Shed = 19,
    /// A durable checkpoint commit hit the store; `name` = store label,
    /// `a` = packed (rank, iteration), `b` = bytes appended (span covering
    /// serialization + WAL append + fsync). IO wait attributed separately
    /// from comm wait so durability overhead is measurable.
    CkptIo = 20,
    /// A service journal record was made durable; `name` = job name, `a` =
    /// journal record kind (0 admitted, 1 started, 2 terminal), `b` = bytes
    /// appended (span).
    JournalIo = 21,
}

impl EventKind {
    /// Stable lowercase label (used as the Chrome-trace `cat`).
    pub fn label(self) -> &'static str {
        match self {
            EventKind::TaskSpawn => "spawn",
            EventKind::Task => "task",
            EventKind::Steal => "steal",
            EventKind::Park => "park",
            EventKind::LoopBegin => "loop-begin",
            EventKind::LoopEnd => "loop-end",
            EventKind::BarrierWait => "barrier-wait",
            EventKind::DepWait => "dep-wait",
            EventKind::DepEdge => "dep-edge",
            EventKind::FabricSend => "fabric-send",
            EventKind::FabricRecv => "fabric-recv",
            EventKind::FabricBarrier => "fabric-barrier",
            EventKind::FabricAllreduce => "fabric-allreduce",
            EventKind::Mark => "mark",
            EventKind::Rollback => "rollback",
            EventKind::Retry => "retry",
            EventKind::Poison => "poison",
            EventKind::HaloWait => "halo-wait",
            EventKind::Job => "job",
            EventKind::Shed => "shed",
            EventKind::CkptIo => "ckpt-io",
            EventKind::JournalIo => "journal-io",
        }
    }

    /// Decode from the ring-buffer representation.
    pub(crate) fn from_u8(v: u8) -> Option<EventKind> {
        Some(match v {
            0 => EventKind::TaskSpawn,
            1 => EventKind::Task,
            2 => EventKind::Steal,
            3 => EventKind::Park,
            4 => EventKind::LoopBegin,
            5 => EventKind::LoopEnd,
            6 => EventKind::BarrierWait,
            7 => EventKind::DepWait,
            8 => EventKind::DepEdge,
            9 => EventKind::FabricSend,
            10 => EventKind::FabricRecv,
            11 => EventKind::FabricBarrier,
            12 => EventKind::FabricAllreduce,
            13 => EventKind::Mark,
            14 => EventKind::Rollback,
            15 => EventKind::Retry,
            16 => EventKind::Poison,
            17 => EventKind::HaloWait,
            18 => EventKind::Job,
            19 => EventKind::Shed,
            20 => EventKind::CkptIo,
            21 => EventKind::JournalIo,
            _ => return None,
        })
    }

    /// True for kinds recorded with `start_ns == end_ns`.
    pub fn is_instant(self) -> bool {
        matches!(
            self,
            EventKind::TaskSpawn
                | EventKind::Steal
                | EventKind::LoopBegin
                | EventKind::LoopEnd
                | EventKind::DepEdge
                | EventKind::Rollback
                | EventKind::Retry
                | EventKind::Poison
                | EventKind::Shed
        )
    }
}

/// One recorded event, as surfaced by [`crate::Timeline`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Event {
    /// What happened.
    pub kind: EventKind,
    /// Recording thread (dense ids assigned in registration order; the main
    /// thread is usually 0 and pool workers follow).
    pub tid: u32,
    /// Interned name ([`crate::Timeline::name_of`]), or [`NO_NAME`].
    pub name: u32,
    /// Kind-specific payload (usually a loop instance id).
    pub a: u64,
    /// Kind-specific payload.
    pub b: u64,
    /// Start, ns since the process trace epoch.
    pub start_ns: u64,
    /// End, ns since the process trace epoch (== start for instants).
    pub end_ns: u64,
}

impl Event {
    /// Span duration (zero for instants).
    pub fn dur_ns(&self) -> u64 {
        self.end_ns.saturating_sub(self.start_ns)
    }
}
