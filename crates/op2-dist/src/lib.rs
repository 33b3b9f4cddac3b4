//! # op2-dist — distributed-memory execution of unstructured-mesh marches
//!
//! OP2's production configuration runs MPI across nodes with OpenMP (or, in
//! the paper's vision, HPX) within each node. This crate rebuilds the
//! distributed layer for the Rust port:
//!
//! * [`fabric`] — an in-process message-passing fabric (ranks are OS
//!   threads; sequenced point-to-point links; barrier; deterministic
//!   rank-ordered `allreduce`). It stands in for MPI per the reproduction's
//!   substitution rules: same communication semantics, no network.
//! * [`partition`] — strip partitioning of the mesh into per-rank local
//!   meshes with **import halos**: each rank owns a contiguous range of
//!   cells, executes the edges anchored at its owned cells, and keeps local
//!   copies of the neighbour cells those edges read (OP2's import/export
//!   halo lists).
//! * the **march engine** (private `march` module) — one app-agnostic
//!   time-march, as in OP2's MPI backend: per stage a **forward exchange**
//!   (owners push fresh state to the ranks importing it), local flux
//!   accumulation with redundant halo execution, a **reverse exchange** (halo
//!   residual contributions flow back to owners and are added in
//!   ascending-rank order, keeping runs deterministic), the owned-cell
//!   update, and an `allreduce` of the RMS. With
//!   [`exec::DistOptions::overlap`] the march is **futurized**: interior
//!   edges execute while halo receives are outstanding, each per-peer halo
//!   block fires as its message lands (reverse sends leave early), and the
//!   reductions are pipelined through the fabric's non-blocking `iallreduce`
//!   — bit-identical to the bulk-synchronous schedule because halo-edge
//!   contributions route through per-group scratch merged in canonical order
//!   either way. The engine also owns checkpoint commits, rank-kill
//!   recovery, kernel-fault retry and durable restart.
//! * [`exec`] and [`swe`] — the two applications on the engine, each nothing
//!   but kernel glue over index lists: Airfoil (4-component state, two
//!   stages, redundant halo `adt`) and shallow-water (3-component state,
//!   adaptive `dt` via a pipelined max-reduction). The halo machinery is
//!   app-agnostic, so both inherit every schedule and the whole recovery
//!   ladder. [`exec`] also defines the option/report/error types they share.
//! * [`hybrid`] — Airfoil with an OP2-HPX backend *inside* each rank: each
//!   rank runs the app's own `AirfoilLoops` over its local slice
//!   ([`partition::LocalMesh::mesh_data`]), owned-only work and the
//!   overlapped `adt_calc` split as `ParLoop::window`s, on the engine's
//!   exchange, poll and gather helpers.
//!
//! Determinism: a given `(mesh, nranks)` always produces bit-identical
//! results; with `nranks = 1` the execution order equals the single-node
//! *natural* order, so results match `op2_core::serial::execute_natural`
//! exactly. Across different rank counts, per-cell accumulation order
//! changes, so agreement is to floating-point rounding — the same contract
//! real OP2/MPI offers.
//!
//! ## Fault model & recovery
//!
//! The fabric is hardened against an adversarial network and against rank
//! loss; the error-handling spine is the [`fabric::CommError`] result type
//! threaded through every fabric operation and up through
//! [`exec::run_distributed_opts`] / [`hybrid::run_hybrid_opts`]:
//!
//! * [`fault`] — a seeded, deterministic fault-injection shim
//!   ([`fault::FaultPlan`]) that drops, duplicates, delays, reorders and
//!   replays messages, and can kill a rank mid-march. Decisions are pure
//!   functions of `(seed, epoch, from, to, seq, attempt)`, so a failing run
//!   replays exactly from its printed seed (`FAULT_SEED`, the same
//!   discipline as the deterministic scheduler's `DET_SEED`).
//! * Protocol hardening in [`fabric`] — per-link sequence numbers with a
//!   receive-side reorder buffer and duplicate/stale discard; synchronous
//!   delivery as the ack with bounded retransmission + exponential backoff
//!   on drops; deadlines on every blocking operation (a `recv` with no
//!   matching send fails with [`fabric::CommError::Timeout`], never hangs);
//!   heartbeat-based rank-failure detection — all decided by the fabric's
//!   one liveness ladder (see the [`fabric`] module docs).
//! * [`checkpoint`] — periodic owned-cell snapshots
//!   ([`checkpoint::CheckpointStore`]). On a detected rank loss the
//!   survivors re-form the fabric ([`fabric::Comm::recover`]), re-partition
//!   the mesh over the survivor set
//!   ([`partition::Partition::strips_over`]), restore from the newest
//!   *consistent* checkpoint, and continue the march; the run report counts
//!   faults injected, retries taken, and recoveries performed
//!   ([`fault::FaultReport`]).
//! * Durable restart — [`checkpoint::CheckpointStore::open_durable`] backs
//!   the snapshots with the crash-consistent `op2-store` write-ahead log,
//!   adding the bottom rung of the recovery ladder: local kernel retry →
//!   in-process checkpoint recovery (rank death) → **restart from disk**
//!   (whole-process death, [`exec::resume_distributed_opts`] /
//!   [`swe::resume_swe_distributed_opts`]). Storage faults (torn writes,
//!   bit flips, `ENOSPC`) are injected deterministically from
//!   `STORE_FAULT_SEED`; replay always restores the newest *verified*
//!   consistent boundary, and the deterministic march makes the resumed
//!   run bit-identical to an uninterrupted one.

#![warn(missing_docs)]

pub mod checkpoint;
pub mod exec;
pub mod fabric;
pub mod fault;
pub mod hybrid;
mod march;
pub mod partition;
pub mod swe;

pub use checkpoint::{CheckpointError, CheckpointStore, CkptStats};
pub use exec::{
    resume_distributed_opts, run_distributed_opts, DistError, DistOptions, DistReport, JitterSpec,
    KernelFaultSpec, Recovery,
};
pub use fabric::{
    Comm, CommConfig, CommError, Fabric, FabricError, PendingReduce, COLLECTIVE_TAG_BIT,
};
pub use fault::{FaultPlan, FaultReport, KillSpec};
pub use hybrid::run_hybrid_opts;
pub use partition::{
    cell_centroids, total_halo_cells, HaloGroup, HaloPlan, LocalMesh, Partition,
};
pub use swe::{resume_swe_distributed_opts, run_swe_distributed_opts, SweDistReport};
