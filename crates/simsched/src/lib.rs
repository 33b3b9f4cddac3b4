//! # op2-simsched — a virtual-time multicore scheduling simulator
//!
//! The paper's evaluation machine is a 2-socket, 16-core Xeon E5 node with
//! hyper-threading (32 hardware threads). To regenerate its strong- and
//! weak-scaling figures **deterministically on any host** (including a
//! single-core CI box), this crate simulates the execution of the Airfoil
//! loop schedule on a parameterized machine model with a discrete-event
//! list scheduler:
//!
//! * [`machine::MachineParams`] — worker count, hyper-thread throughput
//!   factor for workers beyond the physical cores, per-task dispatch
//!   overhead, and the per-parallel-region fork/barrier/latch cost models;
//! * [`workload`] — per-block task costs derived from the **real** Airfoil
//!   mesh, plans, and coloring (crate `op2-airfoil` / `op2-core`), so block
//!   counts, color structure, and load imbalance are the genuine article;
//! * [`methods`] — task-graph builders for the four execution strategies
//!   (fork-join/OpenMP, `for_each` auto/static, async + futures, dataflow),
//!   differing *only* in synchronization structure, chunking, and pinning —
//!   exactly the paper's independent variable — with loop order derived
//!   from the loops' declared accesses ([`op2_core::deps`]), so any app's
//!   step ([`IterationSpec::of`]) gives its graph;
//! * [`sim`] — deterministic discrete-event simulation (greedy list
//!   scheduling with work stealing for unpinned tasks, static assignment for
//!   pinned ones);
//! * [`scaling`] — strong-/weak-scaling sweeps producing the series of
//!   Figs. 15–19.
//!
//! The cost-model defaults are calibrated so the 32-thread improvements land
//! in the bands the paper reports (async ≈ +5 %, dataflow ≈ +21 % over
//! OpenMP, parity at 1 thread); every knob is explicit and recorded in
//! EXPERIMENTS.md.

#![warn(missing_docs)]

pub mod graph;
pub mod machine;
pub mod methods;
pub mod scaling;
pub mod sim;
pub mod trace;
pub mod workload;

pub use graph::{TaskGraph, TaskId, TaskKind};
pub use machine::MachineParams;
pub use methods::SimMethod;
pub use scaling::{strong_scaling, weak_scaling, ScalePoint};
pub use sim::{simulate, SimResult};
pub use trace::{simulate_traced, Trace, TraceEvent};
pub use workload::{airfoil_workload, IterationSpec, LoopSpec};
