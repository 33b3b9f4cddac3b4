//! # op2-core — an OP2-style framework for unstructured-grid computations
//!
//! OP2 ("Oxford Parallel library for unstructured mesh computations, v2") is
//! an *active library*: applications declare their mesh as **sets** of
//! elements ([`Set`]: nodes, edges, cells, …), attach **data** to sets
//! ([`Dat`]), describe connectivity between sets with **maps** ([`Map`]), and
//! express *all* computation as **parallel loops** ([`ParLoop`]) applying a
//! kernel to every element of a set, with per-argument access declarations
//! ([`Access`]: read / write / read-write / increment).
//!
//! This crate rebuilds the OP2 core used by the ICPP 2016 HPX+OP2 paper:
//!
//! * the data model (`Set`/`Map`/`Dat`/[`ArgSpec`]), and typed loop
//!   arguments ([`typed`]) that state a loop's `ArgSpec`s and its kernel's
//!   values in one declaration,
//! * **execution plans** ([`Plan`]): the iteration set is partitioned into
//!   blocks (mini-partitions) and blocks are greedily **colored** so that two
//!   blocks of the same color never touch the same indirectly-incremented
//!   datum — same-color blocks can then run in parallel without atomics,
//! * a **serial reference executor** ([`serial`]) defining the semantics every
//!   parallel backend (crate `op2-hpx`) must reproduce bit-for-bit,
//! * deterministic **global reductions** ([`reduction`]) with block-ordered
//!   combining,
//! * the **dependency rule** ([`deps`]) that orders loops by their declared
//!   access modes, which every executor, checker and model of the loop DAG
//!   derives its order from,
//! * the **time step** ([`Step`]): one iteration, declared once.
//!
//! Direct loops (no mapping, e.g. Airfoil's `save_soln`/`update`) parallelize
//! trivially; indirect loops (data accessed through a map, e.g. `res_calc`
//! incrementing cell residuals from edges) are where the plan machinery earns
//! its keep.

#![warn(missing_docs)]

pub mod access;
pub mod arg;
pub mod dat;
pub mod deps;
pub mod det;
pub mod ids;
pub mod loops;
pub mod map;
pub mod plan;
pub mod reduction;
pub mod renumber;
pub mod serial;
pub mod set;
pub mod snapshot;
pub mod step;
pub mod typed;

pub use access::Access;
pub use arg::{arg_direct, arg_indirect, ArgSpec, MapRef};
pub use dat::{Dat, DatError, DatView, Layout};
pub use loops::{KernelFn, ParLoop, ParLoopBuilder};
pub use map::{Map, MapError};
pub use plan::{Plan, PlanCache, PlanError, PlanKey};
pub use renumber::MeshPermutation;
pub use snapshot::{DatSnapshot, Footprint, RawDat, WriteFootprint};
pub use reduction::{GblOp, GlobalAcc};
pub use set::Set;
pub use step::{Global, Step};
pub use typed::{Args, TypedLoopBuilder};
