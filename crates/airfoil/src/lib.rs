//! # op2-airfoil — the Airfoil CFD benchmark
//!
//! Airfoil (Giles, Ghate & Duta) is the standard OP2 demonstration code: a
//! nonlinear 2-D compressible Euler solver, cell-centred finite volume with
//! scalar numerical dissipation, marching to steady state with a two-stage
//! Runge-Kutta-like scheme. It is *the* application the ICPP 2016 paper
//! evaluates, with five parallel loops per stage:
//!
//! | loop | set | kind | role |
//! |---|---|---|---|
//! | `save_soln` | cells | direct | `qold ← q` |
//! | `adt_calc` | cells | indirect (reads node coords via `pcell`) | local time step per cell |
//! | `res_calc` | edges | indirect (`OP_INC` on cell residuals) | interior fluxes + dissipation |
//! | `bres_calc` | bedges | indirect (`OP_INC`) | wall / far-field boundary fluxes |
//! | `update` | cells | direct, global RMS reduction | explicit update, residual norm |
//!
//! ## Mesh substitution
//!
//! The original benchmark reads `new_grid.dat`, an FE mesh around a NACA0012
//! airfoil, which is not redistributable here. [`mesh::MeshBuilder`]
//! generates a structured channel grid *represented as a fully unstructured
//! mesh* (explicit `pedge`/`pecell`/`pbedge`/`pbecell`/`pcell` tables) with
//! inviscid walls on top/bottom and far-field left/right. The loop structure,
//! access patterns, and inter-loop dependency graph — the properties the
//! paper's backends exercise — are identical; see DESIGN.md.
//!
//! A uniform free stream is an exact steady state of this discretization,
//! which the test suite exploits as a strong correctness oracle; a Gaussian
//! pressure pulse provides a dynamic initial condition for benchmarks.

#![warn(missing_docs)]

pub mod constants;
pub mod driver;
pub mod kernels;
pub mod loops;
pub mod mesh;
pub mod omesh;

pub use constants::FlowConstants;
pub use driver::{Simulation, SyncStrategy};
pub use loops::AirfoilLoops;
pub use mesh::{Mesh, MeshBuilder, Topology};
pub use omesh::OMeshBuilder;
