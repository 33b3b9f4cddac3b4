//! # op2-swe — shallow-water equations on the OP2-style framework
//!
//! A second full application (beyond Airfoil) demonstrating that the
//! framework, the backends, and the dataflow dependency machinery are not
//! specific to one solver:
//!
//! * different physics — the 2-D shallow-water equations
//!   `w = (h, hu, hv)` with a Rusanov (local Lax-Friedrichs) interface flux;
//! * a different loop structure — four loops per step
//!   (`save`, `dt_calc`, `flux` + `bflux`, `update`);
//! * a **max**-reduction in anger: the adaptive time step is
//!   `dt = CFL · min(dx) / max_cells(|u| + √(gh))`, computed with
//!   [`op2_core::GblOp::Max`] and fed back as a declared global
//!   ([`op2_core::Global`]) that the update loop reads as an argument
//!   (`gbl_max` exercised end-to-end);
//! * strong conservation oracles — with reflective walls everywhere, total
//!   mass is conserved to rounding, and a *lake at rest* stays exactly at
//!   rest (the well-balancedness analogue of Airfoil's free-stream test).
//!
//! The mesh comes from [`op2_airfoil::MeshBuilder`] — the mesh module is
//! solver-agnostic (plain sets/maps/coordinate tables).

#![warn(missing_docs)]

pub mod app;
pub mod kernels;

pub use app::{cell_area, SweApp, SweConfig, SweLoops};
