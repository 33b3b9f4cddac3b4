//! Umbrella crate re-exporting the full op2-hpx reproduction API.
pub use hpx_rt;
pub use op2_airfoil as airfoil;
pub use op2_core;
pub use op2_dist;
pub use op2_hpx;
pub use op2_simsched as simsched;
pub use op2_swe as swe;
