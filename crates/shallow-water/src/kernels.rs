//! Shallow-water kernels: Rusanov interface flux, reflective/open boundary
//! fluxes, wave-speed estimate, and the explicit update.
//!
//! State per cell: `w = (h, hu, hv)` (depth, x/y momentum). Gravity `g` is a
//! parameter. Edge geometry follows the same convention as Airfoil's
//! kernels: with `d = x1 − x2`, the vector `n = (dy, −dx)` is the
//! length-scaled normal pointing out of cell 1 (into cell 2, or out of the
//! domain for boundary edges).

use op2_core::Real;

/// Physical flux of the shallow-water equations through a scaled normal `n`.
#[inline(always)]
fn physical_flux<R: Real>(w: &[R], nx: R, ny: R, g: f64) -> [R; 3] {
    let h = w[0];
    let (u, v) = (w[1] / h, w[2] / h);
    let un = u * nx + v * ny; // volume flux per unit depth (length-scaled)
    let p = R::splat(0.5 * g) * h * h;
    [
        h * un,
        w[1] * un + p * nx,
        w[2] * un + p * ny,
    ]
}

/// Fastest signal speed of state `w` across a unit normal, scaled by `len`.
#[inline(always)]
fn signal_speed<R: Real>(w: &[R], nx: R, ny: R, len: R, g: f64) -> R {
    let h = w[0];
    let (u, v) = (w[1] / h, w[2] / h);
    // |u·n̂| + c, then rescaled by the edge length (n is length-scaled).
    ((u * nx + v * ny) / len).abs() + (R::splat(g) * h).sqrt()
}

/// Interior Rusanov flux: antisymmetric increments to the two cells.
///
/// Generic over [`Real`], so the same body runs one edge at `f64` or four on
/// lanes, bit for bit (see `op2_core::typed`).
#[inline(always)]
#[allow(clippy::too_many_arguments)]
pub fn flux<R: Real>(
    x1: &[R],
    x2: &[R],
    w1: &[R],
    w2: &[R],
    res1: &mut [R],
    res2: &mut [R],
    g: f64,
) {
    let half = R::splat(0.5);
    let dx = x1[0] - x2[0];
    let dy = x1[1] - x2[1];
    let (nx, ny) = (dy, -dx);
    let len = (nx * nx + ny * ny).sqrt();

    let f1 = physical_flux(w1, nx, ny, g);
    let f2 = physical_flux(w2, nx, ny, g);
    let smax = signal_speed(w1, nx, ny, len, g).max(signal_speed(w2, nx, ny, len, g));
    for k in 0..3 {
        let f = half * (f1[k] + f2[k]) + half * smax * len * (w1[k] - w2[k]);
        res1[k] += f;
        res2[k] -= f;
    }
}

/// Boundary condition code: reflective (slip) wall.
pub const SWE_WALL: i32 = 1;
/// Boundary condition code: open (zero-gradient outflow).
pub const SWE_OPEN: i32 = 2;

/// Boundary flux: reflective walls contribute only the hydrostatic pressure;
/// open boundaries use the interior state as the exterior (zero-gradient).
#[inline]
pub fn bflux(x1: &[f64], x2: &[f64], w1: &[f64], res1: &mut [f64], bound: i32, g: f64) {
    let dx = x1[0] - x2[0];
    let dy = x1[1] - x2[1];
    let (nx, ny) = (dy, -dx);
    if bound == SWE_WALL {
        // u·n = 0 at a slip wall: only ½gh² n remains.
        let p = 0.5 * g * w1[0] * w1[0];
        res1[1] += p * nx;
        res1[2] += p * ny;
    } else {
        let f = physical_flux(w1, nx, ny, g);
        res1[0] += f[0];
        res1[1] += f[1];
        res1[2] += f[2];
    }
}

/// Per-cell wave-speed estimate for the CFL condition (`gbl max`).
#[inline]
pub fn wave_speed(w: &[f64], g: f64) -> f64 {
    let h = w[0];
    let (u, v) = (w[1] / h, w[2] / h);
    (u * u + v * v).sqrt() + (g * h).sqrt()
}

/// Explicit Euler update `w ← wold − dt/area · res`; zeroes the residual and
/// accumulates the squared update into the RMS reduction.
#[inline]
pub fn update(wold: &[f64], w: &mut [f64], res: &mut [f64], dt_over_area: f64, rms: &mut f64) {
    for k in 0..3 {
        let del = dt_over_area * res[k];
        w[k] = wold[k] - del;
        res[k] = 0.0;
        *rms += del * del;
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    const G: f64 = 9.81;

    #[test]
    fn flux_is_conservative() {
        let w1 = [2.0, 1.0, -0.5];
        let w2 = [1.5, -0.3, 0.2];
        let mut r1 = [0.0; 3];
        let mut r2 = [0.0; 3];
        flux(&[0.0, 1.0], &[0.0, 0.0], &w1, &w2, &mut r1, &mut r2, G);
        for k in 0..3 {
            assert!((r1[k] + r2[k]).abs() < 1e-12, "component {k}");
        }
    }

    #[test]
    fn equal_states_give_pure_physical_flux() {
        // Dissipation vanishes for w1 == w2.
        let w = [1.0, 0.5, 0.0];
        let mut r1 = [0.0; 3];
        let mut r2 = [0.0; 3];
        flux(&[0.0, 1.0], &[0.0, 0.0], &w, &w, &mut r1, &mut r2, G);
        // Unit vertical edge, normal +x: mass flux = hu = 0.5.
        assert!((r1[0] - 0.5).abs() < 1e-12);
    }

    #[test]
    fn lake_at_rest_wall_balances_interior_pressure() {
        // At rest (u = 0), the wall's pressure contribution equals what an
        // interior edge with a mirrored state would produce.
        let w = [3.0, 0.0, 0.0];
        let mut rw = [0.0; 3];
        bflux(&[1.0, 0.0], &[0.0, 0.0], &w, &mut rw, SWE_WALL, G);
        let mut r1 = [0.0; 3];
        let mut r2 = [0.0; 3];
        flux(&[1.0, 0.0], &[0.0, 0.0], &w, &w, &mut r1, &mut r2, G);
        for k in 0..3 {
            assert!((rw[k] - r1[k]).abs() < 1e-12, "component {k}");
        }
        assert_eq!(rw[0], 0.0, "no mass through a wall at rest");
    }

    #[test]
    fn open_boundary_passes_momentum() {
        let w = [1.0, 0.8, 0.0];
        let mut r = [0.0; 3];
        // Right boundary: outward +x ⇒ x1 top, x2 bottom.
        bflux(&[0.0, 1.0], &[0.0, 0.0], &w, &mut r, SWE_OPEN, G);
        assert!((r[0] - 0.8).abs() < 1e-12, "outflow carries mass");
    }

    #[test]
    fn wave_speed_positive_and_monotone_in_depth() {
        let slow = wave_speed(&[1.0, 0.0, 0.0], G);
        let fast = wave_speed(&[4.0, 0.0, 0.0], G);
        assert!(slow > 0.0);
        assert!(fast > slow);
        assert!((slow - G.sqrt()).abs() < 1e-12);
    }

    #[test]
    fn update_zero_residual_identity() {
        let wold = [2.0, 0.1, -0.1];
        let mut w = [0.0; 3];
        let mut res = [0.0; 3];
        let mut rms = 0.0;
        update(&wold, &mut w, &mut res, 0.5, &mut rms);
        assert_eq!(w, wold);
        assert_eq!(rms, 0.0);
    }
}
