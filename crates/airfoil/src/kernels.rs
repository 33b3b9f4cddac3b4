//! The five Airfoil user kernels as pure slice functions.
//!
//! These are direct transliterations of the original benchmark's
//! `save_soln.h`, `adt_calc.h`, `res_calc.h`, `bres_calc.h` and `update.h`
//! (Giles et al.), kept framework-free so they can be unit-tested in
//! isolation; `crate::loops` wires them into OP2 parallel loops.
//!
//! State vector per cell: `q = (ρ, ρu, ρv, ρE)`.

use op2_core::Real;

use crate::constants::FlowConstants;

/// `save_soln`: copy the state into the old-state buffer (direct loop).
#[inline]
pub fn save_soln(q: &[f64], qold: &mut [f64]) {
    qold[..4].copy_from_slice(&q[..4]);
}

/// `adt_calc`: local time-step measure for one cell from its four corner
/// node coordinates and its state (indirect reads via `pcell`).
///
/// `adt = Σ_faces (|u·n| + c·|n|) / CFL` over the cell's four faces.
///
/// Generic over [`Real`], so the same body runs one cell at `f64` or four on
/// lanes, bit for bit (see `op2_core::typed`).
#[inline(always)]
pub fn adt_calc<R: Real>(
    x1: &[R],
    x2: &[R],
    x3: &[R],
    x4: &[R],
    q: &[R],
    adt: &mut [R],
    c: &FlowConstants,
) {
    let ri = R::splat(1.0) / q[0];
    let u = ri * q[1];
    let v = ri * q[2];
    let sound = (R::splat(c.gam * c.gm1) * (ri * q[3] - R::splat(0.5) * (u * u + v * v))).sqrt();

    let mut a = face(u, v, sound, x1, x2);
    a += face(u, v, sound, x2, x3);
    a += face(u, v, sound, x3, x4);
    a += face(u, v, sound, x4, x1);
    adt[0] = a / R::splat(c.cfl);
}

/// One face of [`adt_calc`]: `|u·n| + c·|n|` for the face from `xa` to `xb`.
#[inline(always)]
fn face<R: Real>(u: R, v: R, sound: R, xa: &[R], xb: &[R]) -> R {
    let dx = xb[0] - xa[0];
    let dy = xb[1] - xa[1];
    (u * dy - v * dx).abs() + sound * (dx * dx + dy * dy).sqrt()
}

/// `res_calc`: interior-edge flux with scalar dissipation; increments the
/// residuals of the edge's two adjacent cells antisymmetrically
/// (`OP_INC` via `pecell`).
///
/// Orientation convention: with `dx = x1.x − x2.x`, `dy = x1.y − x2.y`, the
/// vector `(dy, −dx)` is the edge normal pointing **out of cell 1 into
/// cell 2** (scaled by edge length). Generic over [`Real`], as [`adt_calc`].
#[inline(always)]
#[allow(clippy::too_many_arguments)]
pub fn res_calc<R: Real>(
    x1: &[R],
    x2: &[R],
    q1: &[R],
    q2: &[R],
    adt1: R,
    adt2: R,
    res1: &mut [R],
    res2: &mut [R],
    c: &FlowConstants,
) {
    let (half, gm1) = (R::splat(0.5), R::splat(c.gm1));
    let dx = x1[0] - x2[0];
    let dy = x1[1] - x2[1];

    let mut ri = R::splat(1.0) / q1[0];
    let p1 = gm1 * (q1[3] - half * ri * (q1[1] * q1[1] + q1[2] * q1[2]));
    let vol1 = ri * (q1[1] * dy - q1[2] * dx);

    ri = R::splat(1.0) / q2[0];
    let p2 = gm1 * (q2[3] - half * ri * (q2[1] * q2[1] + q2[2] * q2[2]));
    let vol2 = ri * (q2[1] * dy - q2[2] * dx);

    let mu = half * (adt1 + adt2) * R::splat(c.eps);

    let mut f = half * (vol1 * q1[0] + vol2 * q2[0]) + mu * (q1[0] - q2[0]);
    res1[0] += f;
    res2[0] -= f;
    f = half * (vol1 * q1[1] + p1 * dy + vol2 * q2[1] + p2 * dy) + mu * (q1[1] - q2[1]);
    res1[1] += f;
    res2[1] -= f;
    f = half * (vol1 * q1[2] - p1 * dx + vol2 * q2[2] - p2 * dx) + mu * (q1[2] - q2[2]);
    res1[2] += f;
    res2[2] -= f;
    f = half * (vol1 * (q1[3] + p1) + vol2 * (q2[3] + p2)) + mu * (q1[3] - q2[3]);
    res1[3] += f;
    res2[3] -= f;
}

/// Boundary type: inviscid wall (airfoil surface in the original mesh).
pub const BOUND_WALL: i32 = 1;
/// Boundary type: far field.
pub const BOUND_FARFIELD: i32 = 2;

/// `bres_calc`: boundary-edge flux (`OP_INC` via `pbecell`). Walls
/// contribute only the pressure force; far-field edges use the free-stream
/// state as the exterior value.
///
/// Orientation: `(dy, −dx)` points **out of the domain**.
#[inline]
#[allow(clippy::too_many_arguments)]
pub fn bres_calc(
    x1: &[f64],
    x2: &[f64],
    q1: &[f64],
    adt1: f64,
    res1: &mut [f64],
    bound: i32,
    c: &FlowConstants,
) {
    let dx = x1[0] - x2[0];
    let dy = x1[1] - x2[1];

    let mut ri = 1.0 / q1[0];
    let p1 = c.gm1 * (q1[3] - 0.5 * ri * (q1[1] * q1[1] + q1[2] * q1[2]));

    if bound == BOUND_WALL {
        res1[1] += p1 * dy;
        res1[2] -= p1 * dx;
    } else {
        let vol1 = ri * (q1[1] * dy - q1[2] * dx);

        ri = 1.0 / c.qinf[0];
        let p2 = c.gm1 * (c.qinf[3] - 0.5 * ri * (c.qinf[1] * c.qinf[1] + c.qinf[2] * c.qinf[2]));
        let vol2 = ri * (c.qinf[1] * dy - c.qinf[2] * dx);

        let mu = adt1 * c.eps;

        let mut f = 0.5 * (vol1 * q1[0] + vol2 * c.qinf[0]) + mu * (q1[0] - c.qinf[0]);
        res1[0] += f;
        f = 0.5 * (vol1 * q1[1] + p1 * dy + vol2 * c.qinf[1] + p2 * dy) + mu * (q1[1] - c.qinf[1]);
        res1[1] += f;
        f = 0.5 * (vol1 * q1[2] - p1 * dx + vol2 * c.qinf[2] - p2 * dx) + mu * (q1[2] - c.qinf[2]);
        res1[2] += f;
        f = 0.5 * (vol1 * (q1[3] + p1) + vol2 * (c.qinf[3] + p2)) + mu * (q1[3] - c.qinf[3]);
        res1[3] += f;
    }
}

/// `update`: explicit update `q ← qold − res/adt`, zero the residual, and
/// accumulate the squared update into the RMS reduction (direct loop with a
/// global `OP_INC`).
#[inline]
pub fn update(qold: &[f64], q: &mut [f64], res: &mut [f64], adt: f64, rms: &mut f64) {
    let adti = 1.0 / adt;
    for n in 0..4 {
        let del = adti * res[n];
        q[n] = qold[n] - del;
        res[n] = 0.0;
        *rms += del * del;
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn consts() -> FlowConstants {
        FlowConstants::default()
    }

    #[test]
    fn save_soln_copies() {
        let q = [1.0, 2.0, 3.0, 4.0];
        let mut qold = [0.0; 4];
        save_soln(&q, &mut qold);
        assert_eq!(qold, q);
    }

    #[test]
    fn adt_positive_for_physical_state() {
        let c = consts();
        let x = [[0.0, 0.0], [1.0, 0.0], [1.0, 1.0], [0.0, 1.0]];
        let mut adt = [0.0];
        adt_calc(&x[0], &x[1], &x[2], &x[3], &c.qinf, &mut adt, &c);
        assert!(adt[0] > 0.0);
        // For a unit square at Mach 0.4: Σ(|u·n| + c|n|) / cfl.
        let u = c.qinf[1] / c.qinf[0];
        let sound = (c.gam * 1.0 / 1.0f64).sqrt();
        let expect = (2.0 * u + 4.0 * sound) / c.cfl;
        assert!((adt[0] - expect).abs() < 1e-12, "{} vs {expect}", adt[0]);
    }

    #[test]
    fn res_calc_is_antisymmetric_in_mass() {
        let c = consts();
        let q1 = [1.1, 0.3, 0.1, 2.2];
        let q2 = [0.9, 0.5, -0.2, 2.5];
        let mut r1 = [0.0; 4];
        let mut r2 = [0.0; 4];
        res_calc(
            &[0.0, 1.0],
            &[0.0, 0.0],
            &q1,
            &q2,
            1.0,
            2.0,
            &mut r1,
            &mut r2,
            &c,
        );
        // Every component is added to one side and subtracted from the other.
        for n in 0..4 {
            assert!((r1[n] + r2[n]).abs() < 1e-15, "component {n} not conservative");
        }
        assert!(r1.iter().any(|&v| v != 0.0));
    }

    #[test]
    fn res_calc_uniform_state_flux_is_pure_transport() {
        // With q1 == q2 the dissipation term vanishes.
        let c = consts();
        let q = c.qinf;
        let mut r1 = [0.0; 4];
        let mut r2 = [0.0; 4];
        res_calc(&[0.0, 1.0], &[0.0, 0.0], &q, &q, 1.0, 1.0, &mut r1, &mut r2, &c);
        // Mass flux through a unit vertical edge with normal +x: ρu.
        assert!((r1[0] - q[1]).abs() < 1e-12);
    }

    #[test]
    fn wall_only_applies_pressure() {
        let c = consts();
        let q = c.qinf;
        let mut r = [0.0; 4];
        // Bottom wall: outward normal −y ⇒ x1 right, x2 left.
        bres_calc(&[1.0, 0.0], &[0.0, 0.0], &q, 1.0, &mut r, BOUND_WALL, &c);
        assert_eq!(r[0], 0.0, "no mass through a wall");
        assert_eq!(r[3], 0.0, "no energy through a wall");
        // p∞ = 1; force on res[2] = −p·dx = −1·1 = −1.
        assert!((r[2] + 1.0).abs() < 1e-12);
        assert_eq!(r[1], 0.0);
    }

    #[test]
    fn farfield_with_free_stream_matches_interior_flux() {
        // q1 = qinf ⇒ the boundary flux equals the one-sided interior flux.
        let c = consts();
        let q = c.qinf;
        let mut rb = [0.0; 4];
        bres_calc(&[0.0, 1.0], &[0.0, 0.0], &q, 1.0, &mut rb, BOUND_FARFIELD, &c);
        let mut r1 = [0.0; 4];
        let mut r2 = [0.0; 4];
        res_calc(&[0.0, 1.0], &[0.0, 0.0], &q, &q, 1.0, 1.0, &mut r1, &mut r2, &c);
        for n in 0..4 {
            assert!((rb[n] - r1[n]).abs() < 1e-12, "component {n}");
        }
    }

    #[test]
    fn update_zero_residual_is_identity() {
        let qold = [1.0, 0.5, 0.0, 2.5];
        let mut q = [9.0; 4];
        let mut res = [0.0; 4];
        let mut rms = 0.0;
        update(&qold, &mut q, &mut res, 3.0, &mut rms);
        assert_eq!(q, qold);
        assert_eq!(rms, 0.0);
    }

    #[test]
    fn update_applies_scaled_residual_and_zeroes_it() {
        let qold = [1.0, 0.0, 0.0, 2.5];
        let mut q = [0.0; 4];
        let mut res = [0.2, -0.4, 0.0, 0.8];
        let mut rms = 0.0;
        update(&qold, &mut q, &mut res, 2.0, &mut rms);
        assert_eq!(q, [0.9, 0.2, 0.0, 2.1]);
        assert_eq!(res, [0.0; 4]);
        assert!((rms - (0.01 + 0.04 + 0.16)).abs() < 1e-15);
    }
}
