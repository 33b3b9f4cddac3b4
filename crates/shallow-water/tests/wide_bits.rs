//! Shallow water's wide loop against the scalar kernel, bit for bit.
//!
//! `flux` is written once over `Real`; where the host has AVX2 `swe_flux`
//! runs four edges per instruction. Whatever ran, `run_span` must leave
//! exactly the bits of `kernels::flux` called at `f64` one edge at a time
//! over raw AoS slices, as the benchmark's hand-written floor calls it, with
//! the increments added to the first cell and then the second. Checked over
//! spans of length 0–9 and 16–25 at odd starts and every plan block; on
//! 64×32 and 512×256 basins in AoS, SoA and SoA with RCM renumbering; with
//! cells of negative depth, where one side's signal speed is NaN and `max`
//! must return the other side's, and cells at rest, whose fluxes hold
//! signed zeros.

use std::ops::Range;

use op2_core::{Layout, ParLoop, Plan};
use op2_swe::{kernels, SweApp, SweConfig};

/// Cells given a negative depth, each inside a short span of edges.
const NEGATIVE_DEPTH: [usize; 3] = [4, 36, 101];
/// Cells set at rest.
const AT_REST: Range<usize> = 120..400;

fn bits(v: &[f64]) -> Vec<u64> {
    v.iter().map(|x| x.to_bits()).collect()
}

/// `flux` at `f64`, edge by edge, into `res`.
fn flux(app: &SweApp, coords: &[f64], w: &[f64], res: &mut [f64], span: Range<usize>) {
    let m = &app.mesh;
    let x = |n: usize| &coords[2 * n..2 * n + 2];
    for e in span {
        let (n1, n2) = (m.pedge.at(e, 0), m.pedge.at(e, 1));
        let (c1, c2) = (m.pecell.at(e, 0), m.pecell.at(e, 1));
        let (mut r1, mut r2) = ([0.0; 3], [0.0; 3]);
        let (w1, w2) = (&w[3 * c1..3 * c1 + 3], &w[3 * c2..3 * c2 + 3]);
        kernels::flux(x(n1), x(n2), w1, w2, &mut r1, &mut r2, app.gravity());
        for (cell, r) in [(c1, r1), (c2, r2)] {
            for (slot, v) in res[3 * cell..3 * cell + 3].iter_mut().zip(r) {
                *slot += v;
            }
        }
    }
}

/// Spans of length 0–9 (which run at `f64`) and 16–25 (groups on lanes
/// and a remainder of 0–3) at odd starts, then every block of a plan.
fn spans(l: &ParLoop) -> Vec<Range<usize>> {
    let mut at = 1;
    let mut out: Vec<Range<usize>> = Vec::new();
    for len in (0..10).chain(16..26) {
        out.push(at..at + len);
        at += len + 2 - len % 2;
    }
    out.extend(Plan::build(l.set(), l.args(), 128).blocks);
    out
}

#[test]
fn wide_flux_matches_the_scalar_kernel_bit_for_bit() {
    let layouts = [("aos", Layout::Aos, false), ("soa", Layout::Soa, false), ("soa+rcm", Layout::Soa, true)];
    for (imax, jmax) in [(64, 32), (512, 256)] {
        for (name, layout, renumber) in layouts {
            let case = format!("{imax}x{jmax} {name}");
            let app = SweApp::new(SweConfig { imax, jmax, layout, renumber, ..SweConfig::default() });
            app.dam_break(1.5, 2.0, 1.0);
            let mut w = app.w.to_aos_vec();
            for (i, cell) in NEGATIVE_DEPTH.into_iter().enumerate() {
                w[3 * cell..3 * cell + 3].copy_from_slice(&[-1.0, 0.5 * i as f64, -0.25]);
            }
            for cell in AT_REST {
                w[3 * cell..3 * cell + 3].copy_from_slice(&[1.0, 0.0, 0.0]);
            }
            app.w.write_aos(&w);
            let res0 = (0..3 * app.mesh.ncells()).map(|i| if i % 5 == 0 { -0.0 } else { (i % 7) as f64 * 0.125 });
            let mut res: Vec<f64> = res0.collect();
            app.res.write_aos(&res);
            println!("{case}: swe_flux ran {} lanes", app.flux.lanes());
            assert_eq!(app.flux.lanes(), op2_core::lane_width(), "{case}");

            let coords = app.mesh.p_x.to_aos_vec();
            for span in spans(&app.flux) {
                app.flux.run_span(span.clone(), &mut []);
                flux(&app, &coords, &w, &mut res, span.clone());
                if span.len() < 26 {
                    assert_eq!(bits(&app.res.to_aos_vec()), bits(&res), "{case}: swe_flux over {span:?}");
                }
            }
            assert_eq!(bits(&app.res.to_aos_vec()), bits(&res), "{case}: swe_flux over every plan block");
            // `max` discarded the NaN signal speed: the negative depths'
            // fluxes are finite.
            assert!(res.iter().all(|v| v.is_finite()), "{case}: a NaN signal speed reached a residual");
        }
    }
}
