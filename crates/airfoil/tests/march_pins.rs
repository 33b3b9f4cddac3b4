//! Final-state pins for the shared-memory Airfoil march.
//!
//! Every executor is checked against the serial oracle elsewhere, but the
//! oracle runs the same kernel bodies, so a change to the arithmetic would
//! move the oracle and every executor together. These digests were taken
//! from the scalar kernels before the kernels became generic over the lane
//! type; if one fails, a kernel's arithmetic or the commit order moved. The
//! test prints the actual digests.

use std::sync::Arc;

use op2_airfoil::mesh::{Mesh, MeshOptions};
use op2_airfoil::{FlowConstants, MeshBuilder, Simulation, SyncStrategy};
use op2_core::Layout;
use op2_hpx::{make_executor, BackendKind, Op2Runtime};

const NITER: usize = 10;

/// Digests of the reports and the final `q` (original numbering) of a
/// 64×32 pulse march: AoS, and SoA with RCM renumbering.
const AOS: u64 = 0xd9d6_ae0f_988b_e36a;
const SOA_RCM: u64 = 0x115e_21fe_5343_fd1e;

/// FNV-1a over 64-bit words, byte by byte.
fn fnv1a(words: impl IntoIterator<Item = u64>) -> u64 {
    words
        .into_iter()
        .flat_map(u64::to_le_bytes)
        .fold(0xcbf2_9ce4_8422_2325, |h, b| (h ^ u64::from(b)).wrapping_mul(0x100_0000_01b3))
}

fn march(opts: MeshOptions, kind: BackendKind) -> u64 {
    let consts = FlowConstants::default();
    let mesh: Mesh = MeshBuilder::channel(64, 32).build_with(&consts, &opts);
    mesh.add_pulse(2.0, 0.5, 0.4, 0.2, &consts);
    let exec = make_executor(kind, Arc::new(Op2Runtime::new(2, 64)));
    let sim = Simulation::new(mesh, &consts, exec, SyncStrategy::for_backend(kind));
    let reports = sim.run(NITER, 1);
    let q = sim.mesh().unrenumbered_q();
    fnv1a(reports.into_iter().map(|(_, r)| r.to_bits()).chain(q.into_iter().map(f64::to_bits)))
}

#[test]
fn shared_memory_marches_reproduce_the_pinned_digests() {
    let cases = [
        ("aos", MeshOptions { layout: Layout::Aos, renumber: false }, AOS),
        ("soa+rcm", MeshOptions { layout: Layout::Soa, renumber: true }, SOA_RCM),
    ];
    let mut wrong = Vec::new();
    for (name, opts, want) in cases {
        for kind in [BackendKind::Serial, BackendKind::ForkJoin, BackendKind::Dataflow] {
            let got = march(opts, kind);
            println!("{name} × {kind}: {got:#018x}");
            if got != want {
                wrong.push(format!("{name} × {kind}: digest {got:#018x}, pinned {want:#018x}"));
            }
        }
    }
    assert!(wrong.is_empty(), "{}", wrong.join("\n"));
}
