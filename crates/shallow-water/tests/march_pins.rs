//! Final-state pin for the shared-memory shallow-water march.
//!
//! Every executor is checked against the serial oracle elsewhere, but the
//! oracle runs the same kernel bodies, so a change to the arithmetic would
//! move the oracle and every executor together. This digest was taken from
//! the scalar kernels before `flux` became generic over the lane type; if
//! it fails, a kernel's arithmetic or the commit order moved. The test
//! prints the actual digest.

use std::sync::Arc;

use op2_hpx::{make_executor, BackendKind, Op2Runtime};
use op2_swe::{SweApp, SweConfig};

/// Digest of the reports and the final `w` of a 64×32 dam break, 10 steps.
const DAM_BREAK: u64 = 0x94d1_d785_3961_c2a1;

/// FNV-1a over 64-bit words, byte by byte.
fn fnv1a(words: impl IntoIterator<Item = u64>) -> u64 {
    words
        .into_iter()
        .flat_map(u64::to_le_bytes)
        .fold(0xcbf2_9ce4_8422_2325, |h, b| (h ^ u64::from(b)).wrapping_mul(0x100_0000_01b3))
}

#[test]
fn shared_memory_march_reproduces_the_pinned_digest() {
    let mut wrong = Vec::new();
    for kind in [BackendKind::Serial, BackendKind::ForkJoin, BackendKind::Dataflow] {
        let app = SweApp::new(SweConfig::default());
        app.dam_break(1.5, 2.0, 1.0);
        let exec = make_executor(kind, Arc::new(Op2Runtime::new(2, 64)));
        let reports = app.run(exec.as_ref(), 10, 1);
        let words = reports.into_iter().flat_map(|(_, dt, rms)| [dt.to_bits(), rms.to_bits()]);
        let got = fnv1a(words.chain(app.unrenumbered_w().into_iter().map(f64::to_bits)));
        println!("dam break × {kind}: {got:#018x}");
        if got != DAM_BREAK {
            wrong.push(format!("{kind}: digest {got:#018x}, pinned {DAM_BREAK:#018x}"));
        }
    }
    assert!(wrong.is_empty(), "{}", wrong.join("\n"));
}
