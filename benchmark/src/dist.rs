//! `dist_airfoil`: the hand-written distributed Airfoil march on 2 ranks.
//!
//! Every block is a whole `run_distributed_opts` call from the same initial
//! state, so its time includes what the call does each time (localising the
//! mesh per rank, launching the fabric, gathering the result).

use std::path::{Path, PathBuf};

use op2_airfoil::mesh::MeshData;
use op2_airfoil::FlowConstants;
use op2_dist::{
    resume_distributed_opts, run_distributed_opts, DistError, DistOptions, DistReport, Partition,
};
use op2_hpx::BackendKind;

use crate::app::{airfoil_mesh, build_instance, Inputs, Instance, MeshSpec};
use crate::bench::{guard, Bench, Check, Workload};
use crate::spans::SpanLog;
use crate::util::{fnv1a, max_rel_diff, timed};

pub const RANKS: usize = 2;
pub const CHECKPOINT_EVERY: usize = 5;
/// One-iteration calls timed per round for the unit latency.
const UNITS_PER_ROUND: usize = 16;

/// Inputs of a distributed march: raw tables, initial state, partition.
pub struct DistInputs {
    pub data: MeshData,
    pub q0: Vec<f64>,
    pub part: Partition,
    pub consts: FlowConstants,
}

impl DistInputs {
    pub fn build(spec: &MeshSpec, inp: &Inputs, ranks: usize, log: &mut SpanLog) -> DistInputs {
        let (mesh, _) = airfoil_mesh(spec, inp, log);
        let q0 = mesh.p_q.to_aos_vec();
        let (_, part) = log.span("Partition::strips", "op2-dist", |_| {
            Partition::strips(mesh.ncells(), ranks)
        });
        DistInputs {
            data: mesh.data,
            q0,
            part,
            consts: FlowConstants::default(),
        }
    }

    pub fn run(&self, iters: usize, opts: &DistOptions) -> Result<DistReport, DistError> {
        run_distributed_opts(
            &self.data,
            &self.consts,
            &self.q0,
            &self.part,
            iters,
            iters,
            opts,
        )
    }

    pub fn resume(&self, iters: usize, opts: &DistOptions) -> Result<DistReport, DistError> {
        resume_distributed_opts(
            &self.data,
            &self.consts,
            &self.q0,
            &self.part,
            iters,
            iters,
            opts,
        )
    }
}

pub fn overlapped() -> DistOptions {
    DistOptions {
        overlap: true,
        ..DistOptions::default()
    }
}

pub fn durable(dir: &Path) -> DistOptions {
    DistOptions {
        overlap: true,
        checkpoint_every: CHECKPOINT_EVERY,
        store_dir: Some(dir.to_path_buf()),
        ..DistOptions::default()
    }
}

pub struct DistBench {
    inputs: DistInputs,
    block: usize,
    serial: Box<dyn Instance>,
    scratch: PathBuf,
    seq: usize,
    /// Digest of the last final state of the overlapped, bulk, durable arms.
    digests: [Option<u64>; 3],
    overlapped_final: Vec<f64>,
}

impl DistBench {
    /// The designated path only: what `setup_s` times.
    pub fn designated(w: &Workload, inp: &Inputs, log: &mut SpanLog) -> DistInputs {
        let inputs = DistInputs::build(&w.mesh, inp, RANKS, log);
        log.span("warm-up call (1 iteration)", "op2-dist", |_| {
            inputs
                .run(1, &overlapped())
                .expect("warm-up distributed call");
        });
        inputs
    }

    pub fn new(w: &Workload, inp: &Inputs, scratch: &Path, log: &mut SpanLog) -> DistBench {
        let inputs = Self::designated(w, inp, log);
        let serial = build_instance(&w.mesh, inp, BackendKind::Serial, 1, log);
        serial.march(1);
        DistBench {
            inputs,
            block: w.block,
            serial,
            scratch: scratch.to_path_buf(),
            seq: 0,
            digests: [None; 3],
            overlapped_final: Vec::new(),
        }
    }

    fn fresh_dir(&mut self) -> PathBuf {
        self.seq += 1;
        self.scratch.join(format!("ckpt-{}", self.seq))
    }
}

impl Bench for DistBench {
    fn run_arm(&mut self, arm: usize, _units: &mut Vec<f64>) -> Result<f64, String> {
        let block = self.block;
        if arm == 2 {
            self.serial.set_state(&self.inputs.q0);
            let (secs, res) = timed(|| guard(|| self.serial.march(block)));
            return res.map(|()| secs);
        }
        let dir = (arm == 3).then(|| self.fresh_dir());
        let opts = match (arm, &dir) {
            (0, _) => overlapped(),
            (1, _) => DistOptions::default(),
            (_, Some(d)) => durable(d),
            _ => unreachable!("arm 3 always has a directory"),
        };
        let (secs, res) = timed(|| guard(|| self.inputs.run(block, &opts)));
        if let Some(d) = dir {
            let _ = std::fs::remove_dir_all(d);
        }
        let report = res?.map_err(|e| e.to_string())?;
        let slot = if arm == 3 { 2 } else { arm };
        self.digests[slot] = Some(fnv1a(&report.final_q));
        if arm == 0 {
            self.overlapped_final = report.final_q;
        }
        Ok(secs)
    }

    fn run_units(&mut self, out: &mut Vec<f64>) -> Result<(), String> {
        let opts = overlapped();
        for _ in 0..UNITS_PER_ROUND {
            let (secs, res) = timed(|| guard(|| self.inputs.run(1, &opts)));
            res?.map_err(|e| e.to_string())?;
            out.push(secs * 1e3);
        }
        Ok(())
    }

    fn verify(&mut self) -> Vec<Check> {
        // Arms the rounds did not run (the traced run times only the
        // designated one) still owe their digest.
        for arm in [0, 1, 3] {
            if self.digests[if arm == 3 { 2 } else { arm }].is_none() {
                let _ = self.run_arm(arm, &mut Vec::new());
            }
        }
        // Kill the whole "process" half way, then resume from the durable log.
        let dir = self.fresh_dir();
        let die_at = self.block / 2 + 1;
        let died = self.inputs.run(
            self.block,
            &DistOptions {
                die_at: Some(die_at),
                ..durable(&dir)
            },
        );
        let resumed = self.inputs.resume(self.block, &durable(&dir));
        let _ = std::fs::remove_dir_all(&dir);
        let resumed_digest = resumed.as_ref().ok().map(|r| fnv1a(&r.final_q));

        self.serial.set_state(&self.inputs.q0);
        let serial_ok = guard(|| self.serial.march(self.block)).is_ok();
        let diff = max_rel_diff(&self.serial.state(), &self.overlapped_final);

        let want = self.digests[0];
        vec![
            Check::new(
                "bulk digest == overlapped digest",
                want.is_some() && self.digests[1] == want,
            ),
            Check::new(
                "durable digest == overlapped digest",
                want.is_some() && self.digests[2] == want,
            ),
            Check::new(
                "die_at stops the march with DistError::Died",
                matches!(died, Err(DistError::Died { .. })),
            ),
            Check::new(
                "resumed digest == overlapped digest",
                want.is_some() && resumed_digest == want,
            ),
            Check::new(
                format!(
                    "distributed state within 1e-12 of SerialExecutor (max rel diff {diff:.2e})"
                ),
                serial_ok && diff <= 1e-12,
            ),
        ]
    }
}
