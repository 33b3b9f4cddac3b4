//! `--trace 1`: the traced pass and the per-layer probes.
//!
//! Everything here is measured from outside, by timing calls into a layer's
//! public functions, plus the counters the layers already export. The probes
//! march the workload's own app on the workload's own mesh (size, layout,
//! numbering), so a layer number always belongs to the end-to-end number of
//! the same workload. `op2-serve` and `op2-dist` probes always march Airfoil
//! at the workload's mesh size (their programs are Airfoil's).
//!
//! `--seconds` bounds this run as it bounds the end-to-end one: every timed
//! probe repeats inside a budget of so many *slices* (a slice is 1/40 of
//! `--seconds`; the slices handed out sum to 40), after one call it always
//! makes. What `--seconds` cannot shorten is the setting up — eleven
//! instances, two services, the partitioned mesh — a few seconds on the
//! large meshes.

use std::hint::black_box;
use std::path::Path;
use std::process::Command;
use std::sync::Arc;
use std::time::Instant;

use hpx_rt::{
    async_spawn, dataflow1, for_each_index, make_ready_future, par, MetricsSnapshot, ThreadPool,
};
use op2_airfoil::{AirfoilLoops, FlowConstants, MeshBuilder, SyncStrategy};
use op2_core::{Access, Layout, MapRef, ParLoop, Plan, PlanCache};
use op2_dist::partition::build_local;
use op2_dist::{total_halo_cells, DistOptions, Fabric, HaloPlan, Partition};
use op2_hpx::{
    key_for, BackendKind, Executor, Op2Runtime, RetryPolicy, Supervisor, TunedExecutor, WriteSet,
    TUNABLE_BACKENDS,
};
use op2_serve::{JobSpec, PoolMode, ServeOptions, Service};
use op2_simsched::methods::build_graph;
use op2_simsched::{airfoil_workload, simulate, MachineParams, SimMethod};
use op2_store::{write_sealed, xxhash64, Wal, WalOptions};
use op2_trace::report::{analyze, RunReport};
use op2_trace::{Collector, EventKind};
use op2_tune::{Observation, TuneContext, Tuner};

use crate::app::{
    airfoil_mesh, build_instance, build_instance_on, schedule, swe_config, AppKind, Inputs,
    Instance, MeshSpec, PART_SIZE, SLOTS,
};
use crate::bench::{self, guard, Workload};
use crate::dist::{self, DistInputs};
use crate::floor::{triad_gbps, FloorAirfoil, FloorSwe};
use crate::serve::{closed_loop, tuned_service, JobDims, JobKind};
use crate::spans::SpanLog;
use crate::util::{self, fnv1a, median, median_time, quantile, timed, times_within};
use crate::{Args, Outcome};

/// Median seconds per iteration over blocks of `block` iterations marched
/// for `budget_s`.
fn per_iter_s(inst: &dyn Instance, block: usize, budget_s: f64) -> f64 {
    median_time(budget_s, || inst.march(block)) / block as f64
}

/// Run `f` with an `op2_trace::Collector` active; the analysed report.
fn traced<T>(f: impl FnOnce() -> T) -> (RunReport, op2_trace::Timeline, T) {
    let collector = Collector::start();
    let out = f();
    let timeline = collector.stop();
    (analyze(&timeline), timeline, out)
}

fn frac(part_ns: u64, whole_ns: u64) -> f64 {
    if whole_ns == 0 {
        0.0
    } else {
        part_ns as f64 / whole_ns as f64
    }
}

/// Bytes one execution of `l` moves, computed from its declared arguments:
/// every argument's components once per element (twice when read and
/// written), plus 4 bytes per map slot used. Cache misses are not in it.
fn computed_bytes(l: &ParLoop) -> f64 {
    let n = l.set().size() as f64;
    let mut bytes = 0.0;
    let mut slots: Vec<(u64, usize)> = Vec::new();
    for a in l.args() {
        let elem = if a.dat_name == "p_bound" { 4.0 } else { 8.0 };
        let passes = match a.access {
            Access::Read | Access::Write => 1.0,
            _ => 2.0,
        };
        bytes += n * a.dat_dim as f64 * elem * passes;
        if let MapRef::Indirect { map, idx } = &a.map_ref {
            if !slots.contains(&(map.id(), *idx)) {
                slots.push((map.id(), *idx));
                bytes += n * 4.0;
            }
        }
    }
    bytes
}

/// The ledger pass: a traced, blocking, single-lane march on
/// `SerialExecutor` with a benchmark span around every call into a layer.
///
/// Iterations alternate between the real thing and its parts, so both see
/// the same machine noise:
///
/// * an *executor* iteration — Airfoil: the benchmark's own driver, one span
///   per `try_execute` + `try_wait` in issue order; shallow water: one span
///   per `SweApp::run` step (it threads `dt` through a private field only
///   `run` sets);
/// * a *parts* iteration — the same loops in the same order, each as a
///   `WriteSet::capture` span then a raw `ParLoop::run_span(0..n)` span: a
///   valid iteration in natural order, with no executor at all;
/// * shallow water only, a *per-loop* iteration through the executor (with
///   the previous step's `dt`), for the per-slot executor times.
///
/// The executor iterations' wall splits into what no layer span covers
/// (unattributed: measured, the one share that can show a hole in the spans)
/// and the time inside executor calls, which the parts iterations price as
/// kernel and capture and whose rest is the executor's own. The four shares
/// sum to 1 by construction; `executor_frac` goes negative if the parts cost
/// more alone than inside the executor, i.e. if they do not describe it.
/// At least `min_iters` rounds run, then more until `budget_s` is used.
/// Returns the raw-kernel ms of one iteration.
fn ledger_pass(
    acc: &mut Outcome,
    inst: &dyn Instance,
    spec: &MeshSpec,
    min_iters: usize,
    budget_s: f64,
    log: &mut SpanLog,
) -> f64 {
    use std::rc::Rc;
    let exec = inst.exec();
    let loops = inst.loops();
    let schedule = schedule(spec.app);
    let label = |prefix: &str| -> Vec<Rc<str>> {
        loops
            .iter()
            .map(|l| format!("{prefix}{}", l.name()).into())
            .collect()
    };
    let (names, raw_names, cap_names) =
        (label(""), label("run_span "), label("WriteSet::capture "));
    let step_name: Rc<str> = "SweApp::run step".into();
    let mut scratch: Vec<Vec<f64>> = loops
        .iter()
        .map(|l| vec![0.0; l.gbl_dim().max(1)])
        .collect();
    // Span durations, ns: per slot for the parts, per executor iteration.
    let mut kernel_ns: [Vec<u64>; 5] = Default::default();
    let mut capture_ns: [Vec<u64>; 5] = Default::default();
    let mut exec_ns: [Vec<u64>; 5] = Default::default();
    let mut iter_ns: Vec<u64> = Vec::new();
    let mut iter_gap_ns: Vec<u64> = Vec::new();
    let mut ok = true;

    log.span("ledger pass (traced)", "bench", |log| {
        traced(|| {
            let t0 = Instant::now();
            let mut iters = 0;
            while iters < min_iters || t0.elapsed().as_secs_f64() < budget_s {
                iters += 1;
                let (it, ()) = log.span("executor iteration", "bench", |log| match spec.app {
                    AppKind::Airfoil => {
                        for &slot in schedule {
                            let (id, ()) = log.span(Rc::clone(&names[slot]), "op2-hpx", |_| {
                                ok &= exec
                                    .try_execute(loops[slot])
                                    .and_then(|h| h.try_wait())
                                    .is_ok();
                            });
                            exec_ns[slot].push(log.get(id).dur_ns());
                        }
                    }
                    AppKind::Swe => {
                        log.span(Rc::clone(&step_name), "op2-swe", |_| {
                            ok &= guard(|| inst.march(1)).is_ok();
                        });
                    }
                });
                iter_ns.push(log.get(it).dur_ns());
                iter_gap_ns.push(log.self_ns(it));
                log.span("parts iteration", "bench", |log| {
                    for &slot in schedule {
                        let l = loops[slot];
                        let (id, ()) = log.span(Rc::clone(&cap_names[slot]), "op2-hpx", |_| {
                            drop(black_box(WriteSet::capture(l)));
                        });
                        capture_ns[slot].push(log.get(id).dur_ns());
                        let (id, ()) = log.span(Rc::clone(&raw_names[slot]), "app", |_| {
                            l.run_span(0..l.set().size(), black_box(&mut scratch[slot]));
                        });
                        kernel_ns[slot].push(log.get(id).dur_ns());
                    }
                });
                if spec.app == AppKind::Swe {
                    log.span("per-loop iteration", "bench", |log| {
                        for &slot in schedule {
                            let (id, ()) = log.span(Rc::clone(&names[slot]), "op2-hpx", |_| {
                                ok &= exec
                                    .try_execute(loops[slot])
                                    .and_then(|h| h.try_wait())
                                    .is_ok();
                            });
                            exec_ns[slot].push(log.get(id).dur_ns());
                        }
                    });
                }
            }
            ok &= exec.try_fence().is_ok();
        });
    });
    acc.check("ledger pass ran clean", ok);

    let med_ms = |xs: &[u64]| median(&xs.iter().map(|&ns| ns as f64 / 1e6).collect::<Vec<_>>());
    let mut mb_per_iter = 0.0;
    let mut kernel_iter_ms = 0.0;
    let mut capture_iter_ms = 0.0;
    for (slot, l) in loops.iter().enumerate() {
        let name = SLOTS[slot];
        let per_iter = schedule.iter().filter(|&&s| s == slot).count() as f64;
        let bytes = computed_bytes(l);
        let kernel_ms = med_ms(&kernel_ns[slot]);
        let capture_ms = med_ms(&capture_ns[slot]);
        mb_per_iter += bytes / 1e6 * per_iter;
        kernel_iter_ms += kernel_ms * per_iter;
        capture_iter_ms += capture_ms * per_iter;
        acc.put(format!("app.{name}.kernel_ms"), "ms", kernel_ms);
        acc.put(
            format!("app.{name}.gbps"),
            "GB/s",
            bytes / (kernel_ms / 1e3) / 1e9,
        );
        acc.put(format!("op2-hpx.capture_ms.{name}"), "ms", capture_ms);
        acc.put(
            format!("op2-hpx.serial_exec_tax_ms.{name}"),
            "ms",
            med_ms(&exec_ns[slot]) - kernel_ms,
        );
    }
    acc.put("app.computed_mb_per_iter", "MB", mb_per_iter);

    // Shares of one executor iteration's wall, every term a median over the
    // pass so that one preempted span does not move a share: the wall and the
    // gaps between its spans per executor iteration, the parts per loop.
    let wall_ms = med_ms(&iter_ns);
    let kernel = kernel_iter_ms / wall_ms;
    let capture = capture_iter_ms / wall_ms;
    let unattributed = med_ms(&iter_gap_ns) / wall_ms;
    acc.put("ledger.kernel_frac", "frac", kernel);
    acc.put("ledger.capture_frac", "frac", capture);
    acc.put(
        "ledger.executor_frac",
        "frac",
        1.0 - unattributed - kernel - capture,
    );
    acc.put("ledger.unattributed_frac", "frac", unattributed);
    kernel_iter_ms
}

/// A tuned instance: `TunedExecutor` over a runtime with a fresh tuner.
fn tuned_instance(
    spec: &MeshSpec,
    inp: &Inputs,
    threads: usize,
    log: &mut SpanLog,
) -> (Box<dyn Instance>, Arc<Tuner>) {
    let tuner = Arc::new(Tuner::with_seed(inp.tuner_seed));
    let rt = Arc::new(Op2Runtime::new(threads, PART_SIZE).with_tuner(Arc::clone(&tuner)));
    let exec: Box<dyn Executor> = Box::new(TunedExecutor::new(Arc::clone(&rt)));
    let inst = build_instance_on(spec, inp, rt, exec, SyncStrategy::Blocking, log);
    (inst, tuner)
}

fn pool_delta(inst: &dyn Instance, f: impl FnOnce()) -> Option<MetricsSnapshot> {
    let before = inst.rt().pool().metrics()?.snapshot();
    f();
    Some(before.delta(&inst.rt().pool().metrics()?.snapshot()))
}

/// The ladder: the workload's march up the executor stack one rung at a
/// time, then the app-level probes and the ledger on the serial rung.
fn ladder(
    acc: &mut Outcome,
    w: &Workload,
    inp: &Inputs,
    threads: usize,
    scratch: &Path,
    slice: f64,
    log: &mut SpanLog,
) {
    let spec = &w.mesh;
    let block = w.block;
    let loops_per_iter = schedule(spec.app).len() as f64;
    let serial_iter_s;
    let kernel_iter_ms;

    // Serial rung first: its loop probes price the others.
    {
        let inst = build_instance(spec, inp, BackendKind::Serial, threads, log);
        inst.march(1);
        serial_iter_s = log
            .span("march: serial", "op2-hpx", |_| {
                per_iter_s(inst.as_ref(), block, slice)
            })
            .1;
        let flux = inst.loops()[2];
        let (_, plan) = log.span("Plan::build flux", "op2-core", |_| {
            Plan::build(flux.set(), flux.args(), PART_SIZE)
        });
        acc.put(
            "op2-core.plan_build_ms",
            "ms",
            median_time(slice / 4.0, || {
                drop(black_box(Plan::build(flux.set(), flux.args(), PART_SIZE)))
            }) * 1e3,
        );
        acc.put("op2-core.flux_ncolors", "count", f64::from(plan.ncolors));
        acc.put("op2-core.flux_nblocks", "count", plan.nblocks() as f64);
        kernel_iter_ms = ledger_pass(acc, inst.as_ref(), spec, block, 3.0 * slice, log);
    }
    let overhead_us = |iter_s: f64, lanes: usize| {
        (iter_s * 1e3 - kernel_iter_ms / lanes as f64) / loops_per_iter * 1e3
    };
    acc.put(
        "op2-hpx.serial.loop_overhead_us",
        "us",
        overhead_us(serial_iter_s, 1),
    );

    let mut best_fixed = serial_iter_s;
    let mut forkjoin_iter_s = f64::NAN;
    let mut dataflow_iter_s = f64::NAN;
    for (label, kind) in [
        ("forkjoin", BackendKind::ForkJoin),
        ("foreach-auto", BackendKind::ForEachAuto),
        ("async", BackendKind::Async),
        ("dataflow", BackendKind::Dataflow),
    ] {
        let inst = build_instance(spec, inp, kind, threads, log);
        inst.march(1);
        let mut blocks_s = Vec::new();
        let delta = pool_delta(inst.as_ref(), || {
            blocks_s = log
                .span(format!("march: {label}"), "op2-hpx", |_| {
                    times_within(slice, 1, 9, || inst.march(block))
                })
                .1;
        });
        let iter_s = median(&blocks_s) / block as f64;
        best_fixed = best_fixed.min(iter_s);
        acc.put(
            format!("op2-hpx.{label}.loop_overhead_us"),
            "us",
            overhead_us(iter_s, threads),
        );
        match kind {
            BackendKind::ForEachAuto => {
                acc.put("op2-hpx.rung.foreach_s", "s", iter_s * block as f64)
            }
            BackendKind::Async => acc.put("op2-hpx.rung.async_s", "s", iter_s * block as f64),
            BackendKind::ForkJoin => forkjoin_iter_s = iter_s,
            _ => dataflow_iter_s = iter_s,
        }
        if matches!(kind, BackendKind::ForkJoin | BackendKind::Dataflow) {
            let (report, _, ()) = log
                .span(format!("march: {label} (traced)"), "op2-hpx", |_| {
                    traced(|| inst.march(block))
                })
                .1;
            let lanes = report.workers.max(1) as u64;
            acc.put(
                format!("op2-hpx.{label}.barrier_wait_frac"),
                "frac",
                frac(report.barrier_wait_ns(), report.wall_ns * lanes),
            );
            acc.put(
                format!("op2-hpx.{label}.idle_frac"),
                "frac",
                report.idle_fraction,
            );
            if kind == BackendKind::Dataflow {
                acc.put(
                    "op2-hpx.dataflow.dep_wait_frac",
                    "frac",
                    frac(report.dep_wait_ns, report.wall_ns * lanes),
                );
                acc.put(
                    "op2-hpx.dataflow.critical_path_frac",
                    "frac",
                    frac(report.critical_path_ns, report.wall_ns),
                );
                let iters = (blocks_s.len() * block) as f64;
                let d = delta.expect("the work-stealing pool keeps counters");
                acc.put(
                    "hpx-rt.tasks_per_iter",
                    "count",
                    d.tasks_executed as f64 / iters,
                );
                acc.put("hpx-rt.steals_per_iter", "count", d.steals as f64 / iters);
                acc.put("hpx-rt.parks_per_iter", "count", d.parks as f64 / iters);
                acc.put(
                    "hpx-rt.barrier_waits_per_iter",
                    "count",
                    d.barrier_waits as f64 / iters,
                );
                acc.put(
                    "hpx-rt.dep_waits_per_iter",
                    "count",
                    d.dep_waits as f64 / iters,
                );
                let sup = Supervisor::new(
                    Arc::clone(inst.rt()),
                    BackendKind::Dataflow,
                    RetryPolicy::default(),
                );
                let (_, sup_s) = log.span("march: supervised", "op2-hpx", |_| {
                    median_time(slice, || {
                        inst.march_supervised(&sup, block)
                            .expect("supervised probe march")
                    })
                });
                acc.put("op2-hpx.rung.supervised_s", "s", sup_s);
            }
        }
    }
    acc.put(
        "op2-hpx.dataflow_gain",
        "frac",
        forkjoin_iter_s / dataflow_iter_s - 1.0,
    );

    // Tuned rung: explore until converged, then time the warm executor.
    {
        let (inst, tuner) = tuned_instance(spec, inp, threads, log);
        let mut explore_iters = 0usize;
        log.span("march: tuned (exploring)", "op2-tune", |_| {
            let t0 = Instant::now();
            while !tuner.converged() && t0.elapsed().as_secs_f64() < 4.0 * slice {
                inst.march(1);
                explore_iters += 1;
            }
        });
        if !tuner.converged() {
            acc.notes.push(format!(
                "op2-tune: the tuner had not converged after {explore_iters} iterations ({:.1} s); explore_loops is a lower bound and tuned_warm_s is not warm",
                4.0 * slice
            ));
        }
        let (_, warm_iter_s) = log.span("march: tuned (warm)", "op2-tune", |_| {
            per_iter_s(inst.as_ref(), block, slice)
        });
        acc.put(
            "op2-tune.explore_loops",
            "count",
            explore_iters as f64 * loops_per_iter,
        );
        acc.put("op2-hpx.rung.tuned_warm_s", "s", warm_iter_s * block as f64);
        acc.put(
            "op2-tune.warm_vs_best_fixed",
            "ratio",
            warm_iter_s / best_fixed,
        );
        let path = scratch.join("tune-store.bin");
        let (_, round_trip_s) = log.span("Tuner::save + load", "op2-tune", |_| {
            median_time(slice / 4.0, || {
                tuner.save(&path).expect("save tune store");
                Tuner::with_seed(inp.tuner_seed)
                    .load(&path)
                    .expect("load tune store");
            })
        });
        acc.put("op2-tune.store_roundtrip_ms", "ms", round_trip_s * 1e3);

        let flux = inst.loops()[2];
        let key = key_for(inst.rt(), flux);
        let ctx = TuneContext {
            workers: threads,
            default_part_size: PART_SIZE,
            backends: TUNABLE_BACKENDS.to_vec(),
            plan_order_invariant: false,
            layouts: Vec::new(),
        };
        const N: usize = 100_000;
        let probe = Tuner::with_seed(inp.tuner_seed);
        let decide_s = timed(|| {
            for _ in 0..N {
                black_box(probe.decide(&key, &ctx));
            }
        })
        .0;
        let observe_s = timed(|| {
            for i in 0..N {
                let trial = probe.decide(&key, &ctx).trial;
                probe.observe(
                    &key,
                    trial,
                    Observation {
                        wall_ns: 1_000 + i as u64,
                        ..Observation::default()
                    },
                );
            }
        })
        .0;
        acc.put("op2-tune.decide_ns", "ns", decide_s / N as f64 * 1e9);
        acc.put(
            "op2-tune.observe_ns",
            "ns",
            (observe_s - decide_s).max(0.0) / N as f64 * 1e9,
        );
    }

    floor_probes(acc, spec, inp, block, serial_iter_s, slice, log);
}

/// Hand-written floor and the triad probes; checks the floor's final state
/// against `SerialExecutor` on the same canonical (AoS, generator-numbered)
/// mesh bit for bit.
fn floor_probes(
    acc: &mut Outcome,
    spec: &MeshSpec,
    inp: &Inputs,
    block: usize,
    serial_iter_s: f64,
    slice: f64,
    log: &mut SpanLog,
) {
    let canonical = MeshSpec {
        layout: Layout::Aos,
        renumber: false,
        shuffle: false,
        ..*spec
    };
    let inst = build_instance(&canonical, inp, BackendKind::Serial, 1, log);
    let state0 = inst.state();
    let data = MeshBuilder::channel(spec.nx, spec.ny).data();
    let nnodes = data.nnodes();
    let (flux, bflux) = (inst.loops()[2], inst.loops()[3]);
    let flux_plan = Plan::build(flux.set(), flux.args(), PART_SIZE);
    let bflux_plan = Plan::build(bflux.set(), bflux.args(), PART_SIZE);
    // At least a block of steps, then as many as fit in half a slice.
    let step_s;
    let (floor_state, dat_doubles) = match spec.app {
        AppKind::Airfoil => {
            let mut f = FloorAirfoil::new(data, state0, &flux_plan, &bflux_plan);
            step_s = log
                .span("hand-written Airfoil", "floor", |_| {
                    times_within(slice / 2.0, block, 64, || {
                        black_box(f.iterate());
                    })
                })
                .1;
            (f.q, 13 * spec.ncells() + 2 * nnodes)
        }
        AppKind::Swe => {
            let cfg = swe_config(spec);
            let mut f = FloorSwe::new(data, state0, cfg.g, cfg.cfl, &flux_plan, &bflux_plan);
            step_s = log
                .span("hand-written shallow water", "floor", |_| {
                    times_within(slice / 2.0, block, 64, || {
                        black_box(f.iterate());
                    })
                })
                .1;
            (f.w, 10 * spec.ncells() + 2 * nnodes)
        }
    };
    log.span("SerialExecutor on the canonical mesh", "op2-hpx", |_| {
        inst.march(step_s.len())
    });
    acc.check(
        "hand-written floor digest == SerialExecutor AoS digest",
        fnv1a(&floor_state) == fnv1a(&inst.state()),
    );
    let floor_s = median(&step_s);
    acc.put("floor.step_ms", "ms", floor_s * 1e3);
    acc.put("floor.serial_tax", "ratio", serial_iter_s / floor_s);

    let (_, ws) = log.span("triad (working set)", "floor", |_| {
        triad_gbps(dat_doubles / 3, slice / 2.0)
    });
    acc.put("floor.triad_ws_gbps", "GB/s", ws);
    // Out of cache: three arrays of 4x the last-level cache each, capped at
    // 128 MiB per array so that first touching them stays under half a second
    // (a guest that sees a whole socket's L3 in sysfs would otherwise stream
    // GBs).
    let llc = util::llc_bytes();
    let per_array = (4 * llc).min(128 << 20);
    if per_array < 4 * llc {
        acc.notes.push(format!(
            "floor.triad_dram_gbps: arrays of {} MiB each, not 4x the {} MiB last-level cache sysfs reports",
            per_array >> 20,
            llc >> 20
        ));
    }
    let (_, dram) = log.span("triad (DRAM)", "floor", |_| {
        triad_gbps(per_array / 8, slice / 2.0)
    });
    acc.put("floor.triad_dram_gbps", "GB/s", dram);
}

/// Plan cache, topology hash, RCM and mesh/loop declaration costs.
fn core_probes(acc: &mut Outcome, spec: &MeshSpec, inp: &Inputs, slice: f64, log: &mut SpanLog) {
    let consts = FlowConstants::default();
    let airfoil_spec = MeshSpec {
        app: AppKind::Airfoil,
        ..*spec
    };
    let cache = PlanCache::new();
    let mut mesh_s = Vec::new();
    let mut loops_s = Vec::new();
    let mut topo_hit_s = Vec::new();
    let mut hit_ns = f64::NAN;
    for round in 0..4 {
        // Fresh Set/Map/Dat objects every round: same topology, new identity.
        let (secs, (mesh, _)) = timed(|| airfoil_mesh(&airfoil_spec, inp, log));
        mesh_s.push(secs);
        let (secs, loops) = timed(|| AirfoilLoops::new(&mesh, &consts));
        loops_s.push(secs);
        let all = [
            &loops.save_soln,
            &loops.adt_calc,
            &loops.res_calc,
            &loops.bres_calc,
            &loops.update,
        ];
        if round == 0 {
            log.span("PlanCache::get (build)", "op2-core", |_| {
                for l in all {
                    cache.get(l.set(), l.args(), PART_SIZE);
                }
            });
            const N: usize = 100_000;
            let l = &loops.res_calc;
            let secs = timed(|| {
                for _ in 0..N {
                    black_box(cache.get(l.set(), l.args(), PART_SIZE));
                }
            })
            .0;
            hit_ns = secs / N as f64 * 1e9;
        } else {
            let l = &loops.res_calc;
            topo_hit_s.push(timed(|| black_box(cache.get(l.set(), l.args(), PART_SIZE))).0);
            for l in all {
                cache.get(l.set(), l.args(), PART_SIZE);
            }
        }
    }
    acc.put("op2-core.plan_cache_hit_ns", "ns", hit_ns);
    acc.put(
        "op2-core.plan_cache_topo_hit_us",
        "us",
        median(&topo_hit_s) * 1e6,
    );
    acc.put("op2-core.plan_builds", "count", cache.builds() as f64);
    acc.put("op2-core.plan_topo_hits", "count", cache.topo_hits() as f64);
    let data = MeshBuilder::channel(spec.nx, spec.ny).data();
    let (_, rcm_s) = log.span("MeshData::renumber_rcm", "op2-core", |_| {
        median_time(slice / 2.0, || drop(black_box(data.renumber_rcm())))
    });
    acc.put("op2-core.rcm_ms", "ms", rcm_s * 1e3);
    match spec.app {
        AppKind::Airfoil => {
            acc.put("app.mesh_build_ms", "ms", median(&mesh_s) * 1e3);
            acc.put("app.loops_new_ms", "ms", median(&loops_s) * 1e3);
        }
        // `SweApp::new` builds mesh, state and loops in one call; the mesh
        // part is the Airfoil mesh build timed above.
        AppKind::Swe => {
            let (_, app_s) = log.span("SweApp::new", "op2-swe", |_| {
                median_time(slice / 2.0, || {
                    drop(black_box(op2_swe::SweApp::new(swe_config(spec))))
                })
            });
            let mesh_s = median(&mesh_s).min(app_s);
            acc.put("app.mesh_build_ms", "ms", mesh_s * 1e3);
            acc.put("app.loops_new_ms", "ms", (app_s - mesh_s) * 1e3);
        }
    }
}

/// Seconds per call of `f`, calling it until `budget_s` is used (at most
/// `max_calls` times, at least once).
fn per_call_s(max_calls: usize, budget_s: f64, mut f: impl FnMut()) -> f64 {
    let t0 = Instant::now();
    let mut calls = 0;
    while calls < max_calls && (calls == 0 || t0.elapsed().as_secs_f64() < budget_s) {
        f();
        calls += 1;
    }
    t0.elapsed().as_secs_f64() / calls as f64
}

/// Wait for a unique `hpx_rt::Future` without `Future::get`'s work-helping
/// wait. `get` on an unready future evaluates its readiness predicate while
/// holding the pool's sleepers lock, and `Shared::complete` wakes sleepers
/// while holding the future's state lock: the two orders deadlock within a
/// few hundred empty tasks (see README, findings). Spinning on `is_ready`
/// takes neither lock pair, and `get` then returns on its fast path.
fn spin_get<T: Send + 'static>(f: hpx_rt::Future<T>) -> T {
    while !f.is_ready() {
        std::hint::spin_loop();
    }
    f.get()
}

/// Empty-body microprobes of the task runtime.
fn runtime_probes(acc: &mut Outcome, threads: usize, slice: f64, log: &mut SpanLog) {
    let pool = ThreadPool::new(threads);
    let (_, spawn_s) = log.span("async_spawn + get", "hpx-rt", |_| {
        per_call_s(20_000, slice / 2.0, || spin_get(async_spawn(&pool, || ())))
    });
    acc.put("hpx-rt.spawn_get_ns", "ns", spawn_s * 1e9);
    let (_, barrier_s) = log.span("for_each_index (empty body)", "hpx-rt", |_| {
        per_call_s(20_000, slice / 2.0, || {
            for_each_index(&pool, par(), 0..threads, |i| {
                black_box(i);
            })
        })
    });
    acc.put("hpx-rt.for_each_barrier_us", "us", barrier_s * 1e6);
    const CHAIN: usize = 2_000;
    let (_, node_s) = log.span("dataflow chain", "hpx-rt", |_| {
        timed(|| {
            let mut f = make_ready_future(0u64);
            for _ in 0..CHAIN {
                f = dataflow1(&pool, |x| x + 1, f);
            }
            assert_eq!(spin_get(f), CHAIN as u64);
        })
        .0
    });
    acc.put("hpx-rt.dataflow_node_ns", "ns", node_s / CHAIN as f64 * 1e9);
}

/// `op2-serve`: what a job pays for going through the service.
fn serve_probes(
    acc: &mut Outcome,
    w: &Workload,
    inp: &Inputs,
    threads: usize,
    scratch: &Path,
    slice: f64,
    log: &mut SpanLog,
) {
    let dims = JobDims::of(w);
    // The reference first: as many solo jobs as fit in a slice (2 to 24) say
    // how many jobs each closed loop below may take.
    let (_, solo_s) = log.span("run_solo reference", "op2-serve", |_| {
        times_within(slice, 2, 24, || {
            op2_serve::apps::run_solo(
                dims.program(JobKind::Airfoil),
                threads,
                64,
                BackendKind::Dataflow,
                RetryPolicy::default(),
            )
            .expect("solo reference job");
        })
    });
    let solo_ms = median(&solo_s) * 1e3;
    let jobs = solo_s.len();
    let order = vec![JobKind::Airfoil; jobs];
    let oracle = [dims.solo(JobKind::Airfoil).unwrap_or(0), 0];
    let svc = tuned_service(dims, threads, inp.tuner_seed, log);
    let submit = |i: usize, kind: JobKind| {
        svc.submit(JobSpec::new(format!("probe-{i}"), dims.program(kind)))
    };

    let (_, one) = log.span("closed loop, 1 client", "op2-serve", |_| {
        closed_loop(1, &order, oracle, &submit)
    });
    let (_, many) = log.span(
        format!("closed loop, {threads} clients"),
        "op2-serve",
        |_| closed_loop(threads, &order, oracle, &submit),
    );
    let (_, rung) = log.span("the workload's march as one job", "op2-serve", |_| {
        timed(|| {
            svc.submit(JobSpec::new("rung", dims.program(JobKind::Airfoil)))
                .wait()
                .is_completed()
        })
    });
    let report = svc.drain();
    acc.check(
        "serve probes: every job completed with its run_solo digest, nothing shed",
        one.bad + many.bad == 0 && rung.1 && report.is_conserved() && report.shed == 0,
    );
    let lat = |b: &crate::serve::Batch| {
        median(
            &b.jobs
                .iter()
                .map(|&(a, _, c)| (c - a) as f64 / 1e6)
                .collect::<Vec<_>>(),
        )
    };
    let submit_us: Vec<f64> = many
        .jobs
        .iter()
        .map(|&(a, b, _)| (b - a) as f64 / 1e3)
        .collect();
    acc.put("op2-serve.submit_us", "us", median(&submit_us));
    acc.put("op2-serve.job_tax_ms", "ms", lat(&one) - solo_ms);
    acc.put("op2-serve.jobs_per_s", "1/s", jobs as f64 / many.wall_s);
    acc.put("op2-serve.queue_peak", "count", report.queue_peak as f64);
    acc.put("op2-serve.shed", "count", report.shed as f64);
    acc.put("op2-serve.rung.submit_s", "s", rung.0);

    // Journal tax on tiny jobs, where the two fsynced appends are visible.
    let tiny = JobDims {
        nx: 32,
        ny: 16,
        iters: 2,
    };
    let dir = scratch.join("probe-journal");
    let journaled = Service::start(
        ServeOptions::default()
            .workers(1)
            .pool(PoolMode::Shared { threads })
            .backend(BackendKind::Dataflow)
            .journal(&dir)
            .recipe("tiny", move || tiny.program(JobKind::Airfoil)),
    );
    journaled.submit_durable("warm", "tiny").wait();
    let mut plain_ms = Vec::new();
    let mut durable_ms = Vec::new();
    log.span("submit_durable vs submit", "op2-serve", |_| {
        for i in 0..16 {
            plain_ms.push(
                timed(|| {
                    journaled
                        .submit(JobSpec::new("p", tiny.program(JobKind::Airfoil)))
                        .wait()
                })
                .0 * 1e3,
            );
            durable_ms
                .push(timed(|| journaled.submit_durable(&format!("d{i}"), "tiny").wait()).0 * 1e3);
        }
    });
    let report = journaled.drain();
    let _ = std::fs::remove_dir_all(&dir);
    acc.check(
        "journal probe: conserved, nothing failed",
        report.is_conserved() && report.failed == 0,
    );
    acc.put(
        "op2-serve.journal_tax_ms",
        "ms",
        median(&durable_ms) - median(&plain_ms),
    );
}

/// `op2-dist` and the fabric under it.
fn dist_probes(
    acc: &mut Outcome,
    w: &Workload,
    inp: &Inputs,
    scratch: &Path,
    slice: f64,
    log: &mut SpanLog,
) {
    let spec = MeshSpec {
        app: AppKind::Airfoil,
        layout: Layout::Aos,
        renumber: false,
        shuffle: false,
        ..w.mesh
    };
    let iters = w.block;
    let inputs = DistInputs::build(&spec, inp, dist::RANKS, log);
    let ncells = inputs.data.ncells();
    let (_, partition_s) = log.span(
        "Partition::strips + build_local + HaloPlan::build",
        "op2-dist",
        |_| {
            median_time(slice / 4.0, || {
                let part = Partition::strips(ncells, dist::RANKS);
                for r in 0..dist::RANKS {
                    black_box(HaloPlan::build(&build_local(&inputs.data, &part, r)));
                }
            })
        },
    );
    acc.put("op2-dist.partition_ms", "ms", partition_s * 1e3);
    let halo = total_halo_cells(&inputs.data, &inputs.part);
    acc.put("op2-dist.halo_cells", "count", halo as f64);
    // Per stage: q (4 doubles) forward and res (4 doubles) back per halo cell.
    acc.put(
        "op2-dist.halo_mb_per_iter",
        "MB",
        halo as f64 * 2.0 * 8.0 * 8.0 / 1e6,
    );

    const PINGS: usize = 2_000;
    let (_, fabric) = log.span("Fabric::run ping-pong + allreduce", "op2-dist", |_| {
        Fabric::run(2, |comm| {
            let peer = 1 - comm.rank();
            let ping = timed(|| {
                for i in 0..PINGS as u64 {
                    if comm.rank() == 0 {
                        comm.send(peer, i, vec![1.0]).expect("send");
                        comm.recv(peer, i).expect("recv");
                    } else {
                        let v = comm.recv(peer, i).expect("recv");
                        comm.send(peer, i, v).expect("send");
                    }
                }
            })
            .0;
            let reduce = timed(|| {
                for _ in 0..PINGS {
                    black_box(comm.allreduce_sum(&[1.0]).expect("allreduce"));
                }
            })
            .0;
            (ping, reduce)
        })
    });
    acc.put(
        "op2-dist.pingpong_us",
        "us",
        fabric[0].0 / PINGS as f64 * 1e6,
    );
    acc.put(
        "op2-dist.allreduce_us",
        "us",
        fabric[0].1 / PINGS as f64 * 1e6,
    );

    let run = |opts: &DistOptions| inputs.run(iters, opts).expect("distributed probe march");
    let mut finals: Vec<u64> = Vec::new();
    let (_, bulk_s) = log.span("march: 2 ranks bulk", "op2-dist", |_| {
        median_time(slice, || {
            finals.push(fnv1a(&run(&DistOptions::default()).final_q))
        })
    });
    let (_, overlap_s) = log.span("march: 2 ranks overlapped", "op2-dist", |_| {
        median_time(slice, || {
            finals.push(fnv1a(&run(&dist::overlapped()).final_q))
        })
    });
    let one_rank = DistInputs {
        part: Partition::strips(ncells, 1),
        data: inputs.data.clone(),
        q0: inputs.q0.clone(),
        consts: inputs.consts,
    };
    let (_, rank1_s) = log.span("march: 1 rank", "op2-dist", |_| {
        median_time(slice, || {
            drop(black_box(
                one_rank
                    .run(iters, &dist::overlapped())
                    .expect("1-rank probe march"),
            ))
        })
    });
    let dir = scratch.join("probe-ckpt");
    let mut ckpt = op2_dist::CkptStats::default();
    let (_, durable_s) = log.span("march: durable checkpoints", "op2-dist", |_| {
        median_time(slice, || {
            let rep = run(&dist::durable(&dir));
            let _ = std::fs::remove_dir_all(&dir);
            ckpt = rep.ckpt;
            finals.push(fnv1a(&rep.final_q));
        })
    });
    let died = inputs.run(
        iters,
        &DistOptions {
            die_at: Some(iters / 2 + 1),
            ..dist::durable(&dir)
        },
    );
    let (_, (resume_s, resumed)) = log.span("resume_distributed_opts", "op2-dist", |_| {
        timed(|| inputs.resume(iters, &dist::durable(&dir)))
    });
    let _ = std::fs::remove_dir_all(&dir);
    if let Ok(rep) = &resumed {
        finals.push(fnv1a(&rep.final_q));
    }
    acc.check(
        "dist probes: bulk = overlapped = durable = resumed, bit for bit",
        died.is_err() && resumed.is_ok() && finals.windows(2).all(|p| p[0] == p[1]),
    );
    // The same Airfoil march on `SerialExecutor`, for the 1-rank tax.
    let serial = build_instance(&spec, inp, BackendKind::Serial, 1, log);
    serial.march(1);
    let (_, serial_s) = log.span("march: SerialExecutor reference", "op2-hpx", |_| {
        median_time(slice, || serial.march(iters))
    });
    drop(serial);
    acc.put("op2-dist.march_bulk_s", "s", bulk_s);
    acc.put("op2-dist.overlap_gain", "frac", bulk_s / overlap_s - 1.0);
    acc.put("op2-dist.rank1_tax", "ratio", rank1_s / serial_s);
    let commits = (ckpt.appends as f64 / dist::RANKS as f64).max(1.0);
    acc.put(
        "op2-dist.ckpt_commit_ms",
        "ms",
        (durable_s - overlap_s) / commits * 1e3,
    );
    acc.put("op2-dist.ckpt_mb", "MB", ckpt.bytes as f64 / 1e6);
    acc.put("op2-dist.resume_s", "s", resume_s);

    let (report, timeline, _) = log
        .span("march: 2 ranks overlapped (traced)", "op2-dist", |_| {
            traced(|| run(&dist::overlapped()))
        })
        .1;
    acc.put(
        "op2-dist.comm_wait_frac",
        "frac",
        frac(report.comm_wait_ns(), report.wall_ns * dist::RANKS as u64),
    );
    acc.put(
        "op2-dist.halo_wait_ms",
        "ms",
        report.halo_wait_ns as f64 / 1e6,
    );
    // The rank (trace thread) that spent the largest share of the march
    // blocked in the fabric.
    let idle_max = timeline
        .thread_ids()
        .into_iter()
        .map(|tid| {
            timeline
                .events
                .iter()
                .filter(|e| {
                    e.tid == tid
                        && matches!(
                            e.kind,
                            EventKind::FabricRecv | EventKind::FabricBarrier | EventKind::HaloWait
                        )
                })
                .map(|e| e.end_ns - e.start_ns)
                .sum::<u64>()
        })
        .max()
        .unwrap_or(0);
    acc.put(
        "op2-dist.rank_idle_frac_max",
        "frac",
        frac(idle_max, report.wall_ns),
    );
}

/// `op2-store` primitives.
fn store_probes(acc: &mut Outcome, scratch: &Path, slice: f64, log: &mut SpanLog) {
    let dir = scratch.join("probe-wal");
    let record = vec![0xA5u8; 64 << 10];
    const RECORDS: usize = 64;
    let (_, append_s) = log.span("Wal::append (fsync on)", "op2-store", |_| {
        let (mut wal, _) = Wal::open(WalOptions::new(&dir)).expect("open WAL");
        timed(|| {
            for _ in 0..RECORDS {
                wal.append(1, &record).expect("append");
            }
            wal.sync().expect("sync");
        })
        .0
    });
    acc.put(
        "op2-store.wal_append_mbps",
        "MB/s",
        (RECORDS * record.len()) as f64 / 1e6 / append_s,
    );
    let (_, (replay_s, replayed)) = log.span("Wal::open (replay)", "op2-store", |_| {
        timed(|| Wal::open(WalOptions::new(&dir)).is_ok())
    });
    acc.check("WAL replays after reopen", replayed);
    acc.put("op2-store.wal_replay_ms", "ms", replay_s * 1e3);
    let payload = vec![0x5Au8; 1 << 20];
    let path = dir.join("sealed.bin");
    let (_, sealed_s) = log.span("write_sealed 1 MiB", "op2-store", |_| {
        median_time(slice / 4.0, || {
            write_sealed(&path, &payload, None).expect("write_sealed")
        })
    });
    acc.put("op2-store.sealed_write_ms", "ms", sealed_s * 1e3);
    let _ = std::fs::remove_dir_all(&dir);
    let big = vec![7u8; 64 << 20];
    let (_, hash_s) = log.span("xxhash64 64 MiB", "op2-store", |_| {
        median_time(slice / 4.0, || {
            black_box(xxhash64(&big, 0));
        })
    });
    acc.put(
        "op2-store.xxh64_gbps",
        "GB/s",
        big.len() as f64 / 1e9 / hash_s,
    );
}

/// The deterministic machine model's reproduction of the paper's claims.
fn simsched_probes(acc: &mut Outcome, log: &mut SpanLog) {
    log.span("simsched", "simsched", |_| {
        let spec = airfoil_workload(200, 200, 128);
        let m = MachineParams::default();
        let run = |method, t: usize| {
            simulate(&build_graph(method, &spec, 3, t, &m), t, &m).makespan_ns as f64
        };
        let omp32 = run(SimMethod::OmpForkJoin, 32);
        acc.put(
            "simsched.parity_1t",
            "ratio",
            run(SimMethod::Dataflow, 1) / run(SimMethod::OmpForkJoin, 1),
        );
        acc.put(
            "simsched.async_gain_32t",
            "frac",
            omp32 / run(SimMethod::AsyncFutures, 32) - 1.0,
        );
        acc.put(
            "simsched.dataflow_gain_32t",
            "frac",
            omp32 / run(SimMethod::Dataflow, 32) - 1.0,
        );
    });
}

/// Ask another feature build of this binary for its designated-arm time,
/// measured for `seconds`.
fn variant_march_s(bin: &Path, w: &Workload, args: &Args, seconds: f64) -> Option<f64> {
    let mut cmd = Command::new(bin);
    cmd.args([
        "--workload",
        w.name,
        "--seed",
        &args.seed.to_string(),
        "--seconds",
        &seconds.to_string(),
        "--trace",
        "0",
        "--arm-probe",
    ]);
    cmd.arg("--scratch")
        .arg(args.scratch.parent().unwrap_or(&args.scratch));
    if args.smoke {
        cmd.arg("--smoke");
    }
    let out = cmd.output().ok()?;
    if !out.status.success() {
        return None;
    }
    String::from_utf8(out.stdout).ok()?.trim().parse().ok()
}

pub fn per_layer(w: &Workload, args: &Args, log: &mut SpanLog) -> Outcome {
    let inp = Inputs::from_seed(args.seed);
    let threads = util::bench_threads();
    let mut acc = Outcome::default();
    // Slices handed out below: pairs 4, units 1, catching the oracle up in
    // `verify` about 3 1/2, ladder 17 (serial 1, plan 1/4, ledger 3, four
    // rungs 1 each, supervised 1, tuned 4 + 1 + 1/4, floor 1/2 and its
    // serial twin about 1, triads 1), core 1, runtime 1, serve 3, dist 5 1/4,
    // store 1/2, feature builds 3: about 39 of the 40.
    let slice = args.seconds / 40.0;
    let spent = |t0: &Instant, slices: f64| t0.elapsed().as_secs_f64() >= slices * slice;

    // The workload's designated path, untraced then traced: the difference
    // is what observing costs.
    let (_, mut b) = log.span("build the designated arm", "bench", |log| {
        bench::build(w, &inp, threads, &args.scratch, true, log)
    });
    // Pairs of blocks, collector off then on, so both halves see the same
    // minutes of machine noise (at least two pairs); the last traced block's
    // timeline is kept.
    let mut plain_s = Vec::new();
    let mut seen_s = Vec::new();
    let mut last = None;
    let mut unit_ms = Vec::new();
    log.span("designated arm, collector off / on", "bench", |_| {
        let t0 = Instant::now();
        while plain_s.len() < 2 || !spent(&t0, 4.0) {
            let mut arm = |out: &mut Vec<f64>| {
                acc.attempted += 1;
                match b.run_arm(0, &mut unit_ms) {
                    Ok(secs) => out.push(secs),
                    Err(e) => {
                        acc.failed += 1;
                        acc.notes.push(format!("march arm: {e}"));
                    }
                }
            };
            arm(&mut plain_s);
            let (report, timeline, ()) = traced(|| arm(&mut seen_s));
            last = Some((report, timeline));
            if acc.failed > 0 {
                break;
            }
        }
    });
    // The tail of the unit latency: a p95 moves with the host's slow minutes
    // more than any bound allows (see README), so it is reported here,
    // unbounded, over the units of this pass.
    log.span("units", "bench", |_| {
        let t0 = Instant::now();
        let mut rounds = 0;
        while rounds < 1 || !spent(&t0, 1.0) {
            rounds += 1;
            if let Err(e) = b.run_units(&mut unit_ms) {
                acc.failed += 1;
                acc.notes.push(format!("unit: {e}"));
                break;
            }
        }
    });
    acc.attempted += unit_ms.len() as u64;
    acc.put("unit.p95_ms", "ms", quantile(&unit_ms, 0.95));
    let (_, checks) = log.span("verify", "bench", |_| b.verify());
    drop(b);
    for c in checks {
        acc.check(c.what, c.ok);
    }
    let (report, timeline) = last.expect("at least two pairs ran");
    let untraced_s = median(&plain_s);
    acc.put(
        "op2-trace.overhead_frac",
        "frac",
        median(&seen_s) / untraced_s - 1.0,
    );
    acc.put(
        "op2-trace.events_per_iter",
        "count",
        timeline.events.len() as f64 / w.block as f64,
    );
    acc.put("op2-trace.dropped_events", "count", report.dropped as f64);
    if let Some(dir) = &args.out {
        let path = dir.join(format!("{}.op2-trace.json", w.name));
        if std::fs::create_dir_all(dir)
            .and_then(|()| std::fs::write(&path, op2_trace::chrome::to_chrome_json(&timeline)))
            .is_err()
        {
            acc.notes
                .push(format!("could not write {}", path.display()));
        }
    }
    drop(timeline);

    log.span("ladder", "bench", |log| {
        ladder(&mut acc, w, &inp, threads, &args.scratch, slice, log)
    });
    log.span("op2-core probes", "bench", |log| {
        core_probes(&mut acc, &w.mesh, &inp, slice, log)
    });
    log.span("hpx-rt probes", "bench", |log| {
        runtime_probes(&mut acc, threads, slice, log)
    });
    log.span("op2-serve probes", "bench", |log| {
        serve_probes(&mut acc, w, &inp, threads, &args.scratch, slice, log)
    });
    log.span("op2-dist probes", "bench", |log| {
        dist_probes(&mut acc, w, &inp, &args.scratch, slice, log)
    });
    log.span("op2-store probes", "bench", |log| {
        store_probes(&mut acc, &args.scratch, slice, log)
    });
    simsched_probes(&mut acc, log);

    // The price of the two default-on features of the root crate, from the
    // other builds run.sh made: `det` on, and everything off.
    log.span("feature builds", "bench", |_| {
        let of = |label: &str| {
            args.variants
                .iter()
                .find(|(l, _)| l == label)
                .and_then(|(_, bin)| variant_march_s(bin, w, args, 1.5 * slice))
        };
        if args.variants.is_empty() {
            acc.notes
                .push("build.*: no --variants given, not measured".into());
        } else {
            acc.put(
                "build.det_tax",
                "frac",
                of("det").map_or(f64::NAN, |s| s / untraced_s - 1.0),
            );
            acc.put(
                "build.trace_idle_tax",
                "frac",
                of("bare").map_or(f64::NAN, |s| untraced_s / s - 1.0),
            );
        }
    });

    acc
}
