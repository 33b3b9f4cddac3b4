//! `bench-e2e` — one end-to-end benchmark and per-layer ledger for the whole
//! OP2/HPX stack. See `README.md` next to this crate.
//!
//! ```text
//! bench-e2e --workload NAME --seed N --seconds S --trace 0|1
//!           [--smoke] [--scratch DIR] [--out DIR] [--variants det=BIN,bare=BIN]
//! bench-e2e merge DIR
//! ```
//!
//! `--trace 0` times the end-to-end arms with no `op2_trace::Collector`
//! active and prints every end-to-end metric; `--trace 1` runs the traced
//! pass and the layer probes and prints every per-layer metric. Each line is
//! `name unit value`; the last line of standard output is one JSON object.

mod app;
mod bench;
mod dist;
mod floor;
mod layers;
mod merge;
mod serve;
mod spans;
mod util;

use std::path::PathBuf;
use std::process::ExitCode;
use std::time::Instant;

use bench::{Bench, Check, Workload, ARMS};
use spans::SpanLog;
use util::{median, quantile, timed, typical};

/// A reported number.
pub struct Metric {
    pub name: String,
    pub unit: &'static str,
    pub value: f64,
}

pub fn metric(name: impl Into<String>, unit: &'static str, value: f64) -> Metric {
    Metric {
        name: name.into(),
        unit,
        value,
    }
}

pub struct Args {
    pub workload: String,
    pub seed: u64,
    pub seconds: f64,
    pub trace: bool,
    pub smoke: bool,
    pub scratch: PathBuf,
    pub out: Option<PathBuf>,
    /// Other builds of this binary, `label=path`, for the feature-tax probes.
    pub variants: Vec<(String, PathBuf)>,
    /// Print only the designated arm's median block time (what a variant
    /// build is asked for).
    pub arm_probe: bool,
}

fn parse_args(argv: &[String]) -> Result<Args, String> {
    let mut args = Args {
        workload: String::new(),
        seed: 42,
        seconds: 10.0,
        trace: false,
        smoke: false,
        scratch: std::env::temp_dir(),
        out: None,
        variants: Vec::new(),
        arm_probe: false,
    };
    let mut scratch_given = false;
    let mut it = argv.iter();
    while let Some(flag) = it.next() {
        let mut value = |what: &str| {
            it.next()
                .cloned()
                .ok_or_else(|| format!("{flag} needs {what}"))
        };
        match flag.as_str() {
            "--workload" => args.workload = value("a workload name")?,
            "--seed" => {
                args.seed = value("an unsigned integer")?
                    .parse()
                    .map_err(|_| "--seed must be an unsigned integer".to_string())?;
            }
            "--seconds" => {
                args.seconds = value("a number")?
                    .parse()
                    .ok()
                    .filter(|s: &f64| s.is_finite() && *s > 0.0)
                    .ok_or("--seconds must be a positive number")?;
            }
            "--trace" => {
                args.trace = match value("0 or 1")?.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err("--trace must be 0 or 1".into()),
                };
            }
            "--smoke" => args.smoke = true,
            "--arm-probe" => args.arm_probe = true,
            "--scratch" => {
                args.scratch = PathBuf::from(value("a directory")?);
                scratch_given = true;
            }
            "--out" => args.out = Some(PathBuf::from(value("a directory")?)),
            "--variants" => {
                for pair in value("label=path,...")?
                    .split(',')
                    .filter(|p| !p.is_empty())
                {
                    let (label, path) = pair
                        .split_once('=')
                        .ok_or("--variants entries are label=path")?;
                    args.variants.push((label.to_string(), PathBuf::from(path)));
                }
            }
            other => return Err(format!("unknown argument {other}")),
        }
    }
    if args.workload.is_empty() {
        return Err("--workload is required".into());
    }
    if !scratch_given {
        return Err(
            "--scratch is required (run.sh passes a directory inside the build directory)".into(),
        );
    }
    Ok(args)
}

/// Everything a run measured, before it is printed.
#[derive(Default)]
pub struct Outcome {
    pub metrics: Vec<Metric>,
    pub attempted: u64,
    pub failed: u64,
    pub checks: Vec<Check>,
    pub notes: Vec<String>,
}

impl Outcome {
    /// Report a measured value; one that is not finite counts as a failure.
    pub fn put(&mut self, name: impl Into<String>, unit: &'static str, value: f64) {
        let name = name.into();
        self.attempted += 1;
        if value.is_finite() {
            self.metrics.push(metric(name, unit, value));
        } else {
            self.failed += 1;
            self.notes.push(format!("{name}: no finite value measured"));
        }
    }

    /// Record a correctness check.
    pub fn check(&mut self, what: impl Into<String>, ok: bool) {
        self.attempted += 1;
        if !ok {
            self.failed += 1;
        }
        self.checks.push(Check::new(what, ok));
    }
}

/// The timed rounds of every arm: block times per arm, and the unit
/// latencies round by round.
pub struct Rounds {
    pub arm_s: [Vec<f64>; 4],
    pub unit_ms: Vec<Vec<f64>>,
    pub attempted: u64,
    pub failed: u64,
    pub errors: Vec<String>,
}

/// Run rounds of `arms` (each round: one block per listed arm, plus units
/// when `units`), rotating the starting arm, until `seconds` are used. At
/// least three rounds run so every statistic has three samples.
pub fn run_rounds(bench: &mut dyn Bench, arms: &[usize], units: bool, seconds: f64) -> Rounds {
    let mut r = Rounds {
        arm_s: Default::default(),
        unit_ms: Vec::new(),
        attempted: 0,
        failed: 0,
        errors: Vec::new(),
    };
    let slots = arms.len() + usize::from(units);
    let t0 = Instant::now();
    let mut round = 0usize;
    let mut last_round_s = 0.0;
    while round < 3 || t0.elapsed().as_secs_f64() + last_round_s <= seconds {
        let mut round_units = Vec::new();
        let (round_s, ()) = timed(|| {
            for k in 0..slots {
                let slot = (k + round) % slots;
                if let Some(&arm) = arms.get(slot) {
                    r.attempted += 1;
                    match bench.run_arm(arm, &mut round_units) {
                        Ok(secs) => r.arm_s[arm].push(secs),
                        Err(e) => {
                            r.failed += 1;
                            r.errors.push(format!("{} arm: {e}", ARMS[arm]));
                        }
                    }
                } else if let Err(e) = bench.run_units(&mut round_units) {
                    r.failed += 1;
                    r.attempted += 1;
                    r.errors.push(format!("unit: {e}"));
                }
            }
        });
        r.attempted += round_units.len() as u64;
        r.unit_ms.push(round_units);
        last_round_s = round_s;
        round += 1;
        if r.failed > 0 && round >= 3 {
            break;
        }
    }
    r
}

/// Set up the designated path from scratch several times: at least three,
/// then as many as fit in a tenth of `seconds`, up to 101. Set-up `i` gets
/// its own tuner seed, so a run does not report one tuner's luck in
/// exploring. Seconds per set-up.
fn setup_samples(
    w: &Workload,
    inp: &app::Inputs,
    threads: usize,
    seconds: f64,
    log: &mut SpanLog,
) -> Vec<f64> {
    let mut nth = 0u64;
    util::times_within(seconds / 10.0, 3, 101, || {
        let inp = app::Inputs {
            tuner_seed: inp.tuner_seed.wrapping_add(nth),
            ..*inp
        };
        nth += 1;
        log.span("set-up (designated path)", "bench", |log| {
            bench::setup_designated(w, &inp, threads, log)
        });
    })
}

fn end_to_end(w: &Workload, args: &Args, log: &mut SpanLog) -> Outcome {
    let inp = app::Inputs::from_seed(args.seed);
    let threads = util::bench_threads();
    // Set-ups first, on the process's pristine heap: what a user's first
    // set-up pays. After the rounds the allocator hands back warm memory in
    // some processes and not in others, and the samples turn bimodal.
    let setups = setup_samples(w, &inp, threads, args.seconds, log);
    let (_, mut bench) = log.span("build every arm", "bench", |log| {
        bench::build(w, &inp, threads, &args.scratch, false, log)
    });
    let (_, rounds) = log.span("timed rounds", "bench", |_| {
        let arms = bench.round();
        run_rounds(bench.as_mut(), arms, true, args.seconds)
    });
    let (_, checks) = log.span("verify", "bench", |_| bench.verify());
    drop(bench);
    let peak_rss_mb = util::peak_rss_mb();

    let failed_checks = checks.iter().filter(|c| !c.ok).count() as u64;
    let mut out = Outcome {
        metrics: Vec::new(),
        attempted: rounds.attempted + checks.len() as u64,
        failed: rounds.failed + failed_checks,
        checks,
        notes: rounds.errors.clone(),
    };
    let all_units: Vec<f64> = rounds.unit_ms.iter().flatten().copied().collect();
    // One latency per round: the p50 of that round's units.
    let round_p50_ms: Vec<f64> = rounds
        .unit_ms
        .iter()
        .filter(|u| !u.is_empty())
        .map(|u| median(u))
        .collect();
    out.notes.push(format!(
        "samples: setup {} | blocks {:?} | units {} in {} rounds",
        setups.len(),
        rounds.arm_s.iter().map(Vec::len).collect::<Vec<_>>(),
        all_units.len(),
        round_p50_ms.len()
    ));
    let in_run_order = |samples: &[f64], scale: f64| -> String {
        let all: Vec<String> = samples
            .iter()
            .map(|s| format!("{:.3}", s * scale))
            .collect();
        all.join(" ")
    };
    for (arm, samples) in ARMS.iter().zip(&rounds.arm_s) {
        out.notes.push(format!(
            "{arm} blocks, ms, in run order: {}",
            in_run_order(samples, 1e3)
        ));
    }
    out.notes.push(format!(
        "set-ups, ms, in run order: {}",
        in_run_order(&setups, 1e3)
    ));
    out.notes.push(format!(
        "p50 of each round's units, ms, in run order: {}",
        in_run_order(&round_p50_ms, 1.0)
    ));
    out.notes.push(format!(
        "unit p95 {:.4} ms over this run's units (per-layer metric unit.p95_ms; not bounded)",
        quantile(&all_units, 0.95)
    ));
    // A timing is reported only when every arm ran clean and verified.
    if out.failed == 0 {
        out.metrics = vec![
            metric("setup_s", "s", typical(&setups)),
            metric("march_s", "s", typical(&rounds.arm_s[0])),
            metric("march_baseline_s", "s", typical(&rounds.arm_s[1])),
            metric("march_serial_s", "s", typical(&rounds.arm_s[2])),
            metric("march_guarded_s", "s", typical(&rounds.arm_s[3])),
            metric("unit_p50_ms", "ms", typical(&round_p50_ms)),
            metric("peak_rss_mb", "MB", peak_rss_mb),
        ];
    }
    out
}

/// `--arm-probe`: set up, run blocks of the designated arm for `--seconds`
/// (at least three), print the median block time in seconds. Used on the
/// other feature builds.
fn arm_probe(w: &Workload, args: &Args) -> ExitCode {
    let inp = app::Inputs::from_seed(args.seed);
    let mut log = SpanLog::new();
    let mut bench = bench::build(
        w,
        &inp,
        util::bench_threads(),
        &args.scratch,
        true,
        &mut log,
    );
    let rounds = run_rounds(bench.as_mut(), &[0], false, args.seconds);
    let ok = rounds.failed == 0 && bench.verify().iter().all(|c| c.ok);
    drop(bench);
    if !ok {
        eprintln!("arm probe failed: {:?}", rounds.errors);
        return ExitCode::FAILURE;
    }
    println!("{}", typical(&rounds.arm_s[0]));
    ExitCode::SUCCESS
}

fn main() -> ExitCode {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    if argv.first().map(String::as_str) == Some("merge") {
        return match argv.get(1) {
            Some(dir) => merge::merge(std::path::Path::new(dir)),
            None => {
                eprintln!("usage: bench-e2e merge DIR");
                ExitCode::from(2)
            }
        };
    }
    let mut args = match parse_args(&argv) {
        Ok(a) => a,
        Err(e) => {
            eprintln!("bench-e2e: {e}");
            return ExitCode::from(2);
        }
    };
    let Some(w) = bench::workloads(args.smoke)
        .into_iter()
        .find(|w| w.name == args.workload)
    else {
        eprintln!(
            "bench-e2e: unknown workload {} (known: {})",
            args.workload,
            bench::workloads(false)
                .iter()
                .map(|w| w.name)
                .collect::<Vec<_>>()
                .join(", ")
        );
        return ExitCode::from(2);
    };
    // A private directory for journals and checkpoint logs, removed at exit.
    args.scratch = args
        .scratch
        .join(format!("bench-e2e-{}", std::process::id()));
    if let Err(e) = std::fs::create_dir_all(&args.scratch) {
        eprintln!("bench-e2e: cannot create {}: {e}", args.scratch.display());
        return ExitCode::from(2);
    }
    let code = run(&w, &args);
    let _ = std::fs::remove_dir_all(&args.scratch);
    code
}

fn run(w: &Workload, args: &Args) -> ExitCode {
    if args.arm_probe {
        return arm_probe(w, args);
    }
    let mut log = SpanLog::new();
    let (root, out) = log.span(
        format!("{} (trace {})", w.name, u8::from(args.trace)),
        "bench",
        |log| {
            if args.trace {
                layers::per_layer(w, args, log)
            } else {
                end_to_end(w, args, log)
            }
        },
    );
    let wall_ns = log.get(root).dur_ns();

    println!(
        "# workload {} seed {} seconds {} trace {}",
        w.name,
        args.seed,
        args.seconds,
        u8::from(args.trace)
    );
    for (k, v) in util::env_block() {
        println!("# env {k}: {v}");
    }
    for c in &out.checks {
        println!("# check {c}");
    }
    for n in &out.notes {
        println!("# note {n}");
    }
    println!(
        "# spans: root {:.3} s, not inside any child span {:.4}",
        wall_ns as f64 / 1e9,
        log.self_ns(root) as f64 / wall_ns.max(1) as f64
    );
    for m in &out.metrics {
        println!("{} {} {}", m.name, m.unit, m.value);
    }
    let result = merge::result_line(&out);
    if let Some(dir) = &args.out {
        if let Err(e) = merge::write_run(dir, w, args, &out, &log) {
            eprintln!("bench-e2e: cannot write results to {}: {e}", dir.display());
            return ExitCode::FAILURE;
        }
    }
    println!("{result}");
    if out.failed == 0 {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}
