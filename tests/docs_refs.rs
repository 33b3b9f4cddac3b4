//! Docs and CI must not name a cargo target that no longer exists.
//!
//! Every `--bin X`, `--example X` and `--test X` that `README.md`,
//! `EXPERIMENTS.md`, `DESIGN.md` and `.github/workflows/ci.yml` spell out
//! has to resolve to a source file of the package the same line selects
//! with `-p`, or of any workspace package when it selects none (wrapped
//! commands, table cells that abbreviate to `--bin fig16`). A `--bin` resolves
//! to the `path` of a `[[bin]]` of that name in the package's `Cargo.toml`,
//! or else to `src/bin/X.rs`.
//!
//! Nor may DESIGN.md's workspace layout name a source file that is gone:
//! under each `### crates/<dir>` heading, every backticked `<name>.rs` has to
//! be a file of `crates/<dir>/src/`.
//!
//! And rules about the sources themselves, checked the same way: op2-hpx
//! snapshots a write-set in exactly one place, and it consults the tuner in
//! exactly one place — the code that waits on every loop builds no executor
//! to do it; the apps' kernels never touch a map or branch on the data
//! layout, and the apps hold no `unsafe` and no raw view; loop order is
//! derived by one dependency rule, `op2_core::deps`; the apps, the machine
//! model and the service issue no loop but through `op2_hpx::run_step`; the
//! distributed layer calls an Airfoil kernel only in its halo-group path; the
//! `det` layer keeps off the accessors and the colored body; and there is
//! one build — no source gates code on a cargo feature.

use std::collections::BTreeMap;
use std::path::{Path, PathBuf};

const SOURCES: [&str; 4] = [
    "README.md",
    "EXPERIMENTS.md",
    "DESIGN.md",
    ".github/workflows/ci.yml",
];

/// Package name → directory, for the root package and `crates/*`.
fn packages(root: &Path) -> BTreeMap<String, PathBuf> {
    let mut out = BTreeMap::from([(env!("CARGO_PKG_NAME").to_string(), root.to_path_buf())]);
    for entry in std::fs::read_dir(root.join("crates")).expect("crates/ is readable") {
        let dir = entry.expect("crates/ entry").path();
        let Ok(manifest) = std::fs::read_to_string(dir.join("Cargo.toml")) else {
            continue;
        };
        let name = manifest
            .lines()
            .find_map(|l| l.strip_prefix("name = \"")?.strip_suffix('"'))
            .unwrap_or_else(|| panic!("{}: no package name", dir.display()));
        out.insert(name.to_string(), dir);
    }
    out
}

/// The source file of `--bin name` in the package at `dir`: the `path` of a
/// `[[bin]]` of that name in its `Cargo.toml`, else `src/bin/<name>.rs`.
fn bin_source(dir: &Path, name: &str) -> PathBuf {
    let manifest = std::fs::read_to_string(dir.join("Cargo.toml")).unwrap_or_default();
    let declared = manifest.split("\n[").find_map(|section| {
        let keys = section.strip_prefix("[bin]]")?;
        let value = |key: &str| {
            keys.lines().find_map(|l| {
                let v = l.strip_prefix(key)?.trim_start().strip_prefix('=')?.trim();
                v.strip_prefix('"')?.strip_suffix('"')
            })
        };
        let path = value("path")?;
        (value("name")? == name).then(|| dir.join(path))
    });
    declared.unwrap_or_else(|| dir.join(format!("src/bin/{name}.rs")))
}

/// The word after each occurrence of `flag` in `line`, cut at the first
/// character a target or package name cannot contain.
fn words_after<'a>(line: &'a str, flag: &str) -> Vec<&'a str> {
    line.match_indices(flag)
        .filter_map(|(at, _)| {
            let rest = line[at + flag.len()..].strip_prefix(' ')?;
            let end = rest
                .find(|c: char| !(c.is_ascii_alphanumeric() || c == '_' || c == '-'))
                .unwrap_or(rest.len());
            (end > 0).then(|| &rest[..end])
        })
        .collect()
}

#[test]
fn every_named_cargo_target_exists() {
    let root = Path::new(env!("CARGO_MANIFEST_DIR"));
    let packages = packages(root);
    let mut checked = 0;
    let mut missing = Vec::new();
    for source in SOURCES {
        let text =
            std::fs::read_to_string(root.join(source)).unwrap_or_else(|e| panic!("{source}: {e}"));
        for (n, line) in text.lines().enumerate() {
            let selected: Vec<&Path> = words_after(line, "-p")
                .into_iter()
                .filter_map(|p| packages.get(p).map(PathBuf::as_path))
                .collect();
            let dirs = if selected.is_empty() {
                packages.values().map(PathBuf::as_path).collect()
            } else {
                selected
            };
            for (flag, sub) in [
                ("--bin", ""),
                ("--example", "examples"),
                ("--test", "tests"),
            ] {
                for target in words_after(line, flag) {
                    checked += 1;
                    let file_of = |dir: &Path| match sub {
                        "" => bin_source(dir, target),
                        _ => dir.join(format!("{sub}/{target}.rs")),
                    };
                    if !dirs.iter().any(|d| file_of(d).is_file()) {
                        missing.push(format!("{source}:{}: {flag} {target}", n + 1));
                    }
                }
            }
        }
    }
    assert!(checked > 30, "the scan found only {checked} references");
    assert!(
        missing.is_empty(),
        "references to cargo targets that do not exist:\n  {}",
        missing.join("\n  ")
    );
}

/// The backticked bare file names (`` `name.rs` ``, no directory) in `line`.
fn backticked_rs_files(line: &str) -> impl Iterator<Item = &str> {
    let is_bare = |s: &&str| {
        s.strip_suffix(".rs").is_some_and(|stem| {
            !stem.is_empty() && stem.chars().all(|c| c.is_ascii_alphanumeric() || c == '_')
        })
    };
    // Odd pieces of a split at backticks are the code spans.
    line.split('`').skip(1).step_by(2).filter(is_bare)
}

#[test]
fn design_layout_names_only_source_files_that_exist() {
    let root = Path::new(env!("CARGO_MANIFEST_DIR"));
    let text = std::fs::read_to_string(root.join("DESIGN.md")).expect("DESIGN.md is readable");
    let mut src: Option<PathBuf> = None;
    let mut checked = 0;
    let mut missing = Vec::new();
    for (n, line) in text.lines().enumerate() {
        if line.starts_with('#') {
            src = line
                .strip_prefix("### crates/")
                .and_then(|rest| rest.split_whitespace().next())
                .map(|dir| root.join("crates").join(dir).join("src"));
            continue;
        }
        let Some(src) = &src else { continue };
        for file in backticked_rs_files(line) {
            checked += 1;
            if !src.join(file).is_file() {
                missing.push(format!(
                    "DESIGN.md:{}: `{file}` is not in {}",
                    n + 1,
                    src.display()
                ));
            }
        }
    }
    assert!(checked > 30, "the scan found only {checked} file names");
    assert!(
        missing.is_empty(),
        "DESIGN.md's workspace layout names source files that do not exist:\n  {}",
        missing.join("\n  ")
    );
}

/// The code of one source file: the trimmed lines up to its first
/// `#[cfg(test)]`, comments aside, each with its line number.
fn code(path: &Path) -> Vec<(usize, String)> {
    let text = std::fs::read_to_string(path).unwrap_or_else(|e| panic!("{path:?}: {e}"));
    let code = text.split("#[cfg(test)]").next().unwrap_or_default();
    code.lines()
        .enumerate()
        .map(|(n, line)| (n + 1, line.trim().to_string()))
        .filter(|(_, line)| !line.starts_with("//"))
        .collect()
}

/// [`code`] of every file of the source directory `dir`, by file name.
fn src_code(dir: &str) -> Vec<(String, Vec<(usize, String)>)> {
    let src = Path::new(env!("CARGO_MANIFEST_DIR")).join(dir);
    let mut files = Vec::new();
    for entry in std::fs::read_dir(&src).unwrap_or_else(|e| panic!("{dir}: {e}")) {
        let path = entry.expect("source entry").path();
        let file = path.file_name().expect("a file name").to_string_lossy().into_owned();
        files.push((file, code(&path)));
    }
    files
}

/// `Transaction::begin` is the only code in op2-hpx that snapshots a
/// write-set: it is where the runtime's rollback setting is read, so an
/// executor that called `WriteSet::capture` itself would copy on every run
/// again.
#[test]
fn write_sets_are_captured_in_transaction_begin_only() {
    let mut calls = Vec::new();
    for (file, lines) in src_code("crates/core/src") {
        // The innermost `impl` and `fn` headers above each line.
        let (mut in_impl, mut in_fn) = ("", "");
        for (n, line) in &lines {
            if line.starts_with("impl ") {
                in_impl = line;
            }
            if line.contains("fn ") {
                in_fn = line;
            }
            if line.contains("WriteSet::capture(") {
                calls.push(format!("{file}:{n}: in `{in_fn}` of `{in_impl}`"));
            }
        }
    }
    assert_eq!(calls.len(), 1, "WriteSet::capture( call sites: {calls:#?}");
    let only = &calls[0];
    assert!(
        only.starts_with("recover.rs:")
            && only.contains("fn begin(")
            && only.contains("`impl Transaction {`"),
        "the one capture call is not in Transaction::begin: {only}"
    );
}

/// A loop that is waited on has one shape. The tuner is consulted at one call
/// site (`Op2Runtime::prepare`, which every backend's decision goes
/// through), and the two layers that wait on every loop — the supervisor and
/// the tuned executor — call `Op2Runtime::run_blocking` per attempt: neither
/// constructs an executor, boxed or concrete, to run a loop on.
#[test]
fn the_tuner_has_one_consult_site_and_waiting_layers_build_no_executor() {
    let mut consults = Vec::new();
    let mut built = Vec::new();
    for (file, lines) in src_code("crates/core/src") {
        for (n, line) in &lines {
            if line.contains("tune::begin(") {
                consults.push(format!("{file}:{n}: {line}"));
            }
            if file == "recover.rs" || file == "tuned.rs" {
                for needle in ["make_executor(", "Box<dyn Executor>", "Executor::new("] {
                    if line.contains(needle) {
                        built.push(format!("{file}:{n}: {line}"));
                    }
                }
            }
        }
    }
    assert_eq!(consults.len(), 1, "tune::begin( call sites: {consults:#?}");
    assert!(consults[0].starts_with("runtime.rs:"), "{consults:#?}");
    assert!(built.is_empty(), "executors built by a layer that waits: {built:#?}");
}

/// The code lines of every kernel region in Airfoil's and shallow-water's loop
/// wiring — each `.kernel(` call, up to the parenthesis that closes it, and
/// each wide kernel's `fn run<R: Real>(`, up to the brace that closes its
/// body — as `file:line: code`. Fails unless it finds all ten regions.
fn app_kernel_lines() -> Vec<String> {
    let root = Path::new(env!("CARGO_MANIFEST_DIR"));
    let mut regions = 0;
    let mut lines = Vec::new();
    for file in ["crates/airfoil/src/loops.rs", "crates/shallow-water/src/app.rs"] {
        // The open region's nesting depth and the bracket pair it counts.
        let mut depth: Option<(i64, [char; 2])> = None;
        for (n, line) in code(&root.join(file)) {
            let mut from = 0;
            if depth.is_none() {
                let starts = [(".kernel(", ['(', ')']), ("fn run<R: Real>(", ['{', '}'])];
                let Some((at, pair)) = starts.iter().find_map(|(k, p)| Some((line.find(k)?, *p))) else {
                    continue;
                };
                regions += 1;
                (depth, from) = (Some((0, pair)), at);
            }
            let Some((d, [open, close])) = depth.as_mut() else { continue };
            let region = &line[from..];
            *d += region.matches(*open).count() as i64 - region.matches(*close).count() as i64;
            if *d <= 0 && region.contains(*close) {
                depth = None;
            }
            lines.push(format!("{file}:{n}: {line}"));
        }
    }
    // Five kernel bodies per app.
    assert_eq!(regions, 10, "kernel regions scanned");
    lines
}

/// True when `word` occurs in `line` as a whole identifier.
fn names(line: &str, word: &str) -> bool {
    line.split(|c: char| !(c.is_ascii_alphanumeric() || c == '_')).any(|w| w == word)
}

/// The apps' kernels never touch a map: their loops declare each indirect
/// argument once, and the framework's span loop reads the map's rows through
/// its own raw views, as generated OP2 code does. A kernel that took a `Map`
/// (an `Arc` the optimizer must re-read after every store) or called
/// `Map::at` would still be correct and only slower, which no tier-1 test can
/// time. So no `.kernel(` body in Airfoil's and shallow-water's loop wiring
/// names the type `Map` or calls `.at(`.
#[test]
fn app_kernels_reach_maps_only_through_map_views() {
    let lines = app_kernel_lines();
    let found: Vec<_> = lines.iter().filter(|l| names(l, "Map") || l.contains(".at(")).collect();
    assert!(found.is_empty(), "kernels reaching a map themselves: {found:#?}");
}

/// OP2 states a loop's arguments once. Every app loop declares a typed
/// argument tuple and gets a safe kernel, so the two app crates' non-test
/// code holds no `unsafe`, takes no raw `.view(` and names no `DatView` or
/// `MapView`.
#[test]
fn app_crates_hold_no_unsafe_and_no_raw_views() {
    let mut found = Vec::new();
    for dir in ["crates/airfoil/src", "crates/shallow-water/src"] {
        for (file, lines) in src_code(dir) {
            for (n, line) in &lines {
                if names(line, "unsafe")
                    || line.contains(".view(")
                    || names(line, "DatView")
                    || names(line, "MapView")
                {
                    found.push(format!("{dir}/{file}:{n}: {line}"));
                }
            }
        }
    }
    assert!(found.is_empty(), "raw access in the apps: {found:#?}");
}

/// One place names the instruction set. Kernels are written once over
/// `op2_core::Real`, and op2-core's lane module alone names `std::arch` or
/// `target_feature`: it holds the four-lane type and the one function that
/// enables AVX2, chosen at run time. So no other source line of the
/// workspace, the examples or the benchmark names either.
#[test]
fn only_the_lane_module_names_the_instruction_set() {
    let root = Path::new(env!("CARGO_MANIFEST_DIR"));
    let mut files = Vec::new();
    for dir in ["src", "examples", "benchmark/src"] {
        rs_files(&root.join(dir), &mut files);
    }
    for entry in std::fs::read_dir(root.join("crates")).expect("crates/ is readable") {
        let src = entry.expect("crates/ entry").path().join("src");
        if src.is_dir() {
            rs_files(&src, &mut files);
        }
    }
    let home = root.join("crates/op2-core/src/lanes.rs");
    let mut found = Vec::new();
    for file in files.iter().filter(|f| **f != home) {
        let text = std::fs::read_to_string(file).unwrap_or_else(|e| panic!("{file:?}: {e}"));
        for (n, line) in text.lines().enumerate() {
            if line.contains("std::arch") || line.contains("target_feature") {
                found.push(format!("{}:{}: {}", file.strip_prefix(root).unwrap_or(file).display(), n + 1, line.trim()));
            }
        }
    }
    assert!(files.len() > 100, "scanned only {} files", files.len());
    assert!(found.is_empty(), "the instruction set named outside the lane module: {found:#?}");
    assert!(files.contains(&home), "the lane module is gone");
}

/// OP2 writes a kernel once, per element, and leaves the layout to the
/// framework's access code. The apps' kernels never fork on it: no kernel
/// region returns early, names `Layout` or asks a dat for its `.layout(`;
/// they get their values from the framework's layout-agnostic span loop.
#[test]
fn app_kernels_never_see_the_layout() {
    let lines = app_kernel_lines();
    let found: Vec<_> = lines
        .iter()
        .filter(|l| names(l, "return") || names(l, "Layout") || l.contains(".layout("))
        .collect();
    assert!(found.is_empty(), "kernels that fork on the layout: {found:#?}");
}

/// OP2 declares an application once. The distributed layer runs the apps'
/// own loops (every rank builds `AirfoilLoops` over its slice; the flat
/// march runs them over windows of it, the hybrid on an executor) or
/// shallow-water's kernel glue over index lists; it declares no `ParLoop` of
/// its own.
#[test]
fn the_distributed_layer_declares_no_loops() {
    let mut found = Vec::new();
    for (file, lines) in src_code("crates/op2-dist/src") {
        for (n, line) in &lines {
            if ["ParLoop::build", ".kernel("].iter().any(|k| line.contains(k)) {
                found.push(format!("{file}:{n}: {line}"));
            }
        }
    }
    assert!(found.is_empty(), "loops declared in op2-dist: {found:#?}");
}

/// Every rank runs Airfoil's declared loops over its windows. The one place
/// the distributed layer calls an Airfoil kernel itself is the halo-group
/// hook, `res_calc` into a group's scratch slots, which no dat holds; so
/// outside shallow-water's hooks (`swe.rs`) no non-test line of op2-dist
/// names `kernels` but in `exec.rs`'s `fn group(`, and owned-window glue
/// cannot creep back.
#[test]
fn the_distributed_layer_calls_airfoil_kernels_only_in_the_halo_group_path() {
    let (mut found, mut in_group) = (Vec::new(), 0);
    for (file, lines) in src_code("crates/op2-dist/src") {
        let mut in_fn = "";
        for (n, line) in &lines {
            if line.contains("fn ") {
                in_fn = line;
            }
            let airfoil = line.contains("op2_airfoil::kernels") || (file != "swe.rs" && names(line, "kernels"));
            if !airfoil {
                continue;
            }
            if file == "exec.rs" && in_fn.contains("fn group(") {
                in_group += 1;
            } else {
                found.push(format!("{file}:{n}: {line}"));
            }
        }
    }
    assert!(found.is_empty(), "Airfoil kernels called outside the halo-group path: {found:#?}");
    assert!(in_group > 0, "the halo-group path calls no Airfoil kernel: the guard lost its anchor");
}

/// Every `.rs` file under `dir`, recursively.
fn rs_files(dir: &Path, out: &mut Vec<PathBuf>) {
    for entry in std::fs::read_dir(dir).unwrap_or_else(|e| panic!("{dir:?}: {e}")) {
        let path = entry.expect("source entry").path();
        if path.is_dir() {
            rs_files(&path, out);
        } else if path.extension().is_some_and(|e| e == "rs") {
            out.push(path);
        }
    }
}

/// One dependency rule. What orders two loops — a dat's last writer and the
/// readers since that write — is kept by `op2_core::deps` alone: the dataflow
/// executor, `det`'s ordering checker, the step interpreter's waits, the DOT
/// dump and the machine model call it and keep no table of their own. So no
/// non-test line elsewhere names that bookkeeping, nor a pairwise
/// `conflicts_with`.
#[test]
fn loop_order_has_one_dependency_rule() {
    let root = Path::new(env!("CARGO_MANIFEST_DIR"));
    let mut files = Vec::new();
    for dir in ["src", "examples", "benchmark/src"] {
        rs_files(&root.join(dir), &mut files);
    }
    for entry in std::fs::read_dir(root.join("crates")).expect("crates/ is readable") {
        let src = entry.expect("crates/ entry").path().join("src");
        if src.is_dir() {
            rs_files(&src, &mut files);
        }
    }
    let home = root.join("crates/op2-core/src/deps.rs");
    let words = ["last_writer", "readers_since_write", "df_last_writer", "df_readers", "conflicts_with"];
    let mut found = Vec::new();
    for file in files.iter().filter(|f| **f != home) {
        for (n, line) in code(file) {
            if words.iter().any(|w| names(&line, w)) {
                found.push(format!("{}:{n}: {line}", file.strip_prefix(root).unwrap_or(file).display()));
            }
        }
    }
    assert!(files.len() > 100, "scanned only {} files", files.len());
    assert!(found.is_empty(), "dependency bookkeeping outside op2_core::deps: {found:#?}");
    assert!(files.contains(&home), "the rule's home is gone");
}

/// One time step, declared once. An app states its iteration as an
/// `op2_core::Step` and `op2_hpx::run_step` is the one place that issues its
/// loops, so no non-test line of the app crates, the machine model or the
/// service issues a loop itself.
#[test]
fn run_step_is_the_only_place_that_issues_loops() {
    let mut found = Vec::new();
    let apps = ["crates/airfoil/src", "crates/shallow-water/src", "crates/simsched/src", "crates/op2-serve/src"];
    for dir in apps {
        for (file, lines) in src_code(dir) {
            for (n, line) in &lines {
                if ["try_execute", "execute(", "execute_natural"].iter().any(|w| line.contains(w)) {
                    found.push(format!("{dir}/{file}:{n}: {line}"));
                }
            }
        }
    }
    assert!(found.is_empty(), "loops issued outside run_step: {found:#?}");
}

/// Races are refused from the declaration: `Op2Runtime::prepare` validates
/// every plan's coloring before a loop's first block. So the accessors every
/// kernel runs and the colored body every parallel backend runs name no
/// `det` hook — a run with the checker armed runs the same kernel code as
/// one without — and nothing records element accesses.
#[test]
fn the_det_layer_keeps_off_the_accessors_and_the_colored_body() {
    let root = Path::new(env!("CARGO_MANIFEST_DIR"));
    let lines = |path: &Path| -> Vec<(usize, String)> {
        let text = std::fs::read_to_string(path).unwrap_or_else(|e| panic!("{path:?}: {e}"));
        text.lines()
            .enumerate()
            .map(|(n, l)| (n + 1, l.trim().to_string()))
            .collect()
    };
    let mut found = Vec::new();
    for file in ["crates/op2-core/src/dat.rs", "crates/core/src/colored.rs"] {
        let mut in_view = false;
        for (n, line) in lines(&root.join(file)) {
            in_view = (in_view || line.starts_with("pub struct DatView")) && line != "}";
            if names(&line, "det") || (in_view && line.starts_with("id:")) {
                found.push(format!("{file}:{n}: {line}"));
            }
        }
    }
    let mut files = Vec::new();
    for entry in std::fs::read_dir(root.join("crates")).expect("crates/ is readable") {
        let src = entry.expect("crates/ entry").path().join("src");
        if src.is_dir() {
            rs_files(&src, &mut files);
        }
    }
    for file in &files {
        for (n, line) in lines(file) {
            if names(&line, "record_access") {
                found.push(format!(
                    "{}:{n}: {line}",
                    file.strip_prefix(root).unwrap_or(file).display()
                ));
            }
        }
    }
    assert!(files.len() > 100, "scanned only {} files", files.len());
    assert!(found.is_empty(), "per-element det hooks: {found:#?}");
}

/// The `cfg` predicate of every `cfg(…)`, `cfg!(…)` and `cfg_attr(…)` in
/// `text`, outside line comments.
fn cfg_predicates(text: &str) -> Vec<String> {
    let code: String = text
        .lines()
        .filter(|l| !l.trim_start().starts_with("//"))
        .collect::<Vec<_>>()
        .join("\n");
    let mut out = Vec::new();
    for (at, _) in code.match_indices("cfg") {
        let before = code[..at].chars().next_back();
        if before.is_some_and(|c| c.is_ascii_alphanumeric() || c == '_') {
            continue;
        }
        let rest = &code[at + 3..];
        let rest = rest.strip_prefix('!').or_else(|| rest.strip_prefix("_attr")).unwrap_or(rest);
        let Some(rest) = rest.strip_prefix('(') else { continue };
        let mut depth = 1;
        let end = rest
            .char_indices()
            .find(|&(_, c)| {
                depth += match c {
                    '(' => 1,
                    ')' => -1,
                    _ => 0,
                };
                depth == 0
            })
            .map_or(rest.len(), |(i, _)| i);
        out.push(rest[..end].to_string());
    }
    out
}

/// One build: the trace recorder and the `det` checker are ordinary code,
/// always compiled and idle until started, so the build `cargo test` runs is
/// the build the benchmark measures. No source gates code on a cargo
/// feature, and the only features left are the empty names that
/// `benchmark/Cargo.toml` still forwards to.
#[test]
fn the_workspace_has_one_build() {
    let root = Path::new(env!("CARGO_MANIFEST_DIR"));
    let mut found = Vec::new();
    let mut files = Vec::new();
    for dir in ["crates", "src", "tests", "examples"] {
        rs_files(&root.join(dir), &mut files);
    }
    for file in &files {
        let text = std::fs::read_to_string(file).unwrap_or_else(|e| panic!("{file:?}: {e}"));
        for predicate in cfg_predicates(&text) {
            if names(&predicate, "feature") {
                let file = file.strip_prefix(root).unwrap_or(file).display();
                found.push(format!("{file}: cfg({predicate})"));
            }
        }
    }
    assert!(files.len() > 100, "scanned only {} files", files.len());

    let bench = std::fs::read_to_string(root.join("benchmark/Cargo.toml"))
        .expect("benchmark/Cargo.toml is readable");
    let mut manifests = vec![root.join("Cargo.toml")];
    for entry in std::fs::read_dir(root.join("crates")).expect("crates/ is readable") {
        let manifest = entry.expect("crates/ entry").path().join("Cargo.toml");
        if manifest.is_file() {
            manifests.push(manifest);
        }
    }
    for manifest in &manifests {
        let text = std::fs::read_to_string(manifest).unwrap_or_else(|e| panic!("{manifest:?}: {e}"));
        let text = format!("\n{text}");
        let package = text
            .split("\n[")
            .find_map(|section| section.strip_prefix("package]"))
            .and_then(|keys| keys.lines().find_map(|l| l.strip_prefix("name = \"")?.strip_suffix('"')))
            .unwrap_or_else(|| panic!("{manifest:?}: no package name"));
        let Some(features) = text.split("\n[").find_map(|section| section.strip_prefix("features]")) else {
            continue;
        };
        for line in features.lines().map(str::trim) {
            if line.is_empty() || line.starts_with('#') {
                continue;
            }
            let (name, value) = line.split_once('=').unwrap_or((line, ""));
            let (name, value) = (name.trim(), value.trim());
            let forwarded = bench.contains(&format!("\"{package}/{name}\""));
            if value != "[]" || !forwarded {
                let manifest = manifest.strip_prefix(root).unwrap_or(manifest).display();
                found.push(format!("{manifest}: [features] {line}"));
            }
        }
    }
    assert!(found.is_empty(), "a second build: {found:#?}");
}
