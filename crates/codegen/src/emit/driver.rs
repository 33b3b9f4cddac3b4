//! Emission of the target-specific `run_program` driver.

use op2_core::deps::{by_producer, Deps};

use crate::ast::App;

use super::{flat_program, type_prefix, Target};

/// Emit `run_program(exec, loops) -> Vec<LoopHandle>` for `target`.
pub(super) fn emit_driver(app: &App, target: Target) -> String {
    let prefix = type_prefix(&app.name);
    let program = flat_program(app);
    let mut out = String::new();
    let doc = match target {
        Target::Omp | Target::ForEach => {
            "/// One pass of the program. Fork-join semantics: every loop is\n\
             /// waited for before the next is issued (implicit global barrier)."
        }
        Target::Async => {
            "/// One pass of the program under the async backend (§III-A2).\n\
             /// Loops return futures; the translator derived the minimal\n\
             /// `.wait()` placement below from the declared access modes\n\
             /// (automating the paper's manual Fig. 10 placement)."
        }
        Target::Dataflow => {
            "/// One pass of the program under the dataflow backend (§III-B).\n\
             /// No waits: the executor's dependency table orders the loops."
        }
    };
    out.push_str(doc);
    out.push('\n');
    out.push_str(&format!(
        "pub fn run_program(exec: &dyn Executor, l: &{prefix}Loops) -> Vec<LoopHandle> {{\n\
             let mut handles: Vec<LoopHandle> = Vec::with_capacity({});\n",
        program.len()
    ));

    match target {
        Target::Omp | Target::ForEach => {
            for name in &program {
                out.push_str(&format!(
                    "    handles.push(exec.execute(&l.{name}));\n    handles.last().expect(\"just pushed\").wait();\n"
                ));
            }
        }
        Target::Dataflow => {
            for name in &program {
                out.push_str(&format!("    handles.push(exec.execute(&l.{name}));\n"));
            }
        }
        Target::Async => {
            // Wait on every producer not yet waited, oldest first: any older
            // loop that conflicts through a dat was waited when that dat's
            // next writer was issued.
            let mut deps = Deps::default();
            let mut waited = vec![false; program.len()];
            for (i, name) in program.iter().enumerate() {
                let decl = app.loop_by_name(name).expect("validated");
                for e in by_producer(deps.record(&decl.reads(), &decl.writes(), i)) {
                    let j = e[0].producer;
                    if !waited[j] {
                        waited[j] = true;
                        let prev_name = &program[j];
                        out.push_str(&format!(
                            "    handles[{j}].wait(); // `{prev_name}` conflicts with `{name}`\n"
                        ));
                    }
                }
                out.push_str(&format!("    handles.push(exec.execute(&l.{name}));\n"));
            }
        }
    }
    out.push_str("    handles\n}\n");
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ast::{Access, ArgDecl, GblOp, LoopDecl, ProgramItem};
    use proptest::prelude::*;

    const MODES: [Access; 4] = [Access::Read, Access::Write, Access::ReadWrite, Access::Inc];

    /// The wait lines of the async driver as a pairwise scan places them:
    /// before each loop, a wait on every earlier loop not yet waited that
    /// conflicts with it.
    fn pairwise_waits(app: &App) -> Vec<String> {
        let program = flat_program(app);
        let mut out = Vec::new();
        let mut waited = vec![false; program.len()];
        for (i, name) in program.iter().enumerate() {
            let decl = app.loop_by_name(name).unwrap();
            for j in 0..i {
                if !waited[j] && app.loop_by_name(&program[j]).unwrap().conflicts_with(decl) {
                    waited[j] = true;
                    out.push(format!("handles[{j}].wait(); // `{}` conflicts with `{name}`", program[j]));
                }
            }
            out.push(format!("handles.push(exec.execute(&l.{name}));"));
        }
        out
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(256))]

        /// Waiting on the rule's un-waited producers, oldest first, places
        /// the same waits in the same order as the pairwise scan.
        #[test]
        fn async_waits_equal_the_pairwise_scan(
            loops in prop::collection::vec(prop::collection::vec((0usize..4, 0usize..4), 0..4), 1..6),
            order in prop::collection::vec(0usize..6, 1..12),
        ) {
            let app = App {
                name: "p".into(),
                loops: loops
                    .iter()
                    .enumerate()
                    .map(|(i, args)| LoopDecl {
                        name: format!("l{i}"),
                        set: "s".into(),
                        args: args
                            .iter()
                            .map(|&(d, m)| ArgDecl { dat: format!("d{d}"), via: None, access: MODES[m] })
                            .collect(),
                        gbl_dim: 0,
                        gbl_op: GblOp::Inc,
                    })
                    .collect(),
                program: order.iter().map(|i| ProgramItem::Invoke(format!("l{}", i % loops.len()))).collect(),
                ..App::default()
            };
            let emitted: Vec<String> = emit_driver(&app, Target::Async)
                .lines()
                .map(str::trim)
                .filter(|l| l.starts_with("handles[") || l.starts_with("handles.push"))
                .map(String::from)
                .collect();
            prop_assert_eq!(emitted, pairwise_waits(&app));
        }
    }
}
