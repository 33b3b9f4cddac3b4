//! Graphviz (DOT) emission of the inter-loop dependency DAG — the "execution
//! tree representing the algorithmic data dependencies" the paper's dataflow
//! model builds implicitly (its Fig. 14 narrative), made visible.
//!
//! Nodes are loop *invocations* (program order); edges are exactly the
//! [`op2_core::deps`] rule's edges — the read-after-write, write-after-write
//! and write-after-read dependencies the dataflow executor waits on —
//! labelled with the dats that induce them.

use op2_core::deps::{by_producer, Deps};

use crate::ast::App;

use super::flat_program;

/// Render the dependency DAG of `app`'s program as a DOT digraph.
pub fn emit_dot(app: &App) -> String {
    let program = flat_program(app);
    let mut out = String::from("digraph dependencies {\n  rankdir=TB;\n  node [shape=box, fontname=\"Helvetica\"];\n");
    for (i, name) in program.iter().enumerate() {
        out.push_str(&format!("  n{i} [label=\"{i}: {name}\"];\n"));
    }
    let mut deps = Deps::default();
    for (j, name) in program.iter().enumerate() {
        let decl = app.loop_by_name(name).expect("validated");
        for e in by_producer(deps.record(&decl.reads(), &decl.writes(), j)) {
            let dats: Vec<&str> = e.iter().map(|e| e.dat).collect();
            out.push_str(&format!("  n{} -> n{j} [label=\"{}\"];\n", e[0].producer, dats.join(", ")));
        }
    }
    out.push_str("}\n");
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::parser::parse;

    const SMALL: &str = r#"
app demo;
set cells;
dat q on cells dim 1 type f64;
dat r on cells dim 1 type f64;
loop produce over cells { arg q direct write; }
loop consume over cells { arg q direct read; arg r direct write; }
loop finish  over cells { arg r direct rw; }
program { produce; consume; finish; }
"#;

    #[test]
    fn chain_produces_chain_edges() {
        let app = parse(SMALL).unwrap();
        let dot = emit_dot(&app);
        assert!(dot.contains("n0 -> n1 [label=\"q\"]"), "{dot}");
        assert!(dot.contains("n1 -> n2 [label=\"r\"]"), "{dot}");
        // produce and finish share no dat: no direct edge.
        assert!(!dot.contains("n0 -> n2"), "{dot}");
        assert!(dot.starts_with("digraph"));
        assert!(dot.trim_end().ends_with('}'));
    }

    #[test]
    fn independent_loops_have_no_edges() {
        let app = parse(
            "app a; set s; dat x on s dim 1 type f64; dat y on s dim 1 type f64;\
             loop lx over s { arg x direct rw; } loop ly over s { arg y direct rw; }\
             program { lx; ly; }",
        )
        .unwrap();
        let dot = emit_dot(&app);
        assert!(!dot.contains("->"), "{dot}");
    }

    /// Every reader since the last write orders the next writer, not only
    /// the newest one.
    #[test]
    fn every_reader_orders_the_next_writer() {
        let app = parse(
            "app a; set s; dat x on s dim 1 type f64; dat a on s dim 1 type f64;\
             dat b on s dim 1 type f64;\
             loop produce over s { arg x direct write; }\
             loop read1 over s { arg x direct read; arg a direct write; }\
             loop read2 over s { arg x direct read; arg b direct write; }\
             loop clobber over s { arg x direct write; }\
             program { produce; read1; read2; clobber; }",
        )
        .unwrap();
        let dot = emit_dot(&app);
        for edge in ["n0 -> n1", "n0 -> n2", "n1 -> n3", "n2 -> n3"] {
            assert!(dot.contains(&format!("{edge} [label=\"x\"]")), "{edge} missing:\n{dot}");
        }
    }

    #[test]
    fn latest_writer_shadows_older_dependencies() {
        let app = parse(
            "app a; set s; dat x on s dim 1 type f64;\
             loop w over s { arg x direct write; } program { w; w; w; }",
        )
        .unwrap();
        let dot = emit_dot(&app);
        // Only chain edges 0->1 and 1->2, not 0->2 (shadowed).
        assert!(dot.contains("n0 -> n1"));
        assert!(dot.contains("n1 -> n2"));
        assert!(!dot.contains("n0 -> n2"), "{dot}");
    }
}
