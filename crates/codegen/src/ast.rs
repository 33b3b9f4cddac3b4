//! Abstract syntax of an `.op2rs` application description.

/// Declared access mode of a loop argument.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Access {
    /// `read` — `OP_READ`.
    Read,
    /// `write` — `OP_WRITE`.
    Write,
    /// `rw` — `OP_RW`.
    ReadWrite,
    /// `inc` — `OP_INC`.
    Inc,
}

impl Access {
    /// Does the kernel observe existing values?
    pub fn reads(self) -> bool {
        !matches!(self, Access::Write)
    }

    /// Does the kernel modify values?
    pub fn writes(self) -> bool {
        !matches!(self, Access::Read)
    }

    /// Rust-side constructor name in `op2_core::Access`.
    pub fn rust_name(self) -> &'static str {
        match self {
            Access::Read => "Access::Read",
            Access::Write => "Access::Write",
            Access::ReadWrite => "Access::ReadWrite",
            Access::Inc => "Access::Inc",
        }
    }
}

/// `map NAME : FROM -> TO dim N;`
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct MapDecl {
    /// Map name.
    pub name: String,
    /// Domain set.
    pub from: String,
    /// Target set.
    pub to: String,
    /// Arity.
    pub dim: usize,
}

/// `dat NAME on SET dim N type T;`
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct DatDecl {
    /// Dat name.
    pub name: String,
    /// The set it lives on.
    pub set: String,
    /// Values per element.
    pub dim: usize,
    /// Element type (`f64`, `f32`, `i32`, …).
    pub ty: String,
}

/// One argument declaration inside a loop.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ArgDecl {
    /// The dat accessed.
    pub dat: String,
    /// `None` = direct; `Some((map, idx))` = indirect through `map[idx]`.
    pub via: Option<(String, usize)>,
    /// Access mode.
    pub access: Access,
}

/// Combining operator of a global reduction.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum GblOp {
    /// `gbl inc` — sum (`OP_INC`).
    #[default]
    Inc,
    /// `gbl min` (`OP_MIN`).
    Min,
    /// `gbl max` (`OP_MAX`).
    Max,
}

impl GblOp {
    /// Rust-side builder method on `ParLoopBuilder`.
    pub fn rust_builder(self) -> &'static str {
        match self {
            GblOp::Inc => "gbl_inc",
            GblOp::Min => "gbl_min",
            GblOp::Max => "gbl_max",
        }
    }
}

/// `loop NAME over SET { args…; gbl inc dim N; }`
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct LoopDecl {
    /// Loop/kernel name.
    pub name: String,
    /// Iteration set.
    pub set: String,
    /// Argument declarations.
    pub args: Vec<ArgDecl>,
    /// Global reduction dimension (0 = none).
    pub gbl_dim: usize,
    /// Global reduction operator.
    pub gbl_op: GblOp,
}

impl LoopDecl {
    /// Dats whose existing values this loop observes.
    pub fn reads(&self) -> Vec<&str> {
        let mut v: Vec<&str> = self
            .args
            .iter()
            .filter(|a| a.access.reads())
            .map(|a| a.dat.as_str())
            .collect();
        v.sort_unstable();
        v.dedup();
        v
    }

    /// Dats this loop modifies.
    pub fn writes(&self) -> Vec<&str> {
        let mut v: Vec<&str> = self
            .args
            .iter()
            .filter(|a| a.access.writes())
            .map(|a| a.dat.as_str())
            .collect();
        v.sort_unstable();
        v.dedup();
        v
    }

    /// Must the two loops keep their program order ([`op2_core::deps::conflict`])?
    /// A pairwise check for tests; the emitters order loops with
    /// [`op2_core::deps::Deps`].
    pub fn conflicts_with(&self, other: &LoopDecl) -> bool {
        op2_core::deps::conflict((&self.reads(), &self.writes()), (&other.reads(), &other.writes()))
    }
}

/// One item of the `program { … }` block.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum ProgramItem {
    /// Invoke a loop by name.
    Invoke(String),
    /// `repeat N { … }` — a counted sub-block.
    Repeat(usize, Vec<ProgramItem>),
}

impl ProgramItem {
    /// Expand `repeat` blocks into a flat invocation sequence.
    pub fn flatten(items: &[ProgramItem]) -> Vec<String> {
        let mut out = Vec::new();
        for item in items {
            match item {
                ProgramItem::Invoke(name) => out.push(name.clone()),
                ProgramItem::Repeat(n, body) => {
                    let inner = ProgramItem::flatten(body);
                    for _ in 0..*n {
                        out.extend(inner.iter().cloned());
                    }
                }
            }
        }
        out
    }
}

/// A complete parsed application.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct App {
    /// Application name (`app NAME;`).
    pub name: String,
    /// Declared sets.
    pub sets: Vec<String>,
    /// Declared maps.
    pub maps: Vec<MapDecl>,
    /// Declared dats.
    pub dats: Vec<DatDecl>,
    /// Declared loops.
    pub loops: Vec<LoopDecl>,
    /// Program order (may contain `repeat` blocks).
    pub program: Vec<ProgramItem>,
}

impl App {
    /// Look up a loop declaration by name.
    pub fn loop_by_name(&self, name: &str) -> Option<&LoopDecl> {
        self.loops.iter().find(|l| l.name == name)
    }

    /// Look up a dat declaration by name.
    pub fn dat_by_name(&self, name: &str) -> Option<&DatDecl> {
        self.dats.iter().find(|d| d.name == name)
    }

    /// Look up a map declaration by name.
    pub fn map_by_name(&self, name: &str) -> Option<&MapDecl> {
        self.maps.iter().find(|m| m.name == name)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn mk_loop(name: &str, args: &[(&str, Access)]) -> LoopDecl {
        LoopDecl {
            name: name.into(),
            set: "cells".into(),
            args: args
                .iter()
                .map(|(d, a)| ArgDecl {
                    dat: (*d).into(),
                    via: None,
                    access: *a,
                })
                .collect(),
            gbl_dim: 0,
            gbl_op: GblOp::Inc,
        }
    }

    #[test]
    fn conflict_detection() {
        let w_q = mk_loop("a", &[("q", Access::Write)]);
        let r_q = mk_loop("b", &[("q", Access::Read)]);
        let r_x = mk_loop("c", &[("x", Access::Read)]);
        assert!(w_q.conflicts_with(&r_q));
        assert!(r_q.conflicts_with(&w_q));
        assert!(!r_q.conflicts_with(&r_x));
        assert!(w_q.conflicts_with(&w_q));
        assert!(!r_q.conflicts_with(&r_q), "readers never conflict");
    }

    #[test]
    fn flatten_repeats() {
        let items = vec![
            ProgramItem::Invoke("save".into()),
            ProgramItem::Repeat(
                2,
                vec![
                    ProgramItem::Invoke("adt".into()),
                    ProgramItem::Invoke("update".into()),
                ],
            ),
        ];
        assert_eq!(
            ProgramItem::flatten(&items),
            vec!["save", "adt", "update", "adt", "update"]
        );
    }
}
