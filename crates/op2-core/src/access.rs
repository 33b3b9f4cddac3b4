//! Access descriptors — how a kernel may touch an argument's data.

/// Declared access mode of a loop argument (OP2's `OP_READ` / `OP_WRITE` /
/// `OP_RW` / `OP_INC`).
///
/// The declarations are what make unstructured loops analyzable: the planner
/// colors blocks by their write/increment footprints, and the dataflow
/// backend derives inter-loop dependency edges from reads vs. writes.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Access {
    /// Read only (`OP_READ`).
    Read,
    /// Write only; every touched slot is overwritten (`OP_WRITE`).
    Write,
    /// Read and write (`OP_RW`).
    ReadWrite,
    /// Increment: contributions are *added*; the framework guarantees
    /// race-free accumulation via coloring (`OP_INC`).
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

    /// Short OP2-style name (diagnostics, plan keys).
    pub fn op2_name(self) -> &'static str {
        match self {
            Access::Read => "OP_READ",
            Access::Write => "OP_WRITE",
            Access::ReadWrite => "OP_RW",
            Access::Inc => "OP_INC",
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn read_write_flags() {
        assert!(Access::Read.reads() && !Access::Read.writes());
        assert!(!Access::Write.reads() && Access::Write.writes());
        assert!(Access::ReadWrite.reads() && Access::ReadWrite.writes());
        assert!(Access::Inc.reads() && Access::Inc.writes());
    }

    #[test]
    fn op2_names() {
        assert_eq!(Access::Inc.op2_name(), "OP_INC");
    }
}
