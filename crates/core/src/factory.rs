//! Backend selection by name — used by drivers, examples, and benches.

use std::sync::Arc;

use crate::async_fe::AsyncExecutor;
use crate::blocking::BlockingExecutor;
use crate::dataflow::DataflowExecutor;
use crate::runtime::Op2Runtime;
use crate::Executor;

/// The five execution strategies of the study.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum BackendKind {
    /// Serial reference (plan order).
    Serial,
    /// `#pragma omp parallel for` equivalent (the paper's baseline).
    ForkJoin,
    /// §III-A1 `for_each(par)` with the auto-partitioner.
    ForEachAuto,
    /// §III-A1 `for_each(par)` with a static chunk size.
    ForEachStatic(usize),
    /// §III-A2 `async` + `for_each(par(task))`.
    Async,
    /// §III-B `dataflow` with the modified OP2 API.
    Dataflow,
}

impl BackendKind {
    /// All comparable kinds, in the order the paper presents them.
    pub fn all() -> Vec<BackendKind> {
        vec![
            BackendKind::Serial,
            BackendKind::ForkJoin,
            BackendKind::ForEachAuto,
            BackendKind::ForEachStatic(4),
            BackendKind::Async,
            BackendKind::Dataflow,
        ]
    }

    /// Parse a CLI-style name (`serial`, `omp`, `foreach`, `foreach-static`,
    /// `foreach-static(N)`, `async`, `dataflow`) — everything `Display`
    /// prints parses back to the same kind.
    pub fn parse(s: &str) -> Option<BackendKind> {
        BackendKind::try_parse(s).ok()
    }

    /// [`BackendKind::parse`] with a typed error naming the unknown backend
    /// and listing the valid spellings — for drivers that report rather than
    /// silently fall back.
    pub fn try_parse(s: &str) -> Result<BackendKind, FactoryError> {
        Ok(match s {
            "serial" => BackendKind::Serial,
            "omp" | "forkjoin" | "openmp" => BackendKind::ForkJoin,
            "foreach" | "foreach-auto" => BackendKind::ForEachAuto,
            "foreach-static" => BackendKind::ForEachStatic(4),
            "async" => BackendKind::Async,
            "dataflow" => BackendKind::Dataflow,
            other => other
                .strip_prefix("foreach-static(")
                .and_then(|rest| rest.strip_suffix(')'))
                .and_then(|n| n.parse().ok())
                .map(BackendKind::ForEachStatic)
                .ok_or_else(|| FactoryError::UnknownBackend {
                    input: other.to_string(),
                })?,
        })
    }

    /// The method label figures and real-runtime trace exports
    /// (`trace_real_<label>.json`) name this kind by; it parses back.
    pub fn label(self) -> &'static str {
        match self {
            BackendKind::Serial => "serial",
            BackendKind::ForkJoin => "forkjoin",
            BackendKind::ForEachAuto => "foreach-auto",
            BackendKind::ForEachStatic(_) => "foreach-static",
            BackendKind::Async => "async",
            BackendKind::Dataflow => "dataflow",
        }
    }

    /// The executor name a loop of this kind runs under when its caller
    /// waits for it (`Op2Runtime::run_blocking`). A futurized kind, once
    /// waited on, is the colored `for_each` its executor would have spawned.
    pub(crate) fn blocking_name(self) -> &'static str {
        match self {
            BackendKind::Serial => "serial",
            BackendKind::ForkJoin => "omp-forkjoin",
            BackendKind::ForEachAuto => "foreach-auto",
            BackendKind::ForEachStatic(_) => "foreach-static",
            BackendKind::Async | BackendKind::Dataflow => "foreach",
        }
    }
}

/// Typed error from [`BackendKind::try_parse`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum FactoryError {
    /// The requested backend name matches no known spelling.
    UnknownBackend {
        /// The rejected input.
        input: String,
    },
}

impl std::fmt::Display for FactoryError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            FactoryError::UnknownBackend { input } => write!(
                f,
                "unknown backend '{input}' (expected one of: serial, omp, \
                 forkjoin, openmp, foreach, foreach-auto, foreach-static, \
                 foreach-static(N), async, dataflow)"
            ),
        }
    }
}

impl std::error::Error for FactoryError {}

impl std::fmt::Display for BackendKind {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            BackendKind::Serial => write!(f, "serial"),
            BackendKind::ForkJoin => write!(f, "omp"),
            BackendKind::ForEachAuto => write!(f, "foreach-auto"),
            BackendKind::ForEachStatic(n) => write!(f, "foreach-static({n})"),
            BackendKind::Async => write!(f, "async"),
            BackendKind::Dataflow => write!(f, "dataflow"),
        }
    }
}

/// Instantiate an executor of the given kind on `rt`.
pub fn make_executor(kind: BackendKind, rt: Arc<Op2Runtime>) -> Box<dyn Executor> {
    match kind {
        BackendKind::Async => Box::new(AsyncExecutor::new(rt)),
        BackendKind::Dataflow => Box::new(DataflowExecutor::new(rt)),
        blocking => Box::new(BlockingExecutor::new(rt, blocking)),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parse_roundtrip() -> Result<(), FactoryError> {
        for kind in BackendKind::all().into_iter().chain([BackendKind::ForEachStatic(8)]) {
            assert_eq!(BackendKind::try_parse(&kind.to_string())?, kind);
        }
        for kind in BackendKind::all() {
            assert_eq!(BackendKind::try_parse(kind.label())?, kind);
        }
        assert_eq!(BackendKind::parse("foreach-static"), Some(BackendKind::ForEachStatic(4)));
        for bad in ["foreach-static(", "foreach-static()", "foreach-static(x)", "foreach-static(8"] {
            assert!(BackendKind::parse(bad).is_none(), "{bad}");
        }
        assert!(BackendKind::parse("nonsense").is_none());
        match BackendKind::try_parse("nonsense") {
            Err(err) => {
                assert!(err.to_string().contains("nonsense"));
                assert!(err.to_string().contains("dataflow"));
            }
            Ok(kind) => panic!("'nonsense' must not parse, got {kind}"),
        }
        Ok(())
    }

    #[test]
    fn factory_builds_each_kind() {
        let rt = Arc::new(Op2Runtime::new(1, 32));
        for kind in BackendKind::all() {
            let exec = make_executor(kind, Arc::clone(&rt));
            assert!(!exec.name().is_empty());
            exec.fence();
        }
    }
}
