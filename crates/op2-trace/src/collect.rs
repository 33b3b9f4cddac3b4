//! The assembled result of a recording session.

use crate::event::{Event, EventKind, NO_NAME};

/// Everything a [`crate::Collector`] gathered between `start` and `stop`:
/// events sorted by start time, the process string table, and how many
/// events were lost to ring overwrite.
#[derive(Debug, Clone, Default)]
pub struct Timeline {
    /// Events sorted by `(start_ns, end_ns, tid)`; per-thread order is
    /// preserved for simultaneous events.
    pub events: Vec<Event>,
    /// Interned strings; an [`Event::name`] indexes into this.
    pub strings: Vec<String>,
    /// Events overwritten in a ring before the collector read them.
    pub dropped: u64,
}

impl Timeline {
    /// True when no events were recorded.
    pub fn is_empty(&self) -> bool {
        self.events.is_empty()
    }

    /// Resolve an interned name.
    pub fn name_of(&self, id: u32) -> Option<&str> {
        if id == NO_NAME {
            return None;
        }
        self.strings.get(id as usize).map(|s| s.as_str())
    }

    /// Events of one kind, in timeline order.
    pub fn of_kind(&self, kind: EventKind) -> impl Iterator<Item = &Event> {
        self.events.iter().filter(move |e| e.kind == kind)
    }

    /// Distinct recording thread ids, ascending.
    pub fn thread_ids(&self) -> Vec<u32> {
        let mut tids: Vec<u32> = self.events.iter().map(|e| e.tid).collect();
        tids.sort_unstable();
        tids.dedup();
        tids
    }

    /// Wall-clock extent of the recording: `(first start, last end)` in ns,
    /// or `None` when empty.
    pub fn span_ns(&self) -> Option<(u64, u64)> {
        let first = self.events.iter().map(|e| e.start_ns).min()?;
        let last = self.events.iter().map(|e| e.end_ns).max()?;
        Some((first, last))
    }
}
