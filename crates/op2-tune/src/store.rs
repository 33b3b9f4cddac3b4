//! Versioned persistence for learned configurations.
//!
//! A [`TuneStore`] is a flat JSON document, content-addressed per entry by
//! the same mesh-topology hash the plan cache uses (`loop_topology`): a warm
//! run recognizes a mesh by its *contents*, not by object identity or file
//! name, so re-declaring the same mesh next process still hits. Files are
//! written through `op2-store`'s sealed-envelope commit (checksummed
//! payload; write-temp → fsync → rename → fsync-dir) so a crashed run
//! never leaves a torn store for the next one to trip over, and a
//! bit-flipped one is *detected* rather than silently misread — the tuner
//! degrades either case to a cold start (see [`crate::Tuner::load`]).

use std::io;
use std::path::Path;

use serde::{Deserialize, Serialize};

use crate::{BackendChoice, IndirectionPattern, TuneConfig, TuneKey};

/// Current store schema version. Readers reject other versions (forward and
/// backward) — a stale store is regenerated in one cold run, which is far
/// cheaper than debugging a silently misread one.
///
/// v2 added the `layout` column (data-layout knob); v3 dropped the
/// `coloring` column (plans have one coloring).
pub const STORE_VERSION: u64 = 3;

/// One persisted `(decision key → best config)` row. Flat primitives only:
/// the vendored serde derive handles named-field structs and unit enums, so
/// enums are stored by their stable names and `0` encodes "unset".
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct StoreEntry {
    /// Mesh-topology content hash (the content address).
    pub topo: u64,
    /// Loop name.
    pub loop_name: String,
    /// Iteration-set size.
    pub set_size: u64,
    /// [`IndirectionPattern::name`].
    pub pattern: String,
    /// [`BackendChoice::name`], or empty for "caller default".
    pub backend: String,
    /// Tuned chunk in elements; 0 = none.
    pub chunk: u64,
    /// Tuned mini-partition size; 0 = default plan.
    pub part_size: u64,
    /// [`op2_core::Layout::label`], or empty for "declared layout".
    pub layout: String,
    /// Best (min-of-samples) wall time of the winning config when exported, ns.
    pub best_ns: u64,
    /// Smoothed per-element time when exported, ns.
    pub per_elem_ns: f64,
}

impl StoreEntry {
    /// Flatten a `(key, config)` pair into a row.
    pub(crate) fn encode(key: &TuneKey, config: &TuneConfig, best_ns: u64, per_elem_ns: f64) -> Self {
        StoreEntry {
            topo: key.topo,
            loop_name: key.loop_name.clone(),
            set_size: key.set_size as u64,
            pattern: key.pattern.name().to_string(),
            backend: config.backend.map_or("", BackendChoice::name).to_string(),
            chunk: config.chunk.unwrap_or(0) as u64,
            part_size: config.plan.unwrap_or(0) as u64,
            layout: config
                .layout
                .map_or("", op2_core::Layout::label)
                .to_string(),
            best_ns,
            per_elem_ns,
        }
    }

    /// Rebuild the `(key, config)` pair; `None` if any name fails to parse
    /// (e.g. a row written by a newer build within the same version).
    pub(crate) fn decode(&self) -> Option<(TuneKey, TuneConfig)> {
        let pattern = IndirectionPattern::parse(&self.pattern)?;
        let backend = if self.backend.is_empty() {
            None
        } else {
            Some(BackendChoice::parse(&self.backend)?)
        };
        let layout = if self.layout.is_empty() {
            None
        } else {
            Some(op2_core::Layout::parse(&self.layout)?)
        };
        Some((
            TuneKey {
                loop_name: self.loop_name.clone(),
                set_size: self.set_size as usize,
                pattern,
                topo: self.topo,
            },
            TuneConfig {
                backend,
                chunk: (self.chunk > 0).then_some(self.chunk as usize),
                plan: (self.part_size > 0).then_some(self.part_size as usize),
                layout,
            },
        ))
    }
}

/// A persisted set of learned configurations.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct TuneStore {
    /// Schema version ([`STORE_VERSION`]).
    pub version: u64,
    /// Seed the configs were learned under (informational).
    pub seed: u64,
    /// Learned rows, sorted by `(loop_name, topo)` for diff-stable files.
    pub entries: Vec<StoreEntry>,
}

impl TuneStore {
    /// Serialize to a JSON string.
    pub fn to_json(&self) -> String {
        serde_json::to_string(self).expect("tune store serializes")
    }

    /// Parse from JSON, rejecting version mismatches.
    pub fn from_json(s: &str) -> io::Result<TuneStore> {
        let store: TuneStore = serde_json::from_str(s)
            .map_err(|e| io::Error::new(io::ErrorKind::InvalidData, e.to_string()))?;
        if store.version != STORE_VERSION {
            return Err(io::Error::new(
                io::ErrorKind::InvalidData,
                format!(
                    "tune store version {} (this build reads {})",
                    store.version, STORE_VERSION
                ),
            ));
        }
        Ok(store)
    }

    /// Write atomically and durably: the JSON payload goes into a sealed,
    /// checksummed envelope committed via write-temp → fsync → rename →
    /// fsync-dir, so a crash mid-save leaves either the old store or the
    /// new one — never a torn hybrid.
    pub fn save(&self, path: &Path) -> io::Result<()> {
        op2_store::write_sealed(path, self.to_json().as_bytes(), None).map_err(store_to_io)
    }

    /// Read, verify, and parse a store file. Anything but an intact sealed
    /// envelope — no seal at all, a bad checksum, a bad length, an unknown
    /// version — is `InvalidData`.
    pub fn load(path: &Path) -> io::Result<TuneStore> {
        let bytes = std::fs::read(path)?;
        let payload = op2_store::unseal(&bytes).map_err(store_to_io)?;
        let json = String::from_utf8(payload)
            .map_err(|_| io::Error::new(io::ErrorKind::InvalidData, "store is not UTF-8"))?;
        TuneStore::from_json(&json)
    }
}

/// Map a store-layer failure onto `io::Error`, keeping corruption
/// distinguishable (`InvalidData`) so [`crate::Tuner::load`] can degrade
/// it to a cold start rather than a hard error.
fn store_to_io(e: op2_store::StoreError) -> io::Error {
    match e {
        op2_store::StoreError::Io(e) => e,
        other if other.is_corruption() => {
            io::Error::new(io::ErrorKind::InvalidData, other.to_string())
        }
        other => io::Error::other(other.to_string()),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample() -> TuneStore {
        TuneStore {
            version: STORE_VERSION,
            seed: 17,
            entries: vec![
                StoreEntry {
                    topo: 0xdead_beef,
                    loop_name: "res_calc".into(),
                    set_size: 12_000,
                    pattern: "indirect-write".into(),
                    backend: "dataflow".into(),
                    chunk: 128,
                    part_size: 0,
                    layout: "soa".into(),
                    best_ns: 42_000,
                    per_elem_ns: 3.5,
                },
                StoreEntry {
                    topo: 7,
                    loop_name: "save_soln".into(),
                    set_size: 9_000,
                    pattern: "direct".into(),
                    backend: String::new(),
                    chunk: 0,
                    part_size: 1024,
                    layout: String::new(),
                    best_ns: 9_000,
                    per_elem_ns: 1.0,
                },
                StoreEntry {
                    topo: 11,
                    loop_name: "update".into(),
                    set_size: 9_000,
                    pattern: "direct".into(),
                    backend: String::new(),
                    chunk: 0,
                    part_size: 0,
                    layout: "aos".into(),
                    best_ns: 5_000,
                    per_elem_ns: 0.6,
                },
            ],
        }
    }

    #[test]
    fn json_round_trip() {
        let s = sample();
        let back = TuneStore::from_json(&s.to_json()).unwrap();
        assert_eq!(s, back);
    }

    #[test]
    fn version_mismatch_rejected() {
        let mut s = sample();
        s.version = STORE_VERSION + 1;
        let err = TuneStore::from_json(&s.to_json()).unwrap_err();
        assert_eq!(err.kind(), io::ErrorKind::InvalidData);
    }

    #[test]
    fn entry_decode_inverts_encode() {
        for e in &sample().entries {
            let (key, config) = e.decode().expect("decodes");
            let again = StoreEntry::encode(&key, &config, e.best_ns, e.per_elem_ns);
            assert_eq!(*e, again);
        }
    }

    #[test]
    fn unknown_names_decode_to_none() {
        let mut e = sample().entries[0].clone();
        e.backend = "quantum".into();
        assert!(e.decode().is_none());
    }

    #[test]
    fn file_round_trip_is_atomic_shaped() {
        let dir = std::env::temp_dir().join("op2-tune-test");
        let path = dir.join("store.json");
        let s = sample();
        s.save(&path).unwrap();
        for leftover in ["store.tmp", "store.json.tmp"] {
            assert!(!dir.join(leftover).exists(), "temp cleaned up");
        }
        assert_eq!(TuneStore::load(&path).unwrap(), s);
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn corruption_is_detected_not_misread() {
        let dir = std::env::temp_dir().join("op2-tune-corrupt");
        let path = dir.join("store.json");
        let s = sample();
        s.save(&path).unwrap();
        // Flip one bit somewhere in the payload region.
        let mut bytes = std::fs::read(&path).unwrap();
        let mid = bytes.len() / 2;
        bytes[mid] ^= 0x10;
        std::fs::write(&path, &bytes).unwrap();
        let err = TuneStore::load(&path).unwrap_err();
        assert_eq!(err.kind(), io::ErrorKind::InvalidData);
        // Truncation too.
        std::fs::write(&path, &bytes[..bytes.len() / 3]).unwrap();
        let err = TuneStore::load(&path).unwrap_err();
        assert_eq!(err.kind(), io::ErrorKind::InvalidData);
        std::fs::remove_dir_all(&dir).ok();
    }
}
