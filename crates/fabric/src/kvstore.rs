//! The versioned key/value world state maintained by committing peers.

use crate::types::{ReadItem, RwSet, Version, WriteItem};
use hlf_wire::Bytes;
use std::collections::HashMap;

/// Versioned key/value store (Fabric's world state model).
///
/// # Examples
///
/// ```
/// use hlf_fabric::VersionedKv;
/// use hlf_fabric::Version;
///
/// let mut kv = VersionedKv::new();
/// kv.put("asset1", b"blue".as_slice().into(), Version { block: 1, tx: 0 });
/// let (value, version) = kv.get("asset1").unwrap();
/// assert_eq!(value.as_ref(), b"blue");
/// assert_eq!(version, Version { block: 1, tx: 0 });
/// ```
#[derive(Clone, Debug, Default)]
pub struct VersionedKv {
    entries: HashMap<String, (Bytes, Version)>,
}

impl VersionedKv {
    /// Creates an empty store.
    pub fn new() -> VersionedKv {
        VersionedKv::default()
    }

    /// Reads a key with its version.
    pub fn get(&self, key: &str) -> Option<(Bytes, Version)> {
        self.entries.get(key).cloned()
    }

    /// Current version of a key, if present.
    pub fn version(&self, key: &str) -> Option<Version> {
        self.entries.get(key).map(|(_, v)| *v)
    }

    /// Writes a key at a version.
    pub fn put(&mut self, key: impl Into<String>, value: Bytes, version: Version) {
        self.entries.insert(key.into(), (value, version));
    }

    /// Deletes a key.
    pub(crate) fn delete(&mut self, key: &str) {
        self.entries.remove(key);
    }

    /// Number of live keys.
    pub fn len(&self) -> usize {
        self.entries.len()
    }

    /// Returns `true` when no keys are present.
    pub fn is_empty(&self) -> bool {
        self.entries.is_empty()
    }

    /// Checks an rw-set's reads against current versions (MVCC).
    pub(crate) fn mvcc_ok(&self, rw_set: &RwSet) -> bool {
        rw_set
            .reads
            .iter()
            .all(|read| self.version(&read.key) == read.version)
    }

    /// Applies an rw-set's writes at `version`.
    pub(crate) fn apply(&mut self, rw_set: &RwSet, version: Version) {
        for write in &rw_set.writes {
            match &write.value {
                Some(value) => self.put(write.key.clone(), value.clone(), version),
                None => self.delete(&write.key),
            }
        }
    }

    /// Iterates over keys (unspecified order).
    pub fn keys(&self) -> impl Iterator<Item = &str> {
        self.entries.keys().map(String::as_str)
    }

    /// Reads all keys in `[start, end)` in lexicographic order with
    /// their values and versions (Fabric's `GetStateByRange`).
    pub fn range(&self, start: &str, end: &str) -> Vec<(String, Bytes, Version)> {
        let mut hits: Vec<(String, Bytes, Version)> = self
            .entries
            .iter()
            .filter(|(key, _)| key.as_str() >= start && key.as_str() < end)
            .map(|(key, (value, version))| (key.clone(), value.clone(), *version))
            .collect();
        hits.sort_by(|a, b| a.0.cmp(&b.0));
        hits
    }
}

/// A read-tracking view over the store used during chaincode
/// simulation: every `get` is recorded into the read set, and writes
/// are buffered (Fabric's transaction simulator).
#[derive(Debug)]
pub struct SimulationView<'a> {
    store: &'a VersionedKv,
    rw_set: RwSet,
}

impl<'a> SimulationView<'a> {
    /// Starts a simulation against the current state.
    pub fn new(store: &'a VersionedKv) -> SimulationView<'a> {
        SimulationView {
            store,
            rw_set: RwSet::default(),
        }
    }

    /// Reads a key, recording the observed version. Reads-after-writes
    /// within the same simulation see the buffered value.
    pub fn get(&mut self, key: &str) -> Option<Bytes> {
        // Read-your-own-writes within the simulation.
        if let Some(write) = self.rw_set.writes.iter().rev().find(|w| w.key == key) {
            return write.value.clone();
        }
        let entry = self.store.get(key);
        if !self.rw_set.reads.iter().any(|r| r.key == key) {
            self.rw_set.reads.push(ReadItem {
                key: key.to_string(),
                version: entry.as_ref().map(|(_, v)| *v),
            });
        }
        entry.map(|(value, _)| value)
    }

    /// Buffers a write.
    pub fn put(&mut self, key: impl Into<String>, value: impl Into<Bytes>) {
        self.rw_set.writes.push(WriteItem {
            key: key.into(),
            value: Some(value.into()),
        });
    }

    /// Buffers a delete.
    pub(crate) fn delete(&mut self, key: impl Into<String>) {
        self.rw_set.writes.push(WriteItem {
            key: key.into(),
            value: None,
        });
    }

    /// Range read over `[start, end)`: every key hit (and its version)
    /// is recorded in the read set, so a concurrent write to any of
    /// them invalidates this transaction at commit time.
    ///
    /// Note Fabric's phantom-read caveat applies here too: keys
    /// *inserted* into the range by concurrent transactions are not
    /// detected, because absent keys leave nothing to version-check.
    pub fn range(&mut self, start: &str, end: &str) -> Vec<(String, Bytes)> {
        let hits = self.store.range(start, end);
        for (key, _, version) in &hits {
            if !self.rw_set.reads.iter().any(|r| &r.key == key) {
                self.rw_set.reads.push(ReadItem {
                    key: key.clone(),
                    version: Some(*version),
                });
            }
        }
        hits.into_iter().map(|(key, value, _)| (key, value)).collect()
    }

    /// Finishes the simulation, returning the collected rw-set.
    pub(crate) fn into_rw_set(self) -> RwSet {
        self.rw_set
    }
}

/// Builds a composite key from an object type and attribute parts
/// (Fabric's `CreateCompositeKey`): parts are joined with `\u{0}`
/// separators under a type prefix, giving prefix-range scans over all
/// objects sharing leading attributes.
///
/// # Examples
///
/// ```
/// use hlf_fabric::composite_key;
///
/// let key = composite_key("owner~asset", &["alice", "car1"]);
/// let all_of_alice = composite_key("owner~asset", &["alice"]);
/// assert!(key.starts_with(&all_of_alice));
/// ```
pub fn composite_key(object_type: &str, parts: &[&str]) -> String {
    let mut key = String::with_capacity(object_type.len() + 16);
    key.push_str(object_type);
    for part in parts {
        key.push('\u{0}');
        key.push_str(part);
    }
    key
}

#[cfg(test)]
mod tests {
    use super::*;

    fn v(block: u64, tx: u32) -> Version {
        Version { block, tx }
    }

    #[test]
    fn put_get_delete() {
        let mut kv = VersionedKv::new();
        assert!(kv.is_empty());
        kv.put("a", Bytes::from_static(b"1"), v(1, 0));
        assert_eq!(kv.len(), 1);
        assert_eq!(kv.get("a").unwrap().0, Bytes::from_static(b"1"));
        kv.delete("a");
        assert!(kv.get("a").is_none());
    }

    #[test]
    fn mvcc_check_detects_stale_reads() {
        let mut kv = VersionedKv::new();
        kv.put("a", Bytes::from_static(b"1"), v(1, 0));
        let fresh = RwSet {
            reads: vec![ReadItem {
                key: "a".into(),
                version: Some(v(1, 0)),
            }],
            writes: vec![],
        };
        assert!(kv.mvcc_ok(&fresh));
        // Another tx updates the key: the read set is now stale.
        kv.put("a", Bytes::from_static(b"2"), v(2, 0));
        assert!(!kv.mvcc_ok(&fresh));
        // Reading an absent key records None; check both directions.
        let absent = RwSet {
            reads: vec![ReadItem {
                key: "ghost".into(),
                version: None,
            }],
            writes: vec![],
        };
        assert!(kv.mvcc_ok(&absent));
        kv.put("ghost", Bytes::from_static(b"!"), v(3, 0));
        assert!(!kv.mvcc_ok(&absent));
    }

    #[test]
    fn apply_writes_and_deletes() {
        let mut kv = VersionedKv::new();
        kv.put("gone", Bytes::from_static(b"x"), v(1, 0));
        let set = RwSet {
            reads: vec![],
            writes: vec![
                WriteItem {
                    key: "new".into(),
                    value: Some(Bytes::from_static(b"val")),
                },
                WriteItem {
                    key: "gone".into(),
                    value: None,
                },
            ],
        };
        kv.apply(&set, v(5, 2));
        assert_eq!(kv.version("new"), Some(v(5, 2)));
        assert!(kv.get("gone").is_none());
    }

    #[test]
    fn range_reads_are_ordered_and_bounded() {
        let mut kv = VersionedKv::new();
        for (i, key) in ["a1", "a2", "a3", "b1"].iter().enumerate() {
            kv.put(*key, Bytes::from(vec![i as u8]), v(1, i as u32));
        }
        let hits = kv.range("a1", "a3");
        assert_eq!(
            hits.iter().map(|(k, ..)| k.as_str()).collect::<Vec<_>>(),
            vec!["a1", "a2"]
        );
        assert!(kv.range("z", "zz").is_empty());
        // Full "a" prefix.
        let hits = kv.range("a", "b");
        assert_eq!(hits.len(), 3);
    }

    #[test]
    fn simulated_range_reads_enter_the_read_set() {
        let mut kv = VersionedKv::new();
        kv.put("acct/1", Bytes::from_static(b"10"), v(1, 0));
        kv.put("acct/2", Bytes::from_static(b"20"), v(1, 1));
        let mut sim = SimulationView::new(&kv);
        let hits = sim.range("acct/", "acct0");
        assert_eq!(hits.len(), 2);
        let rw = sim.into_rw_set();
        assert_eq!(rw.reads.len(), 2);
        // MVCC: mutating any ranged key invalidates the set.
        assert!(kv.mvcc_ok(&rw));
        kv.put("acct/2", Bytes::from_static(b"25"), v(2, 0));
        assert!(!kv.mvcc_ok(&rw));
    }

    #[test]
    fn composite_keys_support_partial_scans() {
        let mut kv = VersionedKv::new();
        kv.put(
            composite_key("owner~asset", &["alice", "car"]),
            Bytes::from_static(b"1"),
            v(1, 0),
        );
        kv.put(
            composite_key("owner~asset", &["alice", "boat"]),
            Bytes::from_static(b"1"),
            v(1, 1),
        );
        kv.put(
            composite_key("owner~asset", &["bob", "car"]),
            Bytes::from_static(b"1"),
            v(1, 2),
        );
        let prefix = composite_key("owner~asset", &["alice"]);
        // `\u{1}` after a prefix bounds its scan: `\u{0}` separates parts.
        let hits = kv.range(&prefix, &format!("{prefix}\u{1}"));
        assert_eq!(hits.len(), 2, "exactly alice's assets");
        // And the full type scan sees all three.
        let type_prefix = composite_key("owner~asset", &[]);
        let hits = kv.range(&type_prefix, &format!("{type_prefix}\u{1}"));
        assert_eq!(hits.len(), 3);
    }

    #[test]
    fn simulation_records_reads_once_and_buffers_writes() {
        let mut kv = VersionedKv::new();
        kv.put("a", Bytes::from_static(b"1"), v(1, 0));
        let mut sim = SimulationView::new(&kv);
        assert_eq!(sim.get("a"), Some(Bytes::from_static(b"1")));
        assert_eq!(sim.get("a"), Some(Bytes::from_static(b"1")));
        assert_eq!(sim.get("missing"), None);
        sim.put("b", &b"2"[..]);
        // Read-your-own-write.
        assert_eq!(sim.get("b"), Some(Bytes::from_static(b"2")));
        sim.delete("a");
        assert_eq!(sim.get("a"), None);

        let rw = sim.into_rw_set();
        assert_eq!(rw.reads.len(), 2); // "a" once, "missing" once
        assert_eq!(rw.writes.len(), 2); // put b, delete a
        // The underlying store is untouched until commit.
        assert_eq!(kv.get("a").unwrap().0, Bytes::from_static(b"1"));
        assert!(kv.get("b").is_none());
    }
}
