//! Durability: the decided-batch log and application checkpoints.
//!
//! The paper (§5.2) notes the ordering service's application state is
//! tiny — a block number and a previous-header hash — so frequent
//! checkpoints are cheap and keep the operation log short. This module
//! provides the log abstraction with an in-memory implementation (tests,
//! benchmarks) and a file-backed one (durability across restarts).

use crate::wire::LogEntry;
use hlf_wire::Bytes;
use hlf_consensus::messages::{Batch, DecisionProof};
use hlf_wire::{from_bytes, to_bytes, Decode, Encode, Reader, WireError};
use std::fs;
use std::io::Write as _;
use std::path::PathBuf;

/// Stable storage for decided batches and checkpoints.
pub trait LogStore: Send {
    /// Appends a decided batch (called in cid order).
    fn append(&mut self, cid: u64, batch: &Batch, proof: &DecisionProof);
    /// Records a checkpoint of the application at `cid` and prunes log
    /// entries at or below it.
    fn checkpoint(&mut self, cid: u64, snapshot: &[u8]);
    /// Latest checkpoint, if any.
    fn last_checkpoint(&self) -> Option<(u64, Bytes)>;
    /// Entries with `cid >= from_cid`, ascending.
    fn entries_from(&self, from_cid: u64) -> Vec<LogEntry>;
    /// Highest appended cid (0 if none).
    fn last_cid(&self) -> u64;
}

/// Volatile log used in tests and throughput benchmarks.
#[derive(Debug, Default)]
pub struct MemoryLog {
    entries: Vec<LogEntry>,
    checkpoint: Option<(u64, Bytes)>,
    last_cid: u64,
}

impl MemoryLog {
    /// Creates an empty log.
    pub fn new() -> MemoryLog {
        MemoryLog::default()
    }

    /// Number of retained entries (post-pruning).
    pub fn len(&self) -> usize {
        self.entries.len()
    }

    /// Returns `true` when no entries are retained.
    pub fn is_empty(&self) -> bool {
        self.entries.is_empty()
    }
}

impl LogStore for MemoryLog {
    fn append(&mut self, cid: u64, batch: &Batch, proof: &DecisionProof) {
        self.entries.push(LogEntry {
            cid,
            batch: batch.clone(),
            proof: proof.clone(),
        });
        self.last_cid = self.last_cid.max(cid);
    }

    fn checkpoint(&mut self, cid: u64, snapshot: &[u8]) {
        self.checkpoint = Some((cid, Bytes::copy_from_slice(snapshot)));
        self.entries.retain(|e| e.cid > cid);
    }

    fn last_checkpoint(&self) -> Option<(u64, Bytes)> {
        self.checkpoint.clone()
    }

    fn entries_from(&self, from_cid: u64) -> Vec<LogEntry> {
        self.entries
            .iter()
            .filter(|e| e.cid >= from_cid)
            .cloned()
            .collect()
    }

    fn last_cid(&self) -> u64 {
        self.last_cid
    }
}

/// One record in the file log.
#[derive(Debug)]
enum FileRecord {
    Entry(LogEntry),
    Checkpoint { cid: u64, snapshot: Bytes },
}

impl Encode for FileRecord {
    fn encode(&self, out: &mut Vec<u8>) {
        match self {
            FileRecord::Entry(entry) => {
                out.push(0);
                entry.encode(out);
            }
            FileRecord::Checkpoint { cid, snapshot } => {
                out.push(1);
                cid.encode(out);
                snapshot.encode(out);
            }
        }
    }

    fn encoded_len(&self) -> usize {
        1 + match self {
            FileRecord::Entry(entry) => entry.encoded_len(),
            FileRecord::Checkpoint { cid, snapshot } => cid.encoded_len() + snapshot.encoded_len(),
        }
    }
}

impl Decode for FileRecord {
    fn decode(r: &mut Reader<'_>) -> Result<Self, WireError> {
        Ok(match u8::decode(r)? {
            0 => FileRecord::Entry(Decode::decode(r)?),
            1 => FileRecord::Checkpoint {
                cid: Decode::decode(r)?,
                snapshot: Decode::decode(r)?,
            },
            d => return Err(WireError::InvalidDiscriminant(d)),
        })
    }
}

/// Append-only file-backed log.
///
/// Records are length-prefixed; recovery scans the file, keeping the
/// latest checkpoint and the entries after it. A truncated final record
/// (torn write) is discarded.
///
/// # Examples
///
/// ```no_run
/// use hlf_smr::storage::{FileLog, LogStore};
///
/// let mut log = FileLog::open("/tmp/ordering-node-0.log".into()).unwrap();
/// println!("recovered up to cid {}", log.last_cid());
/// ```
#[derive(Debug)]
pub struct FileLog {
    path: PathBuf,
    file: fs::File,
    entries: Vec<LogEntry>,
    checkpoint: Option<(u64, Bytes)>,
    last_cid: u64,
}

impl FileLog {
    /// Opens (or creates) a log file, recovering existing records.
    ///
    /// # Errors
    ///
    /// Returns any I/O error opening or reading the file.
    #[expect(clippy::expect_used, clippy::indexing_slicing, reason = "the `offset + 4 + len ≤ bytes.len()` guards make every slice range in-bounds; the 4-byte conversion is exact")]
    pub fn open(path: PathBuf) -> std::io::Result<FileLog> {
        let bytes = match fs::read(&path) {
            Ok(bytes) => bytes,
            Err(e) if e.kind() == std::io::ErrorKind::NotFound => Vec::new(),
            Err(e) => return Err(e),
        };
        let mut entries = Vec::new();
        let mut checkpoint: Option<(u64, Bytes)> = None;
        let mut last_cid = 0;
        let mut offset = 0usize;
        while offset + 4 <= bytes.len() {
            let len =
                u32::from_le_bytes(bytes[offset..offset + 4].try_into().expect("4 bytes")) as usize;
            if offset + 4 + len > bytes.len() {
                break; // torn final record
            }
            let record = from_bytes::<FileRecord>(&bytes[offset + 4..offset + 4 + len]);
            offset += 4 + len;
            match record {
                Ok(FileRecord::Entry(entry)) => {
                    last_cid = last_cid.max(entry.cid);
                    entries.push(entry);
                }
                Ok(FileRecord::Checkpoint { cid, snapshot }) => {
                    entries.retain(|e: &LogEntry| e.cid > cid);
                    checkpoint = Some((cid, snapshot));
                }
                Err(_) => break, // corrupted tail
            }
        }
        let file = fs::OpenOptions::new()
            .create(true)
            .append(true)
            .open(&path)?;
        Ok(FileLog {
            path,
            file,
            entries,
            checkpoint,
            last_cid,
        })
    }

    /// The backing file path.
    pub fn path(&self) -> &PathBuf {
        &self.path
    }

    #[expect(clippy::expect_used, reason = "losing durable agreement history is worse than crashing — a replica that cannot write its log must stop")]
    fn write_record(&mut self, record: &FileRecord) {
        let body = to_bytes(record);
        let mut framed = Vec::with_capacity(4 + body.len());
        framed.extend_from_slice(&(body.len() as u32).to_le_bytes());
        framed.extend_from_slice(&body);
        // Durability failures are not recoverable mid-protocol; surface
        // loudly rather than silently dropping agreement history.
        self.file
            .write_all(&framed)
            .expect("write to durable log failed");
    }
}

impl LogStore for FileLog {
    fn append(&mut self, cid: u64, batch: &Batch, proof: &DecisionProof) {
        let entry = LogEntry {
            cid,
            batch: batch.clone(),
            proof: proof.clone(),
        };
        self.write_record(&FileRecord::Entry(entry.clone()));
        self.entries.push(entry);
        self.last_cid = self.last_cid.max(cid);
    }

    fn checkpoint(&mut self, cid: u64, snapshot: &[u8]) {
        self.write_record(&FileRecord::Checkpoint {
            cid,
            snapshot: Bytes::copy_from_slice(snapshot),
        });
        self.checkpoint = Some((cid, Bytes::copy_from_slice(snapshot)));
        self.entries.retain(|e| e.cid > cid);
    }

    fn last_checkpoint(&self) -> Option<(u64, Bytes)> {
        self.checkpoint.clone()
    }

    fn entries_from(&self, from_cid: u64) -> Vec<LogEntry> {
        self.entries
            .iter()
            .filter(|e| e.cid >= from_cid)
            .cloned()
            .collect()
    }

    fn last_cid(&self) -> u64 {
        self.last_cid
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use hlf_consensus::messages::{Request, Vote, VotePhase};
    use hlf_crypto::ecdsa::SigningKey;
    use hlf_wire::{ClientId, NodeId};

    fn sample(cid: u64) -> (Batch, DecisionProof) {
        let batch = Batch::new(vec![Request::new(ClientId(1), cid, vec![cid as u8; 8])]);
        let key = SigningKey::from_seed(b"storage");
        let vote = Vote::sign(&key, VotePhase::Accept, NodeId(0), cid, 0, batch.digest());
        let proof = DecisionProof {
            cid,
            hash: batch.digest(),
            votes: vec![vote],
        };
        (batch, proof)
    }

    #[test]
    fn memory_log_append_checkpoint_prune() {
        let mut log = MemoryLog::new();
        for cid in 1..=5 {
            let (batch, proof) = sample(cid);
            log.append(cid, &batch, &proof);
        }
        assert_eq!(log.last_cid(), 5);
        assert_eq!(log.entries_from(3).len(), 3);

        log.checkpoint(3, b"snapshot-at-3");
        assert_eq!(log.len(), 2);
        assert_eq!(log.last_checkpoint().unwrap().0, 3);
        assert_eq!(log.entries_from(1).len(), 2);
        assert!(!log.is_empty());
    }

    #[test]
    fn file_log_recovers_after_reopen() {
        let dir = std::env::temp_dir().join(format!("hlf-smr-test-{}", std::process::id()));
        fs::create_dir_all(&dir).unwrap();
        let path = dir.join("recover.log");
        let _ = fs::remove_file(&path);

        {
            let mut log = FileLog::open(path.clone()).unwrap();
            for cid in 1..=4 {
                let (batch, proof) = sample(cid);
                log.append(cid, &batch, &proof);
            }
            log.checkpoint(2, b"ckpt");
        }
        let log = FileLog::open(path.clone()).unwrap();
        assert_eq!(log.last_cid(), 4);
        assert_eq!(log.last_checkpoint().unwrap(), (2, Bytes::from_static(b"ckpt")));
        let entries = log.entries_from(1);
        assert_eq!(entries.len(), 2);
        assert_eq!(entries[0].cid, 3);
        assert_eq!(entries[1].cid, 4);
        let _ = fs::remove_file(&path);
    }

    #[test]
    fn file_log_survives_torn_tail() {
        let dir = std::env::temp_dir().join(format!("hlf-smr-test-{}", std::process::id()));
        fs::create_dir_all(&dir).unwrap();
        let path = dir.join("torn.log");
        let _ = fs::remove_file(&path);

        {
            let mut log = FileLog::open(path.clone()).unwrap();
            let (batch, proof) = sample(1);
            log.append(1, &batch, &proof);
        }
        // Simulate a torn write: append a length prefix promising more
        // bytes than exist.
        {
            let mut file = fs::OpenOptions::new().append(true).open(&path).unwrap();
            file.write_all(&100u32.to_le_bytes()).unwrap();
            file.write_all(&[1, 2, 3]).unwrap();
        }
        let log = FileLog::open(path.clone()).unwrap();
        assert_eq!(log.last_cid(), 1);
        assert_eq!(log.entries_from(1).len(), 1);
        let _ = fs::remove_file(&path);
    }

    #[test]
    fn file_log_empty_file_is_fresh() {
        let dir = std::env::temp_dir().join(format!("hlf-smr-test-{}", std::process::id()));
        fs::create_dir_all(&dir).unwrap();
        let path = dir.join("fresh.log");
        let _ = fs::remove_file(&path);
        let log = FileLog::open(path.clone()).unwrap();
        assert_eq!(log.last_cid(), 0);
        assert!(log.last_checkpoint().is_none());
        let _ = fs::remove_file(&path);
    }
}
