//! Core value types: versions, read/write sets, transaction ids.

use hlf_wire::Bytes;
use hlf_crypto::sha256::{sha256_concat, Hash256};
use hlf_wire::{decode_seq, encode_seq, seq_encoded_len, Decode, Encode, Reader, WireError};

/// The version of a key in the world state: the position of the
/// transaction that last wrote it (Fabric's MVCC version).
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash, PartialOrd, Ord, Default)]
pub struct Version {
    /// Block that wrote the key.
    pub block: u64,
    /// Transaction index within that block.
    pub tx: u32,
}

impl Encode for Version {
    fn encode(&self, out: &mut Vec<u8>) {
        self.block.encode(out);
        self.tx.encode(out);
    }

    fn encoded_len(&self) -> usize {
        8 + 4
    }
}

impl Decode for Version {
    fn decode(r: &mut Reader<'_>) -> Result<Self, WireError> {
        Ok(Version {
            block: Decode::decode(r)?,
            tx: Decode::decode(r)?,
        })
    }
}

/// A single read recorded during simulation: key and the version it had.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct ReadItem {
    /// Key read.
    pub key: String,
    /// Version observed at simulation time (`None` = key was absent).
    pub version: Option<Version>,
}

impl Encode for ReadItem {
    fn encode(&self, out: &mut Vec<u8>) {
        self.key.encode(out);
        self.version.encode(out);
    }

    fn encoded_len(&self) -> usize {
        self.key.encoded_len() + self.version.encoded_len()
    }
}

impl Decode for ReadItem {
    fn decode(r: &mut Reader<'_>) -> Result<Self, WireError> {
        Ok(ReadItem {
            key: Decode::decode(r)?,
            version: Decode::decode(r)?,
        })
    }
}

/// A single write: key and new value (`None` deletes the key).
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct WriteItem {
    /// Key written.
    pub key: String,
    /// New value; `None` is a delete.
    pub value: Option<Bytes>,
}

impl Encode for WriteItem {
    fn encode(&self, out: &mut Vec<u8>) {
        self.key.encode(out);
        self.value.encode(out);
    }

    fn encoded_len(&self) -> usize {
        self.key.encoded_len() + self.value.encoded_len()
    }
}

impl Decode for WriteItem {
    fn decode(r: &mut Reader<'_>) -> Result<Self, WireError> {
        Ok(WriteItem {
            key: Decode::decode(r)?,
            value: Decode::decode(r)?,
        })
    }
}

/// The read/write sets a chaincode simulation produced.
#[derive(Clone, Debug, PartialEq, Eq, Default)]
pub struct RwSet {
    /// Keys read, with observed versions.
    pub reads: Vec<ReadItem>,
    /// Keys written.
    pub writes: Vec<WriteItem>,
}

impl RwSet {
    /// Canonical digest (what endorsers sign).
    pub fn digest(&self) -> Hash256 {
        let mut bytes = Vec::new();
        bytes.extend_from_slice(b"hlfbft/rwset/v1");
        encode_seq(&self.reads, &mut bytes);
        encode_seq(&self.writes, &mut bytes);
        sha256_concat(&[&bytes])
    }
}

impl Encode for RwSet {
    fn encode(&self, out: &mut Vec<u8>) {
        encode_seq(&self.reads, out);
        encode_seq(&self.writes, out);
    }

    fn encoded_len(&self) -> usize {
        seq_encoded_len(&self.reads) + seq_encoded_len(&self.writes)
    }
}

impl Decode for RwSet {
    fn decode(r: &mut Reader<'_>) -> Result<Self, WireError> {
        Ok(RwSet {
            reads: decode_seq(r)?,
            writes: decode_seq(r)?,
        })
    }
}

/// Validation outcome recorded for each transaction at commit time.
///
/// Invalid transactions stay in the block (the paper notes this helps
/// identify misbehaving clients) but their writes are not applied.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum TxValidation {
    /// Applied to the world state.
    Valid,
    /// Endorsement policy unsatisfied.
    BadEndorsement,
    /// A read-set version no longer matches (MVCC conflict).
    MvccConflict,
    /// Same transaction id appeared earlier.
    Duplicate,
    /// Malformed payload.
    Malformed,
}

impl TxValidation {
    /// `true` only for [`TxValidation::Valid`].
    pub fn is_valid(&self) -> bool {
        matches!(self, TxValidation::Valid)
    }
}

impl std::fmt::Display for TxValidation {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        let s = match self {
            TxValidation::Valid => "valid",
            TxValidation::BadEndorsement => "bad endorsement",
            TxValidation::MvccConflict => "mvcc conflict",
            TxValidation::Duplicate => "duplicate",
            TxValidation::Malformed => "malformed",
        };
        f.write_str(s)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use hlf_wire::{from_bytes, to_bytes};

    #[test]
    fn version_roundtrip_and_order() {
        let v = Version { block: 3, tx: 9 };
        assert_eq!(from_bytes::<Version>(&to_bytes(&v)).unwrap(), v);
        assert!(Version { block: 3, tx: 9 } < Version { block: 4, tx: 0 });
        assert!(Version { block: 3, tx: 9 } < Version { block: 3, tx: 10 });
    }

    #[test]
    fn rwset_digest_changes_with_content() {
        let a = RwSet {
            reads: vec![ReadItem {
                key: "k".into(),
                version: Some(Version { block: 1, tx: 0 }),
            }],
            writes: vec![WriteItem {
                key: "k".into(),
                value: Some(Bytes::from_static(b"v")),
            }],
        };
        let mut b = a.clone();
        assert_eq!(a.digest(), b.digest());
        b.writes[0].value = Some(Bytes::from_static(b"w"));
        assert_ne!(a.digest(), b.digest());
        let mut c = a.clone();
        c.reads[0].version = None;
        assert_ne!(a.digest(), c.digest());
    }

    #[test]
    fn rwset_roundtrip() {
        let set = RwSet {
            reads: vec![ReadItem {
                key: "alpha".into(),
                version: None,
            }],
            writes: vec![
                WriteItem {
                    key: "alpha".into(),
                    value: Some(Bytes::from_static(b"1")),
                },
                WriteItem {
                    key: "beta".into(),
                    value: None,
                },
            ],
        };
        assert_eq!(from_bytes::<RwSet>(&to_bytes(&set)).unwrap(), set);
    }

    #[test]
    fn validation_flags() {
        assert!(TxValidation::Valid.is_valid());
        assert!(!TxValidation::MvccConflict.is_valid());
        assert_eq!(TxValidation::Duplicate.to_string(), "duplicate");
    }
}
