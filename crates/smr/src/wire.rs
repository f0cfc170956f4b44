//! Framing for everything that crosses the transport: client requests,
//! replies/pushes, consensus traffic, and catch-up.

use hlf_consensus::messages::{Batch, ConsensusMsg, DecisionProof, Request};
use hlf_wire::{BufferPool, Bytes};
use hlf_wire::{decode_seq, encode_seq, seq_encoded_len, Decode, Encode, Reader, WireError};

/// One proven log entry, as the log keeps it and catch-up serves it.
#[derive(Clone, Debug, PartialEq)]
pub struct LogEntry {
    /// Decided instance.
    pub cid: u64,
    /// Decided batch.
    pub batch: Batch,
    /// Quorum proof of the decision.
    pub proof: DecisionProof,
}

impl Encode for LogEntry {
    fn encode(&self, out: &mut Vec<u8>) {
        self.cid.encode(out);
        self.batch.encode(out);
        self.proof.encode(out);
    }

    fn encoded_len(&self) -> usize {
        8 + self.batch.encoded_len() + self.proof.encoded_len()
    }
}

impl Decode for LogEntry {
    fn decode(r: &mut Reader<'_>) -> Result<Self, WireError> {
        Ok(LogEntry {
            cid: Decode::decode(r)?,
            batch: Decode::decode(r)?,
            proof: Decode::decode(r)?,
        })
    }
}

/// Top-level message envelope on the wire.
#[derive(Clone, Debug, PartialEq)]
pub enum SmrMsg {
    /// Client -> replica: please order these requests — one client's
    /// request window, in `seq` order. A synchronous invocation (and
    /// each of its retransmissions) is a window of one.
    Requests(Vec<Request>),
    /// Replica -> client: reply to request `seq`, or an unsolicited
    /// push when `seq == 0` (the ordering service's blocks).
    Reply {
        /// Request sequence this answers (0 = push).
        seq: u64,
        /// Reply payload.
        payload: Bytes,
    },
    /// Replica <-> replica consensus traffic.
    Consensus(ConsensusMsg),
    /// Replica -> replica: the one catch-up request, "send me your
    /// decisions from `from_cid` on".
    StateRequest {
        /// First instance the requester has not decided.
        from_cid: u64,
    },
    /// Replica -> replica: the answer to a `StateRequest`, from the
    /// sender's log.
    StateReply {
        /// Only when the sender's log no longer reaches `from_cid`: its
        /// checkpoint, `(checkpointed cid, checkpoint bytes)`.
        checkpoint: Option<(u64, Bytes)>,
        /// Proven log entries from `from_cid`, or from the checkpoint on.
        entries: Vec<LogEntry>,
    },
    /// Client -> replica: register for pushes without submitting a
    /// request (receiver-only frontends).
    Subscribe,
}

impl Encode for SmrMsg {
    fn encode(&self, out: &mut Vec<u8>) {
        match self {
            SmrMsg::Requests(requests) => {
                out.push(0);
                encode_seq(requests, out);
            }
            SmrMsg::Reply { seq, payload } => {
                encode_reply_head(*seq, payload.len(), out);
                out.extend_from_slice(payload);
            }
            SmrMsg::Consensus(msg) => {
                out.push(2);
                msg.encode(out);
            }
            SmrMsg::StateRequest { from_cid } => {
                out.push(3);
                from_cid.encode(out);
            }
            SmrMsg::StateReply {
                checkpoint,
                entries,
            } => {
                out.push(4);
                checkpoint.encode(out);
                encode_seq(entries, out);
            }
            SmrMsg::Subscribe => out.push(5),
        }
    }

    fn encoded_len(&self) -> usize {
        1 + match self {
            SmrMsg::Requests(requests) => seq_encoded_len(requests),
            SmrMsg::Reply { payload, .. } => 8 + payload.encoded_len(),
            SmrMsg::Consensus(msg) => msg.encoded_len(),
            SmrMsg::StateRequest { .. } => 8,
            SmrMsg::StateReply {
                checkpoint,
                entries,
            } => checkpoint.encoded_len() + seq_encoded_len(entries),
            SmrMsg::Subscribe => 0,
        }
    }
}

impl SmrMsg {
    /// `to_bytes(&SmrMsg::Reply { seq, payload: to_bytes(value) })` in a
    /// buffer from `pool`, encoded straight from `value`: the payload is
    /// never encoded on its own and copied in.
    pub(crate) fn pooled_reply<T: Encode + ?Sized>(seq: u64, value: &T, pool: &BufferPool) -> Bytes {
        let payload_len = value.encoded_len();
        let mut out = pool.take(REPLY_HEAD + payload_len);
        encode_reply_head(seq, payload_len, &mut out);
        value.encode(&mut out);
        pool.wrap(out)
    }
}

/// Bytes of a `Reply` before its payload: tag 1, `seq` 8, length 4.
const REPLY_HEAD: usize = 13;

/// A `Reply`'s tag, `seq` and payload length prefix.
fn encode_reply_head(seq: u64, payload_len: usize, out: &mut Vec<u8>) {
    out.push(1);
    seq.encode(out);
    #[expect(clippy::expect_used, reason = "the wire format caps every value at u32 length, as `Bytes::encode` does; encoding more is a caller bug")]
    let payload_len = u32::try_from(payload_len).expect("reply payload length fits in u32");
    payload_len.encode(out);
}

impl Decode for SmrMsg {
    fn decode(r: &mut Reader<'_>) -> Result<Self, WireError> {
        Ok(match u8::decode(r)? {
            0 => SmrMsg::Requests(decode_seq(r)?),
            1 => SmrMsg::Reply {
                seq: Decode::decode(r)?,
                payload: Decode::decode(r)?,
            },
            2 => SmrMsg::Consensus(Decode::decode(r)?),
            3 => SmrMsg::StateRequest {
                from_cid: Decode::decode(r)?,
            },
            4 => SmrMsg::StateReply {
                checkpoint: Decode::decode(r)?,
                entries: decode_seq(r)?,
            },
            5 => SmrMsg::Subscribe,
            d => return Err(WireError::InvalidDiscriminant(d)),
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use hlf_crypto::ecdsa::SigningKey;
    use hlf_consensus::messages::{Vote, VotePhase};
    use hlf_wire::{from_bytes, to_bytes, ClientId, NodeId};

    #[test]
    fn all_variants_roundtrip() {
        let request = Request::new(ClientId(1), 2, Bytes::from_static(b"payload"));
        let batch = Batch::new(vec![request.clone()]);
        let key = SigningKey::from_seed(b"smr-wire");
        let vote = Vote::sign(&key, VotePhase::Accept, NodeId(0), 1, 0, batch.digest());
        let proof = DecisionProof {
            cid: 1,
            hash: batch.digest(),
            votes: vec![vote],
        };
        let messages = vec![
            SmrMsg::Requests(vec![request]),
            SmrMsg::Reply {
                seq: 7,
                payload: Bytes::from_static(b"ok"),
            },
            SmrMsg::Consensus(ConsensusMsg::Stop { regency: 2 }),
            SmrMsg::StateRequest { from_cid: 10 },
            SmrMsg::StateReply {
                checkpoint: Some((5, Bytes::from_static(b"snap"))),
                entries: vec![LogEntry {
                    cid: 6,
                    batch,
                    proof,
                }],
            },
            SmrMsg::Subscribe,
        ];
        for msg in messages {
            let bytes = to_bytes(&msg);
            assert_eq!(bytes.len(), msg.encoded_len());
            assert_eq!(from_bytes::<SmrMsg>(&bytes).unwrap(), msg);
        }
    }

    /// A window is discriminant 0, a count, and each request's own
    /// (unchanged) encoding: what `Batch::digest` hashes is untouched.
    #[test]
    fn requests_window_is_count_plus_request_encodings() {
        let a = Request::new(ClientId(1), 2, Bytes::from_static(b"payload"));
        let b = Request::new(ClientId(1), 3, Bytes::from_static(b""));
        let mut expected = vec![0u8];
        expected.extend_from_slice(&2u32.to_le_bytes());
        expected.extend_from_slice(&to_bytes(&a));
        expected.extend_from_slice(&to_bytes(&b));
        assert_eq!(to_bytes(&SmrMsg::Requests(vec![a, b])), expected);
    }

    #[test]
    fn garbage_rejected() {
        assert!(from_bytes::<SmrMsg>(&[42, 0, 0]).is_err());
        assert!(from_bytes::<SmrMsg>(&[]).is_err());
        // A frame is exactly one message: any byte after it is an error.
        for msg in sample_messages() {
            let mut bytes = to_bytes(&msg);
            bytes.push(0x00);
            assert_eq!(from_bytes::<SmrMsg>(&bytes), Err(WireError::TrailingBytes(1)));
        }
    }

    fn sample_messages() -> Vec<SmrMsg> {
        vec![
            SmrMsg::Requests(vec![]),
            SmrMsg::Requests(vec![Request::new(ClientId(9), 3, Bytes::from_static(b"tx"))]),
            SmrMsg::Requests(
                (4..70)
                    .map(|seq| Request::new(ClientId(9), seq, vec![seq as u8; seq as usize % 3]))
                    .collect(),
            ),
            SmrMsg::Reply {
                seq: 0,
                payload: Bytes::from_static(b"block"),
            },
            SmrMsg::Consensus(ConsensusMsg::Stop { regency: 1 }),
            SmrMsg::StateRequest { from_cid: 4 },
            SmrMsg::Subscribe,
        ]
    }
}
