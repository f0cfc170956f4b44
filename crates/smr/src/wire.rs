//! Framing for everything that crosses the transport: client requests,
//! replies/pushes, consensus traffic, and state transfer.

use hlf_consensus::messages::{Batch, ConsensusMsg, DecisionProof, Request};
use hlf_obs::TraceContext;
use hlf_wire::Bytes;
use hlf_wire::{
    decode_seq, decode_trailing_trace, encode_seq, encode_trailing_trace, seq_encoded_len,
    trailing_trace_len, Decode, Encode, Reader, WireError,
};

/// One recoverable log entry served during state transfer.
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
    /// Replica -> replica: send me everything from `from_cid` on.
    StateRequest {
        /// First instance the requester is missing.
        from_cid: u64,
    },
    /// Replica -> replica: state transfer payload.
    StateReply {
        /// Latest checkpoint at or below the requested point, if any:
        /// `(checkpointed cid, application snapshot)`.
        checkpoint: Option<(u64, Bytes)>,
        /// Proven log entries after the checkpoint.
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
                out.push(1);
                seq.encode(out);
                payload.encode(out);
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

/// An [`SmrMsg`] plus an optional distributed-tracing context, as it
/// actually crosses the transport.
///
/// The trace rides as a *trailing optional* field ([`hlf_wire::trace`]):
/// `trace: None` encodes byte-identically to the bare [`SmrMsg`] — the
/// canonical pre-trace wire format — so signatures, digests, and peers
/// built without tracing support are all unaffected. A traced frame
/// appends 17 bytes after the message. Decoding accepts both forms, so
/// a tracing node interoperates with traceless peers in either
/// direction as long as it only *sends* traces when `HLF_TRACE` is on.
#[derive(Clone, Debug, PartialEq)]
pub struct Framed {
    /// The protocol message.
    pub msg: SmrMsg,
    /// Optional trace context for the transaction this frame advances.
    pub trace: Option<TraceContext>,
}

impl Framed {
    /// Wraps a message with no trace — the canonical form.
    pub fn bare(msg: SmrMsg) -> Framed {
        Framed { msg, trace: None }
    }

    /// Wraps a message with a trace context.
    pub fn traced(msg: SmrMsg, trace: TraceContext) -> Framed {
        Framed {
            msg,
            trace: Some(trace),
        }
    }
}

impl From<SmrMsg> for Framed {
    fn from(msg: SmrMsg) -> Framed {
        Framed::bare(msg)
    }
}

impl Encode for Framed {
    fn encode(&self, out: &mut Vec<u8>) {
        self.msg.encode(out);
        encode_trailing_trace(&self.trace, out);
    }

    fn encoded_len(&self) -> usize {
        self.msg.encoded_len() + trailing_trace_len(&self.trace)
    }
}

impl Decode for Framed {
    fn decode(r: &mut Reader<'_>) -> Result<Self, WireError> {
        Ok(Framed {
            msg: SmrMsg::decode(r)?,
            trace: decode_trailing_trace(r)?,
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

    /// Mixed-version compatibility, direction 1: frames from a peer
    /// built *before* tracing existed (bare `SmrMsg` bytes) decode as
    /// `Framed` with no trace.
    #[test]
    fn traceless_peer_bytes_decode_as_framed() {
        for msg in sample_messages() {
            let old_bytes = to_bytes(&msg);
            let framed = from_bytes::<Framed>(&old_bytes).unwrap();
            assert_eq!(framed.msg, msg);
            assert_eq!(framed.trace, None);
        }
    }

    /// Mixed-version compatibility, direction 2: an untraced frame from
    /// a tracing-capable node is byte-identical to the old format, so
    /// traceless peers decode it unchanged.
    #[test]
    fn untraced_framed_encoding_matches_old_format() {
        for msg in sample_messages() {
            let framed = Framed::bare(msg.clone());
            let new_bytes = to_bytes(&framed);
            assert_eq!(new_bytes, to_bytes(&msg), "canonical encoding changed");
            assert_eq!(framed.encoded_len(), msg.encoded_len());
            assert_eq!(from_bytes::<SmrMsg>(&new_bytes).unwrap(), msg);
        }
    }

    /// Traced frames round-trip through the new codec, and the old
    /// codec rejects them loudly (trailing bytes) rather than
    /// misparsing them.
    #[test]
    fn traced_framed_roundtrips_and_old_decoder_rejects() {
        let ctx = TraceContext::new(0xdead_beef, 1_000_000);
        for msg in sample_messages() {
            let framed = Framed::traced(msg.clone(), ctx);
            let bytes = to_bytes(&framed);
            assert_eq!(bytes.len(), framed.encoded_len());
            let back = from_bytes::<Framed>(&bytes).unwrap();
            assert_eq!(back, framed);
            assert_eq!(
                from_bytes::<SmrMsg>(&bytes),
                Err(WireError::TrailingBytes(hlf_wire::TRACE_WIRE_LEN))
            );
        }
    }

    /// A corrupt trailer (junk after the message that is not a trace
    /// marker) is an error, not a silently dropped trace.
    #[test]
    fn corrupt_trailer_rejected() {
        let mut bytes = to_bytes(&SmrMsg::Subscribe);
        bytes.push(0x00);
        assert!(from_bytes::<Framed>(&bytes).is_err());
    }
}
