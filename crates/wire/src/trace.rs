//! Wire codec for [`TraceContext`]: a *trailing optional* field.
//!
//! Trace contexts ride at the end of a top-level frame, after the
//! message they annotate, in a form chosen so that tracing never
//! perturbs the canonical encoding:
//!
//! - **Absent** encodes to **zero bytes** — a traceless frame is
//!   byte-identical to the pre-trace wire format, so signatures,
//!   digests, and old decoders are all unaffected.
//! - **Present** appends a marker byte `0x54` (`'T'`) followed by the
//!   trace id and origin timestamp (17 bytes total).
//!
//! Decoding peeks at the reader: nothing left → no trace; the marker →
//! consume the context; anything else is an error (the frame had real
//! trailing garbage). A peer built before this change rejects *traced*
//! frames with [`WireError::TrailingBytes`] — which is why senders only
//! attach contexts when tracing is explicitly enabled (`HLF_TRACE`),
//! and why mixed-version clusters run traceless by default.

use crate::{Decode, Encode, Reader, WireError};
use hlf_obs::TraceContext;

/// Marker byte introducing a trailing trace context (`'T'`).
pub(crate) const TRACE_MARKER: u8 = 0x54;

/// Encoded size of a present trailing context (marker + id + origin).
pub const TRACE_WIRE_LEN: usize = 1 + 8 + 8;

impl Encode for TraceContext {
    fn encode(&self, out: &mut Vec<u8>) {
        self.id.encode(out);
        self.origin_us.encode(out);
    }

    fn encoded_len(&self) -> usize {
        16
    }
}

impl Decode for TraceContext {
    fn decode(r: &mut Reader<'_>) -> Result<TraceContext, WireError> {
        Ok(TraceContext {
            id: u64::decode(r)?,
            origin_us: u64::decode(r)?,
        })
    }
}

/// Appends a trailing trace context: nothing for `None`, marker +
/// context for `Some` (see the module docs).
pub fn encode_trailing_trace(trace: &Option<TraceContext>, out: &mut Vec<u8>) {
    if let Some(ctx) = trace {
        out.push(TRACE_MARKER);
        ctx.encode(out);
    }
}

/// Exact encoded length of a trailing trace context.
pub fn trailing_trace_len(trace: &Option<TraceContext>) -> usize {
    if trace.is_some() {
        TRACE_WIRE_LEN
    } else {
        0
    }
}

/// Decodes a trailing trace context: an exhausted reader means `None`,
/// otherwise the marker byte and context must be exactly what remains.
///
/// # Errors
///
/// Returns [`WireError::InvalidDiscriminant`] if the next byte is not
/// the trace marker, or [`WireError::UnexpectedEof`] if the context is
/// truncated.
pub fn decode_trailing_trace(r: &mut Reader<'_>) -> Result<Option<TraceContext>, WireError> {
    if r.remaining() == 0 {
        return Ok(None);
    }
    let marker = u8::decode(r)?;
    if marker != TRACE_MARKER {
        return Err(WireError::InvalidDiscriminant(marker));
    }
    Ok(Some(TraceContext::decode(r)?))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{from_bytes, to_bytes};

    #[test]
    fn context_roundtrips() {
        let ctx = TraceContext::new(0x1234_5678_9abc_def0, 42_000_000);
        let bytes = to_bytes(&ctx);
        assert_eq!(bytes.len(), 16);
        assert_eq!(from_bytes::<TraceContext>(&bytes).unwrap(), ctx);
    }

    #[test]
    fn absent_trace_encodes_to_nothing() {
        let mut out = vec![1, 2, 3];
        encode_trailing_trace(&None, &mut out);
        assert_eq!(out, vec![1, 2, 3]);
        assert_eq!(trailing_trace_len(&None), 0);
    }

    #[test]
    fn present_trace_roundtrips_after_payload() {
        let ctx = TraceContext::new(7, 99);
        let mut out = vec![0xAA, 0xBB];
        encode_trailing_trace(&Some(ctx), &mut out);
        assert_eq!(out.len(), 2 + TRACE_WIRE_LEN);
        assert_eq!(trailing_trace_len(&Some(ctx)), TRACE_WIRE_LEN);

        let mut r = Reader::new(&out);
        r.take(2).unwrap();
        assert_eq!(decode_trailing_trace(&mut r).unwrap(), Some(ctx));
        assert_eq!(r.remaining(), 0);
    }

    #[test]
    fn empty_tail_decodes_as_none() {
        let mut r = Reader::new(&[]);
        assert_eq!(decode_trailing_trace(&mut r).unwrap(), None);
    }

    #[test]
    fn wrong_marker_is_rejected() {
        let bytes = [0x55u8; TRACE_WIRE_LEN];
        let mut r = Reader::new(&bytes);
        assert_eq!(
            decode_trailing_trace(&mut r),
            Err(WireError::InvalidDiscriminant(0x55))
        );
    }

    #[test]
    fn truncated_context_is_rejected() {
        let ctx = TraceContext::new(1, 2);
        let mut out = Vec::new();
        encode_trailing_trace(&Some(ctx), &mut out);
        for cut in 1..out.len() {
            let mut r = Reader::new(&out[..cut]);
            assert!(decode_trailing_trace(&mut r).is_err(), "cut at {cut}");
        }
    }
}
