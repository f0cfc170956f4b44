//! Distributed trace contexts, gated by `HLF_TRACE`.
//!
//! A [`TraceContext`] is the compact identity one transaction carries
//! across the pipeline — client → frontend → leader → quorum → signed
//! block → collection — so flight-recorder events emitted on different
//! nodes can be joined into one causal timeline. It is deliberately
//! tiny (16 bytes: trace id + origin timestamp) so that carrying it
//! inside wire messages costs nothing measurable.
//!
//! Whether contexts are *generated* (and flight recorders populated) is
//! controlled by the `HLF_TRACE` environment variable, read once per
//! process exactly like `HLF_LOG`: unset/`off` disables tracing, any of
//! `1`/`on`/`true`/`trace` enables it. The wire format is unconditional
//! — a traceless process still decodes traced peers' messages (the
//! context is a trailing optional field) and encodes `None`
//! byte-identically to the pre-trace format.

use std::sync::OnceLock;

/// Compact per-transaction trace identity carried inside wire messages.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct TraceContext {
    /// Globally unique (per run) trace id; see [`trace_id`].
    pub id: u64,
    /// Microsecond timestamp at the origin of the trace (submission
    /// time on the originating node's clock).
    pub origin_us: u64,
}

impl TraceContext {
    /// Creates a context from an explicit id and origin timestamp.
    pub fn new(id: u64, origin_us: u64) -> TraceContext {
        TraceContext { id, origin_us }
    }

    /// The canonical context for a client request: the id derives
    /// deterministically from `(client, seq)` so every node in the
    /// pipeline — and whatever merges their flight dumps offline —
    /// computes the same id without coordination.
    pub fn for_request(client: u32, seq: u64, origin_us: u64) -> TraceContext {
        TraceContext {
            id: trace_id(client, seq),
            origin_us,
        }
    }
}

/// Deterministic trace id for a client request. The client id occupies
/// the top 16 bits and the sequence number the lower 48: frontends are
/// few and sequences dense, so ids are collision-free for any realistic
/// run length.
pub fn trace_id(client: u32, seq: u64) -> u64 {
    ((client as u64 & 0xffff) << 48) | (seq & 0x0000_ffff_ffff_ffff)
}

static TRACE_ENABLED: OnceLock<bool> = OnceLock::new();

fn parse(value: Option<&str>) -> bool {
    matches!(
        value.map(|v| v.trim().to_ascii_lowercase()).as_deref(),
        Some("1") | Some("on") | Some("true") | Some("trace")
    )
}

/// Whether tracing is enabled for this process (from `HLF_TRACE`,
/// cached on first call).
#[inline]
pub fn trace_enabled() -> bool {
    *TRACE_ENABLED.get_or_init(|| parse(std::env::var("HLF_TRACE").ok().as_deref()))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parse_flags() {
        assert!(!parse(None));
        assert!(!parse(Some("")));
        assert!(!parse(Some("off")));
        assert!(!parse(Some("0")));
        assert!(parse(Some("1")));
        assert!(parse(Some("on")));
        assert!(parse(Some(" TRUE ")));
        assert!(parse(Some("trace")));
    }

    #[test]
    fn trace_id_roundtrips() {
        for (client, seq) in [(0u32, 0u64), (1, 1), (104, 88_213), (0xffff, (1 << 48) - 1)] {
            let id = trace_id(client, seq);
            assert_eq!(((id >> 48) as u32, id & 0x0000_ffff_ffff_ffff), (client, seq));
        }
        // Distinct requests get distinct ids.
        assert_ne!(trace_id(1, 2), trace_id(2, 1));
    }

    #[test]
    fn for_request_uses_derived_id() {
        let ctx = TraceContext::for_request(104, 7, 123_456);
        assert_eq!(ctx.id, trace_id(104, 7));
        assert_eq!(ctx.origin_us, 123_456);
    }
}
