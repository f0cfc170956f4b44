//! Per-transaction trace ids.
//!
//! One transaction leaves flight events on several nodes — client →
//! frontend → leader → quorum → signed block → collection. Each event
//! names it by [`trace_id`], which every node derives from the
//! request's `(client, seq)` without coordination, so the events can
//! be joined into one causal timeline.

/// Deterministic trace id for a client request. The client id occupies
/// the top 16 bits and the sequence number the lower 48: frontends are
/// few and sequences dense, so ids are collision-free for any realistic
/// run length.
pub fn trace_id(client: u32, seq: u64) -> u64 {
    ((client as u64 & 0xffff) << 48) | (seq & 0x0000_ffff_ffff_ffff)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn trace_id_roundtrips() {
        for (client, seq) in [(0u32, 0u64), (1, 1), (104, 88_213), (0xffff, (1 << 48) - 1)] {
            let id = trace_id(client, seq);
            assert_eq!(((id >> 48) as u32, id & 0x0000_ffff_ffff_ffff), (client, seq));
        }
        // Distinct requests get distinct ids.
        assert_ne!(trace_id(1, 2), trace_id(2, 1));
    }
}
