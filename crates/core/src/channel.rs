//! Channel tagging of envelopes on the frontend→orderer path.
//!
//! Fabric partitions its ledger into *channels*; the ordering service
//! "gathers envelopes from all channels in the network, orders them
//! using atomic broadcast, and creates signed chain blocks" (paper §3,
//! step 4) — one hash chain per channel. The ordering nodes never look
//! inside an envelope, but they must know which chain it extends, so a
//! frontend prepends a small channel tag ([`channel_payload`]) that the
//! ordering node strips before block cutting ([`untag_envelope`]).
//!
//! The tag is consensus's payload tag ([`payload_tag`]): each replica
//! hashes a payload's body, the envelope behind the tag, when it votes
//! on the batch, and that hash is the envelope's leaf in the block's
//! data hash too (DESIGN.md, "Hash once").
//!
//! The [`SYSTEM_CHANNEL`] needs no tag: an envelope on it travels
//! untagged, unless its first byte is the tag's magic byte and it could
//! be read as a tag. That saves a copy of every system-channel
//! envelope.

use hlf_wire::Bytes;
use hlf_consensus::messages::{payload_tag, tag_payload};
pub use hlf_consensus::messages::TAG_MAGIC;
use hlf_fabric::block::SYSTEM_CHANNEL;

/// The request payload that carries `envelope` on `channel`: the
/// envelope itself on the [`SYSTEM_CHANNEL`] when its first byte is not
/// the tag's magic byte, otherwise the envelope behind its channel tag.
/// [`untag_envelope`] maps either back to `(channel, envelope)`.
///
/// # Examples
///
/// ```
/// use hlf_wire::Bytes;
/// use ordering_core::{channel_payload, untag_envelope};
///
/// let plain = Bytes::from_static(b"envelope bytes");
/// let payload = channel_payload("system", plain.clone());
/// assert_eq!(payload, plain);
/// assert_eq!(untag_envelope(&payload), ("system", plain));
/// ```
pub fn channel_payload(channel: &str, envelope: Bytes) -> Bytes {
    if channel == SYSTEM_CHANNEL && envelope.first() != Some(&TAG_MAGIC) {
        envelope
    } else {
        tag_envelope(channel, &envelope)
    }
}

/// Wraps an envelope with its channel tag, consensus's payload tag
/// ([`tag_payload`]).
///
/// # Examples
///
/// ```
/// use ordering_core::{tag_envelope, untag_envelope};
///
/// let tagged = tag_envelope("trading", b"envelope bytes");
/// let (channel, payload) = untag_envelope(&tagged);
/// assert_eq!(channel, "trading");
/// assert_eq!(payload.as_ref(), b"envelope bytes");
/// ```
pub fn tag_envelope(channel: &str, envelope: &[u8]) -> Bytes {
    tag_payload(channel, envelope)
}

/// Splits a tagged envelope back into `(channel, payload)`; the channel
/// name is borrowed from the envelope, so nothing is allocated.
///
/// Untagged (or corrupt) payloads deterministically map to the
/// [`SYSTEM_CHANNEL`] with their bytes unchanged, so raw submitters
/// (the benchmark harness, the WAN simulator) interoperate. Either way the
/// envelope is the payload's body as [`payload_tag`] splits it, so a
/// replica's leaf for the payload (`Batch::leaves`) is the envelope's
/// hash.
pub fn untag_envelope(bytes: &Bytes) -> (&str, Bytes) {
    match payload_tag(bytes) {
        Some((channel, offset)) => (channel, bytes.slice(offset..)),
        None => (SYSTEM_CHANNEL, bytes.clone()),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn roundtrip() {
        let tagged = tag_envelope("ch1", b"payload");
        let (channel, payload) = untag_envelope(&tagged);
        assert_eq!(channel, "ch1");
        assert_eq!(payload.as_ref(), b"payload");
    }

    #[test]
    fn untagged_bytes_go_to_system_channel() {
        let raw = Bytes::from_static(b"raw envelope without tag");
        let (channel, payload) = untag_envelope(&raw);
        assert_eq!(channel, SYSTEM_CHANNEL);
        assert_eq!(payload, raw);
    }

    #[test]
    fn corrupt_tag_goes_to_system_channel_unchanged() {
        // Magic byte but truncated length prefix.
        let corrupt = Bytes::from_static(&[TAG_MAGIC, 0xff, 0xff]);
        let (channel, payload) = untag_envelope(&corrupt);
        assert_eq!(channel, SYSTEM_CHANNEL);
        assert_eq!(payload, corrupt);
    }

    #[test]
    fn empty_channel_name_treated_as_system() {
        let tagged = tag_envelope("", b"x");
        let (channel, payload) = untag_envelope(&tagged);
        assert_eq!(channel, SYSTEM_CHANNEL);
        // The whole tagged blob flows through unchanged in this case.
        assert_eq!(payload, tagged);
    }

    #[test]
    fn empty_payload_allowed() {
        let tagged = tag_envelope("ch", b"");
        let (channel, payload) = untag_envelope(&tagged);
        assert_eq!(channel, "ch");
        assert!(payload.is_empty());
    }

    #[test]
    fn system_envelopes_go_untagged_unless_they_start_like_a_tag() {
        let plain = Bytes::from_static(b"plain envelope");
        let weird = Bytes::from(vec![TAG_MAGIC; 9]);
        let payload = channel_payload(SYSTEM_CHANNEL, plain.clone());
        // The payload is the envelope itself: the same view, no copy.
        assert!(payload.shares_storage_with(&plain) && payload == plain);
        assert_eq!(channel_payload(SYSTEM_CHANNEL, weird.clone()), tag_envelope(SYSTEM_CHANNEL, &weird));
        assert_eq!(channel_payload("ch", plain.clone()), tag_envelope("ch", &plain));
        assert_eq!(channel_payload(SYSTEM_CHANNEL, Bytes::default()), Bytes::default());
        for envelope in [plain, weird, Bytes::default()] {
            let payload = channel_payload(SYSTEM_CHANNEL, envelope.clone());
            assert_eq!(untag_envelope(&payload), (SYSTEM_CHANNEL, envelope));
        }
    }

    #[test]
    fn determinism_across_replicas() {
        // Whatever the input, two untag calls agree — the property that
        // keeps per-channel cutting identical across ordering nodes.
        for input in [
            Bytes::from_static(b""),
            Bytes::from_static(&[TAG_MAGIC]),
            Bytes::from_static(&[TAG_MAGIC, 2, 0, 0, 0]),
            tag_envelope("weird", &[TAG_MAGIC; 9]),
        ] {
            assert_eq!(untag_envelope(&input), untag_envelope(&input));
        }
    }
}
