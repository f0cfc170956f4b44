//! Channel tagging of envelopes on the frontend→orderer path.
//!
//! Fabric partitions its ledger into *channels*; the ordering service
//! "gathers envelopes from all channels in the network, orders them
//! using atomic broadcast, and creates signed chain blocks" (paper §3,
//! step 4) — one hash chain per channel. The ordering nodes never look
//! inside an envelope, but they must know which chain it extends, so
//! frontends prepend a small channel tag that the ordering node strips
//! before block cutting.

use hlf_wire::Bytes;
use hlf_fabric::block::SYSTEM_CHANNEL;
use hlf_wire::{Decode, Encode, Reader, MAX_LEN};

const TAG_MAGIC: u8 = 0xC7;

/// Wraps an envelope with its channel tag.
///
/// # Examples
///
/// ```
/// use ordering_core::channel::{tag_envelope, untag_envelope};
///
/// let tagged = tag_envelope("trading", b"envelope bytes");
/// let (channel, payload) = untag_envelope(&tagged);
/// assert_eq!(channel, "trading");
/// assert_eq!(payload.as_ref(), b"envelope bytes");
/// ```
pub fn tag_envelope(channel: &str, envelope: &[u8]) -> Bytes {
    // Exact: magic byte + u32 length prefix + channel + envelope.
    let mut out = Vec::with_capacity(1 + 4 + channel.len() + envelope.len());
    out.push(TAG_MAGIC);
    channel.to_string().encode(&mut out);
    out.extend_from_slice(envelope);
    Bytes::from(out)
}

/// Splits a tagged envelope back into `(channel, payload)`; the channel
/// name is borrowed from the envelope, so nothing is allocated.
///
/// Untagged (or corrupt) payloads deterministically map to the
/// [`SYSTEM_CHANNEL`] with their bytes unchanged, so raw submitters
/// (benchmark drivers, the WAN simulator) interoperate.
pub fn untag_envelope(bytes: &Bytes) -> (&str, Bytes) {
    match tagged_channel(bytes) {
        Some((channel, offset)) => (channel, bytes.slice(offset..)),
        None => (SYSTEM_CHANNEL, bytes.clone()),
    }
}

/// The non-empty UTF-8 channel name of a tagged envelope and the offset
/// of its payload, or `None` when the bytes carry no valid tag.
fn tagged_channel(bytes: &[u8]) -> Option<(&str, usize)> {
    let (&TAG_MAGIC, tagged) = bytes.split_first()? else {
        return None;
    };
    let mut reader = Reader::new(tagged);
    let len = u32::decode(&mut reader).ok().filter(|&len| len <= MAX_LEN)?;
    let name = reader.take(usize::try_from(len).ok()?).ok()?;
    let channel = std::str::from_utf8(name).ok().filter(|name| !name.is_empty())?;
    Some((channel, bytes.len() - reader.remaining()))
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
