//! Process identities shared across the workspace.

use crate::{Decode, Encode, Reader, WireError};
use std::fmt;

/// Identity of a replica (ordering node) in the BFT cluster.
///
/// # Examples
///
/// ```
/// use hlf_wire::NodeId;
///
/// let n = NodeId(3);
/// assert_eq!(format!("{n}"), "node-3");
/// assert_eq!(n.as_usize(), 3);
/// ```
#[derive(Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord, Debug, Default)]
pub struct NodeId(pub u32);

impl NodeId {
    /// The id as an array index.
    pub fn as_usize(&self) -> usize {
        self.0 as usize
    }
}

impl fmt::Display for NodeId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "node-{}", self.0)
    }
}

impl From<u32> for NodeId {
    fn from(v: u32) -> Self {
        NodeId(v)
    }
}

impl Encode for NodeId {
    fn encode(&self, out: &mut Vec<u8>) {
        self.0.encode(out);
    }

    fn encoded_len(&self) -> usize {
        4
    }
}

impl Decode for NodeId {
    fn decode(r: &mut Reader<'_>) -> Result<Self, WireError> {
        Ok(NodeId(u32::decode(r)?))
    }
}

/// Identity of an SMR client (in the ordering service: a frontend).
///
/// Client ids live in a separate namespace from node ids; the paper's
/// frontends are BFT-SMaRt clients.
#[derive(Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord, Debug, Default)]
pub struct ClientId(pub u32);

impl ClientId {
    /// The id as an array index.
    pub fn as_usize(&self) -> usize {
        self.0 as usize
    }
}

impl fmt::Display for ClientId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "client-{}", self.0)
    }
}

impl From<u32> for ClientId {
    fn from(v: u32) -> Self {
        ClientId(v)
    }
}

impl Encode for ClientId {
    fn encode(&self, out: &mut Vec<u8>) {
        self.0.encode(out);
    }

    fn encoded_len(&self) -> usize {
        4
    }
}

impl Decode for ClientId {
    fn decode(r: &mut Reader<'_>) -> Result<Self, WireError> {
        Ok(ClientId(u32::decode(r)?))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{from_bytes, to_bytes};

    #[test]
    fn ids_roundtrip() {
        assert_eq!(from_bytes::<NodeId>(&to_bytes(&NodeId(7))).unwrap(), NodeId(7));
        assert_eq!(
            from_bytes::<ClientId>(&to_bytes(&ClientId(9))).unwrap(),
            ClientId(9)
        );
    }

    #[test]
    fn display_forms() {
        assert_eq!(NodeId(0).to_string(), "node-0");
        assert_eq!(ClientId(12).to_string(), "client-12");
    }

    #[test]
    fn conversions() {
        assert_eq!(NodeId::from(4u32), NodeId(4));
        assert_eq!(ClientId::from(4u32).as_usize(), 4);
    }
}
