//! The client-side SDK: automates the paper's protocol steps 1-3
//! (create proposal → collect endorsements → assemble envelope) against
//! a set of endorsing peers.

use crate::envelope::{AssemblyError, Envelope, Proposal, ProposalResponse};
use crate::peer::{EndorseError, Peer};
use hlf_wire::Bytes;
use hlf_crypto::ecdsa::SigningKey;
use std::fmt;

/// Client-side transaction failure.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum ClientError {
    /// Not enough peers endorsed the proposal.
    NotEnoughEndorsements {
        /// Endorsements required.
        needed: usize,
        /// Endorsements obtained.
        got: usize,
        /// The first endorsement failure observed, if any.
        first_failure: Option<EndorseError>,
    },
    /// Responses could not be assembled into one envelope.
    Assembly(AssemblyError),
}

impl fmt::Display for ClientError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ClientError::NotEnoughEndorsements {
                needed,
                got,
                first_failure,
            } => {
                write!(f, "needed {needed} endorsements, got {got}")?;
                if let Some(err) = first_failure {
                    write!(f, " (first failure: {err})")?;
                }
                Ok(())
            }
            ClientError::Assembly(e) => write!(f, "assembly failed: {e}"),
        }
    }
}

impl std::error::Error for ClientError {}

impl From<AssemblyError> for ClientError {
    fn from(e: AssemblyError) -> Self {
        ClientError::Assembly(e)
    }
}

/// A Fabric application client: owns an identity key and drives the
/// endorsement flow.
///
/// # Examples
///
/// See [`FabricClient::transact`] and the `asset_transfer` example.
pub struct FabricClient {
    id: u32,
    channel: String,
    signing_key: SigningKey,
    nonce: u64,
}

impl fmt::Debug for FabricClient {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("FabricClient")
            .field("id", &self.id)
            .field("channel", &self.channel)
            .field("nonce", &self.nonce)
            .finish()
    }
}

impl FabricClient {
    /// Creates a client bound to a channel.
    pub fn new(id: u32, channel: impl Into<String>, signing_key: SigningKey) -> FabricClient {
        FabricClient {
            id,
            channel: channel.into(),
            signing_key,
            nonce: 0,
        }
    }

    /// This client's id (as known to peer MSPs).
    pub fn id(&self) -> u32 {
        self.id
    }

    /// This client's public key, for peer registration.
    pub fn verifying_key(&self) -> hlf_crypto::ecdsa::VerifyingKey {
        *self.signing_key.verifying_key()
    }

    /// The channel this client transacts on.
    pub fn channel(&self) -> &str {
        &self.channel
    }

    /// Builds a proposal with a fresh nonce.
    pub fn propose(&mut self, chaincode: &str, args: &[&[u8]]) -> Proposal {
        self.nonce += 1;
        Proposal {
            channel: self.channel.clone(),
            chaincode: chaincode.to_string(),
            client: self.id,
            nonce: self.nonce,
            args: args.iter().map(|a| Bytes::copy_from_slice(a)).collect(),
        }
    }

    /// Runs the full client side of the protocol (steps 1-3): proposes
    /// to `peers`, requires `needed` matching endorsements, and signs
    /// the assembled envelope.
    ///
    /// Endorsement failures at individual peers are tolerated as long as
    /// `needed` succeed — mirroring real clients, which only need to
    /// satisfy the endorsement policy, not every peer.
    ///
    /// # Errors
    ///
    /// `ClientError::NotEnoughEndorsements` when fewer than `needed`
    /// peers endorse; `ClientError::Assembly` when their responses
    /// disagree.
    pub fn transact(
        &mut self,
        peers: &[&Peer],
        needed: usize,
        chaincode: &str,
        args: &[&[u8]],
    ) -> Result<Envelope, ClientError> {
        let proposal = self.propose(chaincode, args);
        let mut responses: Vec<ProposalResponse> = Vec::with_capacity(needed);
        let mut first_failure = None;
        for peer in peers {
            match peer.endorse(&proposal) {
                Ok(response) => {
                    responses.push(response);
                    if responses.len() >= needed {
                        break;
                    }
                }
                Err(e) => {
                    if first_failure.is_none() {
                        first_failure = Some(e);
                    }
                }
            }
        }
        if responses.len() < needed {
            return Err(ClientError::NotEnoughEndorsements {
                needed,
                got: responses.len(),
                first_failure,
            });
        }
        Ok(Envelope::assemble(proposal, responses, &self.signing_key)?)
    }

    /// Convenience for string arguments.
    ///
    /// # Errors
    ///
    /// See [`FabricClient::transact`].
    pub fn transact_str(
        &mut self,
        peers: &[&Peer],
        needed: usize,
        chaincode: &str,
        args: &[&str],
    ) -> Result<Envelope, ClientError> {
        let raw: Vec<&[u8]> = args.iter().map(|a| a.as_bytes()).collect();
        self.transact(peers, needed, chaincode, &raw)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::chaincode::KvChaincode;
    use crate::peer::{EndorsementPolicy, PeerConfig};
    use std::collections::HashMap;

    fn peers_and_client(n: usize) -> (Vec<Peer>, FabricClient) {
        let peer_keys: Vec<SigningKey> = (0..n)
            .map(|i| SigningKey::from_seed(format!("sdk-peer-{i}").as_bytes()))
            .collect();
        let endorser_keys: Vec<_> = peer_keys.iter().map(|k| *k.verifying_key()).collect();
        let client = FabricClient::new(9, "ch", SigningKey::from_seed(b"sdk-client"));
        let peers: Vec<Peer> = (0..n)
            .map(|i| {
                let mut peer = Peer::new_on_channel(
                    PeerConfig {
                        id: i as u32,
                        signing_key: peer_keys[i].clone(),
                        endorser_keys: endorser_keys.clone(),
                        orderer_keys: vec![],
                        orderer_signatures_needed: 0,
                        policies: HashMap::from([(
                            "kv".to_string(),
                            EndorsementPolicy::AnyN(2),
                        )]),
                    },
                    "ch",
                );
                peer.install_chaincode(Box::new(KvChaincode::new()));
                peer.register_client(9, client.verifying_key());
                peer
            })
            .collect();
        (peers, client)
    }

    #[test]
    fn transact_collects_endorsements_and_signs() {
        let (peers, mut client) = peers_and_client(3);
        let refs: Vec<&Peer> = peers.iter().collect();
        let envelope = client
            .transact_str(&refs, 2, "kv", &["put", "k", "v"])
            .unwrap();
        assert_eq!(envelope.endorsements.len(), 2);
        assert!(envelope.verify_client(&client.verifying_key()));
        assert_eq!(envelope.proposal().channel, "ch");
        // Nonces advance per transaction.
        let envelope2 = client
            .transact_str(&refs, 2, "kv", &["put", "k", "v"])
            .unwrap();
        assert_ne!(envelope.tx_id(), envelope2.tx_id());
    }

    #[test]
    fn tolerates_individual_peer_failures() {
        let (mut peers, mut client) = peers_and_client(3);
        // Peer 0 does not know this client: its endorsement fails, but
        // peers 1 and 2 suffice.
        peers[0] = {
            let key = SigningKey::from_seed(b"sdk-peer-0");
            let mut p = Peer::new_on_channel(
                PeerConfig {
                    id: 0,
                    signing_key: key,
                    endorser_keys: vec![],
                    orderer_keys: vec![],
                    orderer_signatures_needed: 0,
                    policies: HashMap::new(),
                },
                "ch",
            );
            p.install_chaincode(Box::new(KvChaincode::new()));
            p
        };
        let refs: Vec<&Peer> = peers.iter().collect();
        let envelope = client
            .transact_str(&refs, 2, "kv", &["put", "k", "v"])
            .unwrap();
        assert_eq!(envelope.endorsements.len(), 2);
    }

    #[test]
    fn reports_insufficient_endorsements() {
        let (peers, mut client) = peers_and_client(1);
        let refs: Vec<&Peer> = peers.iter().collect();
        let err = client
            .transact_str(&refs, 2, "kv", &["put", "k", "v"])
            .unwrap_err();
        assert!(matches!(
            err,
            ClientError::NotEnoughEndorsements { needed: 2, got: 1, .. }
        ));
        // Unknown chaincode: zero endorsements plus a first_failure.
        let err = client
            .transact_str(&refs, 1, "ghost", &["x"])
            .unwrap_err();
        let ClientError::NotEnoughEndorsements { got, first_failure, .. } = err else {
            panic!("wrong error")
        };
        assert_eq!(got, 0);
        assert!(matches!(
            first_failure,
            Some(EndorseError::UnknownChaincode(_))
        ));
    }
}
