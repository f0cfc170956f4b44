//! Cross-backend wire compatibility.
//!
//! A TCP link must carry, for every frame, exactly
//! `[u32-le length][Authenticator::seal_with(session, frame)]` where
//! `frame` is the byte-identical `to_bytes(&SmrMsg)` output the sender
//! was handed. This test plays the accepting side of the socket
//! protocol with nothing but the public `Authenticator` API, captures
//! the raw wire bytes a real `TcpNetwork` sender produces, and checks
//! that
//!
//! 1. the opened payload is byte-for-byte the `SmrMsg` encoding the
//!    sender was handed, and
//! 2. the captured payload decodes through the ordinary `SmrMsg`
//!    reader, and
//! 3. an in-process hub endpoint hands the receiver the very same
//!    bytes, so the two backends are interchangeable above the
//!    `Endpoint` API.

use hlf_smr::SmrMsg;
use hlf_consensus::messages::Request;
use hlf_transport::{Authenticator, Network, PeerId};
use hlf_transport::{TcpConfig, TcpNetwork};
use hlf_wire::{from_bytes, to_bytes, Bytes, ClientId};
use std::io::{Read, Write};
use std::net::TcpListener;
use std::time::Duration;

const SECRET: &[u8] = b"codec-compat";

/// HELLO is 26 bytes of cleartext (magic, version, kind, id, nonce)
/// plus a 32-byte tag; ACK is a 16-byte nonce plus a 32-byte tag.
const HELLO_LEN: usize = 58;
const ACK_LEN: usize = 48;

/// Accepts one connection from `sender` and returns the session
/// authenticator plus the connected stream, having verified the
/// HELLO handshake exactly as a real peer would.
fn accept_handshake(
    listener: &TcpListener,
    me: PeerId,
    sender: PeerId,
) -> (Authenticator, std::net::TcpStream) {
    let (mut stream, _) = listener.accept().expect("inbound connection");
    let mut hello = [0u8; HELLO_LEN];
    stream.read_exact(&mut hello).expect("read HELLO");
    let (body, tag) = hello.split_at(HELLO_LEN - 32);
    assert_eq!(&body[..4], b"HLFT", "magic");
    assert_eq!(body[4], 1, "wire version");
    let link = Authenticator::for_link(SECRET, me, sender);
    assert_eq!(
        tag,
        link.tag_labeled(b"hlf-hello", &[body]),
        "HELLO must authenticate under the pairwise link key"
    );
    let nonce_i = &body[10..26];

    let nonce_a = [7u8; 16];
    let mut ack = [0u8; ACK_LEN];
    ack[..16].copy_from_slice(&nonce_a);
    ack[16..].copy_from_slice(&link.tag_labeled(b"hlf-ack", &[nonce_i, &nonce_a]));
    stream.write_all(&ack).expect("write ACK");

    (link.rekey(nonce_i, &nonce_a), stream)
}

/// Reads one `[len][sealed]` frame off the stream and opens it.
fn read_frame(stream: &mut std::net::TcpStream, session: &Authenticator) -> Bytes {
    let mut len_buf = [0u8; 4];
    stream.read_exact(&mut len_buf).expect("frame length");
    let len = u32::from_le_bytes(len_buf) as usize;
    let mut sealed = vec![0u8; len];
    stream.read_exact(&mut sealed).expect("frame body");
    session
        .open_shared(&Bytes::from(sealed))
        .expect("frame must open under the session key")
}

#[test]
fn tcp_frames_carry_byte_identical_framed_codec_output() {
    // The reference encoding: one client request window.
    let request = Request::new(ClientId(9), 1, Bytes::from(vec![0xAB; 64]));
    let frame = to_bytes(&SmrMsg::Requests(vec![request]));

    // A raw listener plays replica 0; a real TcpNetwork plays client 9.
    let listener = TcpListener::bind("127.0.0.1:0").expect("listener");
    let me = PeerId::replica(0);
    let sender_id = PeerId::client(9);
    let network = TcpNetwork::bind(
        TcpConfig::new(sender_id, "127.0.0.1:0".parse().expect("addr"), SECRET)
            .with_peer(me, listener.local_addr().expect("addr")),
    )
    .expect("bind sender");
    let endpoint = network.endpoint();
    endpoint.send(me, Bytes::from(frame.clone())).expect("send");

    let (session, mut stream) = accept_handshake(&listener, me, sender_id);
    let captured = read_frame(&mut stream, &session);

    // 1. Byte identity with the in-process codec output.
    assert_eq!(captured.as_ref(), &frame[..], "frame bytes");

    // 2. The captured bytes decode through the ordinary reader.
    match from_bytes::<SmrMsg>(&captured).expect("decode") {
        SmrMsg::Requests(requests) => {
            assert_eq!(requests.len(), 1);
            assert_eq!(requests[0].client, ClientId(9));
            assert_eq!(requests[0].payload.as_ref(), &[0xAB; 64][..]);
        }
        other => panic!("unexpected message {other:?}"),
    }

    // 3. The in-process hub hands the receiver the same bytes.
    let hub = Network::new();
    let hub_sender = hub.join(sender_id);
    let hub_receiver = hub.join(me);
    hub_sender.send(me, Bytes::from(frame)).expect("hub send");
    let (from, raw) = hub_receiver
        .recv_timeout(Duration::from_secs(5))
        .expect("hub delivery");
    assert_eq!(from, sender_id);
    assert_eq!(raw, captured, "hub and TCP payloads must match");

    network.shutdown();
}

#[test]
fn wrong_session_key_rejects_frames() {
    let listener = TcpListener::bind("127.0.0.1:0").expect("listener");
    let me = PeerId::replica(0);
    let sender_id = PeerId::client(9);
    let network = TcpNetwork::bind(
        TcpConfig::new(sender_id, "127.0.0.1:0".parse().expect("addr"), SECRET)
            .with_peer(me, listener.local_addr().expect("addr")),
    )
    .expect("bind sender");
    network
        .endpoint()
        .send(me, Bytes::from_static(b"payload"))
        .expect("send");

    let (_session, mut stream) = accept_handshake(&listener, me, sender_id);
    let mut len_buf = [0u8; 4];
    stream.read_exact(&mut len_buf).expect("frame length");
    let len = u32::from_le_bytes(len_buf) as usize;
    let mut sealed = vec![0u8; len];
    stream.read_exact(&mut sealed).expect("frame body");

    let imposter = Authenticator::for_link(b"other-secret", me, sender_id)
        .rekey(&[1u8; 16], &[2u8; 16]);
    assert!(
        imposter.open_shared(&Bytes::from(sealed)).is_none(),
        "a different cluster secret must not open the frame"
    );
    network.shutdown();
}
