//! Cross-backend wire compatibility.
//!
//! A TCP link must carry, for every frame, exactly
//! `[u32-le length][Authenticator::seal_with(session, framed)]` where
//! `framed` is the byte-identical output of the in-process `Framed`
//! codec — HMAC seal and the optional 17-byte trace trailer included.
//! This test plays the accepting side of the socket protocol with
//! nothing but the public `Authenticator` API, captures the raw wire
//! bytes a real `TcpNetwork` sender produces, and checks that
//!
//! 1. the opened payloads are byte-for-byte the `to_bytes(&Framed)`
//!    encodings the sender was handed (bare *and* traced forms), and
//! 2. those captured payloads decode through the ordinary
//!    `hlf_smr::wire` reader paths, trailer handling included, and
//! 3. an in-process hub endpoint hands the receiver the very same
//!    bytes, so the two backends are interchangeable above the
//!    `Endpoint` API.

use hlf_obs::TraceContext;
use hlf_smr::{Framed, SmrMsg};
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
    // The reference encodings: one bare frame and one with the
    // 17-byte trace trailer appended.
    let request = Request::new(ClientId(9), 1, Bytes::from(vec![0xAB; 64]));
    let bare = to_bytes(&Framed::bare(SmrMsg::Requests(vec![request.clone()])));
    let traced = to_bytes(&Framed::traced(
        SmrMsg::Requests(vec![request]),
        TraceContext::for_request(9, 1, 123),
    ));
    assert_eq!(
        traced.len(),
        bare.len() + 17,
        "trace trailer must be exactly 17 trailing bytes"
    );

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
    endpoint.send(me, Bytes::from(bare.clone())).expect("send bare");
    endpoint
        .send(me, Bytes::from(traced.clone()))
        .expect("send traced");

    let (session, mut stream) = accept_handshake(&listener, me, sender_id);
    let captured_bare = read_frame(&mut stream, &session);
    let captured_traced = read_frame(&mut stream, &session);

    // 1. Byte identity with the in-process codec output.
    assert_eq!(captured_bare.as_ref(), &bare[..], "bare frame bytes");
    assert_eq!(captured_traced.as_ref(), &traced[..], "traced frame bytes");

    // 2. The captured bytes decode through the existing reader paths.
    let decoded = from_bytes::<Framed>(&captured_bare).expect("decode bare");
    assert!(decoded.trace.is_none(), "bare frame has no trailer");
    let decoded = from_bytes::<Framed>(&captured_traced).expect("decode traced");
    let trace = decoded.trace.expect("traced frame keeps its trailer");
    assert_eq!(trace.origin_us, 123);
    match decoded.msg {
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
    hub_sender.send(me, Bytes::from(traced.clone())).expect("hub send");
    let (from, raw) = hub_receiver
        .recv_timeout(Duration::from_secs(5))
        .expect("hub delivery");
    assert_eq!(from, sender_id);
    assert_eq!(raw, captured_traced, "hub and TCP payloads must match");

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
