//! Per-layer probes of a traced run: single-thread timings of public
//! functions of each layer, on the workload's own envelope, block and
//! frame shapes. They run after the stages, on an idle machine.

use crate::gen::Payloads;
use crate::spec::{Spec, F, N};
use crate::stats::median;
use crate::trace::{Recorder, NO_REQUEST};
use hlf_consensus::messages::Request;
use hlf_consensus::testing::Cluster as ConsensusCluster;
use hlf_crypto::ecdsa::SigningKey;
use hlf_crypto::hmac::hmac_sha256;
use hlf_crypto::sha256::{sha256, Hash256};
use hlf_fabric::block::Block;
use hlf_transport::{Authenticator, Network, PeerId, TcpConfig, TcpNetwork};
use hlf_wire::{from_bytes_shared, to_pooled_bytes, BufferPool, Bytes, ClientId};
use ordering_core::BlockCutter;
use std::hint::black_box;
use std::time::{Duration, Instant};

/// Calls per probe: at least this many, timed in `BATCHES` batches whose
/// median is reported. Probes of block-sized inputs above 16 KiB and of a
/// whole consensus instance make a tenth of the calls, to stay within a
/// second each.
const CALLS: usize = 2_000;
const BATCHES: usize = 20;
/// Bytes of the smallest frames on the wire: a signed WRITE or ACCEPT vote.
pub const VOTE_FRAME_BYTES: usize = 150;
/// The node's own byte cap per block (`OrderingNodeConfig` default).
const MAX_BLOCK_BYTES: usize = 8 * 1024 * 1024;

/// Nanoseconds per call: median over the batches.
fn time_calls(calls: usize, mut call: impl FnMut()) -> f64 {
    let per_batch = calls.div_ceil(BATCHES);
    let batches: Vec<f64> = (0..BATCHES)
        .map(|_| {
            let start = Instant::now();
            for _ in 0..per_batch {
                call();
            }
            start.elapsed().as_nanos() as f64 / per_batch as f64
        })
        .collect();
    median(&batches)
}

/// What the probes measured, in the unit each name carries.
pub struct Probes {
    pub sign_us: f64,
    pub verify_us: f64,
    pub sha256_ns_per_byte: f64,
    /// HMAC-SHA256 of one vote-sized frame.
    pub hmac_us_per_frame: f64,
    pub block_encode_us: f64,
    pub block_decode_us: f64,
    pub block_build_us: f64,
    pub block_check_us: f64,
    /// Seal and open of one block-sized frame.
    pub seal_us: f64,
    pub open_us: f64,
    pub hub_hop_us: f64,
    pub tcp_hop_us: f64,
    /// One consensus instance on all four replicas, batch of `batch` requests.
    pub instance_us: f64,
    pub cutter_push_ns: f64,
    /// Encoded bytes of the workload's full block.
    pub block_bytes: usize,
}

/// A full block of the workload, signed by a quorum as a frontend sees it.
fn sample_block(spec: &Spec, payloads: &Payloads) -> Block {
    let envelopes: Vec<Bytes> = (0..spec.block_size as u64)
        .map(|i| payloads.envelope(i))
        .collect();
    let mut block = Block::build(1, Hash256::ZERO, envelopes);
    for node in 0..(2 * F + 1) as u32 {
        block.sign(
            node,
            &SigningKey::from_seed(format!("probe-{node}").as_bytes()),
        );
    }
    block
}

/// Times `call` under a span named `name`.
fn timed(recorder: &mut Recorder, name: &'static str, calls: usize, call: &mut dyn FnMut()) -> f64 {
    let span = recorder.begin(name, NO_REQUEST);
    let ns = time_calls(calls, call);
    recorder.end(span);
    ns
}

pub fn run(spec: &Spec, payloads: &Payloads, batch: usize, recorder: &mut Recorder) -> Probes {
    let mut timed = |name, calls, call: &mut dyn FnMut()| timed(recorder, name, calls, call);
    let block = sample_block(spec, payloads);
    let pool = BufferPool::default();
    let encoded = to_pooled_bytes(&block, &pool);
    let block_bytes = encoded.len();
    let heavy = if block_bytes > 16 << 10 {
        CALLS / 10
    } else {
        CALLS
    };

    let key = SigningKey::from_seed(b"probe");
    let digest = sha256(b"probe");
    let signature = key.sign_digest(&digest);
    let sign_ns = timed("probe.crypto.sign", CALLS, &mut || {
        black_box(key.sign_digest(black_box(&digest)));
    });
    let verify_ns = timed("probe.crypto.verify", CALLS, &mut || {
        black_box(
            key.verifying_key()
                .verify_digest(black_box(&digest), &signature),
        )
        .ok();
    });
    let sha_ns = timed("probe.crypto.sha256", heavy, &mut || {
        black_box(sha256(black_box(&encoded)));
    });
    let vote_frame = vec![0x5a_u8; VOTE_FRAME_BYTES];
    let hmac_ns = timed("probe.crypto.hmac", CALLS, &mut || {
        black_box(hmac_sha256(
            b"probe-link-key-probe-link-key-32",
            black_box(&vote_frame),
        ));
    });

    let encode_ns = timed("probe.wire.block_encode", heavy, &mut || {
        black_box(to_pooled_bytes(black_box(&block), &pool));
    });
    let decode_ns = timed("probe.wire.block_decode", heavy, &mut || {
        black_box(from_bytes_shared::<Block>(black_box(&encoded))).ok();
    });
    let build_ns = timed("probe.fabric.block_build", heavy, &mut || {
        black_box(Block::build(
            1,
            Hash256::ZERO,
            black_box(block.envelopes.clone()),
        ));
    });
    let check_ns = timed("probe.fabric.block_check", heavy, &mut || {
        black_box(black_box(&block).data_consistent());
    });

    let link = Authenticator::for_link(b"probe", PeerId::replica(0), PeerId::client(1));
    let sealed = link.seal_with(&encoded, &pool);
    let seal_ns = timed("probe.transport.seal", heavy, &mut || {
        black_box(link.seal_with(black_box(&encoded), &pool));
    });
    let open_ns = timed("probe.transport.open", heavy, &mut || {
        black_box(link.open_shared(black_box(&sealed)));
    });

    // One frame of one envelope, sent and received on the same thread.
    let frame = payloads.envelope(0);
    let hub = Network::new();
    let (a, b) = (hub.join(PeerId::client(1)), hub.join(PeerId::client(2)));
    let hub_ns = timed("probe.transport.hub_hop", CALLS, &mut || {
        a.send(b.id(), frame.clone()).expect("hub send");
        black_box(b.recv().expect("hub recv"));
    });
    let tcp_ns = tcp_hop_ns(&frame, &mut timed);

    // One batch of the workload's mean size through a four-replica classic
    // cluster with instant delivery: every replica's proposing, voting,
    // vote signing and verifying, and deciding, on one thread. The leader
    // may split what it is handed one request at a time over more than one
    // instance, so the time is charged to the instances decided (a mean).
    let mut cluster = ConsensusCluster::classic(N, F);
    let mut seq = 0u64;
    let instance_calls = CALLS / 10;
    let per_call_ns = timed("probe.consensus.instance", instance_calls, &mut || {
        for _ in 0..batch.max(1) {
            seq += 1;
            cluster.submit_to_all(Request::new(ClientId(1), seq, payloads.envelope(seq)));
        }
        cluster.run_to_quiescence();
    });
    let instance_ns =
        per_call_ns * instance_calls as f64 / cluster.decisions(0).len().max(1) as f64;

    let mut cutter = BlockCutter::new(spec.block_size, MAX_BLOCK_BYTES);
    let cutter_ns = timed("probe.core.cutter_push", CALLS, &mut || {
        black_box(cutter.push(black_box(frame.clone())));
    });

    Probes {
        sign_us: sign_ns / 1e3,
        verify_us: verify_ns / 1e3,
        sha256_ns_per_byte: sha_ns / block_bytes as f64,
        hmac_us_per_frame: hmac_ns / 1e3,
        block_encode_us: encode_ns / 1e3,
        block_decode_us: decode_ns / 1e3,
        block_build_us: build_ns / 1e3,
        block_check_us: check_ns / 1e3,
        seal_us: seal_ns / 1e3,
        open_us: open_ns / 1e3,
        hub_hop_us: hub_ns / 1e3,
        tcp_hop_us: tcp_ns / 1e3,
        instance_us: instance_ns / 1e3,
        cutter_push_ns: cutter_ns,
        block_bytes,
    }
}

/// One frame across a loopback socket pair: enqueue, writer thread, kernel,
/// reader thread, mailbox.
fn tcp_hop_ns(
    frame: &Bytes,
    timed: &mut impl FnMut(&'static str, usize, &mut dyn FnMut()) -> f64,
) -> f64 {
    let bind = |id| {
        let listen = "127.0.0.1:0".parse().expect("loopback address");
        TcpNetwork::bind(TcpConfig::new(id, listen, b"probe".to_vec())).expect("bind loopback")
    };
    let (a, b) = (bind(PeerId::client(1)), bind(PeerId::client(2)));
    a.add_peer(b.id(), b.local_addr());
    b.add_peer(a.id(), a.local_addr());
    let (from, to) = (a.endpoint(), b.endpoint());
    // The first frame dials and handshakes; keep that out of the timing.
    from.send(to.id(), frame.clone()).expect("tcp send");
    to.recv_timeout(Duration::from_secs(10))
        .expect("loopback link comes up");
    let ns = timed("probe.transport.tcp_hop", CALLS, &mut || {
        from.send(to.id(), frame.clone()).expect("tcp send");
        black_box(to.recv_timeout(Duration::from_secs(10)).expect("tcp recv"));
    });
    drop((from, to));
    a.shutdown();
    b.shutdown();
    ns
}
