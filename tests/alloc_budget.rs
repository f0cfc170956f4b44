//! Allocation-count regression guard for the zero-copy message path.
//!
//! Orders a batch end-to-end through an in-process cluster and asserts
//! the whole pipeline stays under an allocations-per-envelope budget.
//! The pre-zero-copy pipeline spent ~42 allocations per ordered
//! envelope on this workload; the pooled/shared-buffer path spent ~16,
//! and ~8 since each replica looks its chain up by the envelope's
//! borrowed channel name instead of allocating two `String`s per
//! envelope (the benchmark's `wire.allocs_per_tx` row measures the same
//! count on its own workloads). The budget keeps the 14 allocations of
//! headroom it had over ~16 for allocator-placement noise, so a change
//! that reverts the pipeline to copy-per-hop fails this test while
//! honest drift does not.

use hlf_transport::{PeerId, TcpConfig, TcpNetwork};
use hlf_wire::Bytes;
use ordering_core::service::{OrderingService, ServiceOptions};
use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Mutex;
use std::time::Duration;

static ALLOCS: AtomicU64 = AtomicU64::new(0);

struct CountingAlloc;

// SAFETY: pure pass-through to `System`; the atomic counter allocates
// nothing, so `GlobalAlloc`'s no-reentrancy and layout contracts are
// exactly `System`'s own.
unsafe impl GlobalAlloc for CountingAlloc {
    // SAFETY: caller upholds `GlobalAlloc::alloc`'s contract; forwarded
    // unchanged to `System`.
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        ALLOCS.fetch_add(1, Ordering::Relaxed);
        System.alloc(layout)
    }

    // SAFETY: `ptr`/`layout` come from a prior `System` allocation via
    // this allocator, so forwarding to `System.dealloc` is sound.
    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        System.dealloc(ptr, layout)
    }

    // SAFETY: same pass-through contract as `alloc`.
    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        ALLOCS.fetch_add(1, Ordering::Relaxed);
        System.alloc_zeroed(layout)
    }

    // SAFETY: `ptr`/`layout` describe a live `System` block; `new_size`
    // is forwarded unchanged, so `System.realloc`'s contract holds.
    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        ALLOCS.fetch_add(1, Ordering::Relaxed);
        System.realloc(ptr, layout, new_size)
    }
}

#[global_allocator]
static GLOBAL: CountingAlloc = CountingAlloc;

const BUDGET_PER_ENVELOPE: f64 = 22.0;

/// Both tests read the same global counter, so they must not run
/// concurrently under the parallel test harness.
static SERIAL: Mutex<()> = Mutex::new(());

fn payload(i: usize) -> Vec<u8> {
    let mut body = vec![0u8; 200];
    body[..8].copy_from_slice(&(i as u64).to_le_bytes());
    body
}

#[test]
fn ordered_envelope_allocations_stay_under_budget() {
    let _serial = SERIAL.lock().unwrap_or_else(|p| p.into_inner());
    let mut service = OrderingService::start(
        4,
        ServiceOptions::new(1)
            .with_block_size(50)
            .with_signing_threads(1)
            .with_request_timeout_ms(60_000),
    );
    let mut frontend = service.frontend();
    let timeout = Duration::from_secs(30);

    // Warm-up batch primes the buffer pool, reply caches, and the
    // signing pool so the measurement sees the steady state.
    let warm: Vec<_> = (0..100).map(|i| payload(i).into()).collect();
    let blocks = OrderingService::order_all(&mut frontend, warm, timeout);
    assert!(!blocks.is_empty(), "warm-up ordered no blocks");

    const MEASURED: usize = 200;
    let batch: Vec<_> = (0..MEASURED).map(|i| payload(1000 + i).into()).collect();
    let before = ALLOCS.load(Ordering::SeqCst);
    let blocks = OrderingService::order_all(&mut frontend, batch, timeout);
    let after = ALLOCS.load(Ordering::SeqCst);
    let ordered: usize = blocks.iter().map(|b| b.envelopes.len()).sum();
    assert!(
        ordered >= MEASURED,
        "ordered only {ordered} of {MEASURED} envelopes"
    );
    service.shutdown();

    let per_envelope = (after - before) as f64 / ordered as f64;
    assert!(
        per_envelope < BUDGET_PER_ENVELOPE,
        "allocation regression: {per_envelope:.1} allocs per ordered envelope \
         (budget {BUDGET_PER_ENVELOPE})"
    );
}

/// The TCP path keeps its allocation budget too: a frame is encoded
/// once by the caller, sealed into a pooled buffer, queued by
/// reference, coalesced into a `writev`, and on the receive side opened
/// as a shared slice of a pooled body. At steady state (pool warmed)
/// that leaves only a handful of bookkeeping allocations per frame; a
/// change that reintroduces copy-per-hop on the socket path blows this
/// budget.
const TCP_BUDGET_PER_FRAME: f64 = 14.0;

#[test]
fn tcp_frame_allocations_stay_under_budget() {
    let _serial = SERIAL.lock().unwrap_or_else(|p| p.into_inner());
    let receiver = TcpNetwork::bind(TcpConfig::new(
        PeerId::replica(1),
        "127.0.0.1:0".parse().expect("addr"),
        b"alloc-budget",
    ))
    .expect("bind receiver");
    let sender = TcpNetwork::bind(
        TcpConfig::new(
            PeerId::replica(0),
            "127.0.0.1:0".parse().expect("addr"),
            b"alloc-budget",
        )
        .with_peer(PeerId::replica(1), receiver.local_addr()),
    )
    .expect("bind sender");
    let out = sender.endpoint();
    let inbox = receiver.endpoint();
    let timeout = Duration::from_secs(20);

    // Warm-up primes the connection, both buffer pools, and the
    // reader's scratch window.
    let body = Bytes::from(vec![0u8; 200]);
    for _ in 0..200 {
        out.send(PeerId::replica(1), body.clone()).expect("send");
    }
    for _ in 0..200 {
        inbox.recv_timeout(timeout).expect("warm-up delivery");
    }

    const MEASURED: u64 = 500;
    let before = ALLOCS.load(Ordering::SeqCst);
    for _ in 0..MEASURED {
        out.send(PeerId::replica(1), body.clone()).expect("send");
    }
    for _ in 0..MEASURED {
        inbox.recv_timeout(timeout).expect("measured delivery");
    }
    let after = ALLOCS.load(Ordering::SeqCst);

    // The writer thread bumps frames_out only after its whole batch is
    // on the wire, so the counter can trail the deliveries by up to one
    // batch — wait for it to settle.
    let deadline = std::time::Instant::now() + timeout;
    while sender.net_stats().frames_out < MEASURED && std::time::Instant::now() < deadline {
        std::thread::sleep(Duration::from_millis(10));
    }
    let stats = sender.net_stats();
    assert!(
        stats.frames_out >= MEASURED,
        "sender wrote only {} frames",
        stats.frames_out
    );
    let per_frame = (after - before) as f64 / MEASURED as f64;
    assert!(
        per_frame < TCP_BUDGET_PER_FRAME,
        "TCP allocation regression: {per_frame:.1} allocs per frame \
         (budget {TCP_BUDGET_PER_FRAME})"
    );

    sender.shutdown();
    receiver.shutdown();
}
