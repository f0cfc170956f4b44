//! The benchmark's own tracing: an in-memory span recorder and a counting
//! allocator, both inert unless the run was started with `--trace 1`.
//!
//! Spans are recorded from the benchmark's files only, around its calls
//! into the program; spans inside the program are a later change.

use std::alloc::{GlobalAlloc, Layout, System};
use std::collections::BTreeMap;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::time::Instant;

/// Raw spans kept per recorder and span name; beyond it a span still counts
/// in the per-name totals. Per-call spans cannot exhaust memory or crowd
/// out the few stage and probe spans.
const MAX_RAW_SPANS_PER_NAME: u64 = 10_000;

/// "No request" in [`Span::request`].
pub const NO_REQUEST: u64 = u64::MAX;

#[derive(Clone, Copy)]
pub struct Span {
    pub id: u64,
    /// Id of the span that was open when this one began (0 = none).
    pub parent: u64,
    pub name: &'static str,
    pub start_ns: u64,
    pub end_ns: u64,
    /// What the span worked on: an envelope sequence or a block number.
    pub request: u64,
}

/// Totals of every span of one name, kept even when the raw span is not.
#[derive(Clone, Copy, Default)]
pub struct SpanTotal {
    pub count: u64,
    pub total_ns: u64,
}

/// One thread's span recorder.
pub struct Recorder {
    enabled: bool,
    epoch: Instant,
    /// Distinguishes the ids of different threads' recorders.
    id_base: u64,
    next_id: u64,
    open: Vec<u64>,
    pub spans: Vec<Span>,
    pub totals: BTreeMap<&'static str, SpanTotal>,
}

/// An open span; hand it back to [`Recorder::end`].
pub struct Open {
    id: u64,
    parent: u64,
    name: &'static str,
    start_ns: u64,
    request: u64,
}

impl Recorder {
    pub fn new(enabled: bool, epoch: Instant, thread: u64) -> Recorder {
        Recorder {
            enabled,
            epoch,
            id_base: thread << 48,
            next_id: 1,
            open: Vec::new(),
            spans: Vec::new(),
            totals: BTreeMap::new(),
        }
    }

    pub fn enabled(&self) -> bool {
        self.enabled
    }

    /// Nanoseconds since the run's epoch, the clock of every span.
    pub fn now_ns(&self) -> u64 {
        self.epoch.elapsed().as_nanos() as u64
    }

    pub fn begin(&mut self, name: &'static str, request: u64) -> Option<Open> {
        if !self.enabled {
            return None;
        }
        let id = self.id_base | self.next_id;
        self.next_id += 1;
        let parent = self.open.last().copied().unwrap_or(0);
        self.open.push(id);
        Some(Open {
            id,
            parent,
            name,
            start_ns: self.epoch.elapsed().as_nanos() as u64,
            request,
        })
    }

    /// Closes a span under another name than it was opened with (a call
    /// whose outcome decides what it was).
    pub fn end_as(&mut self, open: Option<Open>, name: &'static str) {
        self.end(open.map(|open| Open { name, ..open }));
    }

    pub fn end(&mut self, open: Option<Open>) {
        let Some(open) = open else { return };
        let end_ns = self.epoch.elapsed().as_nanos() as u64;
        // Spans close in the reverse of the order they opened in.
        self.open.pop();
        let total = self.totals.entry(open.name).or_default();
        total.count += 1;
        total.total_ns += end_ns - open.start_ns;
        if total.count <= MAX_RAW_SPANS_PER_NAME {
            self.spans.push(Span {
                id: open.id,
                parent: open.parent,
                name: open.name,
                start_ns: open.start_ns,
                end_ns,
                request: open.request,
            });
        }
    }

    /// Mean duration in microseconds of the spans called `name`.
    pub fn mean_us(&self, name: &str) -> f64 {
        match self.totals.get(name) {
            Some(t) if t.count > 0 => t.total_ns as f64 / t.count as f64 / 1e3,
            _ => 0.0,
        }
    }

    /// Folds another thread's recorder into this one.
    pub fn absorb(&mut self, other: Recorder) {
        self.spans.extend(other.spans);
        for (name, t) in other.totals {
            let mine = self.totals.entry(name).or_default();
            mine.count += t.count;
            mine.total_ns += t.total_ns;
        }
    }
}

/// Process-wide allocator that counts calls and bytes while armed. Disarmed
/// it costs one relaxed load per allocation, on every commit alike.
pub struct CountingAlloc;

static ARMED: AtomicBool = AtomicBool::new(false);
static ALLOCS: AtomicU64 = AtomicU64::new(0);
static ALLOC_BYTES: AtomicU64 = AtomicU64::new(0);

// SAFETY: every call is forwarded unchanged to `System`, which upholds the
// `GlobalAlloc` contract; the counters are plain relaxed statistics.
unsafe impl GlobalAlloc for CountingAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        if ARMED.load(Ordering::Relaxed) {
            ALLOCS.fetch_add(1, Ordering::Relaxed);
            ALLOC_BYTES.fetch_add(layout.size() as u64, Ordering::Relaxed);
        }
        // SAFETY: `layout` is the caller's, passed through as received.
        unsafe { System.alloc(layout) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        // SAFETY: `ptr` came from `System.alloc`/`realloc` with this `layout`.
        unsafe { System.dealloc(ptr, layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        if ARMED.load(Ordering::Relaxed) {
            ALLOCS.fetch_add(1, Ordering::Relaxed);
            ALLOC_BYTES.fetch_add(
                new_size.saturating_sub(layout.size()) as u64,
                Ordering::Relaxed,
            );
        }
        // SAFETY: `ptr`, `layout` and `new_size` are the caller's, unchanged.
        unsafe { System.realloc(ptr, layout, new_size) }
    }
}

pub fn arm_allocator(armed: bool) {
    ARMED.store(armed, Ordering::Relaxed);
}

/// `(allocations, bytes)` counted so far while armed.
pub fn alloc_counts() -> (u64, u64) {
    (
        ALLOCS.load(Ordering::Relaxed),
        ALLOC_BYTES.load(Ordering::Relaxed),
    )
}
