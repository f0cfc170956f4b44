//! Cheap-clone, slice-able shared byte buffers and a recycling buffer
//! pool — the zero-copy substrate for the whole message path.
//!
//! [`Bytes`] is an immutable view into either a `'static` slice or an
//! `Arc`-shared heap buffer. Cloning and slicing are O(1): they bump a
//! reference count and adjust an `(offset, len)` window, never copying
//! payload bytes. This lets one receive buffer back every payload view
//! taken from it (an envelope inside a block inside a transport frame)
//! without re-allocation at each protocol layer.
//!
//! [`BufferPool`] is a free-list of `Vec<u8>` buffers. A pool-tagged
//! [`Bytes`] returns its backing vector to the pool when the last clone
//! drops, so steady-state send paths reuse a small working set of
//! buffers instead of hitting the global allocator per message.
//!
//! # Ownership rules
//!
//! * `Bytes` is a *view*: the backing allocation lives until the last
//!   view over it drops. Holding a tiny slice of a huge buffer pins the
//!   whole buffer — copy out (`copy_from_slice`) when retaining a small
//!   fragment of a large transient frame for a long time.
//! * Pool recycling is automatic and safe: the buffer re-enters the
//!   free list only after every view has dropped, and is cleared before
//!   reuse. Dropping the pool first simply releases buffers to the
//!   allocator.
//!
//! # Examples
//!
//! ```
//! use hlf_wire::Bytes;
//!
//! let frame = Bytes::from(vec![0u8; 64]);
//! let payload = frame.slice(32..48); // O(1), shares the allocation
//! let copy = payload.clone();        // O(1)
//! assert_eq!(payload.len(), 16);
//! assert_eq!(payload, copy);
//! ```

use std::ops::{Bound, Deref, RangeBounds};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex};

/// An immutable, cheaply cloneable and sliceable view of contiguous
/// bytes.
///
/// See the module docs for the ownership rules.
#[derive(Clone)]
pub struct Bytes {
    repr: Repr,
    off: usize,
    len: usize,
}

#[derive(Clone)]
enum Repr {
    /// Borrowed from static storage; clone/slice are pointer copies.
    Static(&'static [u8]),
    /// Shared heap buffer, possibly owned by a [`BufferPool`].
    Shared(Arc<Shared>),
}

struct Shared {
    buf: Vec<u8>,
    /// Pool to return `buf` to when the last view drops.
    pool: Option<Arc<PoolInner>>,
}

impl Drop for Shared {
    fn drop(&mut self) {
        if let Some(pool) = self.pool.take() {
            pool.recycle(std::mem::take(&mut self.buf));
        }
    }
}

impl Bytes {
    /// Creates an empty `Bytes`.
    pub const fn new() -> Bytes {
        Bytes { repr: Repr::Static(&[]), off: 0, len: 0 }
    }

    /// Wraps a static slice without copying.
    pub const fn from_static(bytes: &'static [u8]) -> Bytes {
        Bytes { repr: Repr::Static(bytes), off: 0, len: bytes.len() }
    }

    /// Copies `bytes` into a fresh shared buffer.
    pub fn copy_from_slice(bytes: &[u8]) -> Bytes {
        Bytes::from(bytes.to_vec())
    }

    /// Number of bytes in the view.
    pub fn len(&self) -> usize {
        self.len
    }

    /// Whether the view is empty.
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// The viewed bytes as a slice.
    #[expect(clippy::indexing_slicing, reason = "`off + len` was bounds-checked against the backing buffer at construction")]
    pub fn as_slice(&self) -> &[u8] {
        match &self.repr {
            Repr::Static(s) => &s[self.off..self.off + self.len],
            Repr::Shared(s) => &s.buf[self.off..self.off + self.len],
        }
    }

    /// Returns a sub-view of `self` without copying.
    ///
    /// # Panics
    ///
    /// Panics if the range is out of bounds of this view.
    pub fn slice(&self, range: impl RangeBounds<usize>) -> Bytes {
        let begin = match range.start_bound() {
            Bound::Included(&n) => n,
            Bound::Excluded(&n) => n + 1,
            Bound::Unbounded => 0,
        };
        let end = match range.end_bound() {
            Bound::Included(&n) => n + 1,
            Bound::Excluded(&n) => n,
            Bound::Unbounded => self.len,
        };
        assert!(
            begin <= end && end <= self.len,
            "slice {begin}..{end} out of bounds of {} bytes",
            self.len
        );
        Bytes {
            repr: self.repr.clone(),
            off: self.off + begin,
            len: end - begin,
        }
    }

    /// Copies the view into a fresh `Vec<u8>`.
    pub fn to_vec(&self) -> Vec<u8> {
        self.as_slice().to_vec()
    }

    /// True if `self` and `other` are views of the same backing buffer
    /// at the same offset (i.e. sharing, not merely equal content).
    pub fn shares_storage_with(&self, other: &Bytes) -> bool {
        self.off == other.off
            && match (&self.repr, &other.repr) {
                (Repr::Static(a), Repr::Static(b)) => std::ptr::eq(*a, *b),
                (Repr::Shared(a), Repr::Shared(b)) => Arc::ptr_eq(a, b),
                _ => false,
            }
    }
}

impl Default for Bytes {
    fn default() -> Bytes {
        Bytes::new()
    }
}

impl Deref for Bytes {
    type Target = [u8];
    fn deref(&self) -> &[u8] {
        self.as_slice()
    }
}

impl AsRef<[u8]> for Bytes {
    fn as_ref(&self) -> &[u8] {
        self.as_slice()
    }
}

impl std::borrow::Borrow<[u8]> for Bytes {
    fn borrow(&self) -> &[u8] {
        self.as_slice()
    }
}

impl std::hash::Hash for Bytes {
    fn hash<H: std::hash::Hasher>(&self, state: &mut H) {
        self.as_slice().hash(state)
    }
}

impl PartialEq for Bytes {
    fn eq(&self, other: &Bytes) -> bool {
        self.as_slice() == other.as_slice()
    }
}
impl Eq for Bytes {}

impl PartialOrd for Bytes {
    fn partial_cmp(&self, other: &Bytes) -> Option<std::cmp::Ordering> {
        Some(self.cmp(other))
    }
}
impl Ord for Bytes {
    fn cmp(&self, other: &Bytes) -> std::cmp::Ordering {
        self.as_slice().cmp(other.as_slice())
    }
}

impl PartialEq<[u8]> for Bytes {
    fn eq(&self, other: &[u8]) -> bool {
        self.as_slice() == other
    }
}
impl PartialEq<&[u8]> for Bytes {
    fn eq(&self, other: &&[u8]) -> bool {
        self.as_slice() == *other
    }
}
impl<const N: usize> PartialEq<[u8; N]> for Bytes {
    fn eq(&self, other: &[u8; N]) -> bool {
        self.as_slice() == &other[..]
    }
}
impl PartialEq<Vec<u8>> for Bytes {
    fn eq(&self, other: &Vec<u8>) -> bool {
        self.as_slice() == other.as_slice()
    }
}

impl std::fmt::Debug for Bytes {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "b\"")?;
        for &b in self.as_slice() {
            for c in std::ascii::escape_default(b) {
                write!(f, "{}", c as char)?;
            }
        }
        write!(f, "\"")
    }
}

impl From<Vec<u8>> for Bytes {
    fn from(buf: Vec<u8>) -> Bytes {
        let len = buf.len();
        Bytes {
            repr: Repr::Shared(Arc::new(Shared { buf, pool: None })),
            off: 0,
            len,
        }
    }
}
impl From<Box<[u8]>> for Bytes {
    fn from(v: Box<[u8]>) -> Bytes {
        Bytes::from(v.into_vec())
    }
}
impl From<String> for Bytes {
    fn from(v: String) -> Bytes {
        Bytes::from(v.into_bytes())
    }
}
impl From<&'static [u8]> for Bytes {
    fn from(v: &'static [u8]) -> Bytes {
        Bytes::from_static(v)
    }
}
impl From<&'static str> for Bytes {
    fn from(v: &'static str) -> Bytes {
        Bytes::from_static(v.as_bytes())
    }
}

impl FromIterator<u8> for Bytes {
    fn from_iter<I: IntoIterator<Item = u8>>(iter: I) -> Bytes {
        Bytes::from(iter.into_iter().collect::<Vec<u8>>())
    }
}

impl IntoIterator for Bytes {
    type Item = u8;
    type IntoIter = std::vec::IntoIter<u8>;
    fn into_iter(self) -> Self::IntoIter {
        self.to_vec().into_iter()
    }
}
impl<'a> IntoIterator for &'a Bytes {
    type Item = &'a u8;
    type IntoIter = std::slice::Iter<'a, u8>;
    fn into_iter(self) -> Self::IntoIter {
        self.as_slice().iter()
    }
}

/// Counters describing pool effectiveness; all values are cumulative.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct PoolStats {
    /// `take` calls satisfied from the free list.
    pub hits: u64,
    /// `take` calls that had to allocate a fresh buffer.
    pub misses: u64,
    /// Buffers returned to the free list by dropped views.
    pub recycled: u64,
    /// Buffers released to the allocator because the free list was full.
    pub shed: u64,
}

struct PoolInner {
    free: Mutex<Vec<Vec<u8>>>,
    /// Free-list capacity; buffers past this are dropped (shed).
    max_idle: usize,
    /// Buffers larger than this are never retained, so one jumbo frame
    /// cannot permanently inflate the pool's resident size.
    max_buffer_capacity: usize,
    hits: AtomicU64,
    misses: AtomicU64,
    recycled: AtomicU64,
    shed: AtomicU64,
}

impl PoolInner {
    fn recycle(&self, mut buf: Vec<u8>) {
        if buf.capacity() > self.max_buffer_capacity {
            self.shed.fetch_add(1, Ordering::Relaxed);
            return;
        }
        buf.clear();
        #[expect(clippy::expect_used, reason = "the pool mutex is held only for push/pop, never across a panic site")]
        let mut free = self.free.lock().expect("pool lock");
        if free.len() < self.max_idle {
            free.push(buf);
            self.recycled.fetch_add(1, Ordering::Relaxed);
        } else {
            self.shed.fetch_add(1, Ordering::Relaxed);
        }
    }
}

/// A free-list of reusable `Vec<u8>` buffers.
///
/// Cloning a pool is cheap and shares the free list. See the
/// module docs for sizing guidance.
#[derive(Clone)]
pub struct BufferPool {
    inner: Arc<PoolInner>,
}

impl std::fmt::Debug for BufferPool {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        let stats = self.stats();
        f.debug_struct("BufferPool")
            .field("idle", &self.idle())
            .field("stats", &stats)
            .finish()
    }
}

impl Default for BufferPool {
    fn default() -> BufferPool {
        // Enough idle buffers to cover a broadcast fan-out per node
        // (n ≤ 16 links in the paper's clusters) with headroom, capped
        // at 1 MiB per retained buffer.
        BufferPool::new(64, 1 << 20)
    }
}

impl BufferPool {
    /// Creates a pool retaining at most `max_idle` free buffers, none
    /// larger than `max_buffer_capacity` bytes.
    pub fn new(max_idle: usize, max_buffer_capacity: usize) -> BufferPool {
        BufferPool {
            inner: Arc::new(PoolInner {
                free: Mutex::new(Vec::new()),
                max_idle,
                max_buffer_capacity,
                hits: AtomicU64::new(0),
                misses: AtomicU64::new(0),
                recycled: AtomicU64::new(0),
                shed: AtomicU64::new(0),
            }),
        }
    }

    /// Takes a cleared buffer with at least `capacity` bytes reserved,
    /// reusing a recycled one when available.
    pub fn take(&self, capacity: usize) -> Vec<u8> {
        #[expect(clippy::expect_used, reason = "the pool mutex is held only for push/pop, never across a panic site")]
        let reused = self.inner.free.lock().expect("pool lock").pop();
        match reused {
            Some(mut buf) => {
                self.inner.hits.fetch_add(1, Ordering::Relaxed);
                buf.reserve(capacity);
                buf
            }
            None => {
                self.inner.misses.fetch_add(1, Ordering::Relaxed);
                Vec::with_capacity(capacity)
            }
        }
    }

    /// Wraps a buffer in a [`Bytes`] that returns the buffer to this
    /// pool when the last view of it drops.
    pub fn wrap(&self, buf: Vec<u8>) -> Bytes {
        let len = buf.len();
        Bytes {
            repr: Repr::Shared(Arc::new(Shared {
                buf,
                pool: Some(Arc::clone(&self.inner)),
            })),
            off: 0,
            len,
        }
    }

    /// Number of buffers currently idle in the free list.
    pub fn idle(&self) -> usize {
        #[expect(clippy::expect_used, reason = "the pool mutex is held only for push/pop, never across a panic site")]
        self.inner.free.lock().expect("pool lock").len()
    }

    /// Cumulative pool counters.
    pub fn stats(&self) -> PoolStats {
        PoolStats {
            hits: self.inner.hits.load(Ordering::Relaxed),
            misses: self.inner.misses.load(Ordering::Relaxed),
            recycled: self.inner.recycled.load(Ordering::Relaxed),
            shed: self.inner.shed.load(Ordering::Relaxed),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn static_bytes_share_without_copying() {
        let a = Bytes::from_static(b"hello world");
        let b = a.slice(6..);
        assert_eq!(b, *b"world");
        assert_eq!(a.slice(..5), *b"hello");
        let c = a.clone();
        assert!(c.shares_storage_with(&a));
    }

    #[test]
    fn slices_share_the_backing_allocation() {
        let frame = Bytes::from(vec![7u8; 100]);
        let view = frame.slice(10..20);
        assert_eq!(view.len(), 10);
        let nested = view.slice(2..4);
        assert_eq!(nested.len(), 2);
        assert_eq!(nested, [7u8, 7]);
        // A view of a view at offset zero of the same range shares.
        assert!(frame.slice(10..20).shares_storage_with(&view));
    }

    #[test]
    #[should_panic(expected = "out of bounds")]
    fn slice_out_of_bounds_panics() {
        let b = Bytes::from_static(b"abc");
        let _ = b.slice(1..5);
    }

    #[test]
    fn equality_is_content_based() {
        let a = Bytes::from(b"same".to_vec());
        let b = Bytes::from_static(b"same");
        assert_eq!(a, b);
        #[allow(clippy::mutable_key_type, reason = "the point of the test: keyed by content")]
        let mut set = std::collections::HashSet::new();
        set.insert(a);
        assert!(set.contains(&b));
    }

    #[test]
    fn pool_recycles_after_last_view_drops() {
        let pool = BufferPool::new(4, 1 << 20);
        let buf = pool.take(128);
        assert!(buf.capacity() >= 128);
        let bytes = pool.wrap(buf);
        let view = bytes.slice(..);
        drop(bytes);
        assert_eq!(pool.idle(), 0, "live view must pin the buffer");
        drop(view);
        assert_eq!(pool.idle(), 1);
        assert_eq!(pool.stats().recycled, 1);

        // The next take reuses the recycled buffer.
        let again = pool.take(16);
        assert_eq!(pool.stats().hits, 1);
        assert!(again.is_empty(), "recycled buffers are cleared");
    }

    #[test]
    fn pool_sheds_when_full_or_oversized() {
        let pool = BufferPool::new(1, 64);
        let a = pool.wrap(pool.take(16));
        let b = pool.wrap(pool.take(16));
        drop(a);
        drop(b);
        assert_eq!(pool.idle(), 1);
        assert_eq!(pool.stats().shed, 1);

        // A jumbo buffer is never retained.
        drop(pool.wrap(Vec::with_capacity(1024)));
        assert_eq!(pool.idle(), 1);
        assert_eq!(pool.stats().shed, 2);
    }

    #[test]
    fn pool_survives_outliving_views() {
        let pool = BufferPool::new(4, 1 << 20);
        let bytes = pool.wrap(pool.take(8));
        drop(pool);
        drop(bytes); // recycles into the still-alive shared inner; no panic
    }
}
