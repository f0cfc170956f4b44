//! Client sessions: each client's request pool and its exactly-once
//! record, in one place.
//!
//! A [`Session`] holds everything a replica keeps about one client:
//!
//! * its [`Window`]: `executed_below` (every seq below it has executed)
//!   and a bitmap of the executed seqs among the next [`WINDOW`]. This
//!   is the *executed half*. It is replicated state: every replica
//!   derives it from the decided log alone, and checkpoints carry it as
//!   an [`Executed`] table;
//! * a ring of the requests queued or proposed for the client,
//!   ascending by seq, each with its in-flight count (the live slots
//!   whose proposal carries it).
//!
//! The pool costs O(1) per request and hashes nothing per request. The
//! table is looked up once per run of one client's requests, and a
//! request sits at `seq - front seq` of its client's ring while the ring
//! has no gaps. Batches take the oldest requests, no client more than
//! half a batch while others wait and leave room, and list them in the
//! order they were queued.

use crate::messages::{Batch, Request};
use hlf_wire::{decode_seq, seq_encoded_len, ClientId, Decode, Encode, Reader, WireError};
use std::collections::{BTreeMap, HashMap, VecDeque};

/// Seqs a session tracks above `executed_below`. A request further
/// ahead may wait in its session, but no batch may carry it.
pub(crate) const WINDOW: u64 = 8192;
const WORDS: usize = (WINDOW / 64) as usize;
/// How far above `executed_below` a request may wait: a client that
/// leaves a gap below its window can park no more than this.
const HORIZON: u64 = 4 * WINDOW;

/// The window of a client that has executed nothing. Seqs start at 1.
static FRESH: Window = Window {
    executed_below: 1,
    above: Vec::new(),
};

/// The executed half of one client's session.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct Window {
    /// Every seq below this has executed.
    executed_below: u64,
    /// Bit `i` (word `i / 64`, bit `i % 64`) is set when seq
    /// `executed_below + i` has executed. Bit 0 is always clear and the
    /// last word is never zero, so equal windows have equal words.
    above: Vec<u64>,
}

impl Default for Window {
    fn default() -> Window {
        FRESH.clone()
    }
}

impl Window {
    fn bit(&self, offset: u64) -> bool {
        usize::try_from(offset / 64)
            .ok()
            .and_then(|word| self.above.get(word))
            .is_some_and(|word| word >> (offset % 64) & 1 == 1)
    }

    /// Whether `seq` has executed.
    pub(crate) fn is_executed(&self, seq: u64) -> bool {
        seq < self.executed_below || self.bit(seq - self.executed_below)
    }

    /// Whether `seq` may still execute: not executed, and inside the
    /// window.
    pub(crate) fn is_fresh(&self, seq: u64) -> bool {
        seq >= self.executed_below
            && seq - self.executed_below < WINDOW
            && !self.bit(seq - self.executed_below)
    }

    /// Records `seq` as executed. Returns `false`, and changes nothing,
    /// when it is not fresh.
    pub fn execute(&mut self, seq: u64) -> bool {
        if !self.is_fresh(seq) {
            return false;
        }
        let offset = seq - self.executed_below;
        if offset > 0 {
            let word = (offset / 64) as usize;
            if self.above.len() <= word {
                self.above.resize(word + 1, 0);
            }
            if let Some(bits) = self.above.get_mut(word) {
                *bits |= 1 << (offset % 64);
            }
            return true;
        }
        // The lowest open seq executed: slide past it and every executed
        // seq right after it.
        let mut run = 1;
        while self.bit(run) {
            run += 1;
        }
        self.executed_below += run;
        shift_down(&mut self.above, run);
        true
    }
}

/// Shifts a little-endian bitmap down by `n` bits and trims its zero
/// top words.
fn shift_down(words: &mut Vec<u64>, n: u64) {
    let skip = usize::try_from(n / 64).unwrap_or(usize::MAX);
    if skip >= words.len() {
        words.clear();
        return;
    }
    words.drain(..skip);
    let bits = n % 64;
    if bits > 0 {
        let mut carry = 0;
        for word in words.iter_mut().rev() {
            let low = *word << (64 - bits);
            *word = (*word >> bits) | carry;
            carry = low;
        }
    }
    while words.last() == Some(&0) {
        words.pop();
    }
}

impl Encode for Window {
    fn encode(&self, out: &mut Vec<u8>) {
        self.executed_below.encode(out);
        hlf_wire::encode_seq(&self.above, out);
    }

    fn encoded_len(&self) -> usize {
        8 + seq_encoded_len(&self.above)
    }
}

impl Decode for Window {
    fn decode(r: &mut Reader<'_>) -> Result<Self, WireError> {
        let executed_below = u64::decode(r)?;
        let above = decode_seq::<u64>(r)?;
        let canonical = (1..=u64::MAX - WINDOW).contains(&executed_below)
            && above.len() <= WORDS
            && above.first().is_none_or(|word| word & 1 == 0)
            && above.last().is_none_or(|word| *word != 0);
        if !canonical {
            return Err(WireError::InvalidValue("session window"));
        }
        Ok(Window {
            executed_below,
            above,
        })
    }
}

/// The executed half of every session, in client order: what a
/// checkpoint carries beside the application snapshot, and what state
/// transfer and recovery rebuild by replaying the log into it.
///
/// Encoded as a sequence of `(client, window)` pairs in strictly
/// ascending client order; clients that have executed nothing are not
/// listed, so every correct replica encodes the same bytes at the same
/// decision.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct Executed {
    windows: BTreeMap<ClientId, Window>,
}

impl Executed {
    /// Executes a decided batch in order. Returns the positions of the
    /// requests it skips: already executed (earlier, or earlier in this
    /// batch) or outside their client's window. Every replica skips the
    /// same ones.
    pub fn execute(&mut self, batch: &Batch) -> Vec<usize> {
        let mut skipped = Vec::new();
        let mut first = 0;
        for run in batch.requests.chunk_by(|a, b| a.client == b.client) {
            if let Some(client) = run.first().map(|request| request.client) {
                let window = self.windows.entry(client).or_default();
                for (offset, request) in run.iter().enumerate() {
                    if !window.execute(request.seq) {
                        skipped.push(first + offset);
                    }
                }
            }
            first += run.len();
        }
        skipped
    }

    /// `client`'s window, if it has executed anything.
    pub fn window(&self, client: ClientId) -> Option<&Window> {
        self.windows.get(&client)
    }
}

impl Encode for Executed {
    fn encode(&self, out: &mut Vec<u8>) {
        (self.windows.len() as u32).encode(out);
        for (client, window) in &self.windows {
            client.encode(out);
            window.encode(out);
        }
    }

    fn encoded_len(&self) -> usize {
        4 + self
            .windows
            .values()
            .map(|window| 4 + window.encoded_len())
            .sum::<usize>()
    }
}

impl Decode for Executed {
    fn decode(r: &mut Reader<'_>) -> Result<Self, WireError> {
        let entries = decode_seq::<(ClientId, Window)>(r)?;
        let ascending = entries.windows(2).all(|pair| match pair {
            [(a, _), (b, _)] => a < b,
            _ => true,
        });
        if !ascending {
            return Err(WireError::InvalidValue("session table order"));
        }
        Ok(Executed {
            windows: entries.into_iter().collect(),
        })
    }
}

/// One request a session queues, or a live slot proposes, or both.
#[derive(Debug)]
struct Entry {
    seq: u64,
    /// The request, while it is queued here and has not executed.
    request: Option<Request>,
    /// When it was queued: batches list their requests in this order.
    ticket: u64,
    /// Live slots whose proposal carries this seq.
    in_flight: u32,
}

impl Entry {
    fn unproposed(&self) -> bool {
        self.in_flight == 0 && self.request.is_some()
    }

    fn dead(&self) -> bool {
        self.in_flight == 0 && self.request.is_none()
    }
}

/// One client's session.
#[derive(Debug, Default)]
struct Session {
    window: Window,
    /// Entries, ascending by seq.
    ring: VecDeque<Entry>,
    /// No entry below this index is unproposed.
    cursor: usize,
    /// Listed in [`Sessions::ready`].
    ready: bool,
}

impl Session {
    /// The ring index of `seq`, or where it would be inserted.
    fn find(&self, seq: u64) -> Result<usize, usize> {
        match (self.ring.front(), self.ring.back()) {
            (Some(front), Some(back)) if front.seq <= seq && seq <= back.seq => {
                // Without gaps, a seq sits at its distance from the front.
                let guess = (seq - front.seq) as usize;
                match self.ring.get(guess) {
                    Some(entry) if entry.seq == seq => Ok(guess),
                    _ => self.ring.binary_search_by_key(&seq, |entry| entry.seq),
                }
            }
            (Some(front), _) if seq < front.seq => Err(0),
            _ => Err(self.ring.len()),
        }
    }

    /// The ring index of `seq`, inserting an empty entry if it has none.
    fn slot(&mut self, seq: u64) -> usize {
        match self.find(seq) {
            Ok(i) => i,
            Err(i) => {
                self.ring.insert(
                    i,
                    Entry {
                        seq,
                        request: None,
                        ticket: 0,
                        in_flight: 0,
                    },
                );
                self.cursor = self.cursor.min(i);
                i
            }
        }
    }

    fn in_flight(&self, seq: u64) -> u32 {
        self.find(seq)
            .ok()
            .and_then(|i| self.ring.get(i))
            .map_or(0, |entry| entry.in_flight)
    }

    /// Queues `request` under `ticket` unless it has executed, is
    /// queued already or is past the [`HORIZON`]. Returns whether it
    /// was queued, and if so whether it is unproposed.
    fn queue(&mut self, request: Request, ticket: u64) -> Option<bool> {
        let seq = request.seq;
        if self.window.is_executed(seq) || seq - self.window.executed_below >= HORIZON {
            return None;
        }
        let i = self.slot(seq);
        let entry = self.ring.get_mut(i)?;
        if entry.request.is_some() {
            return None;
        }
        entry.request = Some(request);
        entry.ticket = ticket;
        let unproposed = entry.in_flight == 0;
        if unproposed {
            self.cursor = self.cursor.min(i);
        }
        Some(unproposed)
    }

    /// Moves the cursor past entries that are not unproposed.
    fn advance_cursor(&mut self) {
        while self.ring.get(self.cursor).is_some_and(|entry| !entry.unproposed()) {
            self.cursor += 1;
        }
    }

    /// Drops dead entries from both ends of the ring.
    fn trim(&mut self) {
        while self.ring.front().is_some_and(Entry::dead) {
            self.ring.pop_front();
            self.cursor = self.cursor.saturating_sub(1);
        }
        while self.ring.back().is_some_and(Entry::dead) {
            self.ring.pop_back();
        }
        self.cursor = self.cursor.min(self.ring.len());
    }

    /// Appends up to `quota` unproposed requests less than `ahead` seqs
    /// above `executed_below`, lowest seq first, to `out` with their
    /// tickets, flagging those past the first `share`. Returns how many,
    /// and whether an unproposed request is left (past the quota, or
    /// waiting for the window to reach it).
    fn take(&self, quota: usize, share: usize, ahead: u64, out: &mut Vec<(bool, u64, Request)>) -> (usize, bool) {
        let limit = self.window.executed_below.saturating_add(ahead);
        let mut took = 0;
        for entry in self.ring.range(self.cursor.min(self.ring.len())..) {
            let Some(request) = entry.request.as_ref().filter(|_| entry.in_flight == 0) else {
                continue;
            };
            if took == quota || entry.seq >= limit {
                return (took, true);
            }
            out.push((took >= share, entry.ticket, request.clone()));
            took += 1;
        }
        (took, false)
    }

    fn is_blank(&self) -> bool {
        self.ring.is_empty() && self.window == FRESH
    }
}

/// Every client's session: the replica's request pool and its dedup.
#[derive(Debug, Default)]
pub(crate) struct Sessions {
    sessions: HashMap<ClientId, Session>,
    /// Every client that holds an unproposed request (and maybe some
    /// that no longer do), in the order batches visit them. A client
    /// is dropped when a scan finds nothing unproposed.
    ready: VecDeque<ClientId>,
    /// Requests queued across every session.
    queued: usize,
    /// Requests queued so far (the next one's ticket).
    tickets: u64,
    /// Candidates for the batch being built: requests with their
    /// tickets, flagged when past their client's share (kept for its capacity).
    candidates: Vec<(bool, u64, Request)>,
}

impl Sessions {
    /// Requests queued and not yet executed.
    pub(crate) fn queued(&self) -> usize {
        self.queued
    }

    /// `client`'s window (a fresh one for a client never seen).
    pub(crate) fn window(&self, client: ClientId) -> &Window {
        self.sessions.get(&client).map_or(&FRESH, |session| &session.window)
    }

    /// Live slots carrying `(client, seq)`.
    pub(crate) fn in_flight(&self, client: ClientId, seq: u64) -> u32 {
        self.sessions.get(&client).map_or(0, |session| session.in_flight(seq))
    }

    /// Queues requests, each unless it has executed, is queued already,
    /// is past its client's [`HORIZON`], or is over `max_pending` queued
    /// requests in all. Returns how many it queued.
    pub(crate) fn enqueue(&mut self, requests: Vec<Request>, max_pending: usize) -> usize {
        let before = self.queued;
        let mut requests = requests.into_iter().peekable();
        while let Some(first) = requests.next() {
            let client = first.client;
            let session = self.sessions.entry(client).or_default();
            let mut unproposed = false;
            let mut next = Some(first);
            while let Some(request) = next {
                if self.queued < max_pending {
                    if let Some(fresh) = session.queue(request, self.tickets) {
                        self.queued += 1;
                        self.tickets += 1;
                        unproposed |= fresh;
                    }
                }
                next = requests.next_if(|request| request.client == client);
            }
            if unproposed && !session.ready {
                session.ready = true;
                self.ready.push_back(client);
            }
        }
        self.queued - before
    }

    /// Whether a PROPOSE may carry every request of `batch`: each fresh
    /// in its client's window and carried by no live slot. Looks up,
    /// never creates, so naming unknown clients allocates nothing.
    pub(crate) fn proposable(&self, batch: &Batch) -> bool {
        batch
            .requests
            .chunk_by(|a, b| a.client == b.client)
            .all(|run| {
                let session = run.first().and_then(|request| self.sessions.get(&request.client));
                run.iter().all(|request| match session {
                    Some(session) => {
                        session.window.is_fresh(request.seq) && session.in_flight(request.seq) == 0
                    }
                    None => FRESH.is_fresh(request.seq),
                })
            })
    }

    /// Counts `batch` in flight: a live slot now proposes it.
    pub(crate) fn mark(&mut self, batch: &Batch) {
        for run in batch.requests.chunk_by(|a, b| a.client == b.client) {
            let Some(first) = run.first() else { continue };
            let session = self.sessions.entry(first.client).or_default();
            for request in run {
                let i = session.slot(request.seq);
                if let Some(entry) = session.ring.get_mut(i) {
                    entry.in_flight += 1;
                }
                if i == session.cursor {
                    session.advance_cursor();
                }
            }
        }
    }

    /// Drops `batch` from flight: its slot was re-bound or reset. Its
    /// queued requests become proposable again.
    pub(crate) fn unmark(&mut self, batch: &Batch) {
        for run in batch.requests.chunk_by(|a, b| a.client == b.client) {
            let Some(client) = run.first().map(|request| request.client) else {
                continue;
            };
            let Some(session) = self.sessions.get_mut(&client) else {
                continue;
            };
            let mut requeue = false;
            for request in run {
                let Ok(i) = session.find(request.seq) else { continue };
                if let Some(entry) = session.ring.get_mut(i) {
                    entry.in_flight = entry.in_flight.saturating_sub(1);
                    if entry.unproposed() {
                        session.cursor = session.cursor.min(i);
                        requeue = true;
                    }
                }
            }
            session.trim();
            if requeue && !session.ready {
                session.ready = true;
                self.ready.push_back(client);
            }
            // A faulty leader may name any client: a session that holds
            // nothing and has executed nothing does not outlive its slot.
            if session.is_blank() && !session.ready {
                self.sessions.remove(&client);
            }
        }
    }

    /// Executes a decided batch: each request fresh in its client's
    /// window executes and leaves the pool, the rest are skipped.
    /// `proposed` says the batch is the committing slot's own proposal,
    /// whose in-flight counts are dropped on the way. Returns the
    /// positions skipped, as [`Executed::execute`] would.
    pub(crate) fn commit(&mut self, batch: &Batch, proposed: bool) -> Vec<usize> {
        let mut skipped = Vec::new();
        let mut first = 0;
        for run in batch.requests.chunk_by(|a, b| a.client == b.client) {
            let Some(client) = run.first().map(|request| request.client) else {
                continue;
            };
            let session = self.sessions.entry(client).or_default();
            let mut requeue = false;
            for (offset, request) in run.iter().enumerate() {
                let fresh = session.window.execute(request.seq);
                if !fresh {
                    skipped.push(first + offset);
                }
                let Ok(i) = session.find(request.seq) else { continue };
                if let Some(entry) = session.ring.get_mut(i) {
                    if proposed {
                        entry.in_flight = entry.in_flight.saturating_sub(1);
                    }
                    if fresh && entry.request.take().is_some() {
                        self.queued -= 1;
                    }
                    if entry.unproposed() {
                        session.cursor = session.cursor.min(i);
                        requeue = true;
                    }
                }
            }
            session.trim();
            if requeue && !session.ready {
                session.ready = true;
                self.ready.push_back(client);
            }
            first += run.len();
        }
        skipped
    }

    /// Up to `max` unproposed requests, each less than `ahead` seqs
    /// above its client's `executed_below`, oldest first, within
    /// `max_bytes` of payload (a lone oversized request still goes).
    /// While several clients wait, one takes more than half the batch
    /// only where the others leave room. Clients are visited in turn,
    /// each once, until twice a batch of candidates is gathered; the
    /// rest go first next time. Marks nothing: the slot that installs
    /// the batch does.
    pub(crate) fn build_batch(&mut self, max: usize, ahead: u64, max_bytes: usize) -> Vec<Request> {
        let mut taken = std::mem::take(&mut self.candidates);
        let share = if self.ready.len() > 1 { max.div_ceil(2) } else { max };
        let mut runs = 0;
        for _ in 0..self.ready.len() {
            if taken.len() >= 2 * max {
                break;
            }
            let Some(client) = self.ready.pop_front() else { break };
            let Some(session) = self.sessions.get_mut(&client) else {
                continue;
            };
            let (took, left) = session.take(max, share, ahead, &mut taken);
            if took == 0 && !left {
                session.ready = false;
                continue;
            }
            runs += usize::from(took > 0);
            self.ready.push_back(client);
        }
        if runs > 1 {
            // Shares first, then what fills the rest; each oldest first.
            taken.sort_unstable_by_key(|(over_share, ticket, _)| (*over_share, *ticket));
            taken.truncate(max);
            if taken.last().is_some_and(|(over_share, _, _)| *over_share) {
                taken.sort_unstable_by_key(|(_, ticket, _)| *ticket);
            }
        }
        let mut bytes = 0;
        let batch = taken
            .drain(..)
            .take(max)
            .enumerate()
            .take_while(|(i, (_, _, request))| {
                bytes += request.payload.len();
                *i == 0 || bytes <= max_bytes
            })
            .map(|(_, (_, _, request))| request)
            .collect();
        self.candidates = taken;
        batch
    }

    /// Up to `max` unproposed requests, clients in turn order and seqs
    /// ascending within one (what a follower forwards its leader).
    pub(crate) fn unproposed(&self, max: usize) -> Vec<Request> {
        self.ready
            .iter()
            .filter_map(|client| self.sessions.get(client))
            .flat_map(|session| session.ring.range(session.cursor.min(session.ring.len())..))
            .filter(|entry| entry.in_flight == 0)
            .filter_map(|entry| entry.request.clone())
            .take(max)
            .collect()
    }

    /// The executed half of every session that has executed anything.
    pub(crate) fn executed(&self) -> Executed {
        Executed {
            windows: self
                .sessions
                .iter()
                .filter(|(_, session)| session.window != FRESH)
                .map(|(client, session)| (*client, session.window.clone()))
                .collect(),
        }
    }

    /// Replaces every window with `executed`'s (state transfer or
    /// recovery reached a later decision) and drops queued requests that
    /// have executed since. Nothing may be in flight.
    pub(crate) fn install(&mut self, executed: Executed) {
        let mut windows = executed.windows;
        for (client, session) in &mut self.sessions {
            session.window = windows.remove(client).unwrap_or_default();
            for entry in &mut session.ring {
                entry.in_flight = 0;
                if entry.request.is_some() && session.window.is_executed(entry.seq) {
                    entry.request = None;
                    self.queued -= 1;
                }
            }
            session.trim();
            session.cursor = 0;
            if session.ring.iter().any(Entry::unproposed) && !session.ready {
                session.ready = true;
                self.ready.push_back(*client);
            }
        }
        for (client, window) in windows {
            self.sessions.insert(
                client,
                Session {
                    window,
                    ..Session::default()
                },
            );
        }
    }

    /// Every `(client, seq)` with live slots, and how many (a check of
    /// the counts against the slots' proposals).
    pub(crate) fn in_flight_marks(&self) -> HashMap<(ClientId, u64), u32> {
        self.sessions
            .iter()
            .flat_map(|(client, session)| {
                session
                    .ring
                    .iter()
                    .filter(|entry| entry.in_flight > 0)
                    .map(|entry| ((*client, entry.seq), entry.in_flight))
            })
            .collect()
    }

    /// The longest ring of any session.
    #[cfg(test)]
    pub(crate) fn longest_ring(&self) -> usize {
        self.sessions.values().map(|session| session.ring.len()).max().unwrap_or(0)
    }

    /// Sessions in the table.
    #[cfg(test)]
    pub(crate) fn len(&self) -> usize {
        self.sessions.len()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use hlf_wire::{from_bytes, to_bytes, Bytes};

    fn req(client: u32, seq: u64) -> Request {
        Request::new(ClientId(client), seq, Bytes::from(vec![seq as u8; 8]))
    }

    fn batch(ids: &[(u32, u64)]) -> Batch {
        Batch::new(ids.iter().map(|&(client, seq)| req(client, seq)).collect())
    }

    #[test]
    fn window_slides_over_executed_runs() {
        let mut window = Window::default();
        assert!(!window.is_fresh(0), "seqs start at 1");
        assert!(window.execute(3));
        assert!(window.execute(2));
        assert!(!window.execute(3), "executed once");
        assert_eq!(window.executed_below, 1);
        assert!(window.execute(1));
        assert_eq!((window.executed_below, window.above.len()), (4, 0));
        assert!(window.is_executed(2) && !window.is_executed(4));
        // Out of order across word boundaries, then the gap closes.
        for seq in (5..200).rev() {
            assert!(window.execute(seq));
        }
        assert_eq!(window.executed_below, 4);
        assert!(window.execute(4));
        assert_eq!(window, Window { executed_below: 200, above: Vec::new() });
        // The window's far edge.
        assert!(!window.is_fresh(200 + WINDOW));
        assert!(window.execute(200 + WINDOW - 1));
        assert!(window.is_executed(200 + WINDOW - 1));
    }

    #[test]
    fn executed_table_round_trips_in_client_order() {
        let mut executed = Executed::default();
        assert_eq!(executed.execute(&batch(&[(9, 1), (9, 2), (3, 5), (3, 1), (9, 2)])), vec![4]);
        assert_eq!(executed.window(ClientId(9)).map(|w| w.executed_below), Some(3));
        assert!(executed.window(ClientId(3)).is_some_and(|window| window.is_executed(5) && !window.is_executed(4)));
        let bytes = to_bytes(&executed);
        assert_eq!(bytes.len(), executed.encoded_len());
        assert_eq!(from_bytes::<Executed>(&bytes), Ok(executed.clone()));
        // Clients out of order: a typed error.
        let mut swapped = Vec::new();
        2u32.encode(&mut swapped);
        for client in [9, 3] {
            ClientId(client).encode(&mut swapped);
            executed.window(ClientId(client)).unwrap_or(&FRESH).encode(&mut swapped);
        }
        assert_eq!(
            from_bytes::<Executed>(&swapped),
            Err(WireError::InvalidValue("session table order"))
        );
    }

    #[test]
    fn pool_queues_once_and_builds_oldest_first() {
        let mut sessions = Sessions::default();
        let window: Vec<Request> = (1..=6).map(|seq| req(1, seq)).chain([req(2, 1), req(2, 1)]).collect();
        assert_eq!(sessions.enqueue(window, 100), 7);
        assert_eq!(sessions.enqueue(vec![req(1, 3)], 100), 0, "already queued");
        // Half of four each, and client 1 fills the room client 2
        // leaves; listed in the order they were queued.
        let ids = |requests: &[Request]| requests.iter().map(Request::id).collect::<Vec<_>>();
        let built = sessions.build_batch(4, WINDOW, usize::MAX);
        assert_eq!(ids(&built), vec![(ClientId(1), 1), (ClientId(1), 2), (ClientId(1), 3), (ClientId(2), 1)]);
        sessions.mark(&Batch::new(built.clone()));
        let rest = sessions.build_batch(10, WINDOW, usize::MAX);
        assert_eq!(ids(&rest), (4..=6).map(|seq| (ClientId(1), seq)).collect::<Vec<_>>());
        // Dropped from flight, they are proposable again.
        sessions.unmark(&Batch::new(built.clone()));
        assert_eq!(sessions.unproposed(10).len(), 7);
        sessions.mark(&Batch::new(built.clone()));
        assert_eq!(sessions.commit(&Batch::new(built), true), Vec::<usize>::new());
        assert_eq!(sessions.queued(), 3);
        assert!(sessions.in_flight_marks().is_empty());
        // A decided duplicate is skipped, and the pool takes no old seq.
        assert_eq!(sessions.commit(&batch(&[(2, 1), (1, 4)]), false), vec![0]);
        assert_eq!(sessions.enqueue(vec![req(1, 4), req(1, 2)], 100), 0);
        assert_eq!(sessions.queued(), 2);
    }

    /// A follower holds seqs 1 and 3 when a PROPOSE of 1 to 3 arrives;
    /// the slot is reset, 1 and 3 are proposed again, and then the
    /// client's copy of seq 2 arrives: it fills the emptied ring entry
    /// between them, below the cursor, and is proposable all the same.
    #[test]
    fn a_copy_filling_an_emptied_entry_is_proposable() {
        let mut sessions = Sessions::default();
        let seqs = |requests: Vec<Request>| requests.iter().map(|r| r.seq).collect::<Vec<_>>();
        sessions.enqueue(vec![req(1, 1), req(1, 3)], 100);
        let proposal = batch(&[(1, 1), (1, 2), (1, 3)]);
        sessions.mark(&proposal);
        sessions.unmark(&proposal);
        let again = sessions.build_batch(10, WINDOW, usize::MAX);
        assert_eq!(seqs(again.clone()), vec![1, 3]);
        sessions.mark(&Batch::new(again));
        sessions.enqueue(vec![req(1, 2)], 100);
        assert_eq!(seqs(sessions.build_batch(10, WINDOW, usize::MAX)), vec![2]);
    }

    #[test]
    fn proposals_naming_unknown_clients_leave_nothing_behind() {
        let mut sessions = Sessions::default();
        let strangers: Batch = Batch::new((100..400).map(|client| req(client, WINDOW)).collect());
        assert!(sessions.proposable(&strangers));
        assert_eq!(sessions.len(), 0, "validation allocates no session");
        sessions.mark(&strangers);
        assert!(!sessions.proposable(&strangers), "in flight");
        sessions.unmark(&strangers);
        assert_eq!(sessions.len(), 0);
        assert!(!sessions.proposable(&batch(&[(5, WINDOW + 1)])), "beyond the window");
    }

    #[test]
    fn install_drops_what_executed_meanwhile() {
        let mut sessions = Sessions::default();
        sessions.enqueue((1..=4).map(|seq| req(1, seq)).collect(), 100);
        let mut executed = Executed::default();
        executed.execute(&batch(&[(1, 1), (1, 2), (7, 1)]));
        sessions.install(executed.clone());
        assert_eq!(sessions.queued(), 2);
        assert_eq!(sessions.executed(), executed);
        let seqs: Vec<u64> = sessions.build_batch(10, WINDOW, usize::MAX).iter().map(|r| r.seq).collect();
        assert_eq!(seqs, vec![3, 4]);
    }

    #[test]
    fn batches_share_between_clients_and_stop_at_the_window() {
        let mut sessions = Sessions::default();
        // A fast client queued 300 before a slow one queued 5; a far
        // request waits beyond the bound, and a farther one is dropped.
        let fast = (1..=300).map(|seq| req(1, seq));
        let slow = (1..=5).map(|seq| req(2, seq));
        let far = [req(3, 50), req(3, HORIZON + 1)];
        assert_eq!(sessions.enqueue(fast.chain(slow).chain(far).collect(), 1000), 306);
        let built = sessions.build_batch(10, 40, usize::MAX);
        let of = |client| built.iter().filter(|r| r.client == ClientId(client)).count();
        assert_eq!((of(1), of(2), of(3)), (5, 5, 0), "half a batch each while both wait");
        assert_eq!(built.first().map(Request::id), Some((ClientId(1), 1)), "oldest first");
        sessions.mark(&Batch::new(built.clone()));
        let rest = sessions.build_batch(400, 40, usize::MAX);
        assert_eq!(rest.len(), 35, "client 1 up to seq 40, client 3 nothing");
        assert_eq!(sessions.queued(), 306);
        // Once client 1's first 40 execute, its next ones are in reach;
        // client 3 stays listed while its request waits for its window.
        sessions.mark(&Batch::new(rest.clone()));
        sessions.commit(&Batch::new(built), true);
        sessions.commit(&Batch::new(rest), true);
        let next = sessions.build_batch(400, 40, usize::MAX);
        assert_eq!(next.first().map(Request::id), Some((ClientId(1), 41)));
        assert_eq!(next.len(), 40);
        assert_eq!(sessions.unproposed(400).len(), 261, "client 3's request is still listed");
    }
}
