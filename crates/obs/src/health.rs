//! Slow-replica health detection from vote-arrival latencies.
//!
//! WHEAT's premise (and Fig. 9 of the paper) is that quorums form from
//! the *fastest* replicas — which makes a persistently slow replica
//! both invisible (its votes never matter) and dangerous (if a fast
//! replica fails, the slow one suddenly sits on the quorum path). The
//! [`StragglerDetector`] observes per-peer vote-arrival lag — the time
//! from a local PROPOSE to each peer's WRITE/ACCEPT vote arriving —
//! as an exponentially-weighted moving average, and flags a peer as
//! *suspected* when its EWMA exceeds a multiple of the median peer lag.
//!
//! The detector is plain owned state (no locks, no atomics): the
//! consensus replica that owns it already serialises vote handling, so
//! observation rides the existing `&mut self` path for free.

/// Smoothing factor for the per-peer EWMA. 0.1 ≈ the last ~20 votes
/// dominate, so a recovering replica sheds suspicion in a few seconds
/// of normal traffic.
const EWMA_ALPHA: f64 = 0.1;

/// A peer is suspected when its EWMA lag exceeds `median × FACTOR`.
const SUSPECT_FACTOR: f64 = 3.0;

/// Absolute floor (µs) on the suspicion threshold so a near-zero
/// median (e.g. a LAN or virtual-time sim where votes arrive almost
/// instantly) cannot flag peers over microsecond noise.
const MIN_THRESHOLD_US: f64 = 1_000.0;

/// Minimum samples per peer before it participates in the median or
/// can be suspected — avoids flagging peers during warm-up.
const MIN_SAMPLES: u64 = 10;

/// Per-peer vote-lag tracking state.
#[derive(Debug, Clone, Copy, Default)]
struct PeerLag {
    ewma_us: f64,
    samples: u64,
    suspected: bool,
}

/// A suspicion state change produced by [`StragglerDetector::observe`].
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct SuspicionEvent {
    /// Peer whose state changed.
    pub peer: usize,
    /// `true` = newly suspected, `false` = cleared.
    pub suspected: bool,
    /// The peer's EWMA lag (µs) at the transition.
    pub ewma_us: u64,
    /// The median peer EWMA lag (µs) used as the baseline.
    pub median_us: u64,
}

/// Per-peer vote-arrival EWMA tracker with relative-to-median
/// suspicion. See the module docs for the model.
#[derive(Debug, Clone)]
pub struct StragglerDetector {
    peers: Vec<PeerLag>,
    suspicions: u64,
}

impl StragglerDetector {
    /// Creates a detector for `n` peers (replica ids `0..n`).
    pub fn new(n: usize) -> StragglerDetector {
        StragglerDetector {
            peers: vec![PeerLag::default(); n],
            suspicions: 0,
        }
    }

    /// Feeds one vote-arrival lag observation (µs) for `peer` and
    /// returns a state change if the observation crossed the suspicion
    /// threshold in either direction.
    #[expect(clippy::indexing_slicing, reason = "`peer` is range-checked against `peers.len()` at entry")]
    pub fn observe(&mut self, peer: usize, lag_us: u64) -> Option<SuspicionEvent> {
        if peer >= self.peers.len() {
            return None;
        }
        {
            let p = &mut self.peers[peer];
            if p.samples == 0 {
                p.ewma_us = lag_us as f64;
            } else {
                p.ewma_us += EWMA_ALPHA * (lag_us as f64 - p.ewma_us);
            }
            p.samples += 1;
        }
        let median = self.median_us()?;
        let p = &mut self.peers[peer];
        if p.samples < MIN_SAMPLES {
            return None;
        }
        let threshold = (median * SUSPECT_FACTOR).max(MIN_THRESHOLD_US);
        let now_suspected = p.ewma_us > threshold;
        if now_suspected != p.suspected {
            p.suspected = now_suspected;
            if now_suspected {
                self.suspicions += 1;
            }
            return Some(SuspicionEvent {
                peer,
                suspected: now_suspected,
                ewma_us: p.ewma_us as u64,
                median_us: median as u64,
            });
        }
        None
    }

    /// Median EWMA across peers with enough samples; `None` until at
    /// least two peers qualify (a lone peer cannot be its own baseline).
    #[expect(clippy::indexing_slicing, reason = "`lags.len() / 2` is in bounds — the `len < 2` case returned `None` above")]
    fn median_us(&self) -> Option<f64> {
        let mut lags: Vec<f64> = self
            .peers
            .iter()
            .filter(|p| p.samples >= MIN_SAMPLES)
            .map(|p| p.ewma_us)
            .collect();
        if lags.len() < 2 {
            return None;
        }
        lags.sort_by(f64::total_cmp);
        Some(lags[lags.len() / 2])
    }

    /// Current EWMA lag (µs) for `peer`, if it has any samples.
    pub fn peer_lag_us(&self, peer: usize) -> Option<u64> {
        let p = self.peers.get(peer)?;
        (p.samples > 0).then_some(p.ewma_us as u64)
    }

    /// Whether `peer` is currently suspected.
    pub fn is_suspected(&self, peer: usize) -> bool {
        self.peers.get(peer).is_some_and(|p| p.suspected)
    }

    /// Peers currently suspected, ascending.
    pub fn suspected_peers(&self) -> Vec<usize> {
        self.peers
            .iter()
            .enumerate()
            .filter(|(_, p)| p.suspected)
            .map(|(i, _)| i)
            .collect()
    }

    /// Total suspicion transitions (clears not counted).
    pub fn suspicions(&self) -> u64 {
        self.suspicions
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn uniform_peers_are_never_suspected() {
        let mut det = StragglerDetector::new(4);
        for round in 0..100u64 {
            for peer in 0..4 {
                assert!(det.observe(peer, 10_000 + round % 7).is_none());
            }
        }
        assert!(det.suspected_peers().is_empty());
        assert_eq!(det.suspicions(), 0);
    }

    #[test]
    fn slow_peer_is_flagged_and_recovers() {
        let mut det = StragglerDetector::new(4);
        let mut flagged = None;
        for _ in 0..50 {
            for peer in 0..4 {
                let lag = if peer == 3 { 150_000 } else { 10_000 };
                if let Some(ev) = det.observe(peer, lag) {
                    assert!(ev.suspected);
                    assert_eq!(ev.peer, 3);
                    assert!(ev.ewma_us > ev.median_us * 3);
                    flagged = Some(ev);
                }
            }
        }
        assert!(flagged.is_some(), "slow peer never suspected");
        assert!(det.is_suspected(3));
        assert_eq!(det.suspected_peers(), vec![3]);

        // The peer speeds back up: suspicion clears.
        let mut cleared = false;
        for _ in 0..200 {
            for peer in 0..4 {
                if let Some(ev) = det.observe(peer, 10_000) {
                    assert!(!ev.suspected);
                    assert_eq!(ev.peer, 3);
                    cleared = true;
                }
            }
        }
        assert!(cleared, "suspicion never cleared");
        assert!(!det.is_suspected(3));
        assert_eq!(det.suspicions(), 1);
    }

    #[test]
    fn no_suspicion_during_warmup() {
        let mut det = StragglerDetector::new(4);
        // Fewer than MIN_SAMPLES observations each — even a wildly slow
        // peer stays unflagged.
        for _ in 0..(MIN_SAMPLES - 1) {
            for peer in 0..4 {
                let lag = if peer == 0 { 1_000_000 } else { 1_000 };
                assert!(det.observe(peer, lag).is_none());
            }
        }
        assert!(det.suspected_peers().is_empty());
    }

    #[test]
    fn out_of_range_peer_is_ignored() {
        let mut det = StragglerDetector::new(2);
        assert!(det.observe(7, 1).is_none());
        assert_eq!(det.peer_lag_us(7), None);
        assert!(!det.is_suspected(7));
    }
}
