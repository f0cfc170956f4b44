//! Causal cluster-timeline reconstruction.
//!
//! Every node's flight-recorder ring is a *local* history. To reason
//! about the cluster ("did replica 2 decide before replica 0 re-bound
//! the slot?") those histories must be merged into one causally-ordered
//! sequence. Virtual sim time is globally comparable, but equal
//! timestamps are common (a broadcast arrives everywhere in the same
//! tick) — so the merge additionally stitches a Lamport-style logical
//! clock from the [`EventKind::FrameSeq`] send/recv pairs the simulator
//! records on every wire message: a receive is ordered after its send
//! no matter how the physical timestamps tie.

use hlf_obs::flight::EventKind;
use hlf_obs::FlightEvent;
use std::collections::HashMap;

/// One event of the merged cluster timeline.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct CausalEvent {
    /// Index of the node the event happened on (replicas first, then
    /// frontends, in the order they were fed to [`reconstruct`]).
    pub node: usize,
    /// Lamport clock: `e1.lamport < e2.lamport` whenever `e1`
    /// happens-before `e2` through a chain of local steps and matched
    /// send/recv pairs.
    pub lamport: u64,
    pub event: FlightEvent,
}

/// Merges per-node event streams (each stream already in its local
/// recording order) into one causally-consistent timeline.
///
/// Ordering: events are first interleaved by `(at_us, node, local
/// position)` — valid because the sim's virtual clock is global — then
/// Lamport clocks are assigned in one pass: a local step increments the
/// node clock, a [`EventKind::FrameSeq`] receive additionally joins the
/// matching send's clock. The final timeline sorts by `(lamport, at_us,
/// node)`, so causal order wins over timestamp ties.
#[expect(clippy::indexing_slicing, reason = "every (node, pos) pair is enumerated from `streams` itself")]
pub fn reconstruct(streams: &[Vec<FlightEvent>]) -> Vec<CausalEvent> {
    // Interleave by global virtual time, breaking ties by node then by
    // local ring order (the stream index is the local order).
    let mut order: Vec<(usize, usize)> = Vec::new();
    for (node, events) in streams.iter().enumerate() {
        for pos in 0..events.len() {
            order.push((node, pos));
        }
    }
    order.sort_by_key(|&(node, pos)| (streams[node][pos].at_us, node, pos));

    // One pass assigning Lamport clocks, joining matched FrameSeq pairs
    // on the sender-unique message id in `b`.
    let mut clocks: Vec<u64> = vec![0; streams.len()];
    let mut sends: HashMap<u64, u64> = HashMap::new();
    let mut timeline = Vec::with_capacity(order.len());
    for (node, pos) in order {
        let event = streams[node][pos];
        let mut next = clocks[node] + 1;
        if event.kind == EventKind::FrameSeq {
            if event.c == 0 {
                sends.insert(event.b, next);
            } else if let Some(&sent) = sends.get(&event.b) {
                next = next.max(sent + 1);
            }
        }
        clocks[node] = next;
        timeline.push(CausalEvent {
            node,
            lamport: next,
            event,
        });
    }
    timeline.sort_by(|x, y| {
        (x.lamport, x.event.at_us, x.node).cmp(&(y.lamport, y.event.at_us, y.node))
    });
    timeline
}

#[cfg(test)]
mod tests {
    use super::*;

    fn ev(at_us: u64, kind: EventKind, a: u64, b: u64, c: u64) -> FlightEvent {
        FlightEvent { at_us, kind, a, b, c }
    }

    #[test]
    fn recv_is_ordered_after_its_send_despite_timestamp_tie() {
        // Node 0 sends message 7 at t=10; node 1 receives it also at
        // t=10 (zero-latency link) and then decides. Timestamp order is
        // ambiguous; Lamport order must put send < recv < decide.
        let streams = vec![
            vec![ev(10, EventKind::FrameSeq, 1, 7, 0)],
            vec![
                ev(10, EventKind::FrameSeq, 0, 7, 1),
                ev(10, EventKind::Decide, 3, 1, 0),
            ],
        ];
        let timeline = reconstruct(&streams);
        let pos = |node: usize, kind: EventKind| {
            timeline
                .iter()
                .position(|e| e.node == node && e.event.kind == kind)
                .unwrap()
        };
        let send = pos(0, EventKind::FrameSeq);
        let recv = pos(1, EventKind::FrameSeq);
        let decide = pos(1, EventKind::Decide);
        assert!(send < recv, "send must precede its receive");
        assert!(recv < decide, "local order preserved");
        assert!(timeline[send].lamport < timeline[recv].lamport);
    }

    #[test]
    fn local_order_is_preserved() {
        let streams = vec![vec![
            ev(5, EventKind::Propose, 1, 0, 0),
            ev(5, EventKind::WriteQuorum, 1, 3, 0),
            ev(6, EventKind::Decide, 1, 1, 0),
        ]];
        let timeline = reconstruct(&streams);
        let kinds: Vec<EventKind> = timeline.iter().map(|e| e.event.kind).collect();
        assert_eq!(
            kinds,
            vec![EventKind::Propose, EventKind::WriteQuorum, EventKind::Decide]
        );
        let clocks: Vec<u64> = timeline.iter().map(|e| e.lamport).collect();
        assert_eq!(clocks, vec![1, 2, 3]);
    }

    #[test]
    fn transitive_chain_across_three_nodes() {
        // 0 sends m1 → 1 receives, sends m2 → 2 receives. The chain
        // must be monotone in Lamport time even with identical
        // timestamps everywhere.
        let streams = vec![
            vec![ev(1, EventKind::FrameSeq, 1, 100, 0)],
            vec![
                ev(1, EventKind::FrameSeq, 0, 100, 1),
                ev(1, EventKind::FrameSeq, 2, 200, 0),
            ],
            vec![ev(1, EventKind::FrameSeq, 1, 200, 1)],
        ];
        let timeline = reconstruct(&streams);
        let clock = |node: usize, b: u64, c: u64| {
            timeline
                .iter()
                .find(|e| e.node == node && e.event.b == b && e.event.c == c)
                .unwrap()
                .lamport
        };
        assert!(clock(0, 100, 0) < clock(1, 100, 1));
        assert!(clock(1, 100, 1) < clock(1, 200, 0));
        assert!(clock(1, 200, 0) < clock(2, 200, 1));
    }
}
