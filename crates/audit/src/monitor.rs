//! Online Byzantine-safety invariant monitor.
//!
//! The [`ClusterAuditor`] consumes the flight-event streams of every
//! replica (drained incrementally via
//! [`hlf_obs::FlightRecorder::events_since`]) and checks the paper's
//! safety claims *while the run executes*:
//!
//! 1. **Agreement** — no two replicas decide different values for one
//!    consensus instance ([`ViolationKind::Equivocation`]).
//! 2. **Certified-value preservation** — once a value gathers a WRITE
//!    certificate for a slot, no different value may be certified or
//!    decided for that slot, across any number of view changes
//!    ([`ViolationKind::CertifiedValueDropped`]).
//! 3. **Tentative-rollback consistency** — a tentative delivery is only
//!    ever rolled back as part of a regency change's window re-bind
//!    ([`ViolationKind::RollbackWithoutViewChange`]).
//! 4. **Quorum-certificate validity** — every decide and WRITE
//!    certificate carries ≥ 2f+1 *distinct* in-range signers
//!    ([`ViolationKind::BadQuorumCertificate`]).
//! 5. **Monotonic release** — each replica's decide stream never goes
//!    backwards in consensus id
//!    ([`ViolationKind::NonMonotonicRelease`]).
//!
//! Violations carry a slice of the recent merged timeline so a report
//! shows *how* the cluster got to the bad state, not just that it did.

use hlf_obs::flight::EventKind;
use hlf_obs::FlightEvent;
use std::collections::BTreeMap;
use std::collections::VecDeque;

/// How much merged-timeline history a violation report carries.
const SLICE_EVENTS: usize = 48;

/// Which safety invariant was breached.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum ViolationKind {
    /// Two replicas decided different values for the same instance.
    Equivocation,
    /// A certified value was replaced by a different value for the same
    /// slot (certificate dropped across a view change).
    CertifiedValueDropped,
    /// A tentative delivery was rolled back outside any regency change.
    RollbackWithoutViewChange,
    /// A decide or WRITE certificate lacks 2f+1 distinct valid signers.
    BadQuorumCertificate,
    /// A replica released decides out of consensus-id order.
    NonMonotonicRelease,
}

impl ViolationKind {
    /// Stable short name used in reports.
    pub fn name(self) -> &'static str {
        match self {
            ViolationKind::Equivocation => "equivocation",
            ViolationKind::CertifiedValueDropped => "certified_value_dropped",
            ViolationKind::RollbackWithoutViewChange => "rollback_without_view_change",
            ViolationKind::BadQuorumCertificate => "bad_quorum_certificate",
            ViolationKind::NonMonotonicRelease => "non_monotonic_release",
        }
    }
}

/// A breached invariant, with enough context to debug it: the offending
/// instance and replica, a human-readable account, and the tail of the
/// merged cluster timeline leading up to the breach.
#[derive(Debug, Clone)]
pub struct AuditViolation {
    pub kind: ViolationKind,
    /// Consensus instance the breach concerns (0 when not applicable).
    pub cid: u64,
    /// Replica whose event triggered the check.
    pub node: usize,
    /// Virtual time of the triggering event (µs).
    pub at_us: u64,
    pub detail: String,
    /// Recent merged timeline: `(node, event)` pairs, oldest first.
    pub slice: Vec<(usize, FlightEvent)>,
}

impl AuditViolation {
    /// One-line human-readable report.
    pub fn to_line(&self) -> String {
        format!(
            "[{}] cid {} node {} at {}us: {}",
            self.kind.name(),
            self.cid,
            self.node,
            self.at_us,
            self.detail
        )
    }
}

/// Per-replica state the auditor tracks.
#[derive(Debug, Default, Clone)]
struct NodeState {
    /// Highest regency this node is known to have installed.
    regency: u64,
    /// `true` between a regency change and the next decide: rollbacks
    /// are legitimate only inside this span (the window re-bind).
    in_viewchange: bool,
    /// Last decided cid, for the monotonic-release check.
    last_decided: Option<u64>,
    /// Decide frontier (next expected cid), for dashboards.
    frontier: u64,
    /// Live (proposed, undecided) slots this node currently tracks.
    live_slots: BTreeMap<u64, u64>,
}

/// What the cluster agreed on for one consensus instance so far.
#[derive(Debug, Default, Clone)]
struct SlotState {
    /// First decided digest and the replica that reported it.
    decided: Option<(u64, usize)>,
    /// Certified digests seen (digest64 → first reporting replica).
    /// More than one entry is already a safety breach.
    certified: BTreeMap<u64, usize>,
}

/// Online safety auditor over per-replica flight-event streams.
///
/// Feed each replica's events in its local ring order via
/// [`ClusterAuditor::observe`]; interleaving across replicas may be
/// arbitrary (the checks are order-insensitive across nodes, and the
/// per-node state machines only need local order).
pub struct ClusterAuditor {
    n: usize,
    f: usize,
    nodes: Vec<NodeState>,
    slots: BTreeMap<u64, SlotState>,
    violations: Vec<AuditViolation>,
    /// Ring of recent events for violation slices.
    recent: VecDeque<(usize, FlightEvent)>,
    /// Total events observed.
    observed: u64,
}

impl ClusterAuditor {
    /// Auditor for an `n`-replica cluster tolerating `f` faults.
    pub fn new(n: usize, f: usize) -> ClusterAuditor {
        ClusterAuditor {
            n,
            f,
            nodes: vec![NodeState::default(); n],
            slots: BTreeMap::new(),
            violations: Vec::new(),
            recent: VecDeque::with_capacity(SLICE_EVENTS),
            observed: 0,
        }
    }

    /// Minimum distinct signers a valid certificate needs (2f+1).
    pub fn min_signers(&self) -> u32 {
        2 * self.f as u32 + 1
    }

    /// Feeds one event from replica `node`'s stream.
    #[expect(clippy::indexing_slicing, reason = "`node` is bounds-checked on entry")]
    pub fn observe(&mut self, node: usize, event: &FlightEvent) {
        if node >= self.nodes.len() {
            return;
        }
        self.observed += 1;
        self.recent.push_back((node, *event));
        while self.recent.len() > SLICE_EVENTS {
            self.recent.pop_front();
        }
        match event.kind {
            EventKind::Propose => {
                self.nodes[node].live_slots.insert(event.a, event.b);
            }
            EventKind::RegencyChange => {
                self.nodes[node].regency = event.a;
                self.nodes[node].in_viewchange = true;
            }
            EventKind::Rebind => {
                // Re-binds only happen inside a sync; treat them as
                // (re)entering the re-bind span as well, in case the
                // regency-change event was lost to ring overwrite.
                self.nodes[node].in_viewchange = true;
            }
            EventKind::Rollback => self.check_rollback(node, event),
            EventKind::WriteCert => self.check_write_cert(node, event),
            EventKind::DecideHash => self.check_decide(node, event),
            _ => {}
        }
    }

    #[expect(clippy::indexing_slicing, reason = "only called from observe, which bounds-checks `node`")]
    fn check_rollback(&mut self, node: usize, event: &FlightEvent) {
        if !self.nodes[node].in_viewchange {
            self.push_violation(
                ViolationKind::RollbackWithoutViewChange,
                event.a,
                node,
                event.at_us,
                format!(
                    "tentative delivery for cid {} rolled back with no preceding regency change",
                    event.a
                ),
            );
        }
    }

    fn check_write_cert(&mut self, node: usize, event: &FlightEvent) {
        let (cid, digest, signers) = (event.a, event.b, event.c);
        self.check_signers(node, cid, signers, event.at_us, "WRITE certificate");
        let slot = self.slots.entry(cid).or_default();
        let prior: Vec<(u64, usize)> = slot
            .certified
            .iter()
            .map(|(&d, &by)| (d, by))
            .filter(|&(d, _)| d != digest)
            .collect();
        slot.certified.entry(digest).or_insert(node);
        if let Some(&(prev_digest, prev_node)) = prior.first() {
            self.push_violation(
                ViolationKind::CertifiedValueDropped,
                cid,
                node,
                event.at_us,
                format!(
                    "cid {cid}: node {node} certified {digest:#018x} but node {prev_node} \
                     had certified {prev_digest:#018x}"
                ),
            );
        }
    }

    #[expect(clippy::indexing_slicing, reason = "`node` bounds-checked in observe; the slot entry is created above each map index")]
    fn check_decide(&mut self, node: usize, event: &FlightEvent) {
        let (cid, digest, signers) = (event.a, event.b, event.c);
        self.check_signers(node, cid, signers, event.at_us, "decision proof");

        // Agreement across replicas.
        let decided = self.slots.entry(cid).or_default().decided;
        match decided {
            None => {
                self.slots.entry(cid).or_default().decided = Some((digest, node));
            }
            Some((prev, prev_node)) if prev != digest => {
                self.push_violation(
                    ViolationKind::Equivocation,
                    cid,
                    node,
                    event.at_us,
                    format!(
                        "cid {cid}: node {node} decided {digest:#018x} but node {prev_node} \
                         decided {prev:#018x}"
                    ),
                );
            }
            Some(_) => {}
        }

        // Certified-value preservation: a decide must match a certified
        // value whenever certificates were observed for the slot.
        let cert_mismatch = {
            let slot = self.slots.entry(cid).or_default();
            !slot.certified.is_empty() && !slot.certified.contains_key(&digest)
        };
        if cert_mismatch {
            let certified: Vec<String> = self.slots[&cid]
                .certified
                .keys()
                .map(|d| format!("{d:#018x}"))
                .collect();
            self.push_violation(
                ViolationKind::CertifiedValueDropped,
                cid,
                node,
                event.at_us,
                format!(
                    "cid {cid}: node {node} decided {digest:#018x}, not among certified \
                     values [{}]",
                    certified.join(", ")
                ),
            );
        }

        // In-order release per replica. A repeated decide of the same
        // cid is tolerated here: it is an idempotent redelivery if the
        // digests match, and an equivocation (flagged above) if not.
        if let Some(last) = self.nodes[node].last_decided {
            if cid < last {
                self.push_violation(
                    ViolationKind::NonMonotonicRelease,
                    cid,
                    node,
                    event.at_us,
                    format!("node {node} decided cid {cid} after already deciding cid {last}"),
                );
            }
        }
        let state = &mut self.nodes[node];
        state.last_decided = Some(cid.max(state.last_decided.unwrap_or(0)));
        state.frontier = state.frontier.max(cid + 1);
        state.live_slots.remove(&cid);
        state.in_viewchange = false;
    }

    fn check_signers(&mut self, node: usize, cid: u64, signers: u64, at_us: u64, what: &str) {
        let distinct = signers.count_ones();
        let out_of_range = self.n < 64 && (signers >> self.n) != 0;
        if distinct < self.min_signers() || out_of_range {
            self.push_violation(
                ViolationKind::BadQuorumCertificate,
                cid,
                node,
                at_us,
                format!(
                    "cid {cid}: {what} on node {node} has {distinct} distinct signers \
                     (bitmap {signers:#x}), need {} of nodes 0..{}",
                    self.min_signers(),
                    self.n
                ),
            );
        }
    }

    fn push_violation(
        &mut self,
        kind: ViolationKind,
        cid: u64,
        node: usize,
        at_us: u64,
        detail: String,
    ) {
        self.violations.push(AuditViolation {
            kind,
            cid,
            node,
            at_us,
            detail,
            slice: self.recent.iter().cloned().collect(),
        });
    }

    /// Violations found so far, in detection order.
    pub fn violations(&self) -> &[AuditViolation] {
        &self.violations
    }

    /// Total events fed through the auditor.
    pub fn observed(&self) -> u64 {
        self.observed
    }

    /// Per-replica view for dashboards: `(regency, frontier, live
    /// in-window slots)`.
    pub fn node_view(&self, node: usize) -> Option<(u64, u64, usize)> {
        self.nodes
            .get(node)
            .map(|s| (s.regency, s.frontier, s.live_slots.len()))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn ev(at_us: u64, kind: EventKind, a: u64, b: u64, c: u64) -> FlightEvent {
        FlightEvent { at_us, kind, a, b, c }
    }

    /// 2f+1 = 3 signers for n=4, f=1: nodes 0, 1, 2.
    const GOOD_SIGNERS: u64 = 0b0111;

    fn clean_decide(aud: &mut ClusterAuditor, cid: u64, digest: u64) {
        for node in 0..4 {
            aud.observe(node, &ev(cid * 10, EventKind::WriteCert, cid, digest, GOOD_SIGNERS));
            aud.observe(node, &ev(cid * 10 + 1, EventKind::DecideHash, cid, digest, GOOD_SIGNERS));
        }
    }

    #[test]
    fn clean_run_has_no_violations() {
        let mut aud = ClusterAuditor::new(4, 1);
        for cid in 0..50 {
            clean_decide(&mut aud, cid, 0x1000 + cid);
        }
        assert!(aud.violations().is_empty(), "{:?}", aud.violations());
        assert_eq!(aud.node_view(0), Some((0, 50, 0)));
    }

    #[test]
    fn equivocating_decide_is_caught_and_named() {
        let mut aud = ClusterAuditor::new(4, 1);
        clean_decide(&mut aud, 0, 0xaaaa);
        aud.observe(2, &ev(99, EventKind::DecideHash, 1, 0xbbbb, GOOD_SIGNERS));
        aud.observe(3, &ev(100, EventKind::DecideHash, 1, 0xcccc, GOOD_SIGNERS));
        let v: Vec<_> = aud
            .violations()
            .iter()
            .filter(|v| v.kind == ViolationKind::Equivocation)
            .collect();
        assert_eq!(v.len(), 1);
        assert_eq!(v[0].cid, 1);
        assert_eq!(v[0].node, 3);
        assert!(v[0].detail.contains("node 2"), "{}", v[0].detail);
        assert!(!v[0].slice.is_empty(), "violation must carry a timeline slice");
    }

    #[test]
    fn conflicting_write_cert_is_a_dropped_certified_value() {
        let mut aud = ClusterAuditor::new(4, 1);
        aud.observe(0, &ev(10, EventKind::WriteCert, 5, 0x1111, GOOD_SIGNERS));
        aud.observe(1, &ev(11, EventKind::WriteCert, 5, 0x2222, GOOD_SIGNERS));
        let v = &aud.violations()[0];
        assert_eq!(v.kind, ViolationKind::CertifiedValueDropped);
        assert_eq!(v.cid, 5);
        assert_eq!(v.node, 1);
    }

    #[test]
    fn decide_outside_certified_set_is_a_dropped_certified_value() {
        let mut aud = ClusterAuditor::new(4, 1);
        aud.observe(0, &ev(10, EventKind::WriteCert, 5, 0x1111, GOOD_SIGNERS));
        aud.observe(0, &ev(12, EventKind::DecideHash, 5, 0x9999, GOOD_SIGNERS));
        assert!(aud
            .violations()
            .iter()
            .any(|v| v.kind == ViolationKind::CertifiedValueDropped && v.cid == 5));
    }

    #[test]
    fn rollback_requires_a_view_change() {
        let mut aud = ClusterAuditor::new(4, 1);
        aud.observe(1, &ev(10, EventKind::TentativeHash, 3, 0x1, 0));
        aud.observe(1, &ev(11, EventKind::Rollback, 3, 0, 0));
        assert_eq!(
            aud.violations()[0].kind,
            ViolationKind::RollbackWithoutViewChange
        );

        // With the regency change first, the same rollback is fine.
        let mut aud = ClusterAuditor::new(4, 1);
        aud.observe(1, &ev(9, EventKind::RegencyChange, 1, 1, 0));
        aud.observe(1, &ev(10, EventKind::Rebind, 3, 0x2, 1));
        aud.observe(1, &ev(11, EventKind::Rollback, 3, 0, 0));
        assert!(aud.violations().is_empty(), "{:?}", aud.violations());
    }

    #[test]
    fn decide_closes_the_viewchange_span() {
        let mut aud = ClusterAuditor::new(4, 1);
        aud.observe(1, &ev(9, EventKind::RegencyChange, 1, 1, 0));
        aud.observe(1, &ev(10, EventKind::DecideHash, 3, 0x2, GOOD_SIGNERS));
        aud.observe(1, &ev(11, EventKind::Rollback, 4, 0, 0));
        assert_eq!(
            aud.violations()[0].kind,
            ViolationKind::RollbackWithoutViewChange
        );
    }

    #[test]
    fn thin_or_out_of_range_quorums_are_rejected() {
        let mut aud = ClusterAuditor::new(4, 1);
        // Two distinct signers < 2f+1 = 3.
        aud.observe(0, &ev(10, EventKind::DecideHash, 1, 0xab, 0b0011));
        // Bit 5 set but n = 4.
        aud.observe(0, &ev(11, EventKind::WriteCert, 2, 0xcd, 0b100111));
        let kinds: Vec<ViolationKind> = aud.violations().iter().map(|v| v.kind).collect();
        assert_eq!(
            kinds,
            vec![
                ViolationKind::BadQuorumCertificate,
                ViolationKind::BadQuorumCertificate
            ]
        );
    }

    #[test]
    fn out_of_order_release_is_caught() {
        let mut aud = ClusterAuditor::new(4, 1);
        aud.observe(0, &ev(10, EventKind::DecideHash, 2, 0xab, GOOD_SIGNERS));
        aud.observe(0, &ev(11, EventKind::DecideHash, 1, 0xcd, GOOD_SIGNERS));
        assert!(aud
            .violations()
            .iter()
            .any(|v| v.kind == ViolationKind::NonMonotonicRelease && v.node == 0 && v.cid == 1));
    }

    #[test]
    fn repeated_certs_for_the_same_value_are_fine() {
        // Every replica certifies the same digest, then a view change
        // re-certifies it under a new regency — still one value.
        let mut aud = ClusterAuditor::new(4, 1);
        for node in 0..4 {
            aud.observe(node, &ev(10, EventKind::WriteCert, 7, 0xfeed, GOOD_SIGNERS));
        }
        for node in 0..4 {
            aud.observe(node, &ev(20, EventKind::RegencyChange, 1, 1, 0));
            aud.observe(node, &ev(21, EventKind::Rebind, 7, 0xfeed, 1));
            aud.observe(node, &ev(22, EventKind::WriteCert, 7, 0xfeed, 0b1110));
            aud.observe(node, &ev(23, EventKind::DecideHash, 7, 0xfeed, 0b1110));
        }
        assert!(aud.violations().is_empty(), "{:?}", aud.violations());
    }
}
