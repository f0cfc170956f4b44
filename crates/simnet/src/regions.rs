//! WAN latency matrix for the geo-distributed experiments.
//!
//! The paper (§6.3) deploys ordering nodes in Oregon, Ireland, Sydney and
//! São Paulo, adds Virginia as WHEAT's spare replica, and places
//! frontends in Canada, Oregon, Virginia and São Paulo. We reproduce that
//! topology with approximate inter-region round-trip times taken from
//! public AWS inter-region measurements (they drift a few percent over
//! the years; the *ordering* of distances, which drives the experiment's
//! shape, is stable).

use crate::SimTime;

/// The Amazon EC2 regions used by the paper's evaluation.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub enum Region {
    /// us-west-2 (leader in the paper's WHEAT configuration).
    Oregon,
    /// eu-west-1.
    Ireland,
    /// ap-southeast-2.
    Sydney,
    /// sa-east-1.
    SaoPaulo,
    /// us-east-1 (WHEAT's fifth, spare replica).
    Virginia,
    /// ca-central-1 (frontend only).
    Canada,
}

impl Region {
    /// All regions in canonical order.
    pub const ALL: [Region; 6] = [
        Region::Oregon,
        Region::Ireland,
        Region::Sydney,
        Region::SaoPaulo,
        Region::Virginia,
        Region::Canada,
    ];

    /// Human-readable name as used in the paper's figures.
    pub fn name(&self) -> &'static str {
        match self {
            Region::Oregon => "Oregon",
            Region::Ireland => "Ireland",
            Region::Sydney => "Sydney",
            Region::SaoPaulo => "Sao Paulo",
            Region::Virginia => "Virginia",
            Region::Canada => "Canada",
        }
    }

    fn index(&self) -> usize {
        match self {
            Region::Oregon => 0,
            Region::Ireland => 1,
            Region::Sydney => 2,
            Region::SaoPaulo => 3,
            Region::Virginia => 4,
            Region::Canada => 5,
        }
    }
}

impl std::fmt::Display for Region {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(self.name())
    }
}

/// Approximate inter-region round-trip times in milliseconds
/// (symmetric). Diagonal entries model intra-region RTT.
///
/// Order: Oregon, Ireland, Sydney, São Paulo, Virginia, Canada.
const RTT_MS: [[u64; 6]; 6] = [
    //            OR   IE   SYD  SP   VA   CA
    /* Oregon  */ [1, 130, 140, 180, 70, 60],
    /* Ireland */ [130, 1, 280, 185, 75, 80],
    /* Sydney  */ [140, 280, 1, 310, 200, 210],
    /* SaoPaulo*/ [180, 185, 310, 1, 120, 125],
    /* Virginia*/ [70, 75, 200, 120, 1, 15],
    /* Canada  */ [60, 80, 210, 125, 15, 1],
];

/// A latency matrix over the paper's regions.
///
/// # Examples
///
/// ```
/// use hlf_simnet::regions::{Region, RegionMatrix};
///
/// let m = RegionMatrix::aws();
/// let rtt = m.rtt(Region::Oregon, Region::Ireland);
/// assert_eq!(rtt.as_millis(), 130);
/// assert_eq!(m.one_way(Region::Oregon, Region::Ireland).as_millis(), 65);
/// ```
#[derive(Clone, Debug)]
pub struct RegionMatrix {
    rtt_ms: [[u64; 6]; 6],
}

impl RegionMatrix {
    /// The built-in approximate AWS matrix.
    pub fn aws() -> RegionMatrix {
        RegionMatrix { rtt_ms: RTT_MS }
    }

    /// Round-trip time between two regions.
    #[expect(clippy::indexing_slicing, reason = "`Region::index()` is `0..N_REGIONS` by construction, matching the matrix dimensions")]
    pub fn rtt(&self, a: Region, b: Region) -> SimTime {
        SimTime::from_millis(self.rtt_ms[a.index()][b.index()])
    }

    /// One-way propagation delay (half the RTT).
    #[expect(clippy::indexing_slicing, reason = "`Region::index()` is `0..N_REGIONS` by construction, matching the matrix dimensions")]
    pub fn one_way(&self, a: Region, b: Region) -> SimTime {
        SimTime::from_micros(self.rtt_ms[a.index()][b.index()] * 1000 / 2)
    }

    /// Builds a node-indexed one-way delay function for
    /// [`crate::LatencyModel::from_fn`], given each node's region.
    #[expect(clippy::indexing_slicing, reason = "a node index outside the placement table is harness misuse and must fail the simulation loudly")]
    pub fn delay_fn(
        &self,
        placement: Vec<Region>,
    ) -> impl Fn(usize, usize) -> SimTime + Send + 'static {
        let matrix = self.clone();
        move |from, to| {
            let a = placement[from];
            let b = placement[to];
            matrix.one_way(a, b)
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn matrix_is_symmetric() {
        let m = RegionMatrix::aws();
        for &a in &Region::ALL {
            for &b in &Region::ALL {
                assert_eq!(m.rtt(a, b), m.rtt(b, a), "{a} vs {b}");
            }
        }
    }

    #[test]
    fn diagonal_is_fast() {
        let m = RegionMatrix::aws();
        for &r in &Region::ALL {
            assert!(m.rtt(r, r) <= SimTime::from_millis(2));
        }
    }

    #[test]
    fn triangle_sanity_for_paper_quorums() {
        // Virginia must be closer to Oregon than São Paulo is: this is
        // what makes WHEAT's weighted quorum (Oregon+Virginia) faster.
        let m = RegionMatrix::aws();
        assert!(
            m.rtt(Region::Oregon, Region::Virginia) < m.rtt(Region::Oregon, Region::SaoPaulo)
        );
        assert!(m.rtt(Region::Virginia, Region::Canada) < m.rtt(Region::SaoPaulo, Region::Canada));
    }

    #[test]
    fn delay_fn_maps_nodes_to_regions() {
        let m = RegionMatrix::aws();
        let f = m.delay_fn(vec![Region::Oregon, Region::Sydney]);
        assert_eq!(f(0, 1), m.one_way(Region::Oregon, Region::Sydney));
        assert_eq!(f(1, 0), f(0, 1));
    }

    #[test]
    fn names_are_paper_labels() {
        assert_eq!(Region::SaoPaulo.name(), "Sao Paulo");
        assert_eq!(format!("{}", Region::Oregon), "Oregon");
    }
}
