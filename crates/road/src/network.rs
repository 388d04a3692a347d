//! The road network `G_r` (Definition 1): intersections with coordinates,
//! road segments as weighted edges.

use gpssn_graph::{CsrGraph, EdgeId, NodeId, GRID_EXACT_LIMIT};
use gpssn_spatial::Point;

/// A spatial road network: a weighted undirected graph whose vertices
/// carry 2-D coordinates. Edge weights are road lengths.
#[derive(Debug, Clone)]
pub struct RoadNetwork {
    graph: CsrGraph,
    locations: Vec<Point>,
}

impl RoadNetwork {
    /// Exclusive bound on the total road length: half of
    /// [`GRID_EXACT_LIMIT`]. Every distance the engine computes — a path
    /// plus at most one more path or edge — then stays below the limit,
    /// so it is an exact sum of grid values whichever way it is summed.
    pub const MAX_TOTAL_LENGTH: f64 = GRID_EXACT_LIMIT / 2.0;

    /// Builds a road network where each edge's length is the Euclidean
    /// distance between its endpoints (the usual model for road segments).
    pub fn from_euclidean_edges(locations: Vec<Point>, edges: &[(NodeId, NodeId)]) -> Self {
        let weighted: Vec<(NodeId, NodeId, f64)> = edges
            .iter()
            .map(|&(u, v)| {
                let w = locations[u as usize].distance(&locations[v as usize]);
                (u, v, w)
            })
            .collect();
        Self::from_weighted_edges(locations, &weighted)
    }

    /// Builds a road network with explicit edge lengths (lengths must be
    /// at least the Euclidean endpoint distance for the Euclidean-prefilter
    /// optimizations to stay exact; this is asserted in debug builds).
    /// Lengths are rounded up onto the weight grid by [`CsrGraph`].
    ///
    /// # Panics
    ///
    /// Panics on an invalid edge (see [`CsrGraph::from_edges`]) and when
    /// the total length is not below [`RoadNetwork::MAX_TOTAL_LENGTH`]:
    /// beyond it, path sums are no longer exact.
    pub fn from_weighted_edges(locations: Vec<Point>, edges: &[(NodeId, NodeId, f64)]) -> Self {
        #[cfg(debug_assertions)]
        for &(u, v, w) in edges {
            let euclid = locations[u as usize].distance(&locations[v as usize]);
            debug_assert!(
                w + 1e-9 >= euclid,
                "edge ({u},{v}) shorter ({w}) than Euclidean distance ({euclid})"
            );
        }
        let graph = CsrGraph::from_edges(locations.len(), edges);
        assert!(
            graph.total_weight() < Self::MAX_TOTAL_LENGTH,
            "total road length {} exceeds the exact range of the weight grid ({})",
            graph.total_weight(),
            Self::MAX_TOTAL_LENGTH
        );
        RoadNetwork { graph, locations }
    }

    /// Underlying graph.
    #[inline]
    pub fn graph(&self) -> &CsrGraph {
        &self.graph
    }

    /// Coordinates of vertex `v`.
    #[inline]
    pub fn location(&self, v: NodeId) -> Point {
        self.locations[v as usize]
    }

    /// All vertex coordinates.
    #[inline]
    pub fn locations(&self) -> &[Point] {
        &self.locations
    }

    /// Number of intersections `|V(G_r)|`.
    #[inline]
    pub fn num_vertices(&self) -> usize {
        self.graph.num_nodes()
    }

    /// Number of road segments `|E(G_r)|`.
    #[inline]
    pub fn num_edges(&self) -> usize {
        self.graph.num_edges()
    }

    /// Endpoints and length of road segment `e`.
    #[inline]
    pub fn edge(&self, e: EdgeId) -> (NodeId, NodeId, f64) {
        self.graph.edge(e)
    }

    /// Length of road segment `e`.
    #[inline]
    pub fn edge_length(&self, e: EdgeId) -> f64 {
        self.graph.edge(e).2
    }

    /// Average intersection degree (Table 2's `deg(G_r)`).
    pub fn average_degree(&self) -> f64 {
        self.graph.average_degree()
    }

    /// Total road length.
    pub fn total_length(&self) -> f64 {
        self.graph.total_weight()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    pub(crate) fn square_network() -> RoadNetwork {
        // Unit square: 0-(0,0), 1-(1,0), 2-(1,1), 3-(0,1), ring edges.
        let locs = vec![
            Point::new(0.0, 0.0),
            Point::new(1.0, 0.0),
            Point::new(1.0, 1.0),
            Point::new(0.0, 1.0),
        ];
        RoadNetwork::from_euclidean_edges(locs, &[(0, 1), (1, 2), (2, 3), (3, 0)])
    }

    #[test]
    fn euclidean_lengths() {
        let net = square_network();
        assert_eq!(net.num_vertices(), 4);
        assert_eq!(net.num_edges(), 4);
        for e in 0..4 {
            assert!((net.edge_length(e) - 1.0).abs() < 1e-12);
        }
        assert_eq!(net.total_length(), 4.0);
        assert_eq!(net.average_degree(), 2.0);
    }

    #[test]
    fn explicit_lengths_allowed_when_at_least_euclidean() {
        let locs = vec![Point::new(0.0, 0.0), Point::new(3.0, 4.0)];
        let net = RoadNetwork::from_weighted_edges(locs, &[(0, 1, 7.5)]);
        assert_eq!(net.edge_length(0), 7.5);
    }

    #[test]
    #[cfg(debug_assertions)]
    #[should_panic(expected = "shorter")]
    fn rejects_sub_euclidean_lengths() {
        let locs = vec![Point::new(0.0, 0.0), Point::new(3.0, 4.0)];
        RoadNetwork::from_weighted_edges(locs, &[(0, 1, 4.9)]);
    }

    #[test]
    #[should_panic(expected = "exact range")]
    fn rejects_networks_too_long_for_the_grid() {
        let locs = vec![Point::new(0.0, 0.0), Point::new(1.0, 0.0)];
        RoadNetwork::from_weighted_edges(locs, &[(0, 1, RoadNetwork::MAX_TOTAL_LENGTH)]);
    }

    #[test]
    fn accepts_networks_just_inside_the_grid_range() {
        let locs = vec![Point::new(0.0, 0.0), Point::new(1.0, 0.0)];
        let len = RoadNetwork::MAX_TOTAL_LENGTH - 1.0;
        let net = RoadNetwork::from_weighted_edges(locs, &[(0, 1, len)]);
        assert_eq!(net.total_length(), len);
    }

    #[test]
    fn location_accessors() {
        let net = square_network();
        assert_eq!(net.location(2), Point::new(1.0, 1.0));
        assert_eq!(net.locations().len(), 4);
    }
}
