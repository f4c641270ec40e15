//! Method ITG/S: Algorithm 1 + the synchronous check of Algorithm 2.
//!
//! Every relaxation of the Dijkstra-style expansion projects the arrival time
//! `t + dist / velocity` at the door being relaxed and looks the door's ATIs
//! up **synchronously** — no auxiliary structure is maintained, so ITG/S has
//! zero per-query state beyond the search itself and is the reference answer
//! the other method (and this repo's concurrent front-end) is checked
//! against.
//!
//! The engine holds its graph as an `Arc<ItGraph>`; constructing one from a
//! plain [`ItGraph`] wraps it on the fly, while constructing many engines
//! from one [`ItGraph::shared`] handle shares a single venue allocation.
//!
//! # Example
//!
//! The paper's Example 1: at 9:00 the (p3, d15, d16, p4) shortcut is rejected
//! (v15 is private) and the 12 m path through d18 wins; at 23:30 d18 is
//! closed and no valid route remains.
//!
//! ```
//! use indoor_space::paper_example;
//! use indoor_time::TimeOfDay;
//! use itspq_core::{ItGraph, ItspqConfig, Query, SynEngine};
//!
//! let ex = paper_example::build();
//! let engine = SynEngine::new(ItGraph::new(ex.space.clone()), ItspqConfig::default());
//!
//! let morning = engine.query(&Query::new(ex.p3, ex.p4, TimeOfDay::hm(9, 0)));
//! assert!((morning.path.expect("feasible at 9:00").length - 12.0).abs() < 1e-9);
//!
//! let night = engine.query(&Query::new(ex.p3, ex.p4, TimeOfDay::hm(23, 30)));
//! assert!(night.path.is_none());
//! ```

use std::sync::Arc;

use indoor_space::{DoorId, IndoorPoint, IndoorSpace, PartitionId};
use indoor_time::{TimeOfDay, Timestamp, Velocity};

use crate::framework::{run_search_targets, SweepObserver, TvChecker};
use crate::{ItGraph, ItspqConfig, Path, Query, QueryError, QueryResult, SearchStats};

/// `Syn_Check` (Algorithm 2): look up the door's ATIs at the arrival time
/// `t + dist / velocity`. Shared with [`crate::one_to_many`], whose sweeps
/// run ITG/S semantics.
pub(crate) struct SynChecker<'a> {
    pub(crate) space: &'a IndoorSpace,
    pub(crate) velocity: Velocity,
    pub(crate) t0: Timestamp,
}

impl TvChecker for SynChecker<'_> {
    fn leaveable(&self, v: PartitionId) -> &[DoorId] {
        self.space.p2d_leaveable(v)
    }

    fn check(&mut self, d: DoorId, dist: f64, _stats: &mut SearchStats) -> bool {
        let tarr = self.t0 + self.velocity.travel_time(dist);
        self.space.door(d).atis.is_open_at(tarr)
    }

    fn account(&self, _stats: &mut SearchStats) {}
}

/// The ITG/S query engine: every encountered door is validated against its
/// ATIs at the projected arrival time.
///
/// Holds the venue as `Arc<ItGraph>`: cloning the engine, or constructing
/// several engines from one [`ItGraph::shared`] handle, shares a single
/// immutable graph.
#[derive(Debug, Clone)]
pub struct SynEngine {
    graph: Arc<ItGraph>,
    config: ItspqConfig,
}

impl SynEngine {
    /// Creates the engine over a graph. Accepts an `Arc<ItGraph>` (shared
    /// with other engines) or a plain [`ItGraph`] (wrapped on the fly).
    #[must_use]
    pub fn new(graph: impl Into<Arc<ItGraph>>, config: ItspqConfig) -> Self {
        SynEngine {
            graph: graph.into(),
            config,
        }
    }

    /// The engine's graph.
    #[must_use]
    pub fn graph(&self) -> &ItGraph {
        &self.graph
    }

    /// A shareable handle to the engine's graph.
    #[must_use]
    pub fn graph_arc(&self) -> Arc<ItGraph> {
        Arc::clone(&self.graph)
    }

    /// The engine's configuration.
    #[must_use]
    pub fn config(&self) -> &ItspqConfig {
        &self.config
    }

    /// Answers `ITSPQ(ps, pt, t)`.
    #[must_use]
    pub fn query(&self, query: &Query) -> QueryResult {
        let (mut paths, stats) = self.query_targets(
            &query.source,
            query.time,
            &[query.target],
            &mut SweepObserver::off(),
        );
        let path = paths.pop().flatten();
        QueryResult { path, stats }
    }

    /// Answers `ITSPQ(ps, pt, t)` after validating the query.
    ///
    /// # Errors
    /// [`QueryError`] if an endpoint has non-finite coordinates or names a
    /// partition the venue does not have; the search itself never runs.
    pub fn try_query(&self, query: &Query) -> Result<QueryResult, QueryError> {
        query.validate(self.graph.space())?;
        Ok(self.query(query))
    }

    /// Answers `targets` from one source with one search frontier; every
    /// search of this engine runs here, [`query`] with a single target.
    /// With two or more targets, callers uphold the sharing preconditions of
    /// [`run_search_targets`] (FullRelax config, traversable-or-source target
    /// partitions), and each answer is then byte-identical to its own
    /// [`query`] call.
    ///
    /// [`query`]: SynEngine::query
    pub(crate) fn query_targets(
        &self,
        source: &IndoorPoint,
        time: TimeOfDay,
        targets: &[IndoorPoint],
        observer: &mut SweepObserver,
    ) -> (Vec<Option<Path>>, SearchStats) {
        let mut checker = SynChecker {
            space: self.graph.space(),
            velocity: self.config.velocity,
            t0: Timestamp::from_time_of_day(time),
        };
        run_search_targets(
            &self.graph,
            source,
            time,
            targets,
            &self.config,
            &mut checker,
            observer,
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use indoor_space::paper_example;
    use indoor_time::TimeOfDay;

    fn engine() -> (paper_example::PaperExample, SynEngine) {
        let ex = paper_example::build();
        let graph = ItGraph::new(ex.space.clone());
        (ex, SynEngine::new(graph, ItspqConfig::default()))
    }

    #[test]
    fn example1_at_9_takes_d18() {
        let (ex, eng) = engine();
        let res = eng.query(&Query::new(ex.p3, ex.p4, TimeOfDay::hm(9, 0)));
        let path = res.path.expect("path exists at 9:00");
        assert_eq!(path.doors().collect::<Vec<_>>(), vec![ex.d(18)]);
        assert!((path.length - 12.0).abs() < 1e-9);
        assert_eq!(path.format_with(&ex.space), "(ps, d18, pt)");
        assert!(res.stats.doors_settled > 0);
    }

    #[test]
    fn example1_at_2330_has_no_route() {
        let (ex, eng) = engine();
        let res = eng.query(&Query::new(ex.p3, ex.p4, TimeOfDay::hm(23, 30)));
        assert!(res.path.is_none());
        assert!(res.stats.tv_rejections > 0);
    }

    #[test]
    fn private_shortcut_would_win_if_public() {
        // Sanity for the test fixture: the rejected v15 route is shorter.
        let (ex, _) = engine();
        let s = &ex.space;
        let via_v15 = s.point_to_door(&ex.p3, ex.d(15)).unwrap()
            + s.door_to_door(ex.v(15), ex.d(15), ex.d(16)).unwrap()
            + s.point_to_door(&ex.p4, ex.d(16)).unwrap();
        assert!(via_v15 < 12.0);
    }

    #[test]
    fn same_partition_query_is_direct() {
        let (ex, eng) = engine();
        let other =
            indoor_space::IndoorPoint::new(ex.p3.partition, indoor_geom::Point::new(3.0, 4.0));
        let res = eng.query(&Query::new(ex.p3, other, TimeOfDay::hm(3, 0)));
        let path = res.path.unwrap();
        assert!(path.hops.is_empty());
        assert!((path.length - 5.0).abs() < 1e-12);
        // Direct paths cross no door, so they work even at night.
    }

    #[test]
    fn source_in_private_partition_can_leave() {
        // p in v15 (private) must still route out: rule 2 excepts P(ps).
        let (ex, eng) = engine();
        let src = indoor_space::IndoorPoint::new(ex.v(15), indoor_geom::Point::new(5.0, 0.0));
        let res = eng.query(&Query::new(src, ex.p4, TimeOfDay::hm(12, 0)));
        let path = res.path.expect("can leave a private source partition");
        assert_eq!(path.doors().next(), Some(ex.d(16)));
    }

    #[test]
    fn target_in_private_partition_can_be_reached() {
        let (ex, eng) = engine();
        let dst = indoor_space::IndoorPoint::new(ex.v(15), indoor_geom::Point::new(5.0, 0.0));
        let res = eng.query(&Query::new(ex.p3, dst, TimeOfDay::hm(12, 0)));
        let path = res.path.expect("can enter a private target partition");
        let doors: Vec<_> = path.doors().collect();
        assert_eq!(doors.last(), Some(&ex.d(15)).or(Some(&ex.d(16))));
    }

    #[test]
    fn no_route_to_isolated_private_room_after_hours() {
        // v1's only door d1 is open [5:00, 23:00); at 4:00 it cannot be
        // reached …
        let (ex, eng) = engine();
        let dst = indoor_space::IndoorPoint::new(ex.v(1), indoor_geom::Point::new(5.0, 35.0));
        let src = indoor_space::IndoorPoint::new(ex.v(3), indoor_geom::Point::new(8.0, 31.0));
        let res = eng.query(&Query::new(src, dst, TimeOfDay::hm(4, 0)));
        assert!(res.path.is_none());
        // … but at noon it can.
        let res = eng.query(&Query::new(src, dst, TimeOfDay::hm(12, 0)));
        assert!(res.path.is_some());
    }

    #[test]
    fn stats_are_populated() {
        let (ex, eng) = engine();
        let res = eng.query(&Query::new(ex.p1, ex.p2, TimeOfDay::hm(12, 0)));
        assert!(res.path.is_some());
        let s = res.stats;
        assert!(s.heap_pushes > 0);
        assert!(s.heap_pops > 0);
        assert!(0 < s.peak_heap && s.peak_heap <= s.heap_pushes);
        assert!(s.tv_checks >= s.tv_rejections);
        assert!(s.search_bytes > 0);
        assert_eq!(s.graph_updates, 0); // ITG/S never updates graphs
        assert_eq!(s.reduced_graph_bytes, 0);
    }
}
