//! Method ITG/A: Algorithm 1 + the asynchronous check of Algorithm 4 over the
//! reduced time-dependent graphs of Algorithm 3.
//!
//! ITG/A trades the per-relaxation ATI lookups of ITG/S for **reduced
//! IT-Graphs**: per checkpoint interval, a view of the topology with every
//! closed door deleted, so within an interval a door's usability is a
//! constant-time bitset probe. A venue has a fixed number of checkpoint
//! intervals, so the engine keeps one view slot per interval in a plain
//! array indexed by interval: each slot is built at most once, by the first
//! query (on any thread) that reaches its interval, and is only read after
//! that — no map, no lock on the hit path, no refcount traffic. This is the
//! shared structure a [`crate::server::VenueServer`] amortises across worker
//! threads.
//!
//! The engine holds its graph as an `Arc<ItGraph>` and is `Sync`: one
//! instance can answer queries from many threads concurrently.
//!
//! # Example
//!
//! The paper's Example 1 through ITG/A: same answers as ITG/S, plus a built
//! reduced view after the first query.
//!
//! ```
//! use indoor_space::paper_example;
//! use indoor_time::TimeOfDay;
//! use itspq_core::{AsynEngine, ItGraph, ItspqConfig, Query};
//!
//! let ex = paper_example::build();
//! let engine = AsynEngine::new(ItGraph::new(ex.space.clone()), ItspqConfig::default());
//!
//! let morning = engine.query(&Query::new(ex.p3, ex.p4, TimeOfDay::hm(9, 0)));
//! assert!((morning.path.expect("feasible at 9:00").length - 12.0).abs() < 1e-9);
//! assert!(engine.cached_views() >= 1); // Graph_Update ran and its view is kept
//!
//! let night = engine.query(&Query::new(ex.p3, ex.p4, TimeOfDay::hm(23, 30)));
//! assert!(night.path.is_none());
//! ```

use std::sync::{Arc, OnceLock};

use indoor_space::{DoorId, IndoorPoint, PartitionId};
use indoor_time::{TimeOfDay, Timestamp, Velocity};

use crate::framework::{run_search_targets, SweepObserver, TvChecker};
use crate::{
    AsynMode, ItGraph, ItspqConfig, Path, Query, QueryError, QueryResult, ReducedGraph, SearchStats,
};

/// The ITG/A query engine.
///
/// The search runs on the reduced IT-Graph of the checkpoint interval
/// containing the query time; closed doors are pruned before expansion.
/// Whenever a relaxation's arrival time crosses the next checkpoint,
/// `Asyn_Check` refreshes the reduced graph via `Graph_Update` (Algorithm 3)
/// and — in the paper's [`AsynMode::Faithful`] — rejects that relaxation.
///
/// Reduced graphs are kept per checkpoint interval for the engine's lifetime
/// (the asynchronous maintenance an online deployment would perform once per
/// checkpoint): one slot per interval, sized when the engine is built,
/// filled on first use or by [`AsynEngine::precompute_all`].
pub struct AsynEngine {
    graph: Arc<ItGraph>,
    config: ItspqConfig,
    /// One lazily built view per checkpoint interval, indexed by
    /// `CheckpointSet::interval_index`.
    views: Box<[OnceLock<ReducedGraph>]>,
}

impl AsynEngine {
    /// Creates the engine over a graph. Accepts an `Arc<ItGraph>` (shared
    /// with other engines) or a plain [`ItGraph`] (wrapped on the fly).
    #[must_use]
    pub fn new(graph: impl Into<Arc<ItGraph>>, config: ItspqConfig) -> Self {
        let graph = graph.into();
        let views = (0..graph.space().checkpoints().len())
            .map(|_| OnceLock::new())
            .collect();
        AsynEngine {
            graph,
            config,
            views,
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

    /// Number of reduced graphs built so far (at most one per checkpoint
    /// interval).
    #[must_use]
    pub fn cached_views(&self) -> usize {
        self.views.iter().filter(|s| s.get().is_some()).count()
    }

    /// Total heap bytes of the reduced graphs built so far.
    #[must_use]
    pub fn cache_bytes(&self) -> usize {
        self.views
            .iter()
            .filter_map(OnceLock::get)
            .map(ReducedGraph::heap_bytes)
            .sum()
    }

    /// Precomputes the reduced graph of every checkpoint interval (warm
    /// start for an online deployment).
    pub fn precompute_all(&self) {
        let mut stats = SearchStats::default();
        for &t in self.graph.space().checkpoints().times() {
            let _ = self.view_for(t, &mut stats);
        }
    }

    /// `Graph_Update(t, T)`, built once per engine: the reduced view for the
    /// checkpoint interval containing clock time `t`.
    ///
    /// Under concurrent first use, [`OnceLock::get_or_init`] lets exactly one
    /// thread run `ReducedGraph::build`; racers block on that slot only.
    /// `stats.views_built` counts only actual constructions.
    fn view_for(&self, t: TimeOfDay, stats: &mut SearchStats) -> &ReducedGraph {
        let space = self.graph.space();
        let mut built_here = false;
        let view = self.views[space.checkpoints().interval_index(t)].get_or_init(|| {
            built_here = true;
            ReducedGraph::build(space, t)
        });
        stats.views_built += usize::from(built_here);
        view
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
    /// With two or more targets the checker (including a `Faithful` cursor)
    /// evolves through the same door-relaxation sequence as each per-target
    /// [`query`], so answers are byte-identical when callers uphold the
    /// sharing preconditions of [`run_search_targets`] (FullRelax config,
    /// traversable-or-source target partitions).
    ///
    /// [`query`]: AsynEngine::query
    pub(crate) fn query_targets(
        &self,
        source: &IndoorPoint,
        time: TimeOfDay,
        targets: &[IndoorPoint],
        observer: &mut SweepObserver,
    ) -> (Vec<Option<Path>>, SearchStats) {
        let mut stats0 = SearchStats::default();
        let mut checker = AsynChecker::new(self, time, &mut stats0);
        let (paths, mut stats) = run_search_targets(
            &self.graph,
            source,
            time,
            targets,
            &self.config,
            &mut checker,
            observer,
        );
        stats.views_built += stats0.views_built;
        (paths, stats)
    }
}

impl std::fmt::Debug for AsynEngine {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("AsynEngine")
            .field("cached_views", &self.cached_views())
            .field("config", &self.config)
            .finish_non_exhaustive()
    }
}

/// `Asyn_Check` (Algorithm 4) plus the reduced topology view.
///
/// `Faithful` follows the paper to the letter: one global current graph,
/// advanced by `Graph_Update` whenever a relaxation's arrival crosses the
/// next checkpoint (that relaxation is dropped). Because Dijkstra relaxes in
/// settle order, not arrival order, a far relaxation can advance the cursor
/// and later, *nearer* relaxations are then judged against the wrong interval
/// — the paper's algorithm can accept a door that is closed at the actual
/// arrival time (see the `arrive_too_early` integration tests). `Exact`
/// instead resolves every relaxation against the reduced graph of its own
/// arrival interval (the engine's view for that interval), which is
/// equivalent to `Syn_Check` door-by-door and therefore always matches ITG/S.
struct AsynChecker<'a> {
    engine: &'a AsynEngine,
    velocity: Velocity,
    t0: Timestamp,
    current: &'a ReducedGraph,
    /// Timeline instant at which the current view expires.
    next_instant: Timestamp,
    /// Accumulated bytes of every distinct view consulted by this query.
    view_bytes: usize,
    /// Interval indices already accounted in `view_bytes`.
    seen_intervals: Vec<usize>,
    mode: AsynMode,
}

impl<'a> AsynChecker<'a> {
    /// A checker for a search departing at `time`, positioned on that
    /// interval's view; building the view (if this is its first use) is
    /// counted in `stats`.
    fn new(engine: &'a AsynEngine, time: TimeOfDay, stats: &mut SearchStats) -> Self {
        let t0 = Timestamp::from_time_of_day(time);
        let current = engine.view_for(time, stats);
        AsynChecker {
            engine,
            velocity: engine.config.velocity,
            t0,
            current,
            next_instant: engine.graph.space().checkpoints().next_instant(t0),
            view_bytes: current.heap_bytes(),
            seen_intervals: vec![current.interval_index()],
            mode: engine.config.asyn_mode,
        }
    }

    fn account_view(&mut self, view: &ReducedGraph) {
        if !self.seen_intervals.contains(&view.interval_index()) {
            self.seen_intervals.push(view.interval_index());
            self.view_bytes += view.heap_bytes();
        }
    }
}

impl TvChecker for AsynChecker<'_> {
    fn leaveable(&self, v: PartitionId) -> &[DoorId] {
        match self.mode {
            // The paper iterates the reduced P2D of the current graph.
            AsynMode::Faithful => self.current.leaveable(v),
            // Exact mode must not under-prune doors whose arrival interval
            // differs from the cursor's; it iterates the full topology and
            // lets `check` consult the right interval.
            AsynMode::Exact => self.engine.graph.space().p2d_leaveable(v),
        }
    }

    fn check(&mut self, d: DoorId, dist: f64, stats: &mut SearchStats) -> bool {
        let tarr = self.t0 + self.velocity.travel_time(dist);
        match self.mode {
            AsynMode::Faithful => {
                if tarr < self.next_instant {
                    // Within the current interval the door is open by
                    // construction (closed doors are absent from the reduced
                    // P2D lists). Arrivals *before* the interval — possible
                    // after a premature update — are accepted too, exactly as
                    // the paper's Algorithm 4 does.
                    return true;
                }
                // Crossing: Graph_Update(tarr, T), then return false.
                let view = self.engine.view_for(tarr.time_of_day(), stats);
                self.next_instant = self.engine.graph.space().checkpoints().next_instant(tarr);
                self.account_view(view);
                self.current = view;
                stats.graph_updates += 1;
                false
            }
            AsynMode::Exact => {
                // Constant-time bitset lookup in the arrival interval's view.
                let view = self.engine.view_for(tarr.time_of_day(), stats);
                self.account_view(view);
                if view.interval_index() != self.current.interval_index() {
                    stats.graph_updates += 1;
                    self.current = view;
                }
                self.current.is_open(d)
            }
        }
    }

    fn account(&self, stats: &mut SearchStats) {
        stats.reduced_graph_bytes = self.view_bytes;
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use indoor_space::paper_example;
    use indoor_time::TimeOfDay;

    fn engine(config: ItspqConfig) -> (paper_example::PaperExample, AsynEngine) {
        let ex = paper_example::build();
        let graph = ItGraph::new(ex.space.clone());
        (ex, AsynEngine::new(graph, config))
    }

    #[test]
    fn example1_matches_itg_s() {
        let (ex, eng) = engine(ItspqConfig::default());
        let res = eng.query(&Query::new(ex.p3, ex.p4, TimeOfDay::hm(9, 0)));
        let path = res.path.expect("path exists at 9:00");
        assert_eq!(path.doors().collect::<Vec<_>>(), vec![ex.d(18)]);
        assert!((path.length - 12.0).abs() < 1e-9);

        let res = eng.query(&Query::new(ex.p3, ex.p4, TimeOfDay::hm(23, 30)));
        assert!(res.path.is_none());
    }

    #[test]
    fn caches_views_across_queries() {
        let (ex, eng) = engine(ItspqConfig::default());
        assert_eq!(eng.cached_views(), 0);
        let _ = eng.query(&Query::new(ex.p1, ex.p2, TimeOfDay::hm(12, 0)));
        let first = eng.cached_views();
        assert!(first >= 1);
        // Re-running the same query builds nothing new.
        let res = eng.query(&Query::new(ex.p1, ex.p2, TimeOfDay::hm(12, 0)));
        assert_eq!(eng.cached_views(), first);
        assert_eq!(res.stats.views_built, 0);
        assert!(eng.cache_bytes() > 0);
    }

    #[test]
    fn precompute_builds_every_interval() {
        let (ex, eng) = engine(ItspqConfig::default());
        eng.precompute_all();
        assert_eq!(eng.cached_views(), ex.space.checkpoints().len());
    }

    #[test]
    fn reduced_graph_bytes_accounted() {
        let (ex, eng) = engine(ItspqConfig::default());
        let res = eng.query(&Query::new(ex.p1, ex.p2, TimeOfDay::hm(12, 0)));
        assert!(res.stats.reduced_graph_bytes > 0);
        assert!(res.stats.estimated_bytes() > res.stats.search_bytes);
    }

    #[test]
    fn exact_mode_agrees_with_syn_on_checkpoint_crossing() {
        // A query whose walk crosses the 16:00 checkpoint: start at 15:59
        // from p1; several [8:00,16:00) doors will close mid-walk.
        let ex = paper_example::build();
        let graph = ItGraph::new(ex.space.clone());
        let syn = crate::SynEngine::new(graph.clone(), ItspqConfig::default());
        let asyn_exact = AsynEngine::new(
            graph,
            ItspqConfig::default().with_asyn_mode(AsynMode::Exact),
        );
        for (h, m) in [(15, 55), (15, 59), (22, 58), (5, 58)] {
            let q = Query::new(ex.p1, ex.p2, TimeOfDay::hm(h, m));
            let a = syn.query(&q);
            let b = asyn_exact.query(&q);
            assert_eq!(
                a.path.as_ref().map(|p| p.doors().collect::<Vec<_>>()),
                b.path.as_ref().map(|p| p.doors().collect::<Vec<_>>()),
                "ITG/S and ITG/A(Exact) disagree at {h}:{m}"
            );
        }
    }

    #[test]
    fn faithful_mode_reports_graph_updates() {
        let (ex, eng) = engine(ItspqConfig::default());
        // Starting 10 s before the 16:00 checkpoint: at 5 km/h only ~14 m fit
        // into the current interval, so relaxations beyond that refresh the
        // reduced graph.
        let res = eng.query(&Query::new(ex.p1, ex.p2, TimeOfDay::hms(15, 59, 50)));
        assert!(res.stats.graph_updates > 0);
    }
}
