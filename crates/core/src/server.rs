//! The concurrent batched query front-end: one venue, many workers.
//!
//! A [`VenueServer`] owns a single `Arc<ItGraph>` and answers
//! [`Query`] batches on a configurable number of worker threads
//! ([`ServerConfig::workers`]) via [`VenueServer::query_batch`]. Workers are
//! plain [`std::thread::scope`] threads pulling query indices off an atomic
//! counter (dynamic load balancing — an expensive query does not stall the
//! rest of its chunk), and answers come back in input order.
//!
//! What makes this safe and fast is the ownership model of the rest of the
//! crate: the IT-Graph is immutable and `Arc`-shared, so workers borrow it
//! freely, and ITG/A's reduced views sit in a fixed array with one slot per
//! checkpoint interval — read without locks, written only by the first
//! query to reach an interval. Each interval's view is built exactly once
//! per server, never per worker (see `AsynEngine::view_for`). Call
//! [`VenueServer::warm`] to precompute every interval before opening the
//! floodgates.
//!
//! By default the server answers with ITG/A in [`AsynMode::Exact`], which is
//! answer-for-answer identical to ITG/S while sharing the cached reduced
//! graphs across queries; [`ServeMethod::Syn`] switches to pure ITG/S.
//!
//! # Example
//!
//! The paper's Example 1 served as a batch:
//!
//! ```
//! use indoor_space::paper_example;
//! use indoor_time::TimeOfDay;
//! use itspq_core::server::VenueServer;
//! use itspq_core::{ItGraph, Query};
//!
//! let ex = paper_example::build();
//! let server = VenueServer::new(ItGraph::shared(ex.space.clone())).with_workers(2);
//!
//! let batch = vec![
//!     Query::new(ex.p3, ex.p4, TimeOfDay::hm(9, 0)),   // 12 m via d18
//!     Query::new(ex.p3, ex.p4, TimeOfDay::hm(23, 30)), // no such routes
//! ];
//! let answers = server.query_batch(&batch);
//! assert!((answers[0].path.as_ref().unwrap().length - 12.0).abs() < 1e-9);
//! assert!(answers[1].path.is_none());
//! ```

use std::collections::BTreeMap;
use std::ops::Range;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Arc;

use indoor_space::{IndoorPoint, PartitionId};
use parking_lot::Mutex;

use crate::framework::{direct_path, SweepObserver, Trace};
use crate::replay::{replay_member, LeadIndex, ReplayScratch};
use crate::{
    AsynEngine, AsynMode, BatchStats, DoorHop, ExpandPolicy, GroupKey, ItGraph, ItspqConfig, Path,
    Query, QueryError, QueryResult, SearchStats, SynEngine,
};

/// Rounding slack subtracted from the interval-coalescing margin: a member's
/// departure shift must clear the lead's smallest checkpoint margin by this
/// much before its arrivals are certified to stay in the same intervals.
/// Timeline values are ≤ ~10⁶ s, where an f64 ulp is ~10⁻¹⁰ s — a microsecond
/// of slack is astronomically conservative and costs no real coalescing.
const RETIME_SLACK_SECS: f64 = 1e-6;

/// Which engine answers the server's queries.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ServeMethod {
    /// ITG/S: synchronous ATI checks, no shared state at all.
    Syn,
    /// ITG/A: asynchronous checks over the shared reduced-graph cache.
    Asyn,
}

/// How [`VenueServer::query_batch`] executes a batch.
///
/// The two sharing levels are nested: every group the `Shared` planner
/// forms is also formed (possibly merged further) by `SharedInterval`. Both
/// answer byte-identically to `Independent` — the interval key admits
/// members whose answers are *derived* from the group search (replayed or
/// retimed) only when a per-member certificate proves the derivation exact;
/// uncertifiable members fall back to their own per-query search (see
/// `ARCHITECTURE.md` §Shared execution).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum BatchStrategy {
    /// One search per query, exactly as submitted.
    Independent,
    /// Group queries by [`GroupKey`] (identical source point and departure
    /// time) and answer each ≥ 2-member group with a single shared search
    /// frontier; singleton groups and shared-ineligible queries fall back to
    /// per-query execution. Sharing only happens where the search is provably
    /// target-independent.
    Shared,
    /// Interval coalescing: group queries that leave the same source
    /// partition — from any point — with departures in the same
    /// [`indoor_time::CheckpointSet`] interval. The earliest departure leads
    /// and records its decision trace; same-point later departures are
    /// retimed under a margin certificate, and members at other points are
    /// recomputed by replaying the trace against their own source legs (see
    /// `replay.rs`).
    SharedInterval,
}

/// Tunables of a [`VenueServer`].
#[derive(Debug, Clone, Copy)]
pub struct ServerConfig {
    /// Worker threads used by [`VenueServer::query_batch`] (at least 1).
    /// Clamped to the host's available parallelism at execution time unless
    /// [`ServerConfig::pin_workers`] is set — see
    /// [`ServerConfig::effective_workers`].
    pub workers: usize,
    /// Use exactly [`ServerConfig::workers`] threads even past the host's
    /// available parallelism. Off by default: oversubscribing cores buys
    /// only scheduler churn (answers never depend on the worker count).
    /// Benches that sweep worker counts set this to measure the
    /// oversubscribed configurations they report.
    pub pin_workers: bool,
    /// Which engine answers queries.
    pub method: ServeMethod,
    /// How batches are executed.
    pub strategy: BatchStrategy,
    /// Engine configuration shared by both methods.
    pub itspq: ItspqConfig,
}

impl ServerConfig {
    /// Worker threads a batch will actually spawn: `workers` (at least 1)
    /// clamped to the host's available parallelism, unless
    /// [`ServerConfig::pin_workers`] demands the literal count.
    #[must_use]
    pub fn effective_workers(&self) -> usize {
        let w = self.workers.max(1);
        if self.pin_workers {
            w
        } else {
            w.min(host_parallelism())
        }
    }
}

impl Default for ServerConfig {
    /// Workers follow the machine (capped at 8); the method is ITG/A in
    /// [`AsynMode::Exact`] — identical answers to ITG/S, but sharing the
    /// reduced-graph cache across queries and workers. The strategy is
    /// [`BatchStrategy::Shared`]: inert under the default `PaperPruned`
    /// expansion (sharing requires `FullRelax`), free speedup otherwise.
    fn default() -> Self {
        ServerConfig {
            workers: default_workers(),
            pin_workers: false,
            method: ServeMethod::Asyn,
            strategy: BatchStrategy::Shared,
            itspq: ItspqConfig::default().with_asyn_mode(AsynMode::Exact),
        }
    }
}

/// Worker count when none is configured: the machine's available
/// parallelism, capped at 8.
#[must_use]
pub fn default_workers() -> usize {
    std::thread::available_parallelism().map_or(1, |n| n.get().min(8))
}

/// The host's available parallelism (1 when it cannot be determined).
#[must_use]
pub fn host_parallelism() -> usize {
    std::thread::available_parallelism().map_or(1, std::num::NonZeroUsize::get)
}

/// A shared-venue query server: owns one `Arc<ItGraph>`, shares the ITG/A
/// reduced-graph cache across worker threads, and answers query batches in
/// parallel.
///
/// The server is `Sync`; `query` and `query_batch` take `&self`, so one
/// instance can also be driven from externally managed threads.
#[derive(Debug)]
pub struct VenueServer {
    graph: Arc<ItGraph>,
    syn: SynEngine,
    asyn: AsynEngine,
    config: ServerConfig,
    scratch: ScratchPool,
}

impl VenueServer {
    /// Creates a server with [`ServerConfig::default`].
    #[must_use]
    pub fn new(graph: impl Into<Arc<ItGraph>>) -> Self {
        Self::with_config(graph, ServerConfig::default())
    }

    /// Creates a server with an explicit configuration.
    #[must_use]
    pub fn with_config(graph: impl Into<Arc<ItGraph>>, config: ServerConfig) -> Self {
        let graph = graph.into();
        VenueServer {
            syn: SynEngine::new(Arc::clone(&graph), config.itspq),
            asyn: AsynEngine::new(Arc::clone(&graph), config.itspq),
            graph,
            config,
            scratch: ScratchPool::default(),
        }
    }

    /// Returns the server with the worker count replaced (clamped to ≥ 1).
    #[must_use]
    pub fn with_workers(mut self, workers: usize) -> Self {
        self.config.workers = workers.max(1);
        self
    }

    /// Returns the server with the worker count replaced *and pinned*:
    /// batches use exactly this many threads even beyond the host's
    /// available parallelism (see [`ServerConfig::pin_workers`]).
    #[must_use]
    pub fn with_pinned_workers(mut self, workers: usize) -> Self {
        self.config.workers = workers.max(1);
        self.config.pin_workers = true;
        self
    }

    /// Returns the server with the answering method replaced.
    #[must_use]
    pub fn with_method(mut self, method: ServeMethod) -> Self {
        self.config.method = method;
        self
    }

    /// Returns the server with the batch strategy replaced.
    #[must_use]
    pub fn with_strategy(mut self, strategy: BatchStrategy) -> Self {
        self.config.strategy = strategy;
        self
    }

    /// The shared graph.
    #[must_use]
    pub fn graph(&self) -> &Arc<ItGraph> {
        &self.graph
    }

    /// The server's configuration.
    #[must_use]
    pub fn config(&self) -> &ServerConfig {
        &self.config
    }

    /// Worker threads used per batch: the configured count clamped as in
    /// [`ServerConfig::effective_workers`].
    #[must_use]
    pub fn workers(&self) -> usize {
        self.config.effective_workers()
    }

    /// Precomputes the reduced graph of every checkpoint interval, so no
    /// query ever pays for building a view.
    pub fn warm(&self) {
        self.asyn.precompute_all();
    }

    /// Number of reduced-graph views built so far.
    #[must_use]
    pub fn cached_views(&self) -> usize {
        self.asyn.cached_views()
    }

    /// Total heap bytes of the reduced-graph views built so far.
    #[must_use]
    pub fn cache_bytes(&self) -> usize {
        self.asyn.cache_bytes()
    }

    /// Answers a single query with the configured method.
    #[must_use]
    pub fn query(&self, query: &Query) -> QueryResult {
        match self.config.method {
            ServeMethod::Syn => self.syn.query(query),
            ServeMethod::Asyn => self.asyn.query(query),
        }
    }

    /// Answers a single query after validating it, so malformed input (NaN
    /// coordinates, out-of-range partitions) surfaces as a value instead of
    /// unwinding a worker thread.
    ///
    /// # Errors
    /// [`QueryError`] describing the first malformed endpoint.
    pub fn try_query(&self, query: &Query) -> Result<QueryResult, QueryError> {
        query.validate(self.graph.space())?;
        Ok(self.query(query))
    }

    /// Answers a batch of queries on up to [`ServerConfig::workers`] threads,
    /// returning results in input order.
    ///
    /// Under [`BatchStrategy::Shared`] the batch is first planned into work
    /// items — shared groups and per-query fallbacks (see [`plan`]) — and
    /// workers pull *items* off a shared atomic counter; under
    /// [`BatchStrategy::Independent`] every item is one query. Either way the
    /// answers are the same and independent of the worker count and of
    /// scheduling (the only shared mutable state, the reduced-graph cache,
    /// affects timing, never answers).
    ///
    /// Queries that fail validation are executed raw, exactly as
    /// [`VenueServer::query`] would (degrading to "no such routes" rather
    /// than panicking); use [`VenueServer::try_query_batch`] to surface them
    /// as [`QueryError`] values instead.
    ///
    /// [`plan`]: VenueServer::plan
    #[must_use]
    pub fn query_batch(&self, queries: &[Query]) -> Vec<QueryResult> {
        self.query_batch_with_stats(queries).0
    }

    /// [`VenueServer::query_batch`] plus the batch-level execution report.
    #[must_use]
    pub fn query_batch_with_stats(&self, queries: &[Query]) -> (Vec<QueryResult>, BatchStats) {
        let (results, stats) = self.execute_batch(queries, false);
        let results = results
            .into_iter()
            .map(|r| r.expect("raw batches never reject")) // itspq-lint: allow(no-panic-in-lib, "execute_batch only emits Rejected items when reject_malformed is true; this call passes false")
            .collect();
        (results, stats)
    }

    /// Answers a batch with validation: malformed queries come back as
    /// [`QueryError`] values (no search runs for them), well-formed ones as
    /// their [`QueryResult`], all in input order.
    #[must_use = "the per-query errors must be inspected"]
    pub fn try_query_batch(&self, queries: &[Query]) -> Vec<Result<QueryResult, QueryError>> {
        self.try_query_batch_with_stats(queries).0
    }

    /// [`VenueServer::try_query_batch`] plus the batch-level execution report.
    #[must_use = "the per-query errors must be inspected"]
    pub fn try_query_batch_with_stats(
        &self,
        queries: &[Query],
    ) -> (Vec<Result<QueryResult, QueryError>>, BatchStats) {
        self.execute_batch(queries, true)
    }

    /// Plans a batch into work items. Exposed for tests and capacity
    /// dashboards; [`VenueServer::query_batch`] calls it internally.
    ///
    /// A query joins a shared group only when every sharing precondition
    /// holds (strategy, `FullRelax` expansion, validity, traversable-or-same
    /// target partition — see [`BatchStrategy`]); the grouping key is the
    /// exact source point and time under `Shared`, the source partition and
    /// checkpoint interval under `SharedInterval`. Groups that
    /// end up with a single member are demoted to per-query items, so a
    /// plan's groups always amortise at least two queries. Each group's first
    /// member — its *lead*, whose search the others derive from — is rotated
    /// to the earliest departure so every member's time shift is ≥ 0.
    #[must_use]
    pub fn plan(&self, queries: &[Query], reject_malformed: bool) -> BatchPlan {
        let space = self.graph.space();
        let strategy = self.config.strategy;
        let sharing = strategy != BatchStrategy::Independent
            && self.config.itspq.expand == ExpandPolicy::FullRelax;

        let mut items: Vec<WorkItem> = Vec::with_capacity(queries.len());
        // The grouping map and the per-group rosters are pooled on the
        // server: planning a steady stream of batches reuses one allocation
        // set instead of rebuilding a map and one Vec per group each
        // call. Rosters are compacted into the plan-owned `members` arena
        // (one allocation) on the way out.
        let mut scratch = self.scratch.plan.lock(); // itspq-lint: allow(lock-scope, "plan scratch guard spans the grouping loop by design; the or_insert_with closure only grows a pooled roster Vec — no cache build, no re-entrant locking")
        let PlanScratch { group_of, groups } = &mut *scratch;
        group_of.clear();
        let mut active = 0usize;
        for (i, q) in queries.iter().enumerate() {
            match q.validate(space) {
                Err(e) if reject_malformed => {
                    items.push(WorkItem::Rejected(i, e));
                    continue;
                }
                Err(_) => {
                    // Raw mode: run it unvalidated like `query` would, but
                    // never share it (a NaN key would alias distinct
                    // searches).
                    items.push(WorkItem::Single(i));
                    continue;
                }
                Ok(()) => {}
            }
            let tp = q.target.partition;
            let sharable =
                sharing && (tp == q.source.partition || space.partition(tp).kind.traversable());
            if !sharable {
                items.push(WorkItem::Single(i));
                continue;
            }
            let key = match strategy {
                BatchStrategy::SharedInterval => PlanKey::Interval {
                    partition: q.source.partition,
                    interval: space.checkpoints().interval_index(q.time),
                },
                // `Independent` cannot reach here (sharing is false).
                _ => PlanKey::Exact(GroupKey::of(q, space)),
            };
            let gi = *group_of.entry(key).or_insert_with(|| {
                if active == groups.len() {
                    groups.push(Vec::new());
                }
                groups[active].clear();
                active += 1;
                active - 1
            });
            groups[gi].push(i);
        }

        let mut members: Vec<usize> = Vec::new();
        for roster in groups.iter_mut().take(active) {
            // A 1-member roster demotes to a per-query item.
            if let [only] = roster[..] {
                items.push(WorkItem::Single(only));
                continue;
            }
            rotate_earliest_lead(queries, roster);
            let start = members.len();
            members.extend_from_slice(roster);
            items.push(WorkItem::Group(start..members.len()));
        }
        BatchPlan {
            queries: queries.len(),
            items,
            members,
        }
    }

    /// Runs one planned work item, appending `(input index, answer)` pairs to
    /// `out` and returning its execution report (views counted once per
    /// physical search, so batch totals do not double-count group members;
    /// fallbacks so the batch books can be corrected after the fact).
    fn run_item(
        &self,
        queries: &[Query],
        plan: &BatchPlan,
        item: &WorkItem,
        ws: &mut WorkerScratch,
        out: &mut Vec<(usize, Result<QueryResult, QueryError>)>,
    ) -> ItemReport {
        match item {
            WorkItem::Rejected(i, e) => {
                out.push((*i, Err(*e)));
                ItemReport::default()
            }
            WorkItem::Single(i) => {
                let (r, search_nanos) = timed(|| self.query(&queries[*i]));
                let report = ItemReport {
                    views: r.stats.views_built,
                    search_nanos,
                    ..ItemReport::default()
                };
                out.push((*i, Ok(r)));
                report
            }
            WorkItem::Group(members) => {
                self.run_group(queries, &plan.members[members.clone()], ws, out)
            }
        }
    }

    /// One shared frontier for a whole group, then per-member scatter: exact
    /// duplicates of the lead take the group answer as-is, shifted members
    /// are derived (direct recompute / retime / replay) under per-member
    /// certificates, and anything uncertifiable falls back to its own
    /// per-query search. See `framework.rs` and `replay.rs` for the
    /// byte-identity arguments.
    fn run_group(
        &self,
        queries: &[Query],
        members: &[usize],
        ws: &mut WorkerScratch,
        out: &mut Vec<(usize, Result<QueryResult, QueryError>)>,
    ) -> ItemReport {
        let lead = &queries[members[0]];
        let lead_pos = pos_bits(lead);
        let lead_time = time_bits(lead);
        // Record the decision trace only if some member starts elsewhere;
        // track checkpoint margins only if some same-point member departs at
        // another time. Exact-key groups need neither
        // and pay no observer work at all. Replay additionally requires
        // order-pure TV verdicts — true for ITG/S and ITG/A(Exact), false
        // for the paper-faithful cursor, whose verdict depends on the
        // sequence of preceding checks — so Faithful groups skip recording
        // and serve non-identical members per-query. (Retiming stays on:
        // same-point members relax the identical sequence in the identical
        // windows, which preserves even the Faithful cursor states.)
        let verdict_pure = self.config.method == ServeMethod::Syn
            || self.config.itspq.asyn_mode == AsynMode::Exact;
        let needs_trace =
            verdict_pure && members.iter().any(|&i| pos_bits(&queries[i]) != lead_pos);
        let needs_margin = members
            .iter()
            .any(|&i| pos_bits(&queries[i]) == lead_pos && time_bits(&queries[i]) != lead_time);
        ws.targets.clear();
        ws.targets
            .extend(members.iter().map(|&i| queries[i].target));
        // The trace buffer is pooled per worker: recording reuses the same
        // door/target streams across every group this worker runs.
        let mut observer = SweepObserver::with_trace(
            needs_trace,
            needs_margin,
            std::mem::take(&mut ws.trace),
            members.len(),
        );
        let ((paths, stats), search_nanos) =
            timed(|| self.query_targets(&lead.source, lead.time, &ws.targets, &mut observer));
        let mut report = ItemReport {
            views: stats.views_built,
            search_nanos,
            ..ItemReport::default()
        };
        let config = &self.config.itspq;
        // Scatter (timed as a phase; certificate-failure fallback searches
        // run inside it and are attributed here, not to the search phase).
        let scatter_start = PhaseTimer::start();
        let mut lead_indexed = false;
        for (k, (&i, path)) in members.iter().zip(paths).enumerate() {
            let q = &queries[i];
            let same_pos = pos_bits(q) == lead_pos;
            if same_pos && time_bits(q) == lead_time {
                // Every member reports the group's (single) search: the
                // work its answer actually cost. Summing member stats
                // therefore overcounts a shared batch — sum per *search*
                // via `BatchStats` instead.
                out.push((i, Ok(QueryResult { path, stats })));
                continue;
            }
            let mut retimed = false;
            let mut derived: Option<Option<Path>> = if q.target.partition == q.source.partition {
                // The member's own search would short-circuit before any
                // TV check; recompute the straight segment from its own
                // endpoints and departure — exact by construction.
                retimed = same_pos;
                Some(Some(direct_path(
                    &q.source,
                    &q.target,
                    config,
                    q.departure(),
                )))
            } else if same_pos && q.departure() >= lead.departure() {
                // Same start, later departure: retime iff the shift clears
                // the smallest margin every lead arrival had to its next
                // checkpoint — then every TV verdict provably transfers.
                // The planner rotates the earliest departure into the lead
                // slot, so the ordering guard always holds; it stays as a
                // correctness check because `Timestamp` subtraction
                // saturates at zero, and an *earlier*-departing member would
                // otherwise masquerade as a zero shift and be wrongly
                // certified.
                let delta = (q.departure() - lead.departure()).seconds();
                let ok = (delta + RETIME_SLACK_SECS < observer.min_margin_secs)
                    .then(|| retime(path.as_ref(), q, config));
                retimed = ok.is_some();
                ok
            } else {
                None
            };
            if derived.is_none() && needs_trace {
                // Different start — or a same-point member whose retime
                // certificate failed: replay the lead's decision trace
                // against this member's own source legs and departure.
                if !lead_indexed {
                    // Built once per group, shared by every member's replay.
                    ws.lead
                        .build(&observer.trace, self.graph.space().num_doors());
                    lead_indexed = true;
                }
                derived = replay_member(
                    self.graph.space(),
                    config,
                    &observer.trace,
                    &ws.lead,
                    q,
                    k as u32,
                    &mut ws.replay,
                )
                .ok();
            }
            match derived {
                Some(p) => {
                    if retimed {
                        report.retimed += 1;
                    } else {
                        report.replayed += 1;
                    }
                    out.push((i, Ok(QueryResult { path: p, stats })));
                }
                None => {
                    let r = self.query(q);
                    report.fallbacks += 1;
                    report.views += r.stats.views_built;
                    out.push((i, Ok(r)));
                }
            }
        }
        report.scatter_nanos = scatter_start.elapsed_nanos();
        ws.trace = observer.take_trace();
        report
    }

    /// One shared frontier for a whole group (see `framework.rs` for the
    /// target-independence argument that makes this byte-identical to
    /// per-query execution).
    fn query_targets(
        &self,
        source: &IndoorPoint,
        time: indoor_time::TimeOfDay,
        targets: &[IndoorPoint],
        observer: &mut SweepObserver,
    ) -> (Vec<Option<Path>>, SearchStats) {
        match self.config.method {
            ServeMethod::Syn => self.syn.query_targets(source, time, targets, observer),
            ServeMethod::Asyn => self.asyn.query_targets(source, time, targets, observer),
        }
    }

    /// The planner + scatter behind every batch entry point.
    fn execute_batch(
        &self,
        queries: &[Query],
        reject_malformed: bool,
    ) -> (Vec<Result<QueryResult, QueryError>>, BatchStats) {
        let (plan, plan_nanos) = timed(|| self.plan(queries, reject_malformed));
        let mut stats = plan.stats();
        stats.plan_nanos = plan_nanos;
        let items = &plan.items;
        let workers = self.config.effective_workers().clamp(1, items.len().max(1));

        let mut report = ItemReport::default();
        let mut indexed: Vec<(usize, Result<QueryResult, QueryError>)>;
        if workers == 1 {
            indexed = Vec::with_capacity(queries.len());
            let mut ws = self.scratch.checkout();
            for item in items {
                report.absorb(self.run_item(queries, &plan, item, &mut ws, &mut indexed));
            }
            self.scratch.restore(ws);
        } else {
            let next = AtomicUsize::new(0);
            let per_worker: Vec<(Vec<_>, ItemReport)> = std::thread::scope(|scope| {
                let handles: Vec<_> = (0..workers)
                    .map(|_| {
                        scope.spawn(|| {
                            let mut local = Vec::new();
                            let mut report = ItemReport::default();
                            let mut ws = self.scratch.checkout();
                            loop {
                                let i = next.fetch_add(1, Ordering::Relaxed);
                                let Some(item) = items.get(i) else { break };
                                report.absorb(
                                    self.run_item(queries, &plan, item, &mut ws, &mut local),
                                );
                            }
                            self.scratch.restore(ws);
                            (local, report)
                        })
                    })
                    .collect();
                handles
                    .into_iter()
                    .map(|h| match h.join() {
                        Ok(local) => local,
                        // Re-raise a worker's panic with its original payload
                        // instead of wrapping it in a second panic here.
                        Err(payload) => std::panic::resume_unwind(payload),
                    })
                    .collect()
            });
            indexed = Vec::with_capacity(queries.len());
            for (local, worker_report) in per_worker {
                indexed.extend(local);
                report.absorb(worker_report);
            }
        }
        // Correct the plan-derived books for execution-time fallbacks: each
        // one paid its own search (a group) and stopped being a reuse. The
        // report is a sum over items, so the totals are independent of how
        // items were spread across workers (the phase timings sum each
        // worker's busy time and are the only scheduling-dependent fields).
        stats.views_built += report.views;
        stats.replayed += report.replayed;
        stats.retimed += report.retimed;
        stats.fallbacks += report.fallbacks;
        stats.search_nanos += report.search_nanos;
        stats.scatter_nanos += report.scatter_nanos;
        stats.groups += report.fallbacks;
        stats.shared_queries -= report.fallbacks;
        stats.frontier_reuses -= report.fallbacks;
        indexed.sort_unstable_by_key(|&(i, _)| i);
        (indexed.into_iter().map(|(_, r)| r).collect(), stats)
    }
}

/// One unit of batch work: a single query or a shared group.
#[derive(Debug, Clone, PartialEq)]
enum WorkItem {
    /// Run `queries[i]` on its own (unvalidated, like [`VenueServer::query`]).
    Single(usize),
    /// `queries[i]` failed validation; answer with the error, run nothing.
    Rejected(usize, QueryError),
    /// Answer all member queries (a range of [`BatchPlan::members`]) with
    /// one shared frontier. Invariants: ≥ 2 members, all shared-eligible,
    /// one [`PlanKey`], the earliest departure leading.
    Group(Range<usize>),
}

/// Swaps the member with the earliest departure (first occurrence on ties)
/// into slot 0, so retime deltas within the roster are non-negative; under
/// exact keys all times are equal and the rotation is the identity.
fn rotate_earliest_lead(queries: &[Query], roster: &mut [usize]) {
    let lead = roster
        .iter()
        .enumerate()
        .min_by_key(|&(pos, &i)| (queries[i].time, pos))
        .map_or(0, |(pos, _)| pos);
    roster.swap(0, lead);
}

/// Pooled planner state, reused across `plan` calls: the grouping map and
/// the per-group rosters. A `BTreeMap` keyed by the `Ord` plan key, so that
/// if grouping ever iterates the map, the order is a pure function of the
/// keys — never of hasher state. Guarded by a mutex so `plan` keeps taking
/// `&self`; concurrent planners fall back to queueing on the lock (batches
/// are planned one at a time per server in every entry point).
#[derive(Debug, Default)]
struct PlanScratch {
    group_of: BTreeMap<PlanKey, usize>,
    groups: Vec<Vec<usize>>,
}

/// Per-worker reusable buffers: the recorded trace, the replay label state
/// and the gathered target list. Checked out of [`ScratchPool`] once per
/// worker per batch, so steady-state batch execution allocates nothing per
/// group.
#[derive(Debug, Default)]
struct WorkerScratch {
    trace: Trace,
    lead: LeadIndex,
    replay: ReplayScratch,
    targets: Vec<IndoorPoint>,
}

/// The server's scratch arena: planner state plus a stack of worker
/// scratches (one per concurrently executing worker, grown on demand).
#[derive(Debug, Default)]
struct ScratchPool {
    plan: Mutex<PlanScratch>,
    workers: Mutex<Vec<WorkerScratch>>,
}

impl ScratchPool {
    fn checkout(&self) -> WorkerScratch {
        self.workers.lock().pop().unwrap_or_default()
    }

    fn restore(&self, ws: WorkerScratch) {
        self.workers.lock().push(ws);
    }
}

/// Monotonic phase-timer reads for [`BatchStats`] attribution — the only
/// wall-clock touches in core's library code, confined here and feeding
/// telemetry only, never answers.
#[expect(
    clippy::disallowed_types,
    reason = "monotonic phase timing for BatchStats telemetry; never feeds answers"
)]
struct PhaseTimer(std::time::Instant);

impl PhaseTimer {
    #[expect(
        clippy::disallowed_types,
        reason = "monotonic phase timing for BatchStats telemetry; never feeds answers"
    )]
    fn start() -> Self {
        Self(std::time::Instant::now())
    }

    fn elapsed_nanos(&self) -> u64 {
        self.0.elapsed().as_nanos() as u64
    }
}

/// Runs `f`, returning its result and the elapsed monotonic nanoseconds.
fn timed<T>(f: impl FnOnce() -> T) -> (T, u64) {
    let start = PhaseTimer::start();
    let out = f();
    (out, start.elapsed_nanos())
}

/// The planner's grouping key, one variant per sharing level. Nested: equal
/// `Exact` keys imply equal `Interval` keys, so the interval plan is a
/// coarsening of the exact one.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
enum PlanKey {
    /// [`BatchStrategy::Shared`]: identical source point and departure time.
    Exact(GroupKey),
    /// [`BatchStrategy::SharedInterval`]: same source partition, departure
    /// in the same checkpoint interval.
    Interval {
        partition: PartitionId,
        interval: usize,
    },
}

/// What one work item cost and how its members were answered; summed into
/// the batch's [`BatchStats`] after execution. Pure sums over items, so the
/// batch totals cannot depend on worker count or scheduling.
#[derive(Debug, Clone, Copy, Default)]
struct ItemReport {
    views: usize,
    replayed: usize,
    retimed: usize,
    fallbacks: usize,
    search_nanos: u64,
    scatter_nanos: u64,
}

impl ItemReport {
    fn absorb(&mut self, other: ItemReport) {
        self.views += other.views;
        self.replayed += other.replayed;
        self.retimed += other.retimed;
        self.fallbacks += other.fallbacks;
        self.search_nanos += other.search_nanos;
        self.scatter_nanos += other.scatter_nanos;
    }
}

/// The source-point identity used by group scatter: bitwise, so NaN equals
/// itself and `-0.0 ≠ 0.0` — exactly the aliasing rule of [`GroupKey`].
fn pos_bits(q: &Query) -> (u64, u64) {
    (q.source.position.x.to_bits(), q.source.position.y.to_bits())
}

/// The departure-time identity used by group scatter, bitwise like
/// [`pos_bits`].
fn time_bits(q: &Query) -> u64 {
    q.time.seconds().to_bits()
}

/// Re-times the lead's answer for a member departing `delta ≥ 0` later whose
/// arrivals are all certified to stay in the lead's checkpoint intervals:
/// door labels, hop distances and the total length are departure-independent,
/// so only the timestamps move — recomputed exactly as `reconstruct` would
/// have from the member's own `t0`.
fn retime(path: Option<&Path>, q: &Query, config: &ItspqConfig) -> Option<Path> {
    let p = path?;
    let t0 = q.departure();
    Some(Path {
        source: q.source,
        target: q.target,
        hops: p
            .hops
            .iter()
            .map(|h| DoorHop {
                arrival: t0 + config.velocity.travel_time(h.distance),
                ..*h
            })
            .collect(),
        length: p.length,
        departure: t0,
        arrival: t0 + config.velocity.travel_time(p.length),
    })
}

/// The planner's output: how a batch will be executed.
///
/// Produced by [`VenueServer::plan`]; mostly useful for asserting sharing
/// behaviour in tests and for capacity telemetry.
#[derive(Debug, Clone)]
pub struct BatchPlan {
    queries: usize,
    items: Vec<WorkItem>,
    /// Arena of group member indices; each [`WorkItem::Group`] holds a range
    /// into it (one allocation per plan instead of one per group).
    members: Vec<usize>,
}

impl BatchPlan {
    /// Number of physical searches this plan will run (groups + singles).
    #[must_use]
    pub fn searches(&self) -> usize {
        self.items
            .iter()
            .filter(|i| !matches!(i, WorkItem::Rejected(..)))
            .count()
    }

    /// Number of shared (≥ 2 member) groups.
    #[must_use]
    pub fn shared_groups(&self) -> usize {
        self.items
            .iter()
            .filter(|i| matches!(i, WorkItem::Group(_)))
            .count()
    }

    /// Number of queries answered by shared groups.
    #[must_use]
    pub fn shared_queries(&self) -> usize {
        self.items
            .iter()
            .map(|i| match i {
                WorkItem::Group(members) => members.len(),
                _ => 0,
            })
            .sum()
    }

    /// The batch-level report this plan implies (`views_built`, the derived
    /// answer counters and the phase timings are filled in during
    /// execution).
    #[must_use]
    pub fn stats(&self) -> BatchStats {
        let rejected = self
            .items
            .iter()
            .filter(|i| matches!(i, WorkItem::Rejected(..)))
            .count();
        BatchStats {
            queries: self.queries,
            groups: self.searches(),
            shared_queries: self.shared_queries(),
            frontier_reuses: self.shared_queries() - self.shared_groups(),
            rejected,
            ..BatchStats::default()
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use indoor_space::paper_example;
    use indoor_time::TimeOfDay;

    fn example_batch(ex: &paper_example::PaperExample) -> Vec<Query> {
        let mut batch = Vec::new();
        for (h, m) in [(9, 0), (12, 0), (15, 59), (22, 0), (23, 30), (5, 30)] {
            for (s, t) in [(ex.p3, ex.p4), (ex.p1, ex.p2), (ex.p2, ex.p3)] {
                batch.push(Query::new(s, t, TimeOfDay::hm(h, m)));
            }
        }
        batch
    }

    #[test]
    fn server_is_send_and_sync() {
        fn assert_send_sync<T: Send + Sync>() {}
        assert_send_sync::<VenueServer>();
    }

    #[test]
    fn batch_matches_sequential_itg_s() {
        let ex = paper_example::build();
        let graph = ItGraph::shared(ex.space.clone());
        let server = VenueServer::new(graph.clone()).with_pinned_workers(4);
        let syn = SynEngine::new(graph, ItspqConfig::default());
        let batch = example_batch(&ex);
        let answers = server.query_batch(&batch);
        assert_eq!(answers.len(), batch.len());
        for (q, a) in batch.iter().zip(&answers) {
            let s = syn.query(q);
            assert_eq!(
                s.path.as_ref().map(|p| p.doors().collect::<Vec<_>>()),
                a.path.as_ref().map(|p| p.doors().collect::<Vec<_>>()),
                "batch answer diverges from ITG/S at {}",
                q.time
            );
        }
    }

    #[test]
    fn engines_share_one_graph() {
        let ex = paper_example::build();
        let graph = ItGraph::shared(ex.space);
        let server = VenueServer::new(graph.clone());
        assert!(Arc::ptr_eq(server.graph(), &graph));
        assert!(Arc::ptr_eq(&server.syn.graph_arc(), &graph));
        assert!(Arc::ptr_eq(&server.asyn.graph_arc(), &graph));
    }

    #[test]
    fn empty_batch_and_worker_clamping() {
        let ex = paper_example::build();
        let server = VenueServer::new(ItGraph::new(ex.space)).with_workers(0);
        assert_eq!(server.workers(), 1); // clamped
        assert!(server.query_batch(&[]).is_empty());
        // More workers than queries is fine too.
        let server = server.with_workers(16);
        // Unpinned, `workers()` reports the threads a batch really uses …
        assert_eq!(server.workers(), host_parallelism().min(16));
        let one = [Query::new(ex.p3, ex.p4, TimeOfDay::hm(9, 0))];
        assert_eq!(server.query_batch(&one).len(), 1);
        // … and pinned, the literal count past the host's parallelism.
        let server = server.with_pinned_workers(16);
        assert_eq!(server.workers(), 16);
        assert_eq!(server.query_batch(&one).len(), 1);
    }

    #[test]
    fn effective_workers_clamp_to_host_unless_pinned() {
        let host = host_parallelism();
        // A wildly oversubscribed request follows the machine …
        let config = ServerConfig {
            workers: 4096,
            ..ServerConfig::default()
        };
        assert_eq!(config.effective_workers(), host.clamp(1, 4096));
        assert!(config.effective_workers() <= host);
        // … unless explicitly pinned (bench worker sweeps measure these).
        let pinned = ServerConfig {
            workers: 4096,
            pin_workers: true,
            ..ServerConfig::default()
        };
        assert_eq!(pinned.effective_workers(), 4096);
        // Zero still clamps up to one either way.
        let zero = ServerConfig {
            workers: 0,
            pin_workers: true,
            ..ServerConfig::default()
        };
        assert_eq!(zero.effective_workers(), 1);
        // The builder pins.
        let ex = paper_example::build();
        let server = VenueServer::new(ItGraph::new(ex.space)).with_pinned_workers(12);
        assert!(server.config().pin_workers);
        assert_eq!(server.config().effective_workers(), 12);
    }

    #[test]
    fn syn_method_answers_identically() {
        let ex = paper_example::build();
        let graph = ItGraph::shared(ex.space.clone());
        let asyn_server = VenueServer::new(graph.clone()).with_pinned_workers(3);
        let syn_server = VenueServer::new(graph)
            .with_pinned_workers(3)
            .with_method(ServeMethod::Syn);
        let batch = example_batch(&ex);
        let a = asyn_server.query_batch(&batch);
        let s = syn_server.query_batch(&batch);
        for (x, y) in a.iter().zip(&s) {
            assert_eq!(
                x.path.as_ref().map(|p| p.length),
                y.path.as_ref().map(|p| p.length)
            );
        }
        // Only the asyn method touches the reduced-graph cache.
        assert!(asyn_server.cached_views() > 0);
        assert_eq!(syn_server.cached_views(), 0);
    }

    #[test]
    fn warm_precomputes_every_interval() {
        let ex = paper_example::build();
        let server = VenueServer::new(ItGraph::shared(ex.space.clone()));
        server.warm();
        assert_eq!(server.cached_views(), ex.space.checkpoints().len());
        assert!(server.cache_bytes() > 0);
        // A warmed server builds nothing during the batch.
        let answers = server.query_batch(&example_batch(&ex));
        assert!(answers.iter().all(|r| r.stats.views_built == 0));
    }

    #[test]
    fn cold_batch_builds_each_view_once() {
        let ex = paper_example::build();
        let server = VenueServer::new(ItGraph::shared(ex.space.clone())).with_pinned_workers(4);
        let answers = server.query_batch(&example_batch(&ex));
        let built: usize = answers.iter().map(|r| r.stats.views_built).sum();
        assert_eq!(
            built,
            server.cached_views(),
            "each checkpoint interval must be built exactly once server-wide"
        );
    }

    /// A server with sharing actually engaged: `FullRelax` expansion.
    fn sharing_server(ex: &paper_example::PaperExample) -> VenueServer {
        let config = ServerConfig {
            itspq: ItspqConfig::full_relax().with_asyn_mode(AsynMode::Exact),
            ..ServerConfig::default()
        };
        VenueServer::with_config(ItGraph::shared(ex.space.clone()), config)
    }

    /// Four queries sharing p3@9:00, one singleton and one private-partition
    /// fallback.
    fn skewed_batch(ex: &paper_example::PaperExample) -> Vec<Query> {
        let nine = TimeOfDay::hm(9, 0);
        let private = indoor_space::IndoorPoint::new(ex.v(15), indoor_geom::Point::new(5.0, 0.0));
        vec![
            Query::new(ex.p3, ex.p4, nine),
            Query::new(ex.p3, ex.p2, nine),
            Query::new(ex.p1, ex.p2, TimeOfDay::hm(12, 0)), // singleton source
            Query::new(ex.p3, private, nine),               // private target: fallback
            Query::new(ex.p3, ex.p1, nine),
            Query::new(ex.p3, ex.p4, nine), // duplicate (source, target) pair
        ]
    }

    #[test]
    fn plan_groups_by_identical_source_and_time() {
        let ex = paper_example::build();
        let server = sharing_server(&ex);
        let plan = server.plan(&skewed_batch(&ex), false);
        // One 4-member group (p3@9:00 with traversable targets), plus the
        // singleton source and the private-target fallback.
        assert_eq!(plan.shared_groups(), 1);
        assert_eq!(plan.shared_queries(), 4);
        assert_eq!(plan.searches(), 3);
        let stats = plan.stats();
        assert_eq!(stats.frontier_reuses, 3);
        assert!((stats.sharing_ratio() - 0.5).abs() < 1e-12);
    }

    #[test]
    fn paper_pruned_config_never_shares() {
        // The default server config keeps the paper's pruned expansion, under
        // which sharing is inert: every query plans as its own search.
        let ex = paper_example::build();
        let server = VenueServer::new(ItGraph::shared(ex.space.clone()));
        let plan = server.plan(&skewed_batch(&ex), false);
        assert_eq!(plan.shared_groups(), 0);
        assert_eq!(plan.searches(), 6);
    }

    #[test]
    fn shared_answers_are_byte_identical_to_independent() {
        let ex = paper_example::build();
        let shared = sharing_server(&ex).with_pinned_workers(3);
        let mut config = *shared.config();
        config.strategy = BatchStrategy::Independent;
        let independent = VenueServer::with_config(ItGraph::shared(ex.space.clone()), config);
        let batch = skewed_batch(&ex);
        let a = shared.query_batch(&batch);
        let b = independent.query_batch(&batch);
        for (i, (x, y)) in a.iter().zip(&b).enumerate() {
            assert_eq!(x.path, y.path, "paths diverge at batch index {i}");
        }
    }

    #[test]
    fn batch_stats_report_sharing_and_views() {
        let ex = paper_example::build();
        let server = sharing_server(&ex);
        let (answers, stats) = server.query_batch_with_stats(&skewed_batch(&ex));
        assert_eq!(answers.len(), 6);
        assert_eq!(stats.queries, 6);
        assert_eq!(stats.groups, 3);
        assert_eq!(stats.shared_queries, 4);
        // Views are counted once per physical search, never per group member.
        assert_eq!(stats.views_built, server.cached_views());
    }

    /// Compares a batch answered with `strategy` against per-query
    /// `try_query` answers, byte-for-byte (Debug rendering keeps NaN total).
    fn assert_parity(server: &VenueServer, batch: &[Query]) {
        let got = server.try_query_batch(batch);
        for (i, (q, g)) in batch.iter().zip(&got).enumerate() {
            let want = server.try_query(q);
            assert_eq!(
                format!("{:?}", g.as_ref().map(|r| &r.path)),
                format!("{:?}", want.as_ref().map(|r| &r.path)),
                "strategy {:?} diverges from per-query at batch index {i}",
                server.config().strategy,
            );
        }
    }

    /// Same-partition sources at spread-out points, all at one instant.
    fn door_batch(ex: &paper_example::PaperExample) -> Vec<Query> {
        let p3 = ex.p3.partition;
        let at = |x: f64, y: f64| indoor_space::IndoorPoint::new(p3, indoor_geom::Point::new(x, y));
        vec![
            Query::new(ex.p3, ex.p4, TimeOfDay::hm(9, 0)),
            Query::new(at(1.0, 1.0), ex.p4, TimeOfDay::hm(9, 0)),
            Query::new(at(2.5, 0.5), ex.p2, TimeOfDay::hm(9, 0)),
            Query::new(at(0.5, 2.0), ex.p1, TimeOfDay::hm(9, 0)),
            Query::new(ex.p3, ex.p2, TimeOfDay::hm(9, 0)),
        ]
    }

    fn interval_batch(ex: &paper_example::PaperExample) -> Vec<Query> {
        let p3 = ex.p3.partition;
        let at = |x: f64, y: f64| indoor_space::IndoorPoint::new(p3, indoor_geom::Point::new(x, y));
        vec![
            Query::new(ex.p3, ex.p4, TimeOfDay::hm(9, 0)),
            Query::new(ex.p3, ex.p4, TimeOfDay::hm(9, 20)),
            Query::new(ex.p3, ex.p2, TimeOfDay::hm(10, 45)),
            Query::new(at(1.0, 1.0), ex.p1, TimeOfDay::hm(9, 0)),
            Query::new(ex.p3, ex.p1, TimeOfDay::hm(14, 0)),
        ]
    }

    #[test]
    fn door_level_plan_groups_same_partition_sources() {
        let ex = paper_example::build();
        let exact = sharing_server(&ex);
        let interval = sharing_server(&ex).with_strategy(BatchStrategy::SharedInterval);
        let batch = door_batch(&ex);
        // Exact keys only merge the two literal p3 queries …
        assert_eq!(exact.plan(&batch, false).shared_queries(), 2);
        // … interval keys merge all five (same partition, same interval).
        let plan = interval.plan(&batch, false);
        assert_eq!(plan.shared_groups(), 1);
        assert_eq!(plan.shared_queries(), 5);
        assert_eq!(plan.searches(), 1);
    }

    #[test]
    fn interval_plan_groups_same_interval_times() {
        let ex = paper_example::build();
        let exact = sharing_server(&ex);
        let interval = sharing_server(&ex).with_strategy(BatchStrategy::SharedInterval);
        let batch = interval_batch(&ex);
        // Exact keys need an identical point and instant: nothing merges.
        assert_eq!(exact.plan(&batch, false).shared_queries(), 0);
        // Interval keys merge every query in the same checkpoint interval.
        let plan = interval.plan(&batch, false);
        assert!(plan.shared_queries() >= 4);
        assert!(plan.searches() < batch.len());
    }

    #[test]
    fn interval_group_lead_is_earliest_departure() {
        let ex = paper_example::build();
        let server = sharing_server(&ex).with_strategy(BatchStrategy::SharedInterval);
        // Later departures submitted first: the lead must still be 9:00.
        let batch = vec![
            Query::new(ex.p3, ex.p4, TimeOfDay::hm(10, 30)),
            Query::new(ex.p3, ex.p2, TimeOfDay::hm(9, 0)),
            Query::new(ex.p3, ex.p1, TimeOfDay::hm(9, 45)),
        ];
        let plan = server.plan(&batch, false);
        let leads: Vec<usize> = plan
            .items
            .iter()
            .filter_map(|it| match it {
                WorkItem::Group(members) => Some(plan.members[members.start]),
                _ => None,
            })
            .collect();
        assert_eq!(leads, vec![1], "the 9:00 query must lead its group");
    }

    #[test]
    fn door_level_answers_match_per_query() {
        let ex = paper_example::build();
        for method in [ServeMethod::Asyn, ServeMethod::Syn] {
            let server = sharing_server(&ex)
                .with_strategy(BatchStrategy::SharedInterval)
                .with_method(method)
                .with_workers(1);
            assert_parity(&server, &door_batch(&ex));
        }
    }

    #[test]
    fn interval_answers_match_per_query() {
        let ex = paper_example::build();
        for method in [ServeMethod::Asyn, ServeMethod::Syn] {
            let server = sharing_server(&ex)
                .with_strategy(BatchStrategy::SharedInterval)
                .with_method(method)
                .with_workers(1);
            assert_parity(&server, &interval_batch(&ex));
        }
    }

    #[test]
    fn all_levels_keep_consistent_books() {
        let ex = paper_example::build();
        let mut batch = skewed_batch(&ex);
        batch.extend(door_batch(&ex));
        batch.extend(interval_batch(&ex));
        for strategy in [
            BatchStrategy::Independent,
            BatchStrategy::Shared,
            BatchStrategy::SharedInterval,
        ] {
            let server = sharing_server(&ex).with_strategy(strategy);
            let (_, stats) = server.query_batch_with_stats(&batch);
            assert!(
                stats.is_consistent(),
                "strategy {strategy:?} broke the accounting identity: {stats}"
            );
        }
    }

    #[test]
    fn derived_members_report_replays_and_retimes() {
        let ex = paper_example::build();
        let server = sharing_server(&ex).with_strategy(BatchStrategy::SharedInterval);
        let mut batch = door_batch(&ex);
        batch.extend(interval_batch(&ex));
        let (_, stats) = server.query_batch_with_stats(&batch);
        assert!(
            stats.replayed > 0,
            "door-spread sources must be answered by replay: {stats}"
        );
        assert!(
            stats.retimed > 0,
            "same-point later departures must be answered by retime: {stats}"
        );
    }

    #[test]
    fn try_query_batch_rejects_in_place() {
        let ex = paper_example::build();
        let server = sharing_server(&ex);
        let nan =
            indoor_space::IndoorPoint::new(ex.p3.partition, indoor_geom::Point::new(f64::NAN, 2.0));
        let batch = vec![
            Query::new(ex.p3, ex.p4, TimeOfDay::hm(9, 0)),
            Query::new(nan, ex.p4, TimeOfDay::hm(9, 0)),
            Query::new(ex.p3, ex.p2, TimeOfDay::hm(9, 0)),
        ];
        let (results, stats) = server.try_query_batch_with_stats(&batch);
        assert!(results[0].is_ok());
        assert!(results[1].is_err());
        assert!(results[2].is_ok());
        assert_eq!(stats.rejected, 1);
        // The two well-formed queries still share one frontier.
        assert_eq!(stats.groups, 1);
        assert_eq!(stats.frontier_reuses, 1);
    }
}
