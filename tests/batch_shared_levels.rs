//! Named regression pins for interval shared execution.
//!
//! Each test constructs one specific source-leg edge case the replay/retime
//! machinery must handle — a source exactly on a door, a zero-length source
//! leg on the *lead*, a sealed source door at departure, a dead lead
//! frontier, an earlier-departing member — and pins the batch answer
//! against per-query `try_query`, byte for byte. A second group
//! of tests pins the `BatchStats` bookkeeping invariants: the accounting
//! identity, view-count monotonicity versus independent execution, and
//! worker-count independence of the whole report.

use itspq_repro::core::server::BatchStrategy;
use itspq_repro::core::{AsynMode, QueryResult};
use itspq_repro::prelude::*;
use itspq_repro::space::paper_example;

/// A paper-example server with sharing engaged (FullRelax) at `strategy`.
fn server(ex: &paper_example::PaperExample, strategy: BatchStrategy) -> VenueServer {
    let config = ServerConfig {
        strategy,
        itspq: ItspqConfig::full_relax().with_asyn_mode(AsynMode::Exact),
        ..ServerConfig::default()
    };
    VenueServer::with_config(ItGraph::shared(ex.space.clone()), config)
}

/// Byte-identity pin: the batch answer for every query must render exactly
/// like its per-query answer (Debug rendering keeps NaN comparisons total).
fn assert_pinned(server: &VenueServer, batch: &[Query], what: &str) {
    let got = server.try_query_batch(batch);
    assert_eq!(got.len(), batch.len());
    for (i, (q, g)) in batch.iter().zip(&got).enumerate() {
        let want = server.try_query(q);
        assert_eq!(
            format!("{:?}", g.as_ref().map(|r| &r.path)),
            format!("{:?}", want.as_ref().map(|r| &r.path)),
            "{what}: batch index {i} diverges from per-query ({q:?})"
        );
    }
}

fn result_found(r: &Result<QueryResult, QueryError>) -> bool {
    matches!(r, Ok(res) if res.path.is_some())
}

#[test]
fn source_exactly_on_a_door_matches_per_query() {
    // A member whose source sits bitwise on d18's position: its source leg
    // to d18 is exactly 0.0, the degenerate case of the replayed relax.
    let ex = paper_example::build();
    let srv = server(&ex, BatchStrategy::SharedInterval);
    let on_door = IndoorPoint::new(ex.p3.partition, ex.space.door(ex.d(18)).position);
    let nine = TimeOfDay::hm(9, 0);
    let batch = vec![
        Query::new(ex.p3, ex.p4, nine),
        Query::new(on_door, ex.p4, nine),
        Query::new(on_door, ex.p2, nine),
        Query::new(ex.p3, ex.p1, nine),
    ];
    let plan = srv.plan(&batch, false);
    assert_eq!(
        plan.shared_queries(),
        4,
        "all four must plan into one group"
    );
    assert_pinned(&srv, &batch, "source on door");
    // The on-door queries do find routes (0-length first leg, not rejected).
    let got = srv.try_query_batch(&batch);
    assert!(result_found(&got[1]) && result_found(&got[2]));
}

#[test]
fn lead_with_zero_length_source_leg_matches_per_query() {
    // The *lead* (earliest departure) starts exactly on a door, so every
    // recorded source-leg relax carries a 0.0 base distance and members with
    // ordinary source legs must replay against it.
    let ex = paper_example::build();
    let srv = server(&ex, BatchStrategy::SharedInterval);
    let on_door = IndoorPoint::new(ex.p3.partition, ex.space.door(ex.d(18)).position);
    let batch = vec![
        Query::new(ex.p3, ex.p4, TimeOfDay::hm(9, 30)),
        Query::new(on_door, ex.p2, TimeOfDay::hm(9, 0)), // earliest: the lead
        Query::new(ex.p3, ex.p1, TimeOfDay::hm(10, 15)),
    ];
    let plan = srv.plan(&batch, false);
    assert_eq!(plan.shared_groups(), 1);
    assert_pinned(&srv, &batch, "zero-length lead source leg");
}

#[test]
fn source_door_sealed_at_departure_matches_per_query() {
    // 23:30: d18 is sealed (Example 1's night case), so the group search
    // records rejected relaxes and genuine no-routes; members from other p3
    // points must reach the identical verdicts.
    let ex = paper_example::build();
    let srv = server(&ex, BatchStrategy::SharedInterval);
    let elsewhere = IndoorPoint::new(ex.p3.partition, indoor_geom_point(1.0, 1.0));
    let night = TimeOfDay::hm(23, 30);
    let batch = vec![
        Query::new(ex.p3, ex.p4, night),
        Query::new(elsewhere, ex.p4, night),
        Query::new(elsewhere, ex.p2, night),
    ];
    assert_pinned(&srv, &batch, "sealed source door");
    // The sealed door really does make the p3→p4 legs unroutable.
    let got = srv.try_query_batch(&batch);
    assert!(!result_found(&got[0]) && !result_found(&got[1]));
}

fn indoor_geom_point(x: f64, y: f64) -> itspq_repro::geom::Point {
    itspq_repro::geom::Point::new(x, y)
}

/// A mixed batch exercising every derivation: exact duplicates, point-spread
/// sources, interval-spread departures, a private-partition fallback.
fn mixed_batch(ex: &paper_example::PaperExample) -> Vec<Query> {
    let other = IndoorPoint::new(ex.p3.partition, indoor_geom_point(2.0, 1.5));
    let private = IndoorPoint::new(ex.v(15), indoor_geom_point(5.0, 0.0));
    vec![
        Query::new(ex.p3, ex.p4, TimeOfDay::hm(9, 0)),
        Query::new(ex.p3, ex.p4, TimeOfDay::hm(9, 0)), // exact duplicate
        Query::new(other, ex.p2, TimeOfDay::hm(9, 0)), // point-spread
        Query::new(ex.p3, ex.p1, TimeOfDay::hm(9, 40)), // interval-spread
        Query::new(ex.p3, private, TimeOfDay::hm(9, 0)), // private: fallback
        Query::new(ex.p1, ex.p2, TimeOfDay::hm(12, 0)), // singleton
    ]
}

#[test]
fn stats_invariants_hold_at_every_level() {
    let ex = paper_example::build();
    for strategy in [
        BatchStrategy::Independent,
        BatchStrategy::Shared,
        BatchStrategy::SharedInterval,
    ] {
        let srv = server(&ex, strategy);
        let (_, stats) = srv.query_batch_with_stats(&mixed_batch(&ex));
        assert!(
            stats.is_consistent(),
            "{strategy:?} broke groups + frontier_reuses == queries - rejected: {stats}"
        );
        assert!(stats.replayed + stats.retimed <= stats.frontier_reuses);
    }
}

#[test]
fn shared_views_never_exceed_independent_views() {
    let ex = paper_example::build();
    let (_, independent) =
        server(&ex, BatchStrategy::Independent).query_batch_with_stats(&mixed_batch(&ex));
    for strategy in [BatchStrategy::Shared, BatchStrategy::SharedInterval] {
        let (_, shared) = server(&ex, strategy).query_batch_with_stats(&mixed_batch(&ex));
        assert!(
            shared.views_built <= independent.views_built,
            "{strategy:?} built {} views, independent built {}",
            shared.views_built,
            independent.views_built
        );
    }
}

#[test]
fn stats_are_identical_across_worker_counts() {
    let ex = paper_example::build();
    let batch = mixed_batch(&ex);
    for strategy in [BatchStrategy::Shared, BatchStrategy::SharedInterval] {
        // Pinned so the 4-worker run really threads even on a 1-core host;
        // timings are measured wall-clock and are the one legitimately
        // nondeterministic part of the report, so compare them zeroed.
        let (r1, s1) = server(&ex, strategy)
            .with_pinned_workers(1)
            .query_batch_with_stats(&batch);
        let (r4, s4) = server(&ex, strategy)
            .with_pinned_workers(4)
            .query_batch_with_stats(&batch);
        assert_eq!(
            s1.timings_zeroed(),
            s4.timings_zeroed(),
            "{strategy:?}: stats depend on worker count"
        );
        for (a, b) in r1.iter().zip(&r4) {
            assert_eq!(
                a.path, b.path,
                "{strategy:?}: answers depend on worker count"
            );
        }
    }
}

// The four `warm_*` pins: interval groups whose members differ from the
// lead in source point, departure instant or both.

#[test]
fn warm_donor_fully_sealed_at_member_departure_matches_per_query() {
    // 23:30: d18 is sealed, so the lead's frontier dies immediately (every
    // p3 exit rejected). The 23:40 members are replayed against that dead
    // frontier and must reach the identical "no such routes" verdicts — or
    // fall back — never a phantom route.
    let ex = paper_example::build();
    let srv = server(&ex, BatchStrategy::SharedInterval);
    let elsewhere = IndoorPoint::new(ex.p3.partition, indoor_geom_point(1.0, 1.0));
    let far = IndoorPoint::new(ex.p3.partition, indoor_geom_point(2.5, 0.5));
    let batch = vec![
        Query::new(ex.p3, ex.p4, TimeOfDay::hm(23, 30)),
        Query::new(elsewhere, ex.p2, TimeOfDay::hm(23, 30)),
        Query::new(far, ex.p4, TimeOfDay::hm(23, 40)),
        Query::new(elsewhere, ex.p4, TimeOfDay::hm(23, 40)),
    ];
    let plan = srv.plan(&batch, false);
    assert_eq!(
        plan.searches(),
        1,
        "both night instants must share one interval group"
    );
    assert_pinned(&srv, &batch, "sealed lead frontier");
    let got = srv.try_query_batch(&batch);
    assert!(
        !result_found(&got[0]) && !result_found(&got[2]),
        "d18 sealed: the p4 legs must be unroutable"
    );
    let (_, stats) = srv.query_batch_with_stats(&batch);
    assert!(stats.is_consistent(), "{stats}");
    assert_eq!(stats.replayed + stats.retimed, 3, "{stats}");
}

#[test]
fn warm_merged_singletons_donate_an_empty_frontier_delta() {
    // Two queries that no exact key merges (different points and instants)
    // share one interval group. The lead is a lone query whose frontier
    // answers the other — including when the lead's own target is
    // unreachable (empty result, non-empty frontier).
    let ex = paper_example::build();
    let srv = server(&ex, BatchStrategy::SharedInterval);
    let elsewhere = IndoorPoint::new(ex.p3.partition, indoor_geom_point(1.0, 1.0));
    let batch = vec![
        Query::new(ex.p3, ex.p4, TimeOfDay::hm(9, 0)),
        Query::new(elsewhere, ex.p2, TimeOfDay::hm(9, 20)),
    ];
    let plan = srv.plan(&batch, false);
    assert_eq!(plan.searches(), 1, "two singletons must merge");
    assert_eq!(plan.shared_queries(), 2);
    assert_pinned(&srv, &batch, "merged singletons");
    let (_, stats) = srv.query_batch_with_stats(&batch);
    assert!(stats.is_consistent(), "{stats}");
    assert_eq!(stats.replayed + stats.retimed, 1, "{stats}");
}

#[test]
fn warm_member_source_on_a_donated_settled_door_matches_per_query() {
    // The 9:20 members start bitwise on d18's position — a door the lead's
    // sweep settles. Their replay sees a 0.0-length source leg onto a
    // settled label; the answer must still be byte-for-byte per-query.
    let ex = paper_example::build();
    let srv = server(&ex, BatchStrategy::SharedInterval);
    let on_door = IndoorPoint::new(ex.p3.partition, ex.space.door(ex.d(18)).position);
    let elsewhere = IndoorPoint::new(ex.p3.partition, indoor_geom_point(1.0, 1.0));
    let batch = vec![
        Query::new(ex.p3, ex.p4, TimeOfDay::hm(9, 0)),
        Query::new(elsewhere, ex.p2, TimeOfDay::hm(9, 0)),
        Query::new(on_door, ex.p4, TimeOfDay::hm(9, 20)),
        Query::new(on_door, ex.p1, TimeOfDay::hm(9, 20)),
    ];
    let plan = srv.plan(&batch, false);
    assert_eq!(plan.searches(), 1);
    assert_pinned(&srv, &batch, "member source on a settled door");
    let got = srv.try_query_batch(&batch);
    assert!(result_found(&got[2]) && result_found(&got[3]));
    let (_, stats) = srv.query_batch_with_stats(&batch);
    assert!(stats.is_consistent(), "{stats}");
    assert_eq!(stats.replayed + stats.retimed, 3, "{stats}");
}

#[test]
fn warm_earlier_departing_seeded_member_matches_per_query() {
    // Three queries depart at 9:20 and two *earlier* at 9:05, submitted
    // after them. The planner must rotate a 9:05 query into the lead slot,
    // so the later p3 member is retimed by a non-negative shift and never
    // through the saturating-to-zero timestamp delta; the others are
    // replayed (or fall back), byte-for-byte.
    let ex = paper_example::build();
    let srv = server(&ex, BatchStrategy::SharedInterval);
    let elsewhere = IndoorPoint::new(ex.p3.partition, indoor_geom_point(1.0, 1.0));
    let far = IndoorPoint::new(ex.p3.partition, indoor_geom_point(2.5, 0.5));
    let batch = vec![
        Query::new(ex.p3, ex.p4, TimeOfDay::hm(9, 20)),
        Query::new(elsewhere, ex.p2, TimeOfDay::hm(9, 20)),
        Query::new(far, ex.p1, TimeOfDay::hm(9, 20)),
        Query::new(ex.p3, ex.p2, TimeOfDay::hm(9, 5)), // earliest, same point as slot 0
        Query::new(elsewhere, ex.p4, TimeOfDay::hm(9, 5)),
    ];
    let plan = srv.plan(&batch, false);
    assert_eq!(plan.searches(), 1, "9:05 and 9:20 share one interval group");
    assert_pinned(&srv, &batch, "earlier-departing member");
    let (_, stats) = srv.query_batch_with_stats(&batch);
    assert!(stats.is_consistent(), "{stats}");
    assert_eq!(stats.retimed, 1, "the 9:20 p3 query is retimed: {stats}");
    assert_eq!(stats.replayed + stats.retimed, 4, "{stats}");
}

#[test]
fn plan_shape_is_a_pure_function_of_the_batch() {
    // Two fresh servers must produce byte-identical plans for the same
    // batch at every sharing level: grouping runs over ordered maps, so no
    // hasher seed can reorder groups or rosters between processes.
    let ex = paper_example::build();
    let batch = mixed_batch(&ex);
    for strategy in [BatchStrategy::Shared, BatchStrategy::SharedInterval] {
        let a = server(&ex, strategy).plan(&batch, false);
        let b = server(&ex, strategy).plan(&batch, false);
        assert_eq!(
            format!("{a:?}"),
            format!("{b:?}"),
            "{strategy:?}: plan differs between identical servers"
        );
    }
}
