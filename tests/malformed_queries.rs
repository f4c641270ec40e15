//! Regression tests: malformed queries surface as typed [`QueryError`]s —
//! and even unvalidated, a degenerate query must never panic a search.
//!
//! Motivation: the engines run on `VenueServer` worker threads, where a
//! panic poisons the whole batch. A NaN coordinate or an out-of-range
//! partition therefore has to be a *value* on every path: `try_query`
//! rejects it up front, and the raw `query` path (heap ordering, travel-time
//! projection, reconstruction) is total over non-finite distances.

use indoor_geom::Point;
use indoor_space::{paper_example, IndoorPoint, PartitionId};
use indoor_time::TimeOfDay;
use itspq_core::{AsynEngine, ItGraph, ItspqConfig, Query, QueryError, SynEngine, VenueServer};

fn nan_query(ex: &paper_example::PaperExample) -> Query {
    let src = IndoorPoint::new(ex.p3.partition, Point::new(f64::NAN, 2.0));
    Query::new(src, ex.p4, TimeOfDay::hm(12, 0))
}

#[test]
fn syn_try_query_rejects_nan_source() {
    let ex = paper_example::build();
    let engine = SynEngine::new(ItGraph::new(ex.space.clone()), ItspqConfig::default());
    let err = engine.try_query(&nan_query(&ex)).unwrap_err();
    assert!(
        matches!(
            err,
            QueryError::NonFinitePosition {
                endpoint: "source",
                ..
            }
        ),
        "unexpected error: {err:?}"
    );
    // The error formats usefully.
    assert!(err.to_string().contains("source"));
}

#[test]
fn asyn_try_query_rejects_infinite_target() {
    let ex = paper_example::build();
    let engine = AsynEngine::new(ItGraph::new(ex.space.clone()), ItspqConfig::default());
    let bad = IndoorPoint::new(ex.p4.partition, Point::new(f64::INFINITY, 0.0));
    let err = engine
        .try_query(&Query::new(ex.p3, bad, TimeOfDay::hm(12, 0)))
        .unwrap_err();
    assert!(matches!(
        err,
        QueryError::NonFinitePosition {
            endpoint: "target",
            ..
        }
    ));
}

#[test]
fn try_query_rejects_unknown_partition() {
    let ex = paper_example::build();
    let engine = SynEngine::new(ItGraph::new(ex.space.clone()), ItspqConfig::default());
    let bad = IndoorPoint::new(PartitionId(9_999), Point::new(1.0, 1.0));
    let err = engine
        .try_query(&Query::new(ex.p3, bad, TimeOfDay::hm(12, 0)))
        .unwrap_err();
    match err {
        QueryError::UnknownPartition {
            endpoint,
            index,
            num_partitions,
        } => {
            assert_eq!(endpoint, "target");
            assert_eq!(index, 9_999);
            assert_eq!(num_partitions, ex.space.num_partitions());
        }
        other => panic!("unexpected error: {other:?}"),
    }
}

/// A query as a client would send it, departing an hour *before* midnight:
/// deserialisation does not range-check `TimeOfDay`, so only validation
/// stands between this value and the search.
fn negative_time_query(ex: &paper_example::PaperExample) -> Query {
    let json = format!(
        r#"{{"source":{},"target":{},"time":-3600.0}}"#,
        serde_json::to_string(&ex.p3).expect("serialise source"),
        serde_json::to_string(&ex.p4).expect("serialise target"),
    );
    serde_json::from_str(&json).expect("parses despite the range")
}

#[test]
fn try_query_rejects_out_of_range_time() {
    let ex = paper_example::build();
    let q = negative_time_query(&ex);
    assert_eq!(q.time.seconds(), -3600.0);
    let want = QueryError::TimeOutOfRange { seconds: -3600.0 };
    let syn = SynEngine::new(ItGraph::new(ex.space.clone()), ItspqConfig::default());
    let asyn = AsynEngine::new(ItGraph::new(ex.space.clone()), ItspqConfig::default());
    assert_eq!(syn.try_query(&q).unwrap_err(), want);
    assert_eq!(asyn.try_query(&q).unwrap_err(), want);
    assert!(want.to_string().contains("-3600"));
}

#[test]
fn try_query_batch_rejects_out_of_range_time() {
    let ex = paper_example::build();
    let server = VenueServer::new(ItGraph::shared(ex.space.clone()));
    let good = Query::new(ex.p3, ex.p4, TimeOfDay::hm(9, 0));
    let results = server.try_query_batch(&[good, negative_time_query(&ex), good]);
    assert_eq!(
        results[1].as_ref().unwrap_err(),
        &QueryError::TimeOutOfRange { seconds: -3600.0 }
    );
    for r in [&results[0], &results[2]] {
        let path = r.as_ref().expect("well-formed query").path.as_ref();
        assert!((path.expect("feasible at 9:00").length - 12.0).abs() < 1e-9);
    }
}

#[test]
fn try_query_accepts_well_formed_queries() {
    let ex = paper_example::build();
    let engine = SynEngine::new(ItGraph::new(ex.space.clone()), ItspqConfig::default());
    let res = engine
        .try_query(&Query::new(ex.p3, ex.p4, TimeOfDay::hm(9, 0)))
        .expect("well-formed query");
    assert!((res.path.expect("feasible at 9:00").length - 12.0).abs() < 1e-9);
}

#[test]
fn server_try_query_rejects_without_poisoning() {
    let ex = paper_example::build();
    let server = VenueServer::new(ItGraph::shared(ex.space.clone()));
    assert!(server.try_query(&nan_query(&ex)).is_err());
    // The server still answers well-formed queries afterwards.
    let ok = server
        .try_query(&Query::new(ex.p3, ex.p4, TimeOfDay::hm(9, 0)))
        .expect("well-formed query");
    assert!(ok.path.is_some());
}

#[test]
fn unvalidated_nan_query_degrades_to_no_route_not_panic() {
    // Even bypassing validation, a NaN coordinate must not panic the search:
    // NaN distances lose every relaxation contest under the total order, so
    // the expansion simply never leaves the source partition.
    let ex = paper_example::build();
    let syn = SynEngine::new(ItGraph::new(ex.space.clone()), ItspqConfig::default());
    let asyn = AsynEngine::new(ItGraph::new(ex.space.clone()), ItspqConfig::default());
    let q = nan_query(&ex);
    assert!(syn.query(&q).path.is_none());
    assert!(asyn.query(&q).path.is_none());
}

#[test]
fn unvalidated_infinite_query_degrades_to_no_route_not_panic() {
    // An infinite coordinate projects an infinite travel time; the saturating
    // projection keeps it a value and `inf < inf` never improves a label.
    let ex = paper_example::build();
    let syn = SynEngine::new(ItGraph::new(ex.space.clone()), ItspqConfig::default());
    let src = IndoorPoint::new(ex.p3.partition, Point::new(f64::INFINITY, 2.0));
    let res = syn.query(&Query::new(src, ex.p4, TimeOfDay::hm(12, 0)));
    assert!(res.path.is_none());
}

#[test]
fn ksp_and_reachability_survive_nan_input() {
    let ex = paper_example::build();
    let g = ItGraph::new(ex.space.clone());
    let q = nan_query(&ex);
    assert!(itspq_core::k_shortest_paths(&g, &q, &ItspqConfig::full_relax(), 3).is_empty());
    let map = itspq_core::one_to_many::reachability(
        &g,
        q.source,
        TimeOfDay::hm(12, 0),
        &ItspqConfig::default(),
    );
    // Only the (degenerate) source partition is "reachable" at distance 0.
    assert_eq!(map.reachable_partitions(), 1);
}
