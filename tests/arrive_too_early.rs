//! A deterministic demonstration of the **arrive-too-early anomaly** left
//! open by the paper's no-waiting semantics (`ARCHITECTURE.md`
//! § *Semantic gaps*, item 5).
//!
//! Setup: two routes from `ps` to `pt`. The short one crosses door `gate`
//! which only opens at 8:00. Departing at 7:55, the short route arrives at
//! the gate *before* 8:00 — invalid. A longer detour arrives *after* 8:00 and
//! is perfectly valid. A Dijkstra-style search (the paper's Algorithm 1 with
//! either check) keeps only the shortest distance per door, rejects the gate
//! at its earliest arrival, and on this topology answers "no such routes",
//! while the exhaustive oracle proves a valid path exists.
//!
//! The waiting extension resolves the anomaly: wait at the gate until 8:00.

use itspq_repro::core::waiting::{earliest_arrival, WaitPolicy};
use itspq_repro::core::{baselines, validate_path, AsynMode};
use itspq_repro::geom::Point;
use itspq_repro::prelude::*;
use itspq_repro::space::Connection;

/// `ps` —(short hall / long hall)→ [gate room] —gate→ [target room].
///
/// Both halls lead to the same gate room; the gate door is the only way into
/// the target. Short hall: 100 m to the gate. Long hall: 450 m to the gate.
/// At 5 km/h, 100 m ≈ 72 s and 450 m ≈ 324 s. Departing at 7:55:30, the short
/// route reaches the gate at ≈7:56:42 (closed), the long one at ≈8:00:54
/// (open).
fn build() -> (IndoorSpace, IndoorPoint, IndoorPoint) {
    let mut b = VenueBuilder::new();
    let start = b.add_partition("start", PartitionKind::Public);
    let short_hall = b.add_partition("short hall", PartitionKind::Public);
    let long_hall = b.add_partition("long hall", PartitionKind::Public);
    let gate_room = b.add_partition("gate room", PartitionKind::Public);
    let target = b.add_partition("target", PartitionKind::Public);

    let always = AtiList::always_open();
    let d_short = b.add_door(
        "short-in",
        DoorKind::Public,
        always.clone(),
        Point::new(10.0, 10.0),
    );
    b.connect(d_short, Connection::TwoWay(start, short_hall))
        .unwrap();
    let d_long = b.add_door(
        "long-in",
        DoorKind::Public,
        always.clone(),
        Point::new(10.0, -10.0),
    );
    b.connect(d_long, Connection::TwoWay(start, long_hall))
        .unwrap();

    // Both halls end at the gate room.
    let d_short_out = b.add_door(
        "short-out",
        DoorKind::Public,
        always.clone(),
        Point::new(100.0, 10.0),
    );
    b.connect(d_short_out, Connection::TwoWay(short_hall, gate_room))
        .unwrap();
    let d_long_out = b.add_door(
        "long-out",
        DoorKind::Public,
        always.clone(),
        Point::new(100.0, -10.0),
    );
    b.connect(d_long_out, Connection::TwoWay(long_hall, gate_room))
        .unwrap();
    // The long hall really is long: override its interior distance.
    b.set_distance(long_hall, d_long, d_long_out, 430.0)
        .unwrap();

    let gate = b.add_door(
        "gate",
        DoorKind::Public,
        AtiList::hm(&[((8, 0), (20, 0))]),
        Point::new(110.0, 0.0),
    );
    b.connect(gate, Connection::TwoWay(gate_room, target))
        .unwrap();

    let space = b.build().unwrap();
    let ps = IndoorPoint::new(start, Point::new(0.0, 0.0));
    let pt = IndoorPoint::new(target, Point::new(115.0, 0.0));
    (space, ps, pt)
}

#[test]
fn dijkstra_style_engines_miss_the_late_path() {
    let (space, ps, pt) = build();
    let graph = ItGraph::new(space);
    let q = Query::new(ps, pt, TimeOfDay::hms(7, 55, 30));

    // ITG/S (either expansion policy) and the sound ITG/A(Exact) answer
    // "no such routes": Dijkstra keeps only the shortest distance per door.
    for cfg in [ItspqConfig::default(), ItspqConfig::full_relax()] {
        assert!(SynEngine::new(graph.clone(), cfg).query(&q).path.is_none());
        let exact = AsynEngine::new(graph.clone(), cfg.with_asyn_mode(AsynMode::Exact));
        assert!(exact.query(&q).path.is_none());
    }

    // Yet a valid (longer) path exists: the oracle takes the long hall.
    let oracle = baselines::exhaustive_shortest(&graph, &q, &ItspqConfig::default(), 8)
        .expect("the detour is valid");
    assert!(oracle
        .doors()
        .any(|d| graph.space().door(d).name == "long-out"));
    validate_path(graph.space(), &oracle, q.time, WALKING_SPEED).unwrap();

    // Sanity: five minutes later the gate is open and the engine takes the
    // short route, which is now valid.
    let q2 = Query::new(ps, pt, TimeOfDay::hm(8, 1));
    let path = SynEngine::new(graph.clone(), ItspqConfig::default())
        .query(&q2)
        .path
        .expect("short route valid once the gate is open");
    assert!(path
        .doors()
        .any(|d| graph.space().door(d).name == "short-out"));
    assert!(path.length < oracle.length);
}

#[test]
fn faithful_asyn_accepts_an_invalid_path_here() {
    // A second face of the same corner, faithful to the paper's Algorithm 4:
    // relaxing the LONG hall's exit (arrival 8:00:54) advances the single
    // current graph past the 8:00 checkpoint; the SHORT route's later
    // relaxation of the gate (arrival 7:56:53) is then judged against the
    // 8:00 interval and accepted — although the gate is closed at 7:56:53.
    let (space, ps, pt) = build();
    let graph = ItGraph::new(space);
    let q = Query::new(ps, pt, TimeOfDay::hms(7, 55, 30));
    let faithful = AsynEngine::new(graph.clone(), ItspqConfig::default());
    let res = faithful.query(&q);
    assert!(
        res.stats.graph_updates >= 1,
        "the premature update must occur"
    );
    let path = res
        .path
        .expect("the paper's ITG/A accepts the short route here");
    let verdict = validate_path(graph.space(), &path, q.time, WALKING_SPEED);
    assert!(
        matches!(
            verdict,
            Err(itspq_repro::core::PathViolation::DoorClosed { .. })
        ),
        "the accepted path crosses the still-closed gate: {verdict:?}"
    );
}

#[test]
fn waiting_extension_resolves_the_anomaly() {
    let (space, ps, pt) = build();
    let graph = ItGraph::new(space);
    let q = Query::new(ps, pt, TimeOfDay::hms(7, 55, 30));
    let timed = earliest_arrival(&graph, &q, &ItspqConfig::default(), WaitPolicy::Unlimited)
        .expect("waiting at the gate until 8:00 works");
    // Earliest arrival takes the SHORT route and waits at the gate, beating
    // the oracle's no-wait detour on arrival time.
    assert!(timed
        .hops
        .iter()
        .any(|h| graph.space().door(h.door).name == "short-out"));
    assert!(timed.total_wait.seconds() > 0.0);
    let oracle = baselines::exhaustive_shortest(&graph, &q, &ItspqConfig::default(), 8).unwrap();
    assert!(
        timed.arrival < oracle.arrival,
        "waiting beats detouring here"
    );
}
