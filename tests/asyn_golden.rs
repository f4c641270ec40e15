//! Golden pin of ITG/A's and ITG/S's per-query answers and search stats.
//!
//! Fifty fixed queries on the paper's 5-floor mall (|T| = 8), half of them
//! departing one to five minutes before a checkpoint so their walks cross
//! it, run under both `AsynMode`s and both `ExpandPolicy`s, and through
//! ITG/S under both `ExpandPolicy`s. Each line of
//! `tests/golden/asyn_stats.txt` records one answer: its length and door
//! sequence, `graph_updates` (how often `Asyn_Check` refreshed the current
//! view — `Faithful`'s advancing cursor), `reduced_graph_bytes` (the
//! Figure 7 memory term) and the search counters (heap pushes and pops,
//! settled doors, expanded partitions, relaxations, improvements, `TV_Check`
//! calls and rejections, `search_bytes`). Any change to how ITG/A stores or
//! hands out its reduced views, or to how Algorithm 1's loop is organised,
//! must leave every line byte-identical.
//!
//! After an intended semantic change, regenerate the file with
//! `ITSPQ_BLESS_GOLDEN=1 cargo test --test asyn_golden` and review the diff.

use std::fmt::Write as _;

use itspq_repro::core::{AsynMode, QueryResult};
use itspq_repro::prelude::*;
use itspq_repro::synthetic::{
    build_mall, generate_queries, HoursConfig, MallConfig, QueryGenConfig, ShopHours,
};

const GOLDEN: &str = include_str!("golden/asyn_stats.txt");
const GOLDEN_PATH: &str = concat!(env!("CARGO_MANIFEST_DIR"), "/tests/golden/asyn_stats.txt");

/// The fixed query set: generated (ps, pt) pairs at δs2t = 1500 m, with
/// even-numbered queries departing 1–5 min before a non-midnight checkpoint
/// and odd-numbered ones spread over the whole day.
fn queries(graph: &ItGraph) -> Vec<Query> {
    let checkpoints: Vec<TimeOfDay> = graph.space().checkpoints().times()[1..].to_vec();
    generate_queries(
        graph,
        &QueryGenConfig::default().with_count(50).with_seed(0x601D),
    )
    .iter()
    .enumerate()
    .map(|(i, gq)| {
        let secs = if i % 2 == 0 {
            let cp = checkpoints[(i / 2) % checkpoints.len()];
            let lead = 60.0 * (1 + (i / 2) % 5) as f64;
            cp.seconds() - lead
        } else {
            // 00:17 plus steps of 57 min: every interval gets visited.
            17.0 * 60.0 + 57.0 * 60.0 * (i / 2) as f64
        };
        let time = TimeOfDay::from_seconds(secs % 86_400.0).expect("within the day");
        Query::new(gq.query.source, gq.query.target, time)
    })
    .collect()
}

/// One golden line: the answer plus every search counter that does not
/// depend on timing or on what earlier queries left behind.
fn write_line(out: &mut String, row: &str, i: usize, q: &Query, res: &QueryResult) {
    let answer = match &res.path {
        Some(p) => {
            let doors: Vec<String> = p.doors().map(|d| d.index().to_string()).collect();
            format!("len={:.6} doors={}", p.length, doors.join(","))
        }
        None => "no-route".to_owned(),
    };
    let s = &res.stats;
    writeln!(
        out,
        "{row} q{i:02} t={} {answer} updates={} view_bytes={} pushes={} pops={} settled={} \
         expanded={} relax={} improved={} tv_checks={} tv_rejects={} search_bytes={}",
        q.time,
        s.graph_updates,
        s.reduced_graph_bytes,
        s.heap_pushes,
        s.heap_pops,
        s.doors_settled,
        s.partitions_expanded,
        s.relaxations,
        s.improvements,
        s.tv_checks,
        s.tv_rejections,
        s.search_bytes,
    )
    .expect("writing to a String cannot fail");
}

fn render() -> String {
    let hours = ShopHours::sample(&HoursConfig::paper_default());
    let graph = ItGraph::shared(build_mall(&MallConfig::paper_default(), &hours));
    let qs = queries(&graph);
    let expands = [
        ("pruned", ExpandPolicy::PaperPruned),
        ("full", ExpandPolicy::FullRelax),
    ];
    let mut out = String::new();
    for (mode_name, mode) in [("faithful", AsynMode::Faithful), ("exact", AsynMode::Exact)] {
        for (expand_name, expand) in expands {
            let config = ItspqConfig::default()
                .with_asyn_mode(mode)
                .with_expand(expand);
            let engine = AsynEngine::new(graph.clone(), config);
            let row = format!("{mode_name}/{expand_name}");
            for (i, q) in qs.iter().enumerate() {
                write_line(&mut out, &row, i, q, &engine.query(q));
            }
        }
    }
    for (expand_name, expand) in expands {
        let engine = SynEngine::new(graph.clone(), ItspqConfig::default().with_expand(expand));
        let row = format!("syn/{expand_name}");
        for (i, q) in qs.iter().enumerate() {
            write_line(&mut out, &row, i, q, &engine.query(q));
        }
    }
    out
}

#[test]
fn asyn_answers_and_stats_match_golden() {
    let actual = render();
    if std::env::var_os("ITSPQ_BLESS_GOLDEN").is_some() {
        std::fs::write(GOLDEN_PATH, &actual).expect("write golden file");
        return;
    }
    for (line, (want, got)) in GOLDEN.lines().zip(actual.lines()).enumerate() {
        assert_eq!(want, got, "golden line {} differs", line + 1);
    }
    assert_eq!(GOLDEN.lines().count(), actual.lines().count());
}

#[test]
fn golden_covers_checkpoint_crossings_and_view_switches() {
    // The pin is only worth its name if it exercises what it pins: crossing
    // walks in both modes, and queries touching more than one view.
    let mut faithful_updates = 0;
    let mut exact_updates = 0;
    let mut routes = 0;
    for line in GOLDEN.lines() {
        let updates: usize = line
            .split(" updates=")
            .nth(1)
            .and_then(|s| s.split(' ').next())
            .and_then(|s| s.parse().ok())
            .expect("every golden line has updates=");
        if line.starts_with("faithful/") {
            faithful_updates += usize::from(updates > 0);
        } else if line.starts_with("exact/") {
            exact_updates += usize::from(updates > 0);
        } else {
            assert_eq!(updates, 0, "ITG/S never updates a view: {line}");
        }
        routes += usize::from(!line.contains("no-route"));
    }
    assert_eq!(GOLDEN.lines().count(), 300);
    assert!(
        faithful_updates >= 10,
        "{faithful_updates} Faithful crossings"
    );
    assert!(exact_updates >= 10, "{exact_updates} Exact view switches");
    assert!(routes >= 150, "{routes} routed answers");
}
