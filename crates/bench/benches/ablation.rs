//! Ablations over the design choices called out in `ARCHITECTURE.md`
//! § *Semantic gaps*:
//!
//! * `ExpandPolicy::PaperPruned` vs `FullRelax` (visited-partition pruning);
//! * `AsynMode::Faithful` vs `Exact` (drop-on-refresh vs re-check);
//! * ITG/A with warm views vs the cost of building them (`Graph_Update` for
//!   every checkpoint interval — what a cold engine pays once);
//! * the temporal-oblivious and snapshot baselines vs ITG/S;
//! * the waiting extension (earliest arrival, unlimited waiting).

use criterion::{criterion_group, criterion_main, Criterion};
use indoor_time::TimeOfDay;
use itspq_bench::Workload;
use itspq_core::{
    baselines, waiting, AsynEngine, AsynMode, ExpandPolicy, ItspqConfig, Query, ReducedGraph,
    SynEngine,
};
use std::hint::black_box;
use std::time::Duration;

fn queries(w: &Workload) -> Vec<Query> {
    w.queries(1500.0, TimeOfDay::hm(12, 0), 2)
}

fn bench_expand_policy(c: &mut Criterion) {
    let w = Workload::paper(8);
    let qs = queries(&w);
    let mut g = c.benchmark_group("ablation");
    g.sample_size(20)
        .warm_up_time(Duration::from_millis(300))
        .measurement_time(Duration::from_millis(1200));
    let pruned = SynEngine::new(w.graph.clone(), ItspqConfig::default());
    let full = SynEngine::new(
        w.graph.clone(),
        ItspqConfig::default().with_expand(ExpandPolicy::FullRelax),
    );
    g.bench_function("expand/paper-pruned", |b| {
        b.iter(|| {
            qs.iter().for_each(|q| {
                let _ = black_box(pruned.query(black_box(q)));
            })
        });
    });
    g.bench_function("expand/full-relax", |b| {
        b.iter(|| {
            qs.iter().for_each(|q| {
                let _ = black_box(full.query(black_box(q)));
            })
        });
    });
    g.finish();
}

fn bench_asyn_modes(c: &mut Criterion) {
    let w = Workload::paper(8);
    // Query just before a checkpoint so refreshes actually occur.
    let qs = w.queries(1500.0, TimeOfDay::hms(10, 29, 0), 2);
    let mut g = c.benchmark_group("ablation");
    g.sample_size(20)
        .warm_up_time(Duration::from_millis(300))
        .measurement_time(Duration::from_millis(1200));
    let faithful = AsynEngine::new(w.graph.clone(), ItspqConfig::default());
    let exact = AsynEngine::new(
        w.graph.clone(),
        ItspqConfig::default().with_asyn_mode(AsynMode::Exact),
    );
    for q in &qs {
        let _ = faithful.query(q);
        let _ = exact.query(q);
    }
    g.bench_function("asyn/faithful", |b| {
        b.iter(|| {
            qs.iter().for_each(|q| {
                let _ = black_box(faithful.query(black_box(q)));
            })
        });
    });
    g.bench_function("asyn/exact", |b| {
        b.iter(|| {
            qs.iter().for_each(|q| {
                let _ = black_box(exact.query(black_box(q)));
            })
        });
    });
    g.finish();
}

fn bench_cache_warmth(c: &mut Criterion) {
    let w = Workload::paper(8);
    let qs = queries(&w);
    let mut g = c.benchmark_group("ablation");
    g.sample_size(20)
        .warm_up_time(Duration::from_millis(300))
        .measurement_time(Duration::from_millis(1500));
    let warm = AsynEngine::new(w.graph.clone(), ItspqConfig::default());
    warm.precompute_all();
    let space = w.graph.space();
    g.bench_function("itg-a/warm-cache", |b| {
        b.iter(|| {
            qs.iter().for_each(|q| {
                let _ = black_box(warm.query(black_box(q)));
            })
        });
    });
    g.bench_function("itg-a/graph-update-all-intervals", |b| {
        b.iter(|| {
            space.checkpoints().times().iter().for_each(|&t| {
                let _ = black_box(ReducedGraph::build(space, black_box(t)));
            })
        });
    });
    g.finish();
}

fn bench_baselines(c: &mut Criterion) {
    let w = Workload::paper(8);
    let qs = queries(&w);
    let cfg = ItspqConfig::default();
    let mut g = c.benchmark_group("ablation");
    g.sample_size(20)
        .warm_up_time(Duration::from_millis(300))
        .measurement_time(Duration::from_millis(1200));
    let syn = SynEngine::new(w.graph.clone(), cfg);
    g.bench_function("baseline/itg-s", |b| {
        b.iter(|| {
            qs.iter().for_each(|q| {
                let _ = black_box(syn.query(black_box(q)));
            })
        });
    });
    g.bench_function("baseline/static", |b| {
        b.iter(|| {
            qs.iter().for_each(|q| {
                let _ = black_box(baselines::static_shortest_path(
                    &w.graph,
                    black_box(q),
                    &cfg,
                ));
            });
        });
    });
    g.bench_function("baseline/snapshot", |b| {
        b.iter(|| {
            qs.iter().for_each(|q| {
                let _ = black_box(baselines::snapshot_shortest_path(
                    &w.graph,
                    black_box(q),
                    &cfg,
                ));
            });
        });
    });
    g.bench_function("extension/waiting-unlimited", |b| {
        b.iter(|| {
            qs.iter().for_each(|q| {
                let _ = black_box(waiting::earliest_arrival(
                    &w.graph,
                    black_box(q),
                    &cfg,
                    waiting::WaitPolicy::Unlimited,
                ));
            });
        });
    });
    g.finish();
}

criterion_group!(
    benches,
    bench_expand_policy,
    bench_asyn_modes,
    bench_cache_warmth,
    bench_baselines
);
criterion_main!(benches);
