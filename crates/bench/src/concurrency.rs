//! Multi-threaded throughput measurement: queries/sec vs worker threads on
//! one `Arc`-shared venue.
//!
//! Each sweep point builds a fresh [`VenueServer`] over the same shared
//! graph, warms its reduced-graph cache (so the sweep measures steady-state
//! query throughput, not one-off `Graph_Update` construction), runs one
//! untimed batch, then times `repeats` batches and reports queries/sec plus
//! the speedup over the sweep's first point — put `1` first in
//! `worker_counts` to make that column "vs single-thread".

use std::fmt::Write as _;
use std::path::{Path, PathBuf};
use std::sync::Arc;
use std::time::Instant;

use indoor_synthetic::{generate_queries, QueryGenConfig, SourceDistribution, TimeDistribution};
use indoor_time::TimeOfDay;
use itspq_core::{
    AsynMode, BatchStrategy, ItGraph, ItspqConfig, Query, ServeMethod, ServerConfig, VenueServer,
};

/// One measured (worker count → throughput) point.
#[derive(Debug, Clone, PartialEq)]
pub struct ThroughputPoint {
    /// Worker threads used by the server.
    pub workers: usize,
    /// Queries per batch.
    pub batch_size: usize,
    /// Mean wall-clock seconds per batch.
    pub batch_secs: f64,
    /// Queries per second.
    pub qps: f64,
    /// Throughput relative to the sweep's first point.
    pub speedup: f64,
}

/// Sweeps `worker_counts`, returning one [`ThroughputPoint`] per count.
///
/// Answers are independent of the worker count (see
/// [`VenueServer::query_batch`]); the sweep asserts that invariant on the
/// warm-up batch of every point against the first point's answers.
#[must_use]
pub fn throughput_sweep(
    graph: &Arc<ItGraph>,
    queries: &[Query],
    worker_counts: &[usize],
    repeats: usize,
) -> Vec<ThroughputPoint> {
    let repeats = repeats.max(1);
    let mut points: Vec<ThroughputPoint> = Vec::with_capacity(worker_counts.len());
    let mut reference: Option<Vec<Option<f64>>> = None;
    for &workers in worker_counts {
        let server = VenueServer::new(Arc::clone(graph)).with_workers(workers);
        server.warm();
        let answers = server.query_batch(queries); // untimed warm-up
        let lengths: Vec<Option<f64>> = answers
            .iter()
            .map(|r| r.path.as_ref().map(|p| p.length))
            .collect();
        match &reference {
            None => reference = Some(lengths),
            Some(r) => assert_eq!(
                r, &lengths,
                "answers must not depend on the worker count ({workers} workers)"
            ),
        }

        let start = Instant::now();
        for _ in 0..repeats {
            std::hint::black_box(server.query_batch(std::hint::black_box(queries)));
        }
        let batch_secs = start.elapsed().as_secs_f64() / repeats as f64;
        let qps = if batch_secs > 0.0 {
            queries.len() as f64 / batch_secs
        } else {
            f64::INFINITY
        };
        let speedup = points.first().map_or(1.0, |base| qps / base.qps);
        points.push(ThroughputPoint {
            workers,
            batch_size: queries.len(),
            batch_secs,
            qps,
            speedup,
        });
    }
    points
}

/// One measured (batch size × traffic shape × sharing level) point.
#[derive(Debug, Clone, PartialEq)]
pub struct SharingPoint {
    /// Sharing level label (see [`strategy_label`]).
    pub strategy: &'static str,
    /// Queries per batch.
    pub batch_size: usize,
    /// Traffic-shape label (e.g. `"uniform"`, `"zipf-exact"`,
    /// `"clustered"`).
    pub skew: String,
    /// Physical searches / queries for this batch under this level's planner
    /// (1.0 means nothing groups; 0.25 means four queries per search).
    pub sharing_ratio: f64,
    /// Mean wall-clock seconds per batch.
    pub batch_secs: f64,
    /// Queries per second.
    pub qps: f64,
    /// This level's qps / independent qps on the *same* batch (1.0 for the
    /// independent row itself).
    pub speedup: f64,
}

/// The stable label of a sharing level in tables, CSVs and baselines.
#[must_use]
pub fn strategy_label(strategy: BatchStrategy) -> &'static str {
    match strategy {
        BatchStrategy::Independent => "independent",
        BatchStrategy::Shared => "shared",
        BatchStrategy::SharedInterval => "shared-interval",
    }
}

/// A named traffic shape: how sources and departure times cluster.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct TrafficShape {
    /// Stable label used in tables and baselines.
    pub label: &'static str,
    /// Source-point distribution.
    pub source: SourceDistribution,
    /// Departure-time distribution.
    pub times: TimeDistribution,
}

impl TrafficShape {
    /// Fresh uniform sources, two fixed departure times — nothing to share.
    #[must_use]
    pub fn uniform() -> Self {
        TrafficShape {
            label: "uniform",
            source: SourceDistribution::Uniform,
            times: TimeDistribution::Fixed,
        }
    }

    /// Bit-identical zipf sources at fixed times: what exact-key
    /// ([`BatchStrategy::Shared`]) grouping collapses.
    #[must_use]
    pub fn zipf_exact(exponent: f64, pool: usize) -> Self {
        TrafficShape {
            label: "zipf-exact",
            source: SourceDistribution::Zipf { exponent, pool },
            times: TimeDistribution::Fixed,
        }
    }

    /// Partition-clustered (but distinct) sources at fixed times: invisible
    /// to exact keys, collapsed by interval coalescing.
    #[must_use]
    pub fn door_clustered(exponent: f64, pool: usize) -> Self {
        TrafficShape {
            label: "door-clustered",
            source: SourceDistribution::ZipfNear { exponent, pool },
            times: TimeDistribution::Fixed,
        }
    }

    /// Partition-clustered (but distinct) sources with departure times
    /// jittered inside hot windows: invisible to exact keys, collapsed by
    /// interval coalescing.
    #[must_use]
    pub fn clustered(exponent: f64, pool: usize, spread_secs: f64) -> Self {
        TrafficShape {
            label: "clustered",
            source: SourceDistribution::ZipfNear { exponent, pool },
            times: TimeDistribution::HotSpots {
                exponent,
                pool,
                spread_secs,
            },
        }
    }
}

/// A deterministic skewed batch: `size` queries over two departure times
/// (hot-spot shapes override the times per draw), sources and times drawn
/// per `shape`.
#[must_use]
pub fn skewed_batch(
    graph: &ItGraph,
    size: usize,
    shape: TrafficShape,
    delta: f64,
    seed: u64,
) -> Vec<Query> {
    let times = [TimeOfDay::hm(9, 0), TimeOfDay::hm(17, 30)];
    let mut queries = Vec::with_capacity(size);
    for (i, t) in times.iter().enumerate() {
        let count = size / times.len() + usize::from(i < size % times.len());
        queries.extend(
            generate_queries(
                graph,
                &QueryGenConfig::default()
                    .with_count(count)
                    .with_delta(delta)
                    .with_time(*t)
                    .with_seed(seed ^ (i as u64))
                    .with_source(shape.source)
                    .with_times(shape.times),
            )
            .into_iter()
            .map(|g| g.query),
        );
    }
    queries
}

/// Sweeps batch size × traffic shape × sharing level, timing every
/// [`BatchStrategy`] against `Independent` on identical batches.
///
/// All servers run ITG/A with [`ItspqConfig::full_relax`] in
/// [`AsynMode::Exact`] (full relaxation is the policy under which sharing is
/// answer-preserving, and Exact's order-pure TV verdicts are what interval
/// replay certifies against — the Faithful cursor gates replay off) with
/// `workers` threads; answers are asserted equal on the warm-up pass of
/// every point, so the timed deltas are pure execution-plan effects.
#[must_use]
pub fn sharing_sweep(
    graph: &Arc<ItGraph>,
    batch_sizes: &[usize],
    shapes: &[TrafficShape],
    workers: usize,
    repeats: usize,
    delta: f64,
) -> Vec<SharingPoint> {
    let repeats = repeats.max(1);
    let config = |strategy| ServerConfig {
        workers,
        method: ServeMethod::Asyn,
        strategy,
        // Exact mode: order-pure verdicts (answer-identical to ITG/S),
        // required for interval replay to engage — see the server's
        // `verdict_pure` gate.
        itspq: ItspqConfig::full_relax().with_asyn_mode(AsynMode::Exact),
        ..ServerConfig::default()
    };
    let levels = [BatchStrategy::Shared, BatchStrategy::SharedInterval];
    let independent =
        VenueServer::with_config(Arc::clone(graph), config(BatchStrategy::Independent));
    independent.warm();
    let servers: Vec<(&'static str, VenueServer)> = levels
        .iter()
        .map(|&s| {
            let server = VenueServer::with_config(Arc::clone(graph), config(s));
            server.warm();
            (strategy_label(s), server)
        })
        .collect();

    let time_batch = |server: &VenueServer, batch: &[Query]| {
        let start = Instant::now();
        for _ in 0..repeats {
            std::hint::black_box(server.query_batch(std::hint::black_box(batch)));
        }
        let secs = start.elapsed().as_secs_f64() / repeats as f64;
        let qps = if secs > 0.0 {
            batch.len() as f64 / secs
        } else {
            f64::INFINITY
        };
        (secs, qps)
    };

    let mut points = Vec::with_capacity((1 + levels.len()) * batch_sizes.len() * shapes.len());
    for &shape in shapes {
        for (i, &size) in batch_sizes.iter().enumerate() {
            let batch = skewed_batch(graph, size, shape, delta, 0xB47C4 + i as u64);
            let reference = independent.query_batch(&batch); // untimed warm-up
            let (ind_secs, ind_qps) = time_batch(&independent, &batch);
            points.push(SharingPoint {
                strategy: strategy_label(BatchStrategy::Independent),
                batch_size: batch.len(),
                skew: shape.label.to_string(),
                sharing_ratio: 1.0,
                batch_secs: ind_secs,
                qps: ind_qps,
                speedup: 1.0,
            });
            for &(label, ref server) in &servers {
                let ratio = {
                    let plan = server.plan(&batch, false);
                    plan.searches() as f64 / batch.len().max(1) as f64
                };
                // Untimed warm-up doubling as the answer-parity check.
                let a = server.query_batch(&batch);
                for (x, y) in a.iter().zip(&reference) {
                    assert_eq!(
                        x.path.as_ref().map(|p| p.length),
                        y.path.as_ref().map(|p| p.length),
                        "{label} diverged from independent execution",
                    );
                }
                let (secs, qps) = time_batch(server, &batch);
                points.push(SharingPoint {
                    strategy: label,
                    batch_size: batch.len(),
                    skew: shape.label.to_string(),
                    sharing_ratio: ratio,
                    batch_secs: secs,
                    qps,
                    speedup: qps / ind_qps,
                });
            }
        }
    }
    points
}

/// Renders an aligned text table of a sharing sweep.
#[must_use]
pub fn sharing_table(points: &[SharingPoint]) -> String {
    let mut out = String::new();
    let _ = writeln!(
        out,
        "{:>13} {:>7} {:>12} {:>9} {:>12} {:>12} {:>9}",
        "strategy", "batch", "skew", "searches", "batch_ms", "queries/s", "speedup"
    );
    for p in points {
        let _ = writeln!(
            out,
            "{:>13} {:>7} {:>12} {:>9.2} {:>12.2} {:>12.0} {:>8.2}x",
            p.strategy,
            p.batch_size,
            p.skew,
            p.sharing_ratio,
            p.batch_secs * 1e3,
            p.qps,
            p.speedup
        );
    }
    out
}

/// Writes a sharing sweep as `throughput_sharing.csv` in `dir`.
///
/// # Errors
/// Propagates I/O errors.
pub fn write_sharing_csv(points: &[SharingPoint], dir: &Path) -> std::io::Result<PathBuf> {
    std::fs::create_dir_all(dir)?;
    let path = dir.join("throughput_sharing.csv");
    let mut out = String::from("strategy,batch_size,skew,sharing_ratio,batch_secs,qps,speedup\n");
    for p in points {
        let _ = writeln!(
            out,
            "{},{},{},{:.4},{:.6},{:.1},{:.3}",
            p.strategy, p.batch_size, p.skew, p.sharing_ratio, p.batch_secs, p.qps, p.speedup
        );
    }
    std::fs::write(&path, out)?;
    Ok(path)
}

/// Renders an aligned text table of a sweep.
#[must_use]
pub fn table(points: &[ThroughputPoint]) -> String {
    let mut out = String::new();
    let _ = writeln!(
        out,
        "{:>8} {:>10} {:>12} {:>12} {:>9}",
        "workers", "batch", "batch_ms", "queries/s", "speedup"
    );
    for p in points {
        let _ = writeln!(
            out,
            "{:>8} {:>10} {:>12.2} {:>12.0} {:>8.2}x",
            p.workers,
            p.batch_size,
            p.batch_secs * 1e3,
            p.qps,
            p.speedup
        );
    }
    out
}

/// Writes a sweep as `throughput.csv` in `dir`.
///
/// # Errors
/// Propagates I/O errors.
pub fn write_csv(points: &[ThroughputPoint], dir: &Path) -> std::io::Result<PathBuf> {
    std::fs::create_dir_all(dir)?;
    let path = dir.join("throughput.csv");
    let mut out = String::from("workers,batch_size,batch_secs,qps,speedup\n");
    for p in points {
        let _ = writeln!(
            out,
            "{},{},{:.6},{:.1},{:.3}",
            p.workers, p.batch_size, p.batch_secs, p.qps, p.speedup
        );
    }
    std::fs::write(&path, out)?;
    Ok(path)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::Workload;
    use indoor_synthetic::MallConfig;
    use indoor_time::TimeOfDay;

    #[test]
    fn sweep_reports_consistent_points() {
        let w = Workload::with_mall(MallConfig::single_floor(), 4);
        let mut queries = w.queries(600.0, TimeOfDay::hm(12, 0), 3);
        queries.extend(w.queries(600.0, TimeOfDay::hm(9, 30), 3));
        let points = throughput_sweep(&w.graph, &queries, &[1, 2], 1);
        assert_eq!(points.len(), 2);
        assert_eq!(points[0].workers, 1);
        assert!((points[0].speedup - 1.0).abs() < 1e-12);
        for p in &points {
            assert_eq!(p.batch_size, queries.len());
            assert!(p.qps > 0.0);
        }
        let rendered = table(&points);
        assert!(rendered.contains("queries/s"));
    }

    #[test]
    fn sharing_sweep_groups_under_skew_and_keeps_answers() {
        let w = Workload::with_mall(MallConfig::single_floor(), 4);
        let points = sharing_sweep(
            &w.graph,
            &[8],
            &[TrafficShape::zipf_exact(1.5, 2)],
            2,
            1,
            600.0,
        );
        assert_eq!(points.len(), 3, "independent plus two sharing levels");
        let shared = points.iter().find(|p| p.strategy == "shared").unwrap();
        assert!(
            shared.sharing_ratio < 1.0,
            "a hot pool of 2 sources over 8 queries must form groups"
        );
        assert!(points.iter().all(|p| p.qps > 0.0));
        assert!(sharing_table(&points).contains("searches"));
    }

    #[test]
    fn clustered_traffic_groups_only_at_coarser_levels() {
        let w = Workload::with_mall(MallConfig::single_floor(), 4);
        let points = sharing_sweep(
            &w.graph,
            &[10],
            &[TrafficShape::clustered(1.5, 2, 120.0)],
            2,
            1,
            600.0,
        );
        let ratio = |label: &str| {
            points
                .iter()
                .find(|p| p.strategy == label)
                .map(|p| p.sharing_ratio)
                .unwrap()
        };
        // The coarser key can only merge more.
        assert!(ratio("shared-interval") <= ratio("shared"));
        // Distinct points in hot partitions with jittered times: exact keys
        // almost never match, interval coalescing must realise sharing.
        assert!(
            ratio("shared-interval") < 1.0,
            "clustered traffic must group at interval level, ratios: shared {} interval {}",
            ratio("shared"),
            ratio("shared-interval"),
        );
    }
}
