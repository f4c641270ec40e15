//! Multi-threaded throughput on one shared venue, in two sweeps:
//!
//! 1. **Worker sweep** — queries/sec vs worker threads (1–8) for a
//!    [`itspq_core::VenueServer`] on a mixed-time batch;
//! 2. **Sharing sweep** — queries/sec vs batch size × traffic shape for
//!    both sharing levels ([`itspq_core::BatchStrategy`] `Shared` and
//!    `SharedInterval`) against `Independent` on the *same* batches:
//!    exact-duplicate (source, time) pairs collapse at both levels, while
//!    partition-clustered sources, at one instant or with jittered
//!    departures, collapse only under interval coalescing.
//!
//! The default run uses the paper's five-floor mall and writes the committed
//! `BENCH_throughput.json` baseline plus `results/throughput*.csv`.
//! `--quick` (wired into CI) shrinks the venue to a single floor, asserts a
//! minimum realised grouping ratio per sharing level on its natural batch
//! shapes (and that the interval key never groups less than the exact
//! key), asserts that each level at least matches independent execution
//! on those shapes, and exits non-zero if the hot batch exceeds a generous
//! wall-clock budget — the serving-path analogue of `construction --quick`.

use std::fmt::Write as _;
use std::path::Path;

use indoor_synthetic::MallConfig;
use indoor_time::TimeOfDay;
use itspq_bench::concurrency::{self, SharingPoint, ThroughputPoint, TrafficShape};
use itspq_bench::Workload;

/// Generous CI budget for one shared pass over the largest quick batch, in
/// seconds. The measured value on a pinned single-core container is well
/// under 0.1 s; tripping this means batch serving got ~two orders of
/// magnitude slower.
const QUICK_BUDGET_SECS: f64 = 10.0;

fn main() {
    let quick = std::env::args().any(|a| a == "--quick");
    let (workload, per_time) = if quick {
        (Workload::with_mall(MallConfig::single_floor(), 8), 16)
    } else {
        (Workload::paper(8), 64)
    };
    let delta = if quick { 600.0 } else { 1500.0 };

    // Traffic mix: morning opening, noon default, evening, late night.
    let mut queries = Vec::new();
    for (h, m) in [(8, 50), (12, 0), (19, 30), (22, 40)] {
        queries.extend(workload.queries(delta, TimeOfDay::hm(h, m), per_time));
    }

    let stats = workload.graph.space().stats();
    println!(
        "venue: {} partitions, {} doors, {} floors; batch: {} queries, |T| = {}",
        stats.partitions,
        stats.doors,
        stats.floors,
        queries.len(),
        workload.t_size
    );
    let host_cores = std::thread::available_parallelism().map_or(1, std::num::NonZeroUsize::get);
    println!("host parallelism: {host_cores}");

    let repeats = if quick { 2 } else { 5 };
    let points = concurrency::throughput_sweep(&workload.graph, &queries, &[1, 2, 4, 8], repeats);
    print!("{}", concurrency::table(&points));

    if let Some(p4) = points.iter().find(|p| p.workers == 4) {
        println!(
            "4-worker speedup over single-thread: {:.2}x{}",
            p4.speedup,
            if host_cores < 4 {
                " (host has fewer than 4 cores; expect ~1x here, >1.5x on multicore)"
            } else {
                ""
            }
        );
    }

    // Sharing sweep: every sharing level vs Independent on identical batches.
    let batch_sizes: &[usize] = if quick { &[16, 64] } else { &[32, 128, 512] };
    let shapes = [
        TrafficShape::uniform(),
        TrafficShape::zipf_exact(1.5, 4),
        TrafficShape::door_clustered(1.5, 4),
        TrafficShape::clustered(1.5, 4, 180.0),
    ];
    let workers = 4.min(host_cores.max(1));
    let sharing = concurrency::sharing_sweep(
        &workload.graph,
        batch_sizes,
        &shapes,
        workers,
        repeats,
        delta,
    );
    println!("\nsharing levels vs independent execution ({workers} workers):");
    print!("{}", concurrency::sharing_table(&sharing));

    std::fs::create_dir_all("results").expect("create results dir");
    let path = concurrency::write_csv(&points, Path::new("results")).expect("write throughput csv");
    println!("wrote {}", path.display());
    let path =
        concurrency::write_sharing_csv(&sharing, Path::new("results")).expect("write sharing csv");
    println!("wrote {}", path.display());

    if !quick {
        let json_path = Path::new("BENCH_throughput.json");
        std::fs::write(json_path, json_baseline(&points, &sharing, host_cores))
            .expect("write throughput baseline");
        println!("wrote {}", json_path.display());
    }

    if quick {
        let hot = |strategy: &str, skew: &str| -> &SharingPoint {
            sharing
                .iter()
                .filter(|p| p.strategy == strategy && p.skew == skew)
                .max_by_key(|p| p.batch_size)
                .expect("quick sweep includes every (strategy, shape) series")
        };
        // Tripwire 1: each sharing level must realise grouping on its
        // natural batch shapes — exact keys on bit-identical zipf
        // duplicates, interval keys on partition-clustered sources at one
        // instant and with jittered departures.
        for (strategy, skew) in [
            ("shared", "zipf-exact"),
            ("shared-interval", "door-clustered"),
            ("shared-interval", "clustered"),
        ] {
            let p = hot(strategy, skew);
            assert!(
                p.sharing_ratio < 1.0,
                "sharing regression: {strategy} formed no groups on its {skew} batch"
            );
        }
        // Tripwire 2: the coarser key can only merge more — the interval
        // plan ratio must not exceed the exact one on any shape and size.
        for p in sharing.iter().filter(|p| p.strategy == "shared") {
            let interval = sharing
                .iter()
                .find(|q| {
                    q.strategy == "shared-interval"
                        && q.skew == p.skew
                        && q.batch_size == p.batch_size
                })
                .expect("interval row exists for every shared row");
            assert!(
                interval.sharing_ratio <= p.sharing_ratio,
                "plan-ratio monotonicity broke on {} batch of {}: \
                 exact {:.3}, interval {:.3}",
                p.skew,
                p.batch_size,
                p.sharing_ratio,
                interval.sharing_ratio
            );
        }
        // Tripwire 3: exact sharing must still beat independent execution on
        // the bit-identical hot batch (the interval key only merges more).
        let hottest = hot("shared", "zipf-exact");
        assert!(
            hottest.speedup > 1.0,
            "sharing regression: shared execution slower than independent \
             on the hot zipf batch ({:.2}x)",
            hottest.speedup
        );
        // Tripwire 3b: interval coalescing must *pay* on its natural shapes,
        // not just group — replay on partition-clustered sources and
        // retime/replay on jittered departures each have to at least match
        // independent execution on the hot batch.
        for (strategy, skew) in [
            ("shared-interval", "door-clustered"),
            ("shared-interval", "clustered"),
        ] {
            let p = hot(strategy, skew);
            assert!(
                p.speedup >= 1.0,
                "coarse-sharing regression: {strategy} ran {:.2}x vs independent \
                 on its {skew} batch of {}",
                p.speedup,
                p.batch_size
            );
        }
        // Tripwire 4: absolute wall-clock budget, as in `construction --quick`.
        assert!(
            hottest.batch_secs <= QUICK_BUDGET_SECS,
            "throughput regression: the hot {}-query shared batch took {:.2}s \
             (budget {QUICK_BUDGET_SECS}s)",
            hottest.batch_size,
            hottest.batch_secs
        );
        println!(
            "quick tripwires ok: per-level grouping realised, interval plan \
             ratios <= exact, hot {}-query shared batch {:.3}s <= {QUICK_BUDGET_SECS}s \
             at {:.2}x over independent",
            hottest.batch_size, hottest.batch_secs, hottest.speedup
        );
    }
}

fn json_baseline(
    workers: &[ThroughputPoint],
    sharing: &[SharingPoint],
    host_cores: usize,
) -> String {
    let mut out = String::from("{\n");
    let _ = writeln!(out, "  \"bench\": \"throughput\",");
    let _ = writeln!(
        out,
        "  \"description\": \"VenueServer queries/sec: worker sweep on a mixed-time batch, \
         then both sharing levels (Shared, SharedInterval) vs Independent on identical \
         batches across traffic shapes — uniform, zipf-exact duplicates, door-clustered sources, \
         clustered sources with jittered departures \
         (sharing_ratio = physical searches per query)\","
    );
    let _ = writeln!(out, "  \"host_cores\": {host_cores},");
    let _ = writeln!(out, "  \"worker_sweep\": [");
    for (i, p) in workers.iter().enumerate() {
        let comma = if i + 1 < workers.len() { "," } else { "" };
        let _ = writeln!(
            out,
            "    {{\"workers\": {}, \"batch_size\": {}, \"batch_secs\": {:.6}, \
             \"qps\": {:.1}, \"speedup_vs_single\": {:.3}}}{}",
            p.workers, p.batch_size, p.batch_secs, p.qps, p.speedup, comma
        );
    }
    let _ = writeln!(out, "  ],");
    let _ = writeln!(out, "  \"sharing_sweep\": [");
    for (i, p) in sharing.iter().enumerate() {
        let comma = if i + 1 < sharing.len() { "," } else { "" };
        let _ = writeln!(
            out,
            "    {{\"strategy\": \"{}\", \"batch_size\": {}, \"skew\": \"{}\", \
             \"sharing_ratio\": {:.4}, \"batch_secs\": {:.6}, \"qps\": {:.1}, \
             \"speedup_vs_independent\": {:.3}}}{}",
            p.strategy,
            p.batch_size,
            p.skew,
            p.sharing_ratio,
            p.batch_secs,
            p.qps,
            p.speedup,
            comma
        );
    }
    let _ = writeln!(out, "  ]");
    out.push_str("}\n");
    out
}
