//! End-to-end benchmark of the ITSPQ venue server: ITG/S against ITG/A-Exact
//! per-query latency, 128-query batch throughput, set-up time and peak heap
//! on three venue workloads, every answer checked.
//!
//! ```text
//! itspq-perfbench --workload <mall-day|mall-peak|comb-tower> --seed <n>
//!                 --seconds <s> --trace <0|1> [--write-reference]
//! ```
//!
//! `--trace 0` prints the end-to-end metrics; `--trace 1` records spans
//! around every call into the library, writes them to `out/` beside this
//! package's manifest, and prints the per-layer metrics plus the tracing
//! overhead (traced minus untraced end-to-end numbers). The last line of
//! standard output is one JSON object: `correct`, `attempted`, `failed` and
//! `metrics`. `--write-reference` rewrites the committed answer lengths of
//! the workload (default seed only) instead of measuring.
//!
//! Both load loops are closed and driven from this one process: per query,
//! one caller waits for each `try_query`; per batch, one caller submits the
//! next 128 queries when `try_query_batch` returns.

mod alloc;
mod answers;
mod trace;
mod workload;

use std::fmt::Write as _;
use std::hint::black_box;
use std::process::ExitCode;
use std::sync::Arc;
use std::time::{Duration, Instant};

use indoor_space::VenueBuilder;
use itspq_core::server::host_parallelism;
use itspq_core::{
    AsynMode, ItGraph, ItspqConfig, Query, QueryError, QueryResult, SearchStats, ServeMethod,
    ServerConfig, VenueServer,
};

use answers::Reference;
use trace::Tracer;

#[global_allocator]
static GLOBAL: alloc::Counting = alloc::Counting;

/// Queries per `try_query_batch` call.
const BATCH: usize = 128;
/// The seed the committed answer lengths were recorded with.
const DEFAULT_SEED: u64 = 1;
/// Timed rounds per measurement: at least this many even past the time
/// budget, so every query and batch has several passes to pick the fastest
/// from.
const MIN_ROUNDS: usize = 3;
/// Cap on timed rounds; sizes the latency buffers allocated before set-up.
const MAX_ROUNDS: usize = 64;
/// Set-ups per run: at least `MIN_SETUPS`, then more until `SETUP_BUDGET`
/// has passed, at most `MAX_SETUPS`. `setup_s` is their median.
const MIN_SETUPS: usize = 5;
const MAX_SETUPS: usize = 200;
const SETUP_BUDGET: Duration = Duration::from_secs(2);
const MIB: f64 = 1024.0 * 1024.0;

fn committed_lengths(workload: &str) -> Option<&'static str> {
    match workload {
        "mall-day" => Some(include_str!("../reference/mall-day.txt")),
        "mall-peak" => Some(include_str!("../reference/mall-peak.txt")),
        "comb-tower" => Some(include_str!("../reference/comb-tower.txt")),
        _ => None,
    }
}

struct Args {
    spec: &'static workload::Spec,
    seed: u64,
    seconds: f64,
    trace: bool,
    write_reference: bool,
}

fn parse_args() -> Result<Args, String> {
    let mut argv = std::env::args().skip(1);
    let (mut spec, mut seed, mut seconds, mut trace) = (None, DEFAULT_SEED, 10.0, false);
    let mut write_reference = false;
    while let Some(flag) = argv.next() {
        if flag == "--write-reference" {
            write_reference = true;
            continue;
        }
        let value = argv.next().ok_or(format!("{flag} needs a value"))?;
        match flag.as_str() {
            "--workload" => {
                spec = Some(workload::spec(&value).ok_or(format!("unknown workload {value:?}"))?);
            }
            "--seed" => seed = value.parse().map_err(|e| format!("--seed {value}: {e}"))?,
            "--seconds" => {
                seconds = value
                    .parse()
                    .map_err(|e| format!("--seconds {value}: {e}"))?;
                if !(seconds > 0.0 && seconds <= 3600.0) {
                    return Err(format!("--seconds {value}: want 0 < s <= 3600"));
                }
            }
            "--trace" => {
                trace = match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(format!("--trace {value}: want 0 or 1")),
                };
            }
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    let spec = spec.ok_or("--workload is required")?;
    Ok(Args {
        spec,
        seed,
        seconds,
        trace,
        write_reference,
    })
}

/// The pinned server configuration: shortest valid paths (`FullRelax`,
/// ITG/A `Exact`), `workers` threads, and the default batch strategy.
fn server_config(method: ServeMethod, workers: usize) -> ServerConfig {
    ServerConfig {
        workers,
        method,
        itspq: ItspqConfig::full_relax().with_asyn_mode(AsynMode::Exact),
        ..ServerConfig::default()
    }
}

/// One ITG/S and one ITG/A server over one shared graph.
struct Servers {
    syn: VenueServer,
    asyn: VenueServer,
}

/// `VenueBuilder::build` → `ItGraph::shared` → `VenueServer::with_config`
/// → `warm`: the set-up `setup_s` times.
fn set_up(builder: VenueBuilder, workers: usize, tracer: &mut Tracer) -> Servers {
    let req = tracer.request();
    let root = tracer.enter("setup", req);
    let s = tracer.enter("space.build", req);
    let space = builder
        .build()
        .expect("the generated mall is a valid venue");
    tracer.exit(s);
    let s = tracer.enter("graph.build", req);
    let graph = ItGraph::shared(space);
    tracer.exit(s);
    let s = tracer.enter("server.new", req);
    let servers = Servers {
        syn: VenueServer::with_config(Arc::clone(&graph), server_config(ServeMethod::Syn, workers)),
        asyn: VenueServer::with_config(graph, server_config(ServeMethod::Asyn, workers)),
    };
    tracer.exit(s);
    let s = tracer.enter("views.warm", req);
    servers.asyn.warm();
    tracer.exit(s);
    tracer.exit(root);
    servers
}

/// Answers checked and answers that failed the check (or errored).
#[derive(Default)]
struct Tally {
    attempted: u64,
    failed: u64,
}

impl Tally {
    fn record(&mut self, ok: bool) {
        self.attempted += 1;
        self.failed += u64::from(!ok);
    }
}

/// What one engine did during the timed rounds of a measurement.
#[derive(Default)]
struct EngineRun {
    /// Per-query latency, round-major: `lat_ns[round * queries + i]`.
    lat_ns: Vec<u64>,
    /// Search counters of every timed per-query answer.
    search: SearchStats,
    answered: u64,
    query_ns: u64,
    /// Per batch, round-major: `batch_ns[round * batches + b]`.
    batch_ns: Vec<u64>,
    /// Per batch: the `try_query_batch` call minus the planner's time.
    execute_ns: Vec<u64>,
    batches: u64,
    batch_queries: u64,
    plan_ns: u64,
    searches: u64,
    shared: u64,
    derived: u64,
    fallbacks: u64,
}

impl EngineRun {
    fn with_capacity(queries: usize) -> Self {
        EngineRun {
            lat_ns: Vec::with_capacity(queries * MAX_ROUNDS),
            batch_ns: Vec::with_capacity(queries.div_ceil(BATCH) * MAX_ROUNDS),
            execute_ns: Vec::with_capacity(queries.div_ceil(BATCH) * MAX_ROUNDS),
            ..EngineRun::default()
        }
    }

    /// Each query's fastest pass, then the `p`-quantile of those (nearest
    /// rank), in microseconds.
    ///
    /// On a shared 2-vCPU host a whole pass can run 30% slow while a
    /// neighbour is busy, so per-query medians still drift by 10–30% from
    /// one run to the next; the fastest of several passes holds within a
    /// few percent. The quantile over queries keeps the spread in work
    /// between queries.
    fn latency_us(&self, queries: usize, p: f64) -> f64 {
        let rounds = self.lat_ns.len() / queries;
        let mut per_query: Vec<u64> = (0..queries)
            .map(|i| {
                (0..rounds)
                    .map(|r| self.lat_ns[r * queries + i])
                    .min()
                    .unwrap_or(0)
            })
            .collect();
        per_query.sort_unstable();
        let rank = ((p * queries as f64).ceil() as usize).clamp(1, queries);
        per_query[rank - 1] as f64 / 1e3
    }

    /// Queries per second over the pool's batches, each batch timed by its
    /// fastest pass, for the reason given at [`EngineRun::latency_us`].
    fn batch_qps(&self, queries: usize) -> f64 {
        let batches = queries.div_ceil(BATCH);
        let rounds = self.batch_ns.len() / batches;
        let fastest_ns: u64 = (0..batches)
            .map(|b| {
                (0..rounds)
                    .map(|r| self.batch_ns[r * batches + b])
                    .min()
                    .unwrap_or(0)
            })
            .sum();
        ratio(queries as f64, fastest_ns as f64 * 1e-9)
    }
}

/// Both engines' share of one measurement.
struct Run {
    rounds: usize,
    syn: EngineRun,
    asyn: EngineRun,
}

struct Bench<'a> {
    queries: &'a [Query],
    reference: &'a Reference,
    tracer: Tracer,
    tally: Tally,
}

impl Bench<'_> {
    /// One closed-loop pass of per-query calls over the whole pool.
    fn query_pass(
        &mut self,
        server: &VenueServer,
        root: &'static str,
        mut run: Option<&mut EngineRun>,
    ) {
        for (i, q) in self.queries.iter().enumerate() {
            let req = self.tracer.request();
            let span = self.tracer.enter(root, req);
            let t0 = Instant::now();
            let call = self.tracer.enter("server.try_query", req);
            let answer = server.try_query(black_box(q));
            self.tracer.exit(call);
            let ns = elapsed_ns(t0);
            let check = self.tracer.enter("check", req);
            self.tally.record(self.reference.accepts(i, &answer));
            if let Some(run) = run.as_deref_mut() {
                run.lat_ns.push(ns);
                if let Ok(r) = &answer {
                    run.search.merge(&r.stats);
                    run.answered += 1;
                    run.query_ns += ns;
                }
            }
            drop(answer);
            self.tracer.exit(check);
            self.tracer.exit(span);
        }
    }

    /// One closed-loop pass of 128-query batches over the whole pool.
    fn batch_pass(
        &mut self,
        server: &VenueServer,
        root: &'static str,
        mut run: Option<&mut EngineRun>,
    ) {
        for (c, chunk) in self.queries.chunks(BATCH).enumerate() {
            let req = self.tracer.request();
            let span = self.tracer.enter(root, req);
            let t0 = Instant::now();
            let call = self.tracer.enter("server.try_query_batch", req);
            let (answers, stats) = server.try_query_batch_with_stats(black_box(chunk));
            self.tracer.exit(call);
            let ns = elapsed_ns(t0);
            let check = self.tracer.enter("check", req);
            for (j, a) in answers.iter().enumerate() {
                self.tally.record(self.reference.accepts(c * BATCH + j, a));
            }
            if let Some(run) = run.as_deref_mut() {
                run.batch_ns.push(ns);
                run.execute_ns.push(ns.saturating_sub(stats.plan_nanos));
                run.batches += 1;
                run.batch_queries += stats.queries as u64;
                run.plan_ns += stats.plan_nanos;
                run.searches += stats.groups as u64;
                run.shared += stats.shared_queries as u64;
                run.derived += (stats.replayed + stats.retimed) as u64;
                run.fallbacks += stats.fallbacks as u64;
            }
            drop(answers);
            self.tracer.exit(check);
            self.tracer.exit(span);
        }
    }

    /// Rounds of (ITG/S per query, ITG/A per query, ITG/S batches, ITG/A
    /// batches) until `budget` has passed, after one untimed warm-up round:
    /// the first pass after set-up runs markedly slower than the rest. With
    /// `traced`, untraced and traced rounds alternate, so drift in the host's
    /// speed cancels out of the tracing overhead.
    fn measure(
        &mut self,
        servers: &Servers,
        budget: Duration,
        untraced: &mut Run,
        mut traced: Option<&mut Run>,
    ) {
        self.tracer.set_enabled(false);
        self.round(servers, None);
        let start = Instant::now();
        while untraced.rounds < MAX_ROUNDS
            && (untraced.rounds < MIN_ROUNDS || start.elapsed() < budget)
        {
            self.round(servers, Some(&mut *untraced));
            if let Some(t) = traced.as_deref_mut() {
                self.tracer.set_enabled(true);
                self.round(servers, Some(t));
                self.tracer.set_enabled(false);
            }
        }
    }

    fn round(&mut self, servers: &Servers, run: Option<&mut Run>) {
        let (mut syn, mut asyn) = match run {
            Some(r) => {
                r.rounds += 1;
                (Some(&mut r.syn), Some(&mut r.asyn))
            }
            None => (None, None),
        };
        self.query_pass(&servers.syn, "query.syn", syn.as_deref_mut());
        self.query_pass(&servers.asyn, "query.asyn", asyn.as_deref_mut());
        self.batch_pass(&servers.syn, "batch.syn", syn);
        self.batch_pass(&servers.asyn, "batch.asyn", asyn);
    }

    /// Batch throughput at `nproc` workers over batch throughput at one
    /// worker, per engine, from interleaved passes.
    fn scaling(&mut self, servers: &Servers, single: &Servers, budget: Duration) -> (f64, f64) {
        let servers = [&servers.syn, &single.syn, &servers.asyn, &single.asyn];
        let mut runs: [EngineRun; 4] = Default::default();
        for s in servers {
            self.batch_pass(s, "scale", None);
        }
        let start = Instant::now();
        let mut rounds = 0;
        while rounds < MAX_ROUNDS && (rounds < MIN_ROUNDS || start.elapsed() < budget) {
            for (s, r) in servers.iter().zip(&mut runs) {
                self.batch_pass(s, "scale", Some(r));
            }
            rounds += 1;
        }
        let n = self.queries.len();
        let [a, b, c, d] = runs.map(|r| r.batch_qps(n));
        (a / b, c / d)
    }
}

fn elapsed_ns(t0: Instant) -> u64 {
    u64::try_from(t0.elapsed().as_nanos()).unwrap_or(u64::MAX)
}

/// Median (mean of the middle two for an even count); 0 for no values.
fn median(v: &mut [f64]) -> f64 {
    if v.is_empty() {
        return 0.0;
    }
    v.sort_by(f64::total_cmp);
    let n = v.len();
    if n % 2 == 1 {
        v[n / 2]
    } else {
        (v[n / 2 - 1] + v[n / 2]) / 2.0
    }
}

/// `a / b`, or 0 when nothing was counted.
fn ratio(a: f64, b: f64) -> f64 {
    if b == 0.0 {
        0.0
    } else {
        a / b
    }
}

#[derive(Clone)]
struct Metric {
    name: String,
    value: f64,
    unit: &'static str,
    samples: String,
    /// `false` for a figure shown in the table only, not in the JSON result.
    json: bool,
}

fn metric(name: &str, value: f64, unit: &'static str, samples: impl ToString) -> Metric {
    Metric {
        name: name.to_string(),
        value,
        unit,
        samples: samples.to_string(),
        json: true,
    }
}

/// The serving metrics of one measurement: per-query latency and batch
/// throughput, the latter named `batch_qps` at `nproc` workers and
/// `batch_qps.w1` at one.
fn serving_metrics(run: &Run, queries: usize, workers: usize) -> Vec<Metric> {
    let batch = if workers == 1 {
        "batch_qps.w1"
    } else {
        "batch_qps"
    };
    let lat_samples = format!("{queries}x{}", run.rounds);
    let mut out = Vec::new();
    for (label, e) in [("syn", &run.syn), ("asyn", &run.asyn)] {
        for (p, tag) in [(0.5, "p50"), (0.99, "p99")] {
            out.push(metric(
                &format!("{label}.query_{tag}_us"),
                e.latency_us(queries, p),
                "us",
                &lat_samples,
            ));
        }
    }
    for (label, e) in [("syn", &run.syn), ("asyn", &run.asyn)] {
        out.push(metric(
            &format!("{label}.{batch}"),
            e.batch_qps(queries),
            "1/s",
            run.rounds,
        ));
    }
    out
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("error: {e}");
            return ExitCode::from(2);
        }
    };
    match run(&args) {
        Ok(()) => ExitCode::SUCCESS,
        Err(e) => {
            eprintln!("error: {e}");
            ExitCode::FAILURE
        }
    }
}

#[allow(clippy::too_many_lines)]
fn run(args: &Args) -> Result<(), String> {
    let spec = args.spec;
    let workers = host_parallelism();
    let config = server_config(ServeMethod::Syn, workers);

    // Untimed: the venue description, the query pool and the reference
    // answers (per-query ITG/S on a graph of its own).
    let t_gen = Instant::now();
    let wl = workload::generate(spec, args.seed);
    let graph = ItGraph::shared(
        wl.builder
            .clone()
            .build()
            .map_err(|e| format!("venue: {e}"))?,
    );
    let venue = graph.space().stats();
    let ref_server = VenueServer::with_config(Arc::clone(&graph), config);
    let ref_answers: Vec<Result<QueryResult, QueryError>> =
        wl.queries.iter().map(|q| ref_server.try_query(q)).collect();
    let mut reference = Reference::new(
        graph.space(),
        config.itspq.velocity,
        &wl.queries,
        &ref_answers,
    );
    let catches_corruption =
        answers::check_catches_corruption(&reference, &ref_answers).unwrap_or(false);
    drop((ref_answers, ref_server, graph));
    eprintln!(
        "{}: {} partitions, {} doors, |T| = {}, {} queries, seed {}, {workers} workers \
         (generated and checked in {:.1} s)",
        spec.name,
        venue.partitions,
        venue.doors,
        spec.t_size,
        wl.queries.len(),
        args.seed,
        t_gen.elapsed().as_secs_f64()
    );

    if args.write_reference {
        if args.seed != DEFAULT_SEED {
            return Err(format!("the reference is recorded at seed {DEFAULT_SEED}"));
        }
        let path = format!("{}/reference/{}.txt", env!("CARGO_MANIFEST_DIR"), spec.name);
        std::fs::write(&path, reference.lengths_text()).map_err(|e| format!("{path}: {e}"))?;
        eprintln!("wrote {path}");
        return Ok(());
    }
    let mut record_mismatches = 0;
    if args.seed == DEFAULT_SEED {
        let committed = committed_lengths(spec.name).ok_or("no committed reference")?;
        record_mismatches = reference.compare_lengths(committed);
    }
    let unsound = reference.unsound();

    let n = wl.queries.len();
    let mut bench = Bench {
        queries: &wl.queries,
        reference: &reference,
        tracer: Tracer::new(args.trace),
        tally: Tally::default(),
    };
    let new_run = || Run {
        rounds: 0,
        syn: EngineRun::with_capacity(n),
        asyn: EngineRun::with_capacity(n),
    };
    let mut untraced_run = new_run();
    let mut traced_run = if args.trace { Some(new_run()) } else { None };

    // Set-up, repeated; the last one's servers serve. The heap high-water
    // mark counts from just before that set-up to the end of serving.
    //
    // The untraced run serves batches on one worker. On a shared 2-vCPU
    // host, throughput at two workers moves by up to 40% for minutes at a
    // time with where the hypervisor places the vCPUs (ITG/S batches run
    // slower when the two share a physical core, ITG/A batches faster, as
    // their lock and refcount cache lines stop crossing cores); no
    // end-to-end bound can hold it. The traced run serves at `nproc` and
    // reports those figures, and their ratio to one worker, per layer.
    let serve_workers = if args.trace { workers } else { 1 };
    let mut setup_s = Vec::with_capacity(MAX_SETUPS);
    let setups_start = Instant::now();
    let mut heap_base = 0;
    let servers = loop {
        let last = setup_s.len() + 1 >= MIN_SETUPS
            && (setups_start.elapsed() >= SETUP_BUDGET || setup_s.len() + 1 >= MAX_SETUPS);
        if last {
            heap_base = alloc::live_bytes();
            alloc::reset_peak();
        }
        let builder = wl.builder.clone();
        let t0 = Instant::now();
        let servers = set_up(builder, serve_workers, &mut bench.tracer);
        setup_s.push(t0.elapsed().as_secs_f64());
        if last {
            break servers;
        }
    };

    let budget = Duration::from_secs_f64(args.seconds);
    let mut metrics = Vec::new();
    if args.trace {
        // Alternating untraced and traced rounds for two thirds of the
        // time, worker scaling for the last third.
        let run = traced_run.as_mut().expect("a traced run was allocated");
        bench.measure(&servers, budget * 2 / 3, &mut untraced_run, Some(&mut *run));
        let untraced = serving_metrics(&untraced_run, n, workers);
        let traced = serving_metrics(run, n, workers);
        let single = set_up(wl.builder.clone(), 1, &mut Tracer::new(false));
        let (scale_syn, scale_asyn) = bench.scaling(&servers, &single, budget / 3);
        drop(single);

        let tracer = &bench.tracer;
        let span_ms = |name: &str| {
            let mut v: Vec<f64> = tracer
                .durations_ns(name)
                .into_iter()
                .map(|ns| ns as f64 / 1e6)
                .collect();
            median(&mut v)
        };
        let (s, a) = (&run.syn, &run.asyn);
        let per_q = |x: usize, e: &EngineRun| ratio(x as f64, e.answered as f64);
        let batches = (s.batches + a.batches) as f64;
        let batch_q = (s.batch_queries + a.batch_queries) as f64;
        let derived = (s.derived + a.derived) as f64;
        let fallbacks = (s.fallbacks + a.fallbacks) as f64;
        let mut exec_asyn: Vec<f64> = a.execute_ns.iter().map(|&x| x as f64 / 1e6).collect();
        let mut exec_syn: Vec<f64> = s.execute_ns.iter().map(|&x| x as f64 / 1e6).collect();
        let space = servers.asyn.graph().space();
        let setups = setup_s.len();
        let lat = format!("{n}x{}", run.rounds);
        metrics.extend([
            metric("space.build_ms", span_ms("space.build"), "ms", setups),
            metric("space.heap_mb", space.heap_bytes() as f64 / MIB, "MiB", 1),
            metric("graph.build_ms", span_ms("graph.build"), "ms", setups),
            metric("views.warm_ms", span_ms("views.warm"), "ms", setups),
            metric(
                "views.count",
                servers.asyn.cached_views() as f64,
                "count",
                1,
            ),
            metric(
                "views.mb",
                servers.asyn.cache_bytes() as f64 / MIB,
                "MiB",
                1,
            ),
            metric(
                "asyn.graph_updates_per_q",
                per_q(a.search.graph_updates, a),
                "count",
                a.answered,
            ),
            metric(
                "asyn.views_built_per_q",
                per_q(a.search.views_built, a),
                "count",
                a.answered,
            ),
            metric(
                "search.pops_per_q",
                per_q(s.search.heap_pops, s),
                "count",
                s.answered,
            ),
            metric(
                "search.relax_per_q",
                per_q(s.search.relaxations, s),
                "count",
                s.answered,
            ),
            metric(
                "search.tv_checks_per_q",
                per_q(s.search.tv_checks, s),
                "count",
                s.answered,
            ),
            metric(
                "search.tv_reject_ratio",
                ratio(s.search.tv_rejections as f64, s.search.tv_checks as f64),
                "ratio",
                s.answered,
            ),
            metric(
                "search.kb_per_q",
                per_q(s.search.estimated_bytes(), s) / 1024.0,
                "KiB",
                s.answered,
            ),
            metric(
                "asyn.kb_per_q",
                per_q(a.search.estimated_bytes(), a) / 1024.0,
                "KiB",
                a.answered,
            ),
            metric(
                "syn.ns_per_relax",
                ratio(s.query_ns as f64, s.search.relaxations as f64),
                "ns",
                &lat,
            ),
            metric(
                "asyn.ns_per_relax",
                ratio(a.query_ns as f64, a.search.relaxations as f64),
                "ns",
                &lat,
            ),
            metric(
                "plan.us_per_batch",
                ratio((s.plan_ns + a.plan_ns) as f64 / 1e3, batches),
                "us",
                batches,
            ),
            metric(
                "plan.searches_per_q",
                ratio((s.searches + a.searches) as f64, batch_q),
                "ratio",
                batches,
            ),
            metric("batch.execute_ms", median(&mut exec_asyn), "ms", a.batches),
            metric(
                "batch.syn_execute_ms",
                median(&mut exec_syn),
                "ms",
                s.batches,
            ),
            metric("server.scale_syn", scale_syn, "ratio", workers),
            metric("server.scale_asyn", scale_asyn, "ratio", workers),
            metric(
                "share.shared_frac",
                ratio((s.shared + a.shared) as f64, batch_q),
                "ratio",
                batches,
            ),
            metric(
                "share.derived_per_q",
                ratio(derived, batch_q),
                "ratio",
                batches,
            ),
            metric(
                "share.fallbacks_per_q",
                ratio(fallbacks, batch_q),
                "ratio",
                batches,
            ),
            metric(
                "share.yield",
                ratio(derived, derived + fallbacks),
                "ratio",
                batches,
            ),
        ]);

        // Self time per layer, and the share of traced time spent in the
        // benchmark's own code (root spans' self time plus answer checks).
        let summary = tracer.summary();
        let mut table = String::from("span                      count    total_ms     self_ms\n");
        let (mut harness_ns, mut root_ns) = (0u64, 0u64);
        for (name, s) in &summary {
            let _ = writeln!(
                table,
                "{name:<24} {:>7} {:>11.3} {:>11.3}",
                s.count,
                s.total_ns as f64 / 1e6,
                s.self_ns as f64 / 1e6
            );
            if matches!(
                *name,
                "setup" | "query.syn" | "query.asyn" | "batch.syn" | "batch.asyn"
            ) {
                harness_ns += s.self_ns;
                root_ns += s.total_ns;
            } else if *name == "check" {
                harness_ns += s.total_ns;
            }
        }
        eprint!("{table}");
        metrics.push(metric(
            "trace.harness_self_pct",
            ratio(100.0 * harness_ns as f64, root_ns as f64),
            "%",
            tracer.len(),
        ));
        metrics.push(metric("trace.spans", tracer.len() as f64, "count", 1));
        metrics.extend(
            untraced
                .iter()
                .filter(|m| m.name.ends_with("batch_qps"))
                .cloned(),
        );
        for (t, u) in traced.iter().zip(&untraced) {
            if t.name.ends_with("_p50_us") || t.name.ends_with("batch_qps") {
                metrics.push(metric(
                    &format!("overhead.{}", t.name),
                    t.value - u.value,
                    t.unit,
                    format!("{} - {}", t.samples, u.samples),
                ));
            }
        }

        let dir = format!("{}/out", env!("CARGO_MANIFEST_DIR"));
        let write = |file: String, body: &str| {
            std::fs::create_dir_all(&dir)
                .and_then(|()| std::fs::write(&file, body))
                .map_err(|e| format!("{file}: {e}"))
        };
        write(format!("{dir}/{}.spans.csv", spec.name), &tracer.to_csv())?;
        write(format!("{dir}/{}.self_time.txt", spec.name), &table)?;
        eprintln!("spans written to {dir}/{}.spans.csv", spec.name);
    } else {
        bench.measure(&servers, budget, &mut untraced_run, None);
        let peak = alloc::peak_bytes().saturating_sub(heap_base);
        metrics.push(metric("setup_s", median(&mut setup_s), "s", setup_s.len()));
        metrics.push(metric("mem_peak_mb", peak as f64 / MIB, "MiB", 1));
        // `failed_frac` is shown in the table but kept out of the JSON
        // result, which admits no metric that reads 0; its complement
        // `answers_ok_frac` goes there instead.
        let failed_frac = ratio(bench.tally.failed as f64, bench.tally.attempted as f64);
        metrics.push(Metric {
            json: false,
            ..metric("failed_frac", failed_frac, "ratio", bench.tally.attempted)
        });
        metrics.push(metric(
            "answers_ok_frac",
            1.0 - failed_frac,
            "ratio",
            bench.tally.attempted,
        ));
        metrics.extend(serving_metrics(&untraced_run, n, serve_workers));
    }
    drop(servers);

    let tally = &bench.tally;
    if unsound > 0 {
        eprintln!(
            "answer check: {unsound} reference answers unsound \
             ({record_mismatches} off the committed lengths)"
        );
    }
    if !catches_corruption {
        eprintln!("answer check: a corrupted answer was accepted");
    }
    let correct = tally.failed == 0 && catches_corruption && tally.attempted > 0;

    let mut json = String::new();
    for m in &metrics {
        println!(
            "{:<28} {:>16.4} {:<6} samples={}{}",
            m.name,
            m.value,
            m.unit,
            m.samples,
            if m.json { "" } else { "  (table only)" }
        );
        if !m.json {
            continue;
        }
        let value = if m.value.is_finite() { m.value } else { 0.0 };
        let sep = if json.is_empty() { "" } else { ", " };
        let _ = write!(
            json,
            "{sep}\"{}\": {{\"value\": {value}, \"unit\": \"{}\"}}",
            m.name, m.unit
        );
    }
    println!(
        "{{\"correct\": {correct}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{json}}}}}",
        tally.attempted, tally.failed
    );
    Ok(())
}
