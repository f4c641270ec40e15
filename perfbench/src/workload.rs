//! The three venue workloads: a venue description plus a query pool, both
//! made from the `--seed` argument. Nothing here is timed.
//!
//! The workloads vary the two properties indoor query cost depends on: how
//! much of the traffic overlaps (what the server's batch planner can share)
//! and how large the venue is (construction work, view memory, search working
//! set against the CPU caches).

use indoor_space::VenueBuilder;
use indoor_synthetic::{
    generate_queries, mall_builder, HoursConfig, MallConfig, QueryGenConfig, ShopHours,
    SourceDistribution, TimeDistribution,
};
use indoor_time::TimeOfDay;
use itspq_core::{ItGraph, Query};

/// Target source-to-target indoor distance of every query (the paper's
/// default `δs2t`).
const DELTA_S2T: f64 = 1500.0;

/// Hot instants for uniform-over-the-day departures: with exponent 0 every
/// instant is equally likely, and the pool is large enough that two queries
/// of one pool almost never share an instant.
const DAY_TIMES: TimeDistribution = TimeDistribution::HotSpots {
    exponent: 0.0,
    pool: 1 << 16,
    spread_secs: 0.0,
};

/// Popular sources (entrances, kiosks) and instants of the peak traffic.
const PEAK_EXPONENT: f64 = 1.0;
const PEAK_SOURCES: usize = 10;
const PEAK_INSTANTS: usize = 5;
/// The fresh half of the peak traffic departs within this many seconds
/// either side of a hot instant.
const PEAK_JITTER_SECS: f64 = 300.0;
/// Hot instants fall between 10:00 and 20:00 (seconds since midnight),
/// when the shops are open.
const PEAK_HOURS: (f64, f64) = (10.0 * 3600.0, 20.0 * 3600.0);

pub enum Traffic {
    /// Uniform sources, departures spread over the whole day.
    Day,
    /// Half bit-identical zipf anchors at bit-identical hot instants, half
    /// fresh points in the anchors' partitions jittered around the instants.
    Peak,
}

/// A named workload: venue generator parameters and traffic.
pub struct Spec {
    pub name: &'static str,
    pub floors: u16,
    pub comb: bool,
    pub t_size: usize,
    pub traffic: Traffic,
    /// Queries in the pool (a multiple of the batch size).
    pub queries: usize,
}

const SPECS: [Spec; 3] = [
    Spec {
        name: "mall-day",
        floors: 5,
        comb: false,
        t_size: 8,
        traffic: Traffic::Day,
        queries: 2048,
    },
    Spec {
        name: "mall-peak",
        floors: 5,
        comb: false,
        t_size: 8,
        traffic: Traffic::Peak,
        queries: 2048,
    },
    Spec {
        name: "comb-tower",
        floors: 25,
        comb: true,
        t_size: 16,
        traffic: Traffic::Day,
        queries: 1024,
    },
];

pub fn spec(name: &str) -> Option<&'static Spec> {
    SPECS.iter().find(|s| s.name == name)
}

/// A generated workload: the venue description (unbuilt) and its queries.
pub struct Workload {
    pub builder: VenueBuilder,
    pub queries: Vec<Query>,
}

/// SplitMix64: spreads small consecutive seeds over the whole `u64` range.
fn mix(mut x: u64) -> u64 {
    x = x.wrapping_add(0x9E37_79B9_7F4A_7C15);
    x = (x ^ (x >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    x = (x ^ (x >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    x ^ (x >> 31)
}

/// Makes the workload for `seed`. The venue (floor plan and door hours) is
/// the generator's fixed paper-default venue at the spec's size; the seed
/// drives the traffic.
pub fn generate(spec: &Spec, seed: u64) -> Workload {
    let hours = ShopHours::sample(&HoursConfig::paper_default().with_t_size(spec.t_size));
    let mut mall = MallConfig::paper_default().with_floors(spec.floors);
    if spec.comb {
        mall = mall.with_comb_corridors();
    }
    let builder = mall_builder(&mall, &hours);
    let graph = ItGraph::new(
        builder
            .clone()
            .build()
            .expect("the generated mall is a valid venue"),
    );
    let base = QueryGenConfig::default()
        .with_delta(DELTA_S2T)
        .with_seed(mix(seed));
    let queries = match spec.traffic {
        Traffic::Day => plain(generate_queries(
            &graph,
            &base
                .with_count(spec.queries)
                .with_source(SourceDistribution::Uniform)
                .with_times(DAY_TIMES),
        )),
        Traffic::Peak => peak(&graph, base, spec.queries, seed),
    };
    Workload { builder, queries }
}

fn plain(generated: Vec<indoor_synthetic::GeneratedQuery>) -> Vec<Query> {
    generated.into_iter().map(|g| g.query).collect()
}

fn peak(graph: &ItGraph, base: QueryGenConfig, count: usize, seed: u64) -> Vec<Query> {
    let half = count / 2;
    // One generator seed for both halves: the same anchor points.
    let mut halves = [
        SourceDistribution::Zipf {
            exponent: PEAK_EXPONENT,
            pool: PEAK_SOURCES,
        },
        SourceDistribution::ZipfNear {
            exponent: PEAK_EXPONENT,
            pool: PEAK_SOURCES,
        },
    ]
    .map(|source| {
        plain(generate_queries(
            graph,
            &base.with_count(half).with_source(source),
        ))
    });

    // Hot instants inside the opening-hours plateau, zipf-ranked like the
    // sources; the generator's own hot spots range over the whole day, and a
    // top instant at night would turn the whole workload into "no route".
    let mut state = mix(seed ^ 0x0717_7E12);
    let mut unit = move || {
        state = mix(state);
        (state >> 11) as f64 / (1u64 << 53) as f64
    };
    let (open, close) = PEAK_HOURS;
    let instants: Vec<f64> = (0..PEAK_INSTANTS)
        .map(|_| open + unit() * (close - open))
        .collect();
    let weights: Vec<f64> = (0..PEAK_INSTANTS)
        .map(|k| ((k + 1) as f64).powf(-PEAK_EXPONENT))
        .collect();
    let total: f64 = weights.iter().sum();
    let hot = |mut u: f64| {
        u *= total;
        for (t, w) in instants.iter().zip(&weights) {
            if u < *w {
                return *t;
            }
            u -= w;
        }
        instants[PEAK_INSTANTS - 1]
    };
    for (h, jitter) in halves.iter_mut().zip([0.0, PEAK_JITTER_SECS]) {
        for q in h.iter_mut() {
            let secs = hot(unit()) + (2.0 * unit() - 1.0) * jitter;
            q.time = TimeOfDay::from_seconds(secs).expect("hot instants lie inside the day");
        }
    }
    let [anchors, fresh] = halves;
    anchors
        .into_iter()
        .zip(fresh)
        .flat_map(|(a, f)| [a, f])
        .collect()
}
