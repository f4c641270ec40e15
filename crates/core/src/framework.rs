//! Algorithm 1 — `ITSPQ_ITGraph`: the shared search framework.
//!
//! The framework is a Dijkstra-style expansion over doors using each
//! partition's distance matrix for intra-partition hops, parameterised by a
//! [`TvChecker`]: the synchronous check of Algorithm 2 (ITG/S) or the
//! asynchronous reduced-graph check of Algorithm 4 (ITG/A).
//!
//! [`run_search_targets`] is the one implementation of the algorithm's
//! loop. It carries a set of targets on one frontier: a per-query search is
//! the sweep with one target, and a shared batch group is the same sweep
//! with many. A [`SweepObserver`] optionally records the sweep's decisions
//! for the batch engine's replay and retime certificates.
//!
//! Two deliberate deviations from the paper's pseudo-code, neither affecting
//! results (see `ARCHITECTURE.md` § *Semantic gaps*):
//!
//! * doors are inserted into the priority queue lazily instead of enheaping
//!   every door with distance ∞ upfront (lines 2–5) — the "pop ∞ ⇒ no route"
//!   exit becomes "queue exhausted ⇒ no route";
//! * line 30's `if TV_Check(…) then continue` is read as *skip the door when
//!   the check fails*, the only reading under which Example 1 returns the
//!   paper's answer.

use indoor_space::{DoorId, IndoorPoint, IndoorSpace, PartitionId};
use indoor_time::{TimeOfDay, Timestamp};

use crate::heap::{MinHeap, Node};
use crate::{DoorHop, ExpandPolicy, ItGraph, ItspqConfig, Path, SearchStats};

/// The pluggable temporal-variation strategy: a topology view plus `TV_Check`.
pub(crate) trait TvChecker {
    /// The doors through which partition `v` can currently be left.
    fn leaveable(&self, v: PartitionId) -> &[DoorId];

    /// `TV_Check(d, dist, t)`: whether door `d`, reached after walking `dist`
    /// metres from `ps`, is usable. ITG/A may refresh its reduced view here.
    fn check(&mut self, d: DoorId, dist: f64, stats: &mut SearchStats) -> bool;

    /// Final accounting hook (reduced-graph bytes for ITG/A).
    fn account(&self, stats: &mut SearchStats);
}

/// Predecessor of a relaxed door.
#[derive(Debug, Clone, Copy)]
pub(crate) struct PrevEntry {
    /// Partition crossed to reach the door.
    pub(crate) via: PartitionId,
    /// Previous door index, or `None` when coming directly from `ps`.
    pub(crate) from: Option<u32>,
}

/// One recorded *door-level* decision of a multi-target sweep, in execution
/// order.
///
/// The trace is the *lead* query's complete relaxation log. `crate::replay`
/// computes a group member's own label fixpoint from it — substituting only
/// the member-specific inputs (source legs, departure time) — and then
/// certifies that the member's own search would have attempted exactly the
/// recorded relaxation set; any uncertifiable divergence aborts the replay
/// and the member falls back to per-query execution. Door events are shared
/// by every member of the group; the per-target events live in positioned
/// side streams (see [`TargetEvent`]) so a member's replay never scans
/// another member's relaxations.
#[derive(Debug, Clone, Copy)]
pub(crate) enum DoorEvent {
    /// A door settled: its non-stale entry left the priority queue (stale
    /// pops decide nothing and are not recorded). The event order is the
    /// lead's settle order, which drives the replay's omission certificate.
    Pop { door: u32 },
    /// A door relaxation attempt (Algorithm 1 lines 29–34) that had a
    /// weight. `from == None` is a source-leg relaxation (`|ps, dj|`), the
    /// only member-specific weight; `[lo, hi)` is the constant-topology
    /// timeline window of the lead's projected arrival
    /// ([`indoor_time::CheckpointSet::timeline_interval`]), `open` the
    /// `TV_Check` verdict, `improved` line 31's comparison. A member whose
    /// own arrival lands inside `[lo, hi)` provably receives the same
    /// verdict without re-running the check.
    Relax {
        door: u32,
        from: Option<u32>,
        via: PartitionId,
        weight: f64,
        lo: f64,
        hi: f64,
        open: bool,
        improved: bool,
    },
    /// The lead had no source→door geodesic, so no relaxation was attempted.
    /// A member that *does* have one would diverge structurally — replay must
    /// verify the absence.
    SourceLegMissing { door: u32 },
}

/// One recorded target-leg relaxation (lines 20–24), in target `k`'s own
/// stream: the sweep computed `point_to_door(targets[k], door)` when `door`
/// settled. The geodesic weight is a pure function of the venue geometry and
/// the target point, so member `k`'s replay reuses it bit-for-bit instead of
/// recomputing the leg; a member's replay never touches another target's
/// stream. Doors settled *after* the sweep finalised target `k` carry no
/// event (the sweep skips finalised targets) — replay recomputes those few
/// legs on demand.
#[derive(Debug, Clone, Copy)]
pub(crate) struct TargetEvent {
    pub(crate) door: u32,
    pub(crate) weight: f64,
}

/// The lead's recorded decision log: one shared door stream plus one
/// positioned side stream per group member. All buffers are reused across
/// groups via [`Trace::reset`] — recording steady-states to zero
/// allocations per group.
#[derive(Debug, Default)]
pub(crate) struct Trace {
    pub(crate) doors: Vec<DoorEvent>,
    pub(crate) targets: Vec<Vec<TargetEvent>>,
}

impl Trace {
    /// Clears every stream (keeping capacity) and guarantees at least
    /// `members` target streams exist.
    pub(crate) fn reset(&mut self, members: usize) {
        self.doors.clear();
        for t in &mut self.targets {
            t.clear();
        }
        if self.targets.len() < members {
            self.targets.resize_with(members, Vec::new);
        }
    }
}

/// Decision recorder for [`run_search_targets`]: an optional full decision
/// trace (replay of members at other points) and/or a running minimum of
/// the margin between each checked arrival and its next checkpoint (retime
/// certificate). Both default to off, making the observer free on the
/// per-query path.
#[derive(Debug)]
pub(crate) struct SweepObserver {
    /// Record the full decision trace.
    record: bool,
    /// Track `min_margin_secs` across every `TV_Check` arrival.
    track_margin: bool,
    /// The recorded decision log (empty unless `record`).
    pub(crate) trace: Trace,
    /// Smallest margin (seconds) from any checked arrival to its next
    /// checkpoint; `f64::INFINITY` when no check happened. A member whose
    /// departure lags the lead's by strictly less than this margin (minus a
    /// rounding slack) certifiably makes the identical `TV_Check` decisions.
    /// Poisoned to `0.0` (never certify) if any arrival degenerates to a
    /// non-finite margin.
    pub(crate) min_margin_secs: f64,
}

impl SweepObserver {
    /// An inert observer: records nothing, tracks nothing.
    pub(crate) fn off() -> Self {
        Self::with_trace(false, false, Trace::default(), 0)
    }

    /// An observer writing into a caller-owned (typically pooled) trace
    /// buffer, reset for `members` target streams. Reclaim the buffer with
    /// [`SweepObserver::take_trace`] after the sweep.
    pub(crate) fn with_trace(
        record: bool,
        track_margin: bool,
        mut trace: Trace,
        members: usize,
    ) -> Self {
        trace.reset(if record { members } else { 0 });
        SweepObserver {
            record,
            track_margin,
            trace,
            min_margin_secs: f64::INFINITY,
        }
    }

    /// Moves the recorded trace out (leaving an empty one) so a pooled
    /// buffer can return to its scratch slot after the group is scattered.
    pub(crate) fn take_trace(&mut self) -> Trace {
        std::mem::take(&mut self.trace)
    }

    #[inline]
    fn active(&self) -> bool {
        self.record || self.track_margin
    }

    #[inline]
    fn push_door(&mut self, ev: DoorEvent) {
        if self.record {
            self.trace.doors.push(ev);
        }
    }

    #[inline]
    fn push_target(&mut self, k: u32, door: u32, weight: f64) {
        if self.record {
            self.trace.targets[k as usize].push(TargetEvent { door, weight });
        }
    }
}

struct SearchState {
    dist: Vec<f64>,
    prev: Vec<Option<PrevEntry>>,
    settled: Vec<bool>,
    visited_parts: Vec<bool>,
    heap: MinHeap,
    scratch: Vec<DoorId>,
    /// Distinct doors whose tentative distance left ∞ — the populated part of
    /// the search state, which is what a map-based implementation (like the
    /// paper's Java one) would actually hold.
    touched_doors: usize,
}

impl SearchState {
    fn new(space: &IndoorSpace) -> Self {
        let n = space.num_doors();
        SearchState {
            dist: vec![f64::INFINITY; n],
            prev: vec![None; n],
            settled: vec![false; n],
            visited_parts: vec![false; space.num_partitions()],
            heap: MinHeap::new(),
            scratch: Vec::new(),
            touched_doors: 0,
        }
    }

    /// The paper's memory-cost metric counts the *populated* search state —
    /// per touched door a map entry of distance, predecessor and flags — plus
    /// the priority queue at its peak. A dense-array implementation would add
    /// a constant O(|doors|) that hides the day-curve of Figure 7.
    fn search_bytes(&self) -> usize {
        const PER_DOOR_ENTRY: usize = std::mem::size_of::<f64>()
            + std::mem::size_of::<Option<PrevEntry>>()
            + 2 * std::mem::size_of::<u64>(); // map-entry overhead (key + bucket)
        self.touched_doors * PER_DOOR_ENTRY
            + self.heap.peak() * std::mem::size_of::<crate::heap::Entry>()
            + self.scratch.capacity() * std::mem::size_of::<DoorId>()
    }
}

/// Lines 25–34: relax every (currently usable) leaveable door of `v`.
#[allow(clippy::too_many_arguments)]
fn expand_partition<C: TvChecker>(
    space: &IndoorSpace,
    config: &ItspqConfig,
    source: &IndoorPoint,
    checker: &mut C,
    st: &mut SearchState,
    stats: &mut SearchStats,
    v: PartitionId,
    from: Option<u32>,
    base_dist: f64,
    allowed: &dyn Fn(PartitionId) -> bool,
    t0: Timestamp,
    observer: &mut SweepObserver,
) {
    // Copy the view's door list: ITG/A's check() may swap the view mid-loop.
    st.scratch.clear();
    st.scratch.extend_from_slice(checker.leaveable(v));
    let mut k = 0;
    while k < st.scratch.len() {
        let dj = st.scratch[k];
        k += 1;
        if Some(dj.index() as u32) == from {
            continue;
        }
        if st.settled[dj.index()] {
            continue; // line 26: only unvisited doors
        }

        // Line 27–28: discard doors whose continuation is a forbidden private
        // partition (doors into P(ps)/P(pt) stay usable).
        if config.expand == ExpandPolicy::PaperPruned {
            let continues = space
                .d2p_enterable(dj)
                .iter()
                .any(|&u| u != v && allowed(u));
            if !continues {
                continue;
            }
        }

        // Line 29: dist_j = dist[di] + DM(v, di, dj)  (or |ps, dj| from ps).
        let weight = match from {
            Some(di) => space.door_to_door(v, DoorId(di), dj),
            None => space.point_to_door(source, dj),
        };
        let Some(weight) = weight else {
            // A missing *source leg* is member-specific state a replay must
            // check (a member with a leg here would relax a door the lead
            // never saw); missing door-to-door weights are venue geometry,
            // identical for every member.
            if from.is_none() {
                observer.push_door(DoorEvent::SourceLegMissing {
                    door: dj.index() as u32,
                });
            }
            continue;
        };
        let cand = base_dist + weight;
        stats.relaxations += 1;

        // Line 30: TV_Check(dj, dist_j, t).
        stats.tv_checks += 1;
        let open = checker.check(dj, cand, stats);
        let improved = open && cand < st.dist[dj.index()];
        if observer.active() {
            let arrival = t0 + config.velocity.travel_time(cand);
            // One interval lookup serves both consumers: `hi - arrival` IS
            // the retiming margin (bit-equal to `margin_to_next`, pinned in
            // indoor-time's tests), and `[lo, hi)` is the window replay
            // admits member arrivals against.
            let (lo, hi) = space.checkpoints().timeline_interval(arrival);
            if observer.track_margin {
                let margin = hi - arrival.seconds();
                if margin.is_finite() {
                    if margin < observer.min_margin_secs {
                        observer.min_margin_secs = margin;
                    }
                } else {
                    // Degenerate arrival (∞/NaN weight): no retime is safe.
                    observer.min_margin_secs = 0.0;
                }
            }
            observer.push_door(DoorEvent::Relax {
                door: dj.index() as u32,
                from,
                via: v,
                weight,
                lo,
                hi,
                open,
                improved,
            });
        }
        if !open {
            stats.tv_rejections += 1;
            continue;
        }

        // Lines 31–34.
        if improved {
            if st.dist[dj.index()].is_infinite() {
                st.touched_doors += 1;
            }
            st.dist[dj.index()] = cand;
            st.prev[dj.index()] = Some(PrevEntry { via: v, from });
            st.heap.push(cand, Node::Door(dj.index() as u32));
            stats.heap_pushes += 1;
            stats.improvements += 1;
        }
    }
}

/// Lines 11–17: walk the `prev` chain back from `pt` and emit hops in order.
///
/// Every relaxed door records a predecessor before entering the heap, so the
/// chain is complete whenever the target has been popped; `None` signals a
/// broken invariant and the caller answers "no such routes" instead of
/// unwinding. [`run_search_targets`] calls it for every target, whether the
/// sweep carries one query or a group, and `crate::replay` for every
/// replayed member, so all of them assemble paths through the same code.
#[allow(clippy::too_many_arguments)]
pub(crate) fn reconstruct(
    source: &IndoorPoint,
    target: &IndoorPoint,
    config: &ItspqConfig,
    dist: &[f64],
    prev: &[Option<PrevEntry>],
    target_dist: f64,
    target_prev: Option<u32>,
    t0: Timestamp,
) -> Option<Path> {
    let mut hops = Vec::new();
    let mut cur = Some(target_prev?);
    while let Some(di) = cur {
        let p = prev[di as usize]?;
        let d = dist[di as usize];
        hops.push(DoorHop {
            door: DoorId(di),
            via_partition: p.via,
            distance: d,
            arrival: t0 + config.velocity.travel_time(d),
        });
        cur = p.from;
    }
    hops.reverse();
    // Batch results hold many paths at once: keep no growth slack.
    hops.shrink_to_fit();

    Some(Path {
        source: *source,
        target: *target,
        hops,
        length: target_dist,
        departure: t0,
        arrival: t0 + config.velocity.travel_time(target_dist),
    })
}

/// The straight-segment answer for a target sharing the source's partition —
/// the short-circuit [`run_search_targets`] takes for such a target before
/// any expansion.
pub(crate) fn direct_path(
    source: &IndoorPoint,
    target: &IndoorPoint,
    config: &ItspqConfig,
    t0: Timestamp,
) -> Path {
    let length = source.position.distance(target.position);
    Path {
        source: *source,
        target: *target,
        hops: Vec::new(),
        length,
        departure: t0,
        arrival: t0 + config.velocity.travel_time(length),
    }
}

/// Sentinel ending an entering-door chain in [`run_search_targets`].
const NO_LINK: u32 = u32::MAX;

/// Algorithm 1 from `source` at `time` to every point of `targets` on one
/// Dijkstra frontier (`None` = "no such routes"): the only copy of the
/// algorithm's loop. A per-query search is this sweep with one target;
/// `VenueServer`'s shared batches and [`crate::one_to_many`] pass many.
/// Each target finalises at its own heap pop, and the sweep ends when every
/// target has popped or the frontier is exhausted.
///
/// A lone target keeps the paper's single-query semantics: Rule 2 exempts
/// its own `P(pt)` even when private, and under
/// [`ExpandPolicy::PaperPruned`] a door entering `P(pt)` relaxes `pt` but
/// is not expanded further.
///
/// Two or more targets share the frontier. That is sound because under
/// [`ExpandPolicy::FullRelax`] door relaxations do not depend on the target
/// (the virtual target node is only ever *relaxed from* settled doors,
/// never expanded), so each target finalises with byte-identical distance,
/// predecessor chain and checker-state history to its own one-target
/// sweep. Callers (the server's batch planner, `one_to_many`) enforce two
/// preconditions, debug-asserted here:
///
/// * `config.expand` is `FullRelax` — `PaperPruned` prunes doors that enter
///   the target's partition, differently per target;
/// * every target's partition is traversable or is the source's own — a
///   *private* `P(pt)` would enlarge the traversable set for that target
///   alone.
///
/// Targets sharing the source's partition get the straight segment
/// ([`direct_path`]): it crosses no door and, partitions being decomposed
/// into near-convex cells, is shortest.
pub(crate) fn run_search_targets<C: TvChecker>(
    graph: &ItGraph,
    source: &IndoorPoint,
    time: TimeOfDay,
    targets: &[IndoorPoint],
    config: &ItspqConfig,
    checker: &mut C,
    observer: &mut SweepObserver,
) -> (Vec<Option<Path>>, SearchStats) {
    let lone = targets.len() == 1;
    let pruned = config.expand == ExpandPolicy::PaperPruned;
    debug_assert!(
        lone || !pruned,
        "shared execution requires FullRelax (target-independent relaxations)"
    );
    let space = graph.space();
    let mut stats = SearchStats::default();
    let t0 = Timestamp::from_time_of_day(time);
    let src_p = source.partition;

    let mut paths: Vec<Option<Path>> = vec![None; targets.len()];
    let mut target_dist = vec![f64::INFINITY; targets.len()];
    let mut target_prev: Vec<Option<u32>> = vec![None; targets.len()];
    let mut done = vec![false; targets.len()];
    let mut remaining = 0usize;

    // Doors that can enter each pending target's partition: per door the
    // head of a chain through `links` of (target, next link) pairs.
    let mut head = vec![NO_LINK; space.num_doors()];
    let mut links: Vec<(u32, u32)> = Vec::new();
    for (k, target) in targets.iter().enumerate() {
        if target.partition == src_p {
            paths[k] = Some(direct_path(source, target, config, t0));
            done[k] = true;
            continue;
        }
        debug_assert!(
            lone || space.partition(target.partition).kind.traversable(),
            "shared execution requires traversable target partitions"
        );
        remaining += 1;
        for &d in space.p2d_enterable(target.partition) {
            links.push((k as u32, head[d.index()]));
            head[d.index()] = (links.len() - 1) as u32;
        }
    }
    if remaining == 0 {
        checker.account(&mut stats);
        return (paths, stats);
    }

    let mut st = SearchState::new(space);

    // Rule 2: private partitions may be traversed only if they contain ps or,
    // for a lone target, pt (a shared sweep's targets are traversable).
    let exempt = if lone { targets[0].partition } else { src_p };
    let allowed = |v: PartitionId| -> bool {
        v == src_p || v == exempt || space.partition(v).kind.traversable()
    };

    // Source expansion: Algorithm 1 with di = ps, v = P(ps).
    st.visited_parts[src_p.index()] = true;
    stats.partitions_expanded += 1;
    expand_partition(
        space, config, source, checker, &mut st, &mut stats, src_p, None, 0.0, &allowed, t0,
        observer,
    );

    while let Some(entry) = st.heap.pop() {
        stats.heap_pops += 1;
        let di = match entry.node {
            Node::Target(k) => {
                let k = k as usize;
                if done[k] || entry.dist > target_dist[k] {
                    continue; // finalised already, or stale after an improvement
                }
                // `reconstruct` is `None` only on a broken predecessor
                // invariant; degrade to "no such routes" rather than panic.
                paths[k] = reconstruct(
                    source,
                    &targets[k],
                    config,
                    &st.dist,
                    &st.prev,
                    target_dist[k],
                    target_prev[k],
                    t0,
                );
                done[k] = true;
                remaining -= 1;
                if remaining == 0 {
                    break;
                }
                continue;
            }
            Node::Door(i) => i,
        };
        if st.settled[di as usize] {
            continue; // stale heap entry
        }
        st.settled[di as usize] = true;
        stats.doors_settled += 1;
        observer.push_door(DoorEvent::Pop { door: di });
        let door = DoorId(di);
        let d_di = st.dist[di as usize];

        // Lines 20–24 per pending target: a settled door entering P(pt)
        // relaxes that target directly …
        let mut link = head[di as usize];
        let enters_target = link != NO_LINK;
        while link != NO_LINK {
            let (k, next) = links[link as usize];
            link = next;
            if done[k as usize] {
                continue;
            }
            if let Some(pd) = space.point_to_door(&targets[k as usize], door) {
                let cand = d_di + pd;
                observer.push_target(k, di, pd);
                if cand < target_dist[k as usize] {
                    target_dist[k as usize] = cand;
                    target_prev[k as usize] = Some(di);
                    st.heap.push(cand, Node::Target(k));
                    stats.heap_pushes += 1;
                }
            }
        }
        // … and, in the paper's reading, is not expanded any further.
        if pruned && enters_target {
            continue;
        }

        // Lines 18–19 / full relaxation: choose partitions to expand.
        let came_from = st.prev[di as usize].map(|p| p.via);
        for vi in 0..space.d2p_enterable(door).len() {
            let v = space.d2p_enterable(door)[vi];
            if !allowed(v) {
                continue;
            }
            if pruned {
                if st.visited_parts[v.index()] {
                    continue;
                }
                st.visited_parts[v.index()] = true;
            } else if Some(v) == came_from {
                // Never expand back into the partition the door was reached
                // through: distance-wise it cannot help (DM triangle
                // inequality), and time-wise it would let paths *touch* a
                // door to burn walking time until another door opens —
                // waiting in disguise, which the paper's semantics exclude
                // (footnote 2).
                continue;
            }
            stats.partitions_expanded += 1;
            expand_partition(
                space,
                config,
                source,
                checker,
                &mut st,
                &mut stats,
                v,
                Some(di),
                d_di,
                &allowed,
                t0,
                observer,
            );
        }
    }

    // Each target beyond the first adds its distance, flags and path slot.
    stats.search_bytes =
        st.search_bytes() + (targets.len() - 1) * (std::mem::size_of::<f64>() + 2 + 8);
    stats.peak_heap = st.heap.peak();
    checker.account(&mut stats);
    (paths, stats)
}
