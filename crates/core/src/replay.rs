//! Order-free differential replay: interval sharing's per-member
//! derivation for members at other source points.
//!
//! Interval grouping batches queries that leave the *same source
//! partition* at departure times in one checkpoint interval, and possibly
//! from **different source points**. Floating-point addition is not associative, so a member's
//! answer cannot be recovered from the lead's labels by offset arithmetic —
//! instead, the lead's sweep records its complete relaxation log (a
//! [`Trace`]: one shared door-event stream plus a per-target leg stream)
//! and this module computes each member's *own* final labels from it.
//!
//! The key fact is that Dijkstra's **final** labels do not depend on the
//! priority-queue order: `dist[v]` is the minimum over relaxation chains of
//! bit-exact weight sums, and each sum is computed identically no matter
//! when its relaxation ran. So the member needs no heap at all — repeated
//! passes over the recorded relaxations converge to the member's label
//! fixpoint (one pass when the lead's order happens to be a valid schedule
//! for the member, a couple more when source legs reorder the frontier),
//! substituting only the member-specific inputs:
//!
//! * source→door legs are recomputed from the member's own point
//!   (`point_to_door`, cached per door); door-to-door and door-to-target
//!   weights are venue geometry, bit-identical by construction and reused
//!   from the trace;
//! * every deciding `TV_Check` verdict is the member's own: when the
//!   member's arrival lands inside the recorded constant-topology window
//!   `[lo, hi)` (the membership form of
//!   [`indoor_time::CheckpointSet::same_topology_interval`]) the lead's
//!   verdict transfers — same window, same verdict — for two `f64` compares
//!   instead of two binary searches; an arrival outside the window falls
//!   back to evaluating the door's ATIs at the member's own arrival, which
//!   *is* the engine's verdict for order-pure checkers.
//!
//! This transfer argument needs verdicts that are pure functions of the
//! arrival and topology views that do not depend on call order — true for
//! ITG/S and ITG/A in [`crate::AsynMode::Exact`] (static leaveable lists,
//! per-interval view lookups), and false for the paper-faithful
//! [`crate::AsynMode::Faithful`] cursor, whose verdict depends on the
//! sequence of preceding checks. The server therefore only records traces
//! for the pure engines; Faithful groups serve non-identical members
//! per-query.
//!
//! What *does* depend on execution order is which relaxations a real search
//! attempts. Exact float ties are resolved, not bailed on: a label's writer
//! in the member's own run is the earliest relaxation achieving the final
//! value, parents relax at their settles, and the heap settles equal labels
//! in door-index order — so the winning predecessor is the minimum of the
//! deterministic key `(parent label, parent index)` (source legs precede
//! every settle). After the labels converge, three certificates establish
//! that the member's own search would have attempted exactly the recorded
//! relaxation set:
//!
//! * **frontier containment** — every door the member settles
//!   (`dist < dist(target)`) must be lead-settled, so its full relaxation
//!   star is on record;
//! * **entry agreement** — each such door must be entered through the
//!   lead's recorded partition, so the member's expansion excludes the same
//!   neighbor;
//! * **omission certificate** — the sweep's settled-skip (Algorithm 1 line
//!   26) drops relaxations into already-settled doors from the record, and
//!   the member's different settle order can make it attempt edges the lead
//!   skipped. Every such pair — an expansion by a member-settled door into
//!   a door the lead settled earlier — is re-checked against the real
//!   door-to-door weight: the unrecorded edge must not improve (or
//!   ambiguously tie) the member's labels.
//!
//! Any failed certificate aborts with a [`ReplayBail`] and the server
//! answers that member with an ordinary per-query search — divergence can
//! cost time, never correctness. A derivation that passes every certificate
//! is a proof that the member's own Algorithm 1 run computes exactly these
//! labels, so the reconstructed path (or certified "no such routes") is
//! byte-identical to per-query execution.
//!
//! Replay cost is pay-as-you-go: no priority queue, no `TV_Check` binary
//! searches, no door-to-door weight lookups beyond the omission pairs, and
//! geodesics only for the member's own source legs (plus the rare target
//! legs the sweep skipped after finalising the member early). All label
//! arrays come from a pooled [`ReplayScratch`] whose reset is proportional
//! to what the previous replay actually touched; the per-group
//! [`LeadIndex`] (settle order, settled set, entry partitions) is built
//! once and shared by every member.

use indoor_space::{DoorId, IndoorSpace, PartitionId};

use crate::framework::{reconstruct, DoorEvent, PrevEntry, Trace};
use crate::{ItspqConfig, Path, Query};

/// Upper bound on label-fixpoint passes over the trace. Each extra pass is
/// only needed when an improvement discovered late in the stream feeds a
/// relaxation recorded earlier; real source-leg perturbations settle in two
/// or three passes, so hitting the cap means the member's frontier is
/// shaped nothing like the lead's and per-query execution is cheaper.
const MAX_PASSES: usize = 8;

/// Why a member's derivation could not be certified (it falls back
/// per-query).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum ReplayBail {
    /// The member has a source→door geodesic where the lead had none, so its
    /// own search would relax an unrecorded edge.
    SourceLeg,
    /// The labels did not converge within [`MAX_PASSES`] passes.
    NoFixpoint,
    /// A converged label is not achieved by any recorded edge at the final
    /// bases with an accepting verdict: it rode an intermediate-pass base
    /// whose improvement flipped the arrival verdict, so the member's own
    /// run never writes it.
    Unsupported,
    /// The member's search would settle a door the lead's sweep never
    /// settled — its relaxation star is not on record — or the answer would
    /// hang off a door whose label exactly equals the target distance,
    /// which only lead-unsettled stars could certify.
    Frontier,
    /// The member enters a settled door through a different partition than
    /// the lead, so its expansion would relax unrecorded edges.
    ViaMismatch,
    /// A settled-skip relaxation absent from the record would improve (or
    /// ambiguously tie) the member's labels.
    Omission,
}

/// Per-group facts about the lead's sweep, shared by every member's
/// derivation: which doors the lead settled (their full relaxation stars
/// are on record), in which order (for the omission certificate), and
/// through which partition each was entered (the expansion's excluded
/// neighbor). Built once per group from the trace and pooled per worker;
/// the reset is proportional to the doors the previous group touched.
#[derive(Debug, Default)]
pub(crate) struct LeadIndex {
    settled: Vec<bool>,
    via: Vec<Option<PartitionId>>,
    order: Vec<u32>,
    touched: Vec<u32>,
}

impl LeadIndex {
    /// Rebuilds the index for `trace` over a venue with `n` doors.
    pub(crate) fn build(&mut self, trace: &Trace, n: usize) {
        if self.settled.len() == n {
            for &d in &self.touched {
                self.settled[d as usize] = false;
                self.via[d as usize] = None;
            }
        } else {
            self.settled.clear();
            self.settled.resize(n, false);
            self.via.clear();
            self.via.resize(n, None);
        }
        self.touched.clear();
        self.order.clear();
        for ev in &trace.doors {
            match *ev {
                // A door only ever pops after an improving relax pushed it,
                // and settled doors are never relaxed again — so the last
                // improving relax before the pop carries the lead's entry
                // partition at settle time.
                DoorEvent::Relax {
                    door,
                    via,
                    improved: true,
                    ..
                } => {
                    if self.via[door as usize].is_none() {
                        self.touched.push(door);
                    }
                    self.via[door as usize] = Some(via);
                }
                DoorEvent::Pop { door } => {
                    self.settled[door as usize] = true;
                    self.order.push(door);
                }
                _ => {}
            }
        }
    }
}

/// Pooled per-worker state for [`replay_member`]: distance / predecessor
/// arrays, the member's source-leg cache, the recorded-target-leg markers
/// and the per-partition settle lists of the omission certificate — each
/// with a touched list so resets are proportional to actual work. One
/// scratch serves every derivation a worker performs, across groups and
/// batches, so the per-member cost carries no O(|doors|) allocation.
#[derive(Debug, Default)]
pub(crate) struct ReplayScratch {
    dist: Vec<f64>,
    prev: Vec<Option<PrevEntry>>,
    /// Doors whose labels left their defaults since the last reset.
    touched: Vec<u32>,
    /// Support-validation marks (reset through `touched`).
    support: Vec<bool>,
    /// Doors with a recorded target-leg weight for the current member.
    tleg: Vec<bool>,
    tleg_touched: Vec<u32>,
    /// Memoized member source legs: `(door, point_to_door(source, door))`.
    src_legs: Vec<(u32, Option<f64>)>,
    /// Per partition: lead-settled doors leaveable through it, in settle
    /// order, and the running max of their member labels.
    part_doors: Vec<Vec<u32>>,
    part_max: Vec<f64>,
    part_touched: Vec<u32>,
}

impl ReplayScratch {
    /// Restores the pristine state for a venue with `n` doors and `p`
    /// partitions, undoing only the writes the previous derivation recorded
    /// in its touched lists.
    fn reset(&mut self, n: usize, p: usize) {
        if self.dist.len() == n {
            for &d in &self.touched {
                self.dist[d as usize] = f64::INFINITY;
                self.prev[d as usize] = None;
                self.support[d as usize] = false;
            }
            for &d in &self.tleg_touched {
                self.tleg[d as usize] = false;
            }
        } else {
            self.dist.clear();
            self.dist.resize(n, f64::INFINITY);
            self.prev.clear();
            self.prev.resize(n, None);
            self.support.clear();
            self.support.resize(n, false);
            self.tleg.clear();
            self.tleg.resize(n, false);
        }
        if self.part_max.len() == p {
            for &w in &self.part_touched {
                self.part_doors[w as usize].clear();
                self.part_max[w as usize] = f64::NEG_INFINITY;
            }
        } else {
            self.part_doors.clear();
            self.part_doors.resize_with(p, Vec::new);
            self.part_max.clear();
            self.part_max.resize(p, f64::NEG_INFINITY);
        }
        self.touched.clear();
        self.tleg_touched.clear();
        self.src_legs.clear();
        self.part_touched.clear();
    }
}

/// The member-run writer key of a relaxation: parents write at their
/// settles, the heap settles equal labels in door-index order, and source
/// legs relax before the first settle. The minimum key among relaxations
/// achieving a door's final label is the member's actual predecessor.
fn writer_key(dist: &[f64], from: Option<u32>) -> (f64, i64) {
    match from {
        Some(f) => (dist[f as usize], i64::from(f)),
        None => (0.0, -1),
    }
}

/// Derives group member `k`'s own answer from the lead's relaxation trace.
///
/// `member` must be the validated query whose target was `targets[k]` of the
/// traced sweep, with the same source partition as the lead and a departure
/// in the same checkpoint interval, under an engine with order-pure TV
/// verdicts (ITG/S, or ITG/A in `Exact` mode — the server does not record
/// traces otherwise). Returns the member's byte-identical answer, or a
/// [`ReplayBail`] when the member's search provably (or even possibly)
/// diverges from the record.
pub(crate) fn replay_member(
    space: &IndoorSpace,
    config: &ItspqConfig,
    trace: &Trace,
    lead: &LeadIndex,
    member: &Query,
    k: u32,
    scratch: &mut ReplayScratch,
) -> Result<Option<Path>, ReplayBail> {
    let t0 = member.departure();
    scratch.reset(space.num_doors(), space.num_partitions());
    let ReplayScratch {
        dist,
        prev,
        touched,
        support,
        tleg,
        tleg_touched,
        src_legs,
        part_doors,
        part_max,
        part_touched,
    } = scratch;

    let mut src_leg = |door: u32| -> Option<f64> {
        if let Some(&(_, w)) = src_legs.iter().find(|&&(d, _)| d == door) {
            return w;
        }
        let w = space.point_to_door(&member.source, DoorId(door));
        src_legs.push((door, w));
        w
    };

    // The member's own `TV_Check` verdict for a deciding candidate. Fast
    // path: an arrival inside the lead's recorded window shares its
    // constant-topology interval, so the recorded verdict transfers. Slow
    // path: the door's ATIs at the member's own arrival — exactly the
    // engine's verdict, since order-pure checkers (ITG/S directly, and
    // ITG/A(Exact) via the arrival interval's reduced view, which mirrors
    // the interval-constant ATI state) decide from the arrival alone.
    let verdict = |door: u32, cand: f64, lo: f64, hi: f64, open: bool| -> bool {
        let tarr = t0 + config.velocity.travel_time(cand);
        let secs = tarr.seconds();
        if secs >= lo && secs < hi {
            open
        } else {
            space.door(DoorId(door)).atis.is_open_at(tarr)
        }
    };

    // Label fixpoint: apply the recorded relaxations in lead order until a
    // full pass changes nothing. Labels only decrease, and every write is a
    // relaxation the member's own run performs, so the fixpoint is the
    // member's final label set over the recorded edges.
    let mut converged = false;
    for _ in 0..MAX_PASSES {
        let mut changed = false;
        for ev in &trace.doors {
            match *ev {
                DoorEvent::Pop { .. } => {}
                DoorEvent::SourceLegMissing { door } => {
                    // The lead never relaxed this door from the source; a
                    // member with a geodesic to it would relax an
                    // unrecorded edge.
                    if src_leg(door).is_some() {
                        return Err(ReplayBail::SourceLeg);
                    }
                }
                DoorEvent::Relax {
                    door,
                    from,
                    via,
                    weight,
                    lo,
                    hi,
                    open,
                    ..
                } => {
                    let (base, w) = match from {
                        Some(f) => (dist[f as usize], weight), // venue geometry, shared
                        None => match src_leg(door) {
                            Some(w) => (0.0, w),
                            None => continue, // no such member leg; its search skips
                        },
                    };
                    if base.is_infinite() {
                        continue; // member never reaches `from`: star never expands
                    }
                    let d = door as usize;
                    let cand = base + w;
                    if !cand.is_finite() || cand > dist[d] {
                        continue; // a no-op in the member's run as well
                    }
                    if cand == dist[d] {
                        // Equal candidate: resolve the member's actual first
                        // writer by key. Only a strictly earlier writer with
                        // an accepting verdict displaces the standing entry.
                        let standing = prev[d].expect("finite label has a predecessor"); // itspq-lint: allow(no-panic-in-lib, "dist and prev are written together: every finite label was stored alongside its PrevEntry two branches below")
                        if standing.from == from {
                            continue; // same star, venue-fixed order: first kept
                        }
                        if writer_key(dist, standing.from) <= writer_key(dist, from) {
                            continue;
                        }
                        if verdict(door, cand, lo, hi, open) {
                            prev[d] = Some(PrevEntry { via, from });
                            changed = true;
                        }
                        continue;
                    }
                    if !verdict(door, cand, lo, hi, open) {
                        continue; // the member's own check rejects this edge
                    }
                    if dist[d].is_infinite() {
                        touched.push(door);
                    }
                    dist[d] = cand;
                    prev[d] = Some(PrevEntry { via, from });
                    changed = true;
                }
            }
        }
        if !changed {
            converged = true;
            break;
        }
    }
    if !converged {
        return Err(ReplayBail::NoFixpoint);
    }

    // Support validation: a label written mid-pass can ride a base that a
    // later pass improves past an arrival-verdict flip, in which case the
    // convergence check sees only a *rejected* improvement and leaves the
    // stale label standing. Every finite label must be re-achieved by some
    // recorded edge at the final bases with an accepting verdict. (The
    // predecessors need no separate validation: tie resolution re-evaluates
    // writer keys against live labels every pass, and a writer's verdict
    // depends only on the candidate value, which equals the final label.)
    for ev in &trace.doors {
        let DoorEvent::Relax {
            door,
            from,
            weight,
            lo,
            hi,
            open,
            ..
        } = *ev
        else {
            continue;
        };
        let d = door as usize;
        if !dist[d].is_finite() || support[d] {
            continue;
        }
        let (base, w) = match from {
            Some(f) => (dist[f as usize], weight),
            None => match src_leg(door) {
                Some(w) => (0.0, w),
                None => continue,
            },
        };
        if base + w == dist[d] && verdict(door, dist[d], lo, hi, open) {
            support[d] = true;
        }
    }
    for &dt in touched.iter() {
        if dist[dt as usize].is_finite() && !support[dt as usize] {
            return Err(ReplayBail::Unsupported);
        }
    }

    // Target legs: recorded weights first (shared geometry), then the legs
    // the sweep skipped because it had already finalised this member —
    // recomputed on demand, exactly as the member's own search would. The
    // member relaxes the target at each door's settle, so an equal
    // candidate keeps the door with the smaller (label, index) key.
    let relax_target =
        |dist: &[f64], door: u32, weight: f64, td: &mut f64, tp: &mut Option<u32>| {
            let cand = dist[door as usize] + weight;
            if !cand.is_finite() {
                return; // never an improvement, exactly as in the search
            }
            if cand < *td {
                *td = cand;
                *tp = Some(door);
            } else if cand == *td {
                let s = tp.expect("finite target label has a predecessor"); // itspq-lint: allow(no-panic-in-lib, "td and tp are written together: a finite target distance always carries its settling door")
                let (ds, dn) = (dist[s as usize], dist[door as usize]);
                if dn < ds || (dn == ds && door < s) {
                    *tp = Some(door);
                }
            }
        };
    let own = trace.targets.get(k as usize).map_or(&[][..], Vec::as_slice);
    let mut target_dist = f64::INFINITY;
    let mut target_prev: Option<u32> = None;
    for ev in own {
        let d = ev.door as usize;
        if !tleg[d] {
            tleg[d] = true;
            tleg_touched.push(ev.door);
        }
        if dist[d].is_finite() {
            relax_target(dist, ev.door, ev.weight, &mut target_dist, &mut target_prev);
        }
    }
    for &dl in space.p2d_enterable(member.target.partition) {
        let d = dl.index();
        if lead.settled[d] && !tleg[d] && dist[d].is_finite() {
            if let Some(w) = space.point_to_door(&member.target, dl) {
                relax_target(dist, d as u32, w, &mut target_dist, &mut target_prev);
            }
        }
    }
    let t_hat = target_dist;
    if let Some(tp) = target_prev {
        // A zero-length head leg from a door whose label equals the target
        // distance is real only if that label is — and labels at exactly
        // the target distance sit outside the certificates below.
        if dist[tp as usize] >= t_hat {
            return Err(ReplayBail::Frontier);
        }
    }

    // Frontier containment + entry agreement: every door the member's own
    // search settles (final label below the target distance) must have its
    // full relaxation star on record, entered through the same partition.
    for &dt in touched.iter() {
        let d = dt as usize;
        if dist[d] < t_hat {
            if !lead.settled[d] {
                return Err(ReplayBail::Frontier);
            }
            if prev[d].map(|p| p.via) != lead.via[d] {
                return Err(ReplayBail::ViaMismatch);
            }
        }
    }

    // Omission certificate: the record drops relaxations into doors that
    // were already settled (line 26). Walking the lead's settle order with
    // per-partition lists reconstructs exactly those dropped pairs; each
    // pair the member's own search *would* attempt (expander settled by the
    // member, target labelled above it) is checked against the real
    // door-to-door weight. Private partitions follow the sweep's rule 2.
    let src_p = member.source.partition;
    let allowed = |v: PartitionId| -> bool { v == src_p || space.partition(v).kind.traversable() };
    for &u in &lead.order {
        let ui = u as usize;
        let du = dist[ui];
        if du < t_hat {
            let via = lead.via[ui]; // == the member's entry, certified above
            for &wp in space.d2p_enterable(DoorId(u)) {
                if Some(wp) == via || !allowed(wp) {
                    continue;
                }
                if part_max[wp.index()] <= du {
                    continue; // every earlier label ≤ du: skips are no-ops
                }
                for &v in &part_doors[wp.index()] {
                    let dv = dist[v as usize];
                    if dv <= du {
                        continue;
                    }
                    let Some(w) = space.door_to_door(wp, DoorId(u), DoorId(v)) else {
                        continue;
                    };
                    let cand = du + w;
                    if !cand.is_finite() || cand > dv {
                        continue; // the member's relax of this edge is a no-op
                    }
                    if cand == dv
                        && writer_key(dist, Some(u))
                            >= writer_key(
                                dist,
                                prev[v as usize]
                                    .expect("finite label has a predecessor") // itspq-lint: allow(no-panic-in-lib, "reached only when cand == dv with cand finite, and the fixpoint stores every finite label with its PrevEntry")
                                    .from,
                            )
                    {
                        continue; // ties to the derived writer, which wrote first
                    }
                    // The unrecorded edge decides — unless the member's own
                    // TV verdict rejects it (pure, so directly computable).
                    if space
                        .door(DoorId(v))
                        .atis
                        .is_open_at(t0 + config.velocity.travel_time(cand))
                    {
                        return Err(ReplayBail::Omission);
                    }
                }
            }
        }
        for &wp in space.d2p_leaveable(DoorId(u)) {
            let wi = wp.index();
            if part_doors[wi].is_empty() {
                part_touched.push(wi as u32);
            }
            part_doors[wi].push(u);
            if du > part_max[wi] {
                part_max[wi] = du;
            }
        }
    }

    if t_hat.is_finite() {
        return Ok(reconstruct(
            &member.source,
            &member.target,
            config,
            dist,
            prev,
            target_dist,
            target_prev,
            t0,
        ));
    }
    // Labels converged with an unreachable target, and every reachable door
    // is certified settled with a recorded star: the member's own search
    // equally exhausts its frontier and answers "no such routes".
    Ok(None)
}
