//! `xtask modelcheck` — exhaustive schedule-space exploration for small
//! configurations (the *proved* tier of the determinism contract; see
//! DESIGN §12).
//!
//! `schedcheck` samples perturbed schedules; this checker **enumerates**
//! them. The observation that makes that tractable: the only
//! scheduler-visible nondeterminism in the whole stack is *which envelope
//! an any-source receive matches* — every directed receive filters by
//! `(from, tag)`, and the VM's wildcard receives all live in the sparse
//! all-to-all (`Ctx::exchange`). Two executions that match the same
//! sources in the same per-`(receiver, tag)` order are the same
//! Mazurkiewicz trace: every other event pair either commutes or is
//! already ordered by the program. So the schedule space is explored by
//! dynamic partial-order reduction over match choices:
//!
//! 1. Run the workload once, recording every wildcard accept with the
//!    sender's vector clock and the receiver's local event index
//!    (`pilut_par::sched`).
//! 2. For each recorded accept `i`, find every later accept `j` on the
//!    same `(receiver, tag)` from a different source whose *send* is
//!    causally concurrent with `i`'s *match* (`send_vc[receiver] <
//!    accept_event_i` — the same dominance test the happens-before race
//!    detector uses). Ordered pairs cannot be swapped by any legal
//!    schedule; concurrent pairs can, and are exactly the branch points.
//! 3. For each branch point, force a new run that replays the recorded
//!    match order up to `i` and then matches `j`'s source instead
//!    (receiver-side deferral of the non-forced envelopes — the same
//!    envelope-hold idea the fault layer's `Reorder` uses on the send
//!    side), leaving the suffix free and recorded.
//! 4. Recurse on every new trace until no unexplored trace remains,
//!    deduplicating by the per-`(receiver, tag)` source sequences.
//!
//! Forcing a branch can never deadlock a correct protocol: the concurrency
//! test guarantees `j`'s send depends on no receiver event at or after the
//! displaced match, so the alternative prefix is a prefix of a legal
//! execution; a protocol whose alternative *does* get stuck is diagnosed
//! by the commcheck watchdog, which is a finding, not a hang. Adjacent
//! transpositions of concurrent same-class accepts generate every
//! realizable per-class ordering, and the recursion re-branches from every
//! inequivalent trace, so the visited set covers the *entire* reduced
//! space — the run count is a completeness proof, not a sample size. A
//! per-config run cap turns state-space blowup into an explicit error
//! (never a silent truncation), keeping the "exhaustive" claim honest.
//!
//! Every explored schedule must (a) complete — no deadlock, (b) raise no
//! match-order race, and (c) produce the *bitwise-identical* fingerprint
//! of the canonical run (results + traffic totals + per-tag counters).
//! Failures are shrunk to the shortest forced prefix that still fails.
//! A mutation stage seeds the race the packed exchange removed — two raw
//! sends from one source under one user tag, taken by `recv_any` — and
//! asserts the checker diagnoses it as a match-order race: the regression
//! this subsystem exists to prevent.
//!
//! Full mode explores `spmv`, `mis` (the delta-protocol MIS rounds with
//! their sparse, round-varying message shapes), `trisolve`, and `factor`
//! at p ∈ {2, 3, 4}; `--quick` explores `spmv` and `trisolve` at
//! p ∈ {2, 3} plus the mutation stage.

use std::collections::BTreeMap;

use crate::sweep::{catching, checked_builder, fold, shrink, tiny_matrix, Fingerprint, Report};
use pilut_par::{MachineBuilder, Payload, SchedHandle, SchedulePlan, TraceEvent};

/// One schedule-forcing op `(rank, tag, source)`, kept as an ordered list
/// (not a plan) so failing schedules can shrink by prefix truncation.
type Force = (usize, u64, usize);

/// Per-config run cap: exceeding it fails the check as *inexhaustible at
/// this size* rather than silently truncating the space. Sized an order
/// of magnitude above what the shipped workloads need (see the run report)
/// so hitting it means a protocol change genuinely exploded the space.
const RUN_CAP: usize = 20_000;

/// Builds the installable plan for an ordered forcing list.
fn plan_of(forces: &[Force]) -> SchedulePlan {
    let mut plan = SchedulePlan::new().record(true);
    for &(rank, tag, src) in forces {
        plan = plan.force(rank, tag, src);
    }
    plan
}

/// The Mazurkiewicz-trace signature: per `(receiver, tag)`, the source
/// sequence its wildcard receives matched. Two runs with equal signatures
/// are the same trace — every other event pair commutes.
fn signature(trace: &[TraceEvent]) -> BTreeMap<(usize, u64), Vec<usize>> {
    let mut sig: BTreeMap<(usize, u64), Vec<usize>> = BTreeMap::new();
    for ev in trace {
        sig.entry((ev.rank, ev.tag)).or_default().push(ev.from);
    }
    sig
}

/// How one forced run ended.
enum RunResult {
    /// Completed: fingerprint plus the recorded wildcard-accept trace.
    Done(Fingerprint, Vec<TraceEvent>),
    /// Panicked: deadlock report, match-order race, or a rank panic.
    Died(String),
}

/// Runs `runner` once under the given forcing list, recording the trace.
fn run_forced<R>(runner: &R, forces: &[Force]) -> RunResult
where
    R: Fn(MachineBuilder) -> Fingerprint,
{
    let handle = SchedHandle::new(plan_of(forces));
    let builder = checked_builder().schedule(handle.clone());
    match catching(|| runner(builder)) {
        Ok(fp) => RunResult::Done(fp, handle.take_trace()),
        Err(msg) => RunResult::Died(msg),
    }
}

/// Enumerates the forcing lists for every branch point of `trace`: for
/// each accept `i` and each causally-concurrent later accept `j` of the
/// same `(receiver, tag)` class from a different source, the recorded
/// match order up to `i` followed by `j`'s source.
fn expansions(trace: &[TraceEvent]) -> Vec<Vec<Force>> {
    let mut out = Vec::new();
    for (i, ei) in trace.iter().enumerate() {
        let mut alternatives: Vec<usize> = Vec::new();
        for ej in &trace[i + 1..] {
            if ej.rank != ei.rank || ej.tag != ei.tag || ej.from == ei.from {
                continue;
            }
            if alternatives.contains(&ej.from) {
                continue;
            }
            // Ordered iff j's send already knew i's match (clock dominance
            // through the receiver's component) — then no legal schedule
            // swaps the pair and it is not a branch point.
            let knows = ej.send_vc.get(ei.rank).copied().unwrap_or(0) >= ei.accept_event;
            if knows {
                continue;
            }
            alternatives.push(ej.from);
            let mut forces: Vec<Force> =
                trace[..i].iter().map(|e| (e.rank, e.tag, e.from)).collect();
            forces.push((ei.rank, ei.tag, ej.from));
            out.push(forces);
        }
    }
    out
}

/// The proof artifact for one `(workload, p)` config.
struct SpaceReport {
    /// Distinct Mazurkiewicz traces visited — the size of the reduced
    /// schedule space, all fingerprint-identical.
    schedules: usize,
    /// Machine runs spent visiting them (forced replays included).
    runs: usize,
}

/// Explores the complete DPOR-reduced schedule space of `runner`.
/// `Ok` means every inequivalent schedule completed with the canonical
/// fingerprint; `Err` carries the diagnosis (with the failing schedule
/// shrunk to its minimal forced prefix) or the cap overflow.
fn explore<R>(runner: &R) -> Result<SpaceReport, String>
where
    R: Fn(MachineBuilder) -> Fingerprint,
{
    let mut visited: std::collections::BTreeSet<Vec<((usize, u64), Vec<usize>)>> =
        std::collections::BTreeSet::new();
    let mut tried: std::collections::BTreeSet<Vec<Force>> = std::collections::BTreeSet::new();
    let mut stack: Vec<Vec<Force>> = vec![Vec::new()];
    tried.insert(Vec::new());
    let mut canonical: Option<Fingerprint> = None;
    let mut runs = 0usize;
    while let Some(forces) = stack.pop() {
        if runs >= RUN_CAP {
            return Err(format!(
                "schedule space exceeds the {RUN_CAP}-run cap after {} distinct trace(s) — \
                 not exhaustively explorable at this size; shrink the workload matrix",
                visited.len()
            ));
        }
        runs += 1;
        match run_forced(runner, &forces) {
            RunResult::Died(msg) => {
                return Err(diagnose(runner, &forces, canonical.as_ref(), msg));
            }
            RunResult::Done(fp, trace) => {
                match &canonical {
                    None => canonical = Some(fp),
                    Some(f0) => {
                        if let Some(why) = f0.diff(&fp) {
                            let msg = format!("fingerprint diverged from canonical: {why}");
                            return Err(diagnose(runner, &forces, canonical.as_ref(), msg));
                        }
                    }
                }
                let sig: Vec<((usize, u64), Vec<usize>)> = signature(&trace).into_iter().collect();
                if !visited.insert(sig) {
                    continue; // equivalent trace already expanded
                }
                for alt in expansions(&trace) {
                    if tried.insert(alt.clone()) {
                        stack.push(alt);
                    }
                }
            }
        }
    }
    Ok(SpaceReport {
        schedules: visited.len(),
        runs,
    })
}

/// Shrinks a failing forcing list to its shortest failing prefix and
/// formats the diagnosis.
fn diagnose<R>(
    runner: &R,
    forces: &[Force],
    canonical: Option<&Fingerprint>,
    full_msg: String,
) -> String
where
    R: Fn(MachineBuilder) -> Fingerprint,
{
    let lens: Vec<usize> = (0..=forces.len()).collect();
    let failing = shrink(&lens, |len| match run_forced(runner, &forces[..len]) {
        RunResult::Died(msg) => Some(msg),
        RunResult::Done(fp, _) => canonical
            .and_then(|f0| f0.diff(&fp))
            .map(|why| format!("fingerprint diverged from canonical: {why}")),
    });
    match failing {
        Some((len, msg)) => {
            let prefix: Vec<String> = forces[..len]
                .iter()
                .map(|&(r, t, s)| format!("rank {r} tag {t:#x} <- {s}"))
                .collect();
            format!(
                "failing schedule shrunk to a {len}-entry forced prefix [{}]:\n{msg}",
                prefix.join(", ")
            )
        }
        None => format!(
            "failure did not reproduce during shrinking (flaky host interleaving?); \
             original {}-entry schedule said:\n{full_msg}",
            forces.len()
        ),
    }
}

/// A standard-workload runner over the tiny model-checking matrices.
/// `spmv` gets the 2-D grid (up to three exchange peers per receive, and
/// only one plan-build exchange, so the richer match fan-out stays
/// enumerable); `factor`/`trisolve` get 1-D chains sized to `p` — their
/// many elimination-round exchanges multiply per-receive choices, so the
/// chain's two-peer bound is what keeps the orderings product finite.
fn workload_runner(work: &'static str, p: usize) -> impl Fn(MachineBuilder) -> Fingerprint {
    let dm = tiny_matrix(p, work == "spmv");
    move |builder| crate::sweep::run_workload(work, &dm, p, builder).0
}

/// The user tag the mutant's two envelopes share.
const MUTANT_TAG: u64 = 7;

/// The mutation runner: rank 0 ships two payloads to rank `p - 1` in
/// their own envelopes under one tag, and the receiver takes them with
/// `recv_any` — the per-payload sparse all-to-all's match-order race,
/// reintroduced on purpose.
fn mutant_runner(p: usize) -> impl Fn(MachineBuilder) -> Fingerprint {
    move |builder| {
        Fingerprint::of(builder.run(p, |ctx| {
            let mut h = 0x5eed_0003u64;
            if ctx.rank() == 0 {
                for v in [1, 2] {
                    // lint: allow(raw-comm): the seeded race needs two envelopes on one tag
                    ctx.send(p - 1, MUTANT_TAG, Payload::u64s(vec![v]));
                }
            }
            if ctx.rank() == p - 1 {
                for _ in 0..2 {
                    // lint: allow(raw-comm): a wildcard receive is the race's other half
                    let (src, payload) = ctx.recv_any(MUTANT_TAG);
                    fold(&mut h, src as u64);
                    for v in payload.into_u64() {
                        fold(&mut h, v);
                    }
                }
            }
            h
        }))
    }
}

/// The label a config proved schedule-independent counts under.
const PROVED: &str = "config(s) proved schedule-independent";

/// Explores every `(workload, p)` config and then the mutation stage on
/// `mutant`, which the checker must *fail* with a match-order race
/// diagnosis. Proved configs and the caught mutant count apart in `report`.
fn check<M>(report: &mut Report, workloads: &[&'static str], procs: &[usize], mutant: &M)
where
    M: Fn(MachineBuilder) -> Fingerprint,
{
    let (mut schedules, mut runs) = (0, 0);
    for &work in workloads {
        for &p in procs {
            let config = format!("work={work} p={p}");
            let outcome = explore(&workload_runner(work, p)).map(|space| {
                println!(
                    "modelcheck: {config}: {} inequivalent schedule(s) explored exhaustively, \
                     one fingerprint ({} run(s))",
                    space.schedules, space.runs
                );
                schedules += space.schedules;
                runs += space.runs;
                PROVED
            });
            report.record(config, outcome);
        }
    }
    println!("modelcheck: {schedules} schedule(s) over {runs} run(s) explored");
    let outcome = match explore(mutant) {
        Ok(space) => Err(format!(
            "survived exploration undiagnosed ({} schedule(s), {} run(s)) — the checker has \
             a hole",
            space.schedules, space.runs
        )),
        Err(msg) if msg.contains("match-order race") => Ok("mutant(s) caught"),
        Err(msg) => Err(format!("failed for the wrong reason:\n{msg}")),
    };
    report.record("mutation per-payload-exchange", outcome);
}

/// Entry point for `xtask modelcheck`. Returns `Err(message)` on bad
/// usage, any schedule-space violation, or an undetected mutant.
pub fn run(args: &[String]) -> Result<(), String> {
    crate::sweep::drive("modelcheck", args, false, |flags, report| {
        let workloads: &[&'static str] = if flags.quick {
            &["spmv", "trisolve"]
        } else {
            &["spmv", "mis", "trisolve", "factor"]
        };
        let procs: &[usize] = if flags.quick { &[2, 3] } else { &[2, 3, 4] };
        check(report, workloads, procs, &mutant_runner(2));
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use pilut_par::MatchKind;

    fn ev(rank: usize, tag: u64, from: usize, send_vc: Vec<u64>, accept_event: u64) -> TraceEvent {
        TraceEvent {
            rank,
            tag,
            from,
            mode: MatchKind::AnySourceUnordered,
            send_vc,
            accept_event,
        }
    }

    #[test]
    fn signature_groups_by_receiver_and_tag() {
        let trace = vec![
            ev(0, 7, 1, vec![0, 1, 0], 1),
            ev(1, 7, 2, vec![0, 0, 1], 1),
            ev(0, 7, 2, vec![0, 0, 1], 2),
        ];
        let sig = signature(&trace);
        assert_eq!(sig[&(0, 7)], vec![1, 2]);
        assert_eq!(sig[&(1, 7)], vec![2]);
    }

    #[test]
    fn concurrent_same_class_pair_branches() {
        // Two concurrent accepts at rank 0, tag 7 from distinct sources:
        // exactly one expansion, forcing source 2 first.
        let trace = vec![
            ev(0, 7, 1, vec![0, 1, 0], 1),
            ev(0, 7, 2, vec![0, 0, 1], 2), // send_vc[0] = 0 < 1: concurrent
        ];
        let plans = expansions(&trace);
        assert_eq!(plans, vec![vec![(0, 7, 2)]]);
    }

    #[test]
    fn causally_ordered_pair_does_not_branch() {
        // The second send already knew the first match (send_vc[0] = 1 >=
        // accept_event 1): no legal schedule swaps them.
        let trace = vec![ev(0, 7, 1, vec![0, 1, 0], 1), ev(0, 7, 2, vec![1, 0, 1], 2)];
        assert!(expansions(&trace).is_empty());
    }

    #[test]
    fn cross_class_events_never_branch() {
        // Different receivers and different tags: no pairs.
        let trace = vec![
            ev(0, 7, 1, vec![0, 1], 1),
            ev(1, 7, 0, vec![1, 0], 1),
            ev(0, 9, 1, vec![0, 2], 2),
        ];
        assert!(expansions(&trace).is_empty());
    }

    #[test]
    fn a_failed_mutation_stage_leaves_the_proved_count_whole() {
        // A race-free "mutant" survives exploration, so the mutation stage
        // fails; the one proved config must still count as proved.
        let mut report = Report::new("modelcheck".to_string());
        check(&mut report, &["spmv"], &[2], &workload_runner("spmv", 2));
        assert_eq!(
            report.summary(),
            format!("modelcheck: 2 trial(s) — 1 {PROVED}, 1 failure(s)")
        );
    }

    #[test]
    fn quick_exploration_is_clean() {
        run(&["--quick".to_string()]).expect("quick modelcheck must pass");
    }
}
