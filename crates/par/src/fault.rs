//! Deterministic fault injection for the SPMD virtual machine.
//!
//! A [`FaultPlan`] is a seeded list of rules that perturb a checked run at
//! well-defined injection points: every `send` can be **delayed** (its wire
//! timestamp pushed into the simulated future), **reordered** (held back and
//! released after a later envelope), **duplicated**, or **dropped**, and any
//! rank can be **stalled** (a bounded wall-clock sleep) or **killed** (an
//! induced panic) at its next communication operation. The point of the
//! layer is not chaos for its own sake: every destructive fault must drive
//! the commcheck watchdog (see [`crate::check`]) to a *correct diagnosis* —
//! a kill shows up in the wait-for graph as the killed rank, a drop is
//! called out as injected in the deadlock report or the message-leak sweep,
//! a duplicate surfaces as a leak — instead of a hang or a misattributed
//! failure.
//!
//! Everything is deterministic: rule matching uses a splitmix64 stream
//! seeded per rank from the plan seed, so a given `(plan, program, p)`
//! triple always injects the same faults. Fault plans require checked mode;
//! [`crate::MachineBuilder`] enables it automatically.
//!
//! # Rule grammar
//!
//! A [`FaultRule`] is an action plus a conjunction of filters; a rule fires
//! at an injection point iff **every** filter on it matches (unset filters
//! match everything) and the seeded coin ([`FaultRule::probability`]) comes
//! up. Rules are tried in plan order; the first firing rule wins.
//!
//! ```text
//! rule      := action filter*
//! action    := delay(s) | reorder | duplicate | drop     (message actions)
//!            | stall(ms) | kill                          (rank actions)
//! filter    := sender(r)    — message actions: the sending rank
//!            | receiver(r)  — message actions: the destination rank
//!            | rank(r)      — rank actions: the victim
//!                             (for message actions, alias of sender)
//!            | tag(t)       — message actions: exact wire tag
//!            | after_op(n)  — armed from the acting rank's n-th comm op
//!            | probability(p) | max_fires(n)
//! ```
//!
//! `sender`/`receiver` make a rule **link-scoped**: `drop.sender(1).receiver(3)`
//! perturbs only the 1→3 link, leaving every other link clean — the shape
//! chaos sweeps use to aim faults at one exchange edge.

use std::sync::Mutex;

/// Prefix of the panic payload used when a rank is killed by injection.
/// [`crate::Machine`] treats such a panic like a user panic unless the
/// commcheck board holds a primary diagnosis (the usual case: surviving
/// ranks deadlock on the dead one and the watchdog report wins).
pub const FAULT_KILL_PREFIX: &str = "fault-inject:";

/// What a matched rule does.
#[derive(Clone, Copy, Debug, PartialEq)]
pub enum FaultAction {
    /// Add `seconds` of simulated time to the envelope's send stamp. The
    /// message still arrives (matching is by `(from, tag)`, not time), so a
    /// correct program completes with an inflated clock — a *benign* fault.
    Delay {
        /// Simulated seconds added to the wire timestamp.
        seconds: f64,
    },
    /// Hold the envelope back and release it after the next envelope leaves
    /// this rank (or when the rank next blocks in a receive, or exits — so
    /// the injector itself can never destroy liveness). Benign for programs
    /// that match on `(from, tag)`.
    Reorder,
    /// Send a second copy of the envelope. The duplicate is never consumed
    /// by a correct program and must surface in the message-leak sweep.
    Duplicate,
    /// Discard the envelope instead of delivering it. The receiver can
    /// never match it: the watchdog must report the resulting deadlock and
    /// name the drop, or — if the run still completes — the leak sweep
    /// must report the dropped envelope.
    Drop,
    /// The matched rank sleeps this many wall-clock milliseconds at its
    /// next communication op. The watchdog must *not* report a stalled
    /// rank as deadlocked (its status stays `Running`).
    Stall {
        /// Wall-clock milliseconds to sleep.
        millis: u64,
    },
    /// The matched rank panics at its next communication op, simulating a
    /// process death. Surviving ranks that wait on it must get a deadlock
    /// report naming the killed rank.
    Kill,
}

impl FaultAction {
    /// True for actions that perturb a message in flight (matched at
    /// `send`), false for rank-level actions (matched at any comm op).
    fn is_message_action(self) -> bool {
        matches!(
            self,
            FaultAction::Delay { .. }
                | FaultAction::Reorder
                | FaultAction::Duplicate
                | FaultAction::Drop
        )
    }
}

/// One injection rule: an action plus the filters deciding where it fires.
#[derive(Clone, Debug)]
pub struct FaultRule {
    /// The fault to inject.
    pub action: FaultAction,
    /// Acting rank — the sender for message actions, the victim for
    /// `Stall`/`Kill`. `None` matches every rank.
    pub rank: Option<usize>,
    /// Destination filter (message actions only). `None` matches any.
    pub to: Option<usize>,
    /// Exact tag filter (message actions only). `None` matches any tag,
    /// including reserved collective tags.
    pub tag: Option<u64>,
    /// The rule only fires from the acting rank's `after_op`-th
    /// communication op onwards (ops are counted per rank from 1).
    pub after_op: u64,
    /// Probability in `[0, 1]` that a matching event actually fires, drawn
    /// from the plan's seeded per-rank stream.
    pub probability: f64,
    /// Cap on firings per rank; `None` is unlimited.
    pub max_fires: Option<u64>,
}

impl FaultRule {
    /// A rule that always fires wherever it matches (probability 1, no cap).
    pub fn new(action: FaultAction) -> Self {
        FaultRule {
            action,
            rank: None,
            to: None,
            tag: None,
            after_op: 0,
            probability: 1.0,
            max_fires: None,
        }
    }

    /// Restricts the rule to one acting rank (sender or victim).
    pub fn rank(mut self, r: usize) -> Self {
        self.rank = Some(r);
        self
    }

    /// Restricts a message rule to one destination rank.
    pub fn to(mut self, dest: usize) -> Self {
        self.to = Some(dest);
        self
    }

    /// Link-scoping alias of [`FaultRule::rank`] for message rules: the
    /// sending side of the perturbed link (see the module-level grammar).
    pub fn sender(self, r: usize) -> Self {
        self.rank(r)
    }

    /// Link-scoping alias of [`FaultRule::to`]: the receiving side of the
    /// perturbed link. `sender(a).receiver(b)` scopes a message rule to
    /// exactly the `a → b` link.
    pub fn receiver(self, dest: usize) -> Self {
        self.to(dest)
    }

    /// Restricts a message rule to one exact tag.
    pub fn tag(mut self, t: u64) -> Self {
        self.tag = Some(t);
        self
    }

    /// Arms the rule only from the acting rank's `n`-th comm op (1-based).
    pub fn after_op(mut self, n: u64) -> Self {
        self.after_op = n;
        self
    }

    /// Sets the firing probability (deterministic seeded draw).
    pub fn probability(mut self, p: f64) -> Self {
        assert!((0.0..=1.0).contains(&p), "probability must be in [0, 1]");
        self.probability = p;
        self
    }

    /// Caps the number of firings per rank.
    pub fn max_fires(mut self, n: u64) -> Self {
        self.max_fires = Some(n);
        self
    }
}

/// A seeded, ordered set of fault rules for one run. The first matching
/// rule wins at each injection point.
#[derive(Clone, Debug)]
pub struct FaultPlan {
    seed: u64,
    rules: Vec<FaultRule>,
}

impl FaultPlan {
    /// An empty plan with the given RNG seed.
    pub fn new(seed: u64) -> Self {
        FaultPlan {
            seed,
            rules: Vec::new(),
        }
    }

    /// Adds a rule (builder style).
    pub fn with(mut self, rule: FaultRule) -> Self {
        self.rules.push(rule);
        self
    }

    /// The rules, in matching order.
    pub fn rules(&self) -> &[FaultRule] {
        &self.rules
    }
}

/// One fault that actually fired, recorded in the shared log so tests and
/// the chaos runner can assert injection really happened.
#[derive(Clone, Debug)]
pub struct InjectedFault {
    /// The acting rank (sender or victim).
    pub rank: usize,
    /// The acting rank's comm-op count when the fault fired (1-based).
    pub op: u64,
    /// Short action name: `delay`, `reorder`, `duplicate`, `drop`,
    /// `stall`, `kill`.
    pub kind: &'static str,
    /// Human-readable detail (destination, tag, magnitude).
    pub detail: String,
}

/// Plan plus the cross-rank firing log, shared by all rank threads.
pub(crate) struct FaultShared {
    plan: FaultPlan,
    log: Mutex<Vec<InjectedFault>>,
}

impl FaultShared {
    pub(crate) fn new(plan: FaultPlan) -> Self {
        FaultShared {
            plan,
            log: Mutex::new(Vec::new()),
        }
    }

    pub(crate) fn record(&self, fault: InjectedFault) {
        // A poisoned log only means some rank panicked mid-push; keep the
        // entries we have.
        self.log
            .lock()
            .unwrap_or_else(|e| e.into_inner())
            .push(fault);
    }

    pub(crate) fn take_log(&self) -> Vec<InjectedFault> {
        std::mem::take(&mut *self.log.lock().unwrap_or_else(|e| e.into_inner()))
    }

    /// A copy of the firing log, for annotating failure reports without
    /// consuming the log that [`crate::RunOutput`] returns.
    pub(crate) fn snapshot(&self) -> Vec<InjectedFault> {
        self.log.lock().unwrap_or_else(|e| e.into_inner()).clone()
    }
}

/// What the session tells `send_internal` to do with one envelope.
#[derive(Clone, Copy, Debug, PartialEq)]
pub(crate) enum MessageFate {
    /// Deliver unchanged.
    Deliver,
    /// Deliver with this many simulated seconds added to the send stamp.
    DeliverDelayed(f64),
    /// Discard; record as an injected drop.
    Drop,
    /// Deliver, then deliver a second copy.
    Duplicate,
    /// Hold back until the next flush point.
    Hold,
}

/// Rank-level fate at a communication op.
#[derive(Clone, Copy, Debug, PartialEq)]
pub(crate) enum RankFate {
    /// Sleep this many wall-clock milliseconds, then continue.
    Stall(u64),
    /// Panic with a [`FAULT_KILL_PREFIX`] payload.
    Kill,
}

/// Per-rank injection state: the seeded RNG stream, the comm-op counter,
/// and per-rule firing counts.
pub(crate) struct FaultSession {
    shared: std::sync::Arc<FaultShared>,
    rank: usize,
    rng: u64,
    ops: u64,
    fires: Vec<u64>,
}

/// splitmix64 step — tiny, seedable, and plenty for fault-coin flips.
pub(crate) fn splitmix64(state: &mut u64) -> u64 {
    *state = state.wrapping_add(0x9e37_79b9_7f4a_7c15);
    let mut z = *state;
    z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    z ^ (z >> 31)
}

impl FaultSession {
    pub(crate) fn new(shared: std::sync::Arc<FaultShared>, rank: usize) -> Self {
        let nrules = shared.plan.rules.len();
        let mut seed = shared.plan.seed ^ (rank as u64).wrapping_mul(0x9e37_79b9_7f4a_7c15);
        // Warm the stream so nearby seeds decorrelate.
        splitmix64(&mut seed);
        FaultSession {
            shared,
            rank,
            rng: seed,
            ops: 0,
            fires: vec![0; nrules],
        }
    }

    /// The rank's communication-op count so far (1-based after the first
    /// [`FaultSession::tick`]).
    pub(crate) fn ops(&self) -> u64 {
        self.ops
    }

    fn chance(&mut self, p: f64) -> bool {
        if p >= 1.0 {
            return true;
        }
        if p <= 0.0 {
            return false;
        }
        let draw = (splitmix64(&mut self.rng) >> 11) as f64 / (1u64 << 53) as f64;
        draw < p
    }

    /// True when rule `i` matches the current (rank, op) state; does not
    /// consume a firing.
    fn rule_armed(&self, i: usize, rule: &FaultRule) -> bool {
        if rule.rank.is_some_and(|r| r != self.rank) {
            return false;
        }
        if self.ops < rule.after_op {
            return false;
        }
        if rule.max_fires.is_some_and(|m| self.fires[i] >= m) {
            return false;
        }
        true
    }

    /// Counts one communication op and returns the rank-level fate, if a
    /// `Stall`/`Kill` rule fires. Called at the head of every send/recv.
    pub(crate) fn tick(&mut self) -> Option<RankFate> {
        self.ops += 1;
        for i in 0..self.shared.plan.rules.len() {
            let rule = self.shared.plan.rules[i].clone();
            if rule.action.is_message_action() || !self.rule_armed(i, &rule) {
                continue;
            }
            if !self.chance(rule.probability) {
                continue;
            }
            self.fires[i] += 1;
            match rule.action {
                FaultAction::Stall { millis } => {
                    self.shared.record(InjectedFault {
                        rank: self.rank,
                        op: self.ops,
                        kind: "stall",
                        detail: format!("{millis} ms"),
                    });
                    return Some(RankFate::Stall(millis));
                }
                FaultAction::Kill => {
                    self.shared.record(InjectedFault {
                        rank: self.rank,
                        op: self.ops,
                        kind: "kill",
                        detail: String::new(),
                    });
                    return Some(RankFate::Kill);
                }
                _ => unreachable!("message actions filtered above"),
            }
        }
        None
    }

    /// Decides the fate of one outgoing envelope. Called by
    /// `send_internal` for non-self destinations only (self-sends never
    /// touch the wire).
    pub(crate) fn on_send(&mut self, to: usize, tag: u64) -> MessageFate {
        for i in 0..self.shared.plan.rules.len() {
            let rule = self.shared.plan.rules[i].clone();
            if !rule.action.is_message_action() || !self.rule_armed(i, &rule) {
                continue;
            }
            if rule.to.is_some_and(|d| d != to) || rule.tag.is_some_and(|t| t != tag) {
                continue;
            }
            if !self.chance(rule.probability) {
                continue;
            }
            self.fires[i] += 1;
            let (fate, kind, detail) = match rule.action {
                FaultAction::Delay { seconds } => (
                    MessageFate::DeliverDelayed(seconds),
                    "delay",
                    format!("to rank {to} tag {tag:#x} (+{seconds}s simulated)"),
                ),
                FaultAction::Reorder => (
                    MessageFate::Hold,
                    "reorder",
                    format!("to rank {to} tag {tag:#x}"),
                ),
                FaultAction::Duplicate => (
                    MessageFate::Duplicate,
                    "duplicate",
                    format!("to rank {to} tag {tag:#x}"),
                ),
                FaultAction::Drop => (
                    MessageFate::Drop,
                    "drop",
                    format!("to rank {to} tag {tag:#x}"),
                ),
                _ => unreachable!("rank actions filtered above"),
            };
            self.shared.record(InjectedFault {
                rank: self.rank,
                op: self.ops,
                kind,
                detail,
            });
            return fate;
        }
        MessageFate::Deliver
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::Arc;

    #[test]
    fn rules_respect_after_op_and_max_fires() {
        let plan = FaultPlan::new(1).with(
            FaultRule::new(FaultAction::Drop)
                .rank(0)
                .after_op(2)
                .max_fires(1),
        );
        let mut s = FaultSession::new(Arc::new(FaultShared::new(plan)), 0);
        assert_eq!(s.tick(), None); // op 1: not armed yet
        assert_eq!(s.on_send(1, 7), MessageFate::Deliver);
        assert_eq!(s.tick(), None); // op 2: armed
        assert_eq!(s.on_send(1, 7), MessageFate::Drop);
        assert_eq!(s.tick(), None); // op 3: max_fires reached
        assert_eq!(s.on_send(1, 7), MessageFate::Deliver);
    }

    #[test]
    fn rank_filter_selects_victim() {
        let plan = FaultPlan::new(9).with(FaultRule::new(FaultAction::Kill).rank(2));
        let shared = Arc::new(FaultShared::new(plan));
        let mut s0 = FaultSession::new(Arc::clone(&shared), 0);
        let mut s2 = FaultSession::new(Arc::clone(&shared), 2);
        assert_eq!(s0.tick(), None);
        assert_eq!(s2.tick(), Some(RankFate::Kill));
        let log = shared.take_log();
        assert_eq!(log.len(), 1);
        assert_eq!(log[0].rank, 2);
        assert_eq!(log[0].kind, "kill");
    }

    #[test]
    fn link_scoped_rule_hits_only_its_link() {
        let plan = FaultPlan::new(5).with(FaultRule::new(FaultAction::Drop).sender(1).receiver(3));
        let shared = Arc::new(FaultShared::new(plan));
        let mut s1 = FaultSession::new(Arc::clone(&shared), 1);
        let mut s2 = FaultSession::new(Arc::clone(&shared), 2);
        s1.tick();
        s2.tick();
        assert_eq!(s1.on_send(3, 7), MessageFate::Drop, "the scoped link");
        assert_eq!(s1.on_send(2, 7), MessageFate::Deliver, "other receiver");
        assert_eq!(s2.on_send(3, 7), MessageFate::Deliver, "other sender");
    }

    #[test]
    fn probability_draws_are_deterministic() {
        let draws = |seed: u64| {
            let plan =
                FaultPlan::new(seed).with(FaultRule::new(FaultAction::Drop).probability(0.5));
            let mut s = FaultSession::new(Arc::new(FaultShared::new(plan)), 3);
            (0..32)
                .map(|_| {
                    s.tick();
                    s.on_send(1, 0) == MessageFate::Drop
                })
                .collect::<Vec<_>>()
        };
        assert_eq!(draws(42), draws(42));
        assert_ne!(draws(42), draws(43), "different seeds should diverge");
    }

    #[test]
    #[should_panic(expected = "probability")]
    fn out_of_range_probability_rejected() {
        let _ = FaultRule::new(FaultAction::Drop).probability(1.5);
    }
}
