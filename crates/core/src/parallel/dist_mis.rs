//! Distributed modified-Luby maximal independent sets (paper §4.1): a
//! **delta protocol** on the wire, one **slot-space frontier kernel**
//! behind it.
//!
//! Each rank owns the remaining rows of the current reduced matrix. The
//! dependency graph is *directed* (row `i` → column `j`) and structurally
//! unsymmetric, so the paper's two-step insertion applies: tentative winners
//! (random key beats every candidate out-neighbour) are confirmed only if
//! none of their out-neighbours is also tentative. Of any conflicting pair
//! the arc's source loses, so the confirmed set is independent and at least
//! the maximum-key tentative vertex always survives — each round makes
//! progress.
//!
//! Communication per level: one **setup** collective builds the level's
//! [`CommPlan`] (the paper's "communication setup phase" — every rank learns
//! which peers reference each of its nodes), then per Luby round three
//! replays along the fixed plan. Every frame is *index-addressed* against
//! the node lists both sides agreed on at plan time — no node ids, no keys
//! on the wire — and every round's byte count is recorded **exactly** in
//! the planned-traffic ledger before a byte ships
//! ([`CommPlan::exact_round`]), so the planned = measured check of
//! `xtask paper`'s kernel gate gates the diet:
//!
//! 1. **`MIS_KEYS` — state deltas** (owner → referencing ranks): one word
//!    `(idx << 2) | state` per owned node whose state changed since the
//!    previous ship. A node's state changes at most once after candidacy
//!    (`CAND → IN` or `CAND → OUT`, then never again), so each node ships
//!    at most one delta per level instead of a `(node, key, state)` triple
//!    every round. Round 0 establishes the baseline: both sides assume
//!    every scheduled node is a candidate and the round ships only the
//!    exceptions (normally none — see the invariants below). Random keys
//!    are *recomputed* from `(seed, level, round, node)` on both sides via
//!    [`mis_key`] and never travel.
//! 2. **`MIS_TENT` — tentative winners** (owner → referencing ranks): one
//!    index word per tentative node.
//! 3. **`MIS_CONF` — confirmations + kills** (symmetric, folded where the
//!    plan directions coincide): one word `(idx << 1) | kind` per event.
//!    Confirmations flow owner → referencer and index the *sender's* send
//!    list; kills flow referencer → owner and index the sender's receive
//!    list (the mirror of the receiver's send list). A pair linked in both
//!    directions exchanges one message carrying both kinds.
//!
//! Per-round invariants — what each round may assume about peer state:
//!
//! * **Entry (baseline):** every node of the level's reduced system starts
//!   `CAND`, because Algorithm 4.2's elimination removes every selected
//!   column from the surviving reduced rows; referenced-but-decided nodes
//!   are the exception the baseline round ships (`OUT`).
//! * **Before the tentative step of round `r`:** each rank's view of its
//!   referenced remote nodes reflects *all* transitions up to the end of
//!   round `r − 1` (confirmations arrived in round `r − 1`'s `MIS_CONF`;
//!   every kill — including the end-of-round member-adjacency sweep —
//!   arrived in round `r`'s opening delta). This is the same information
//!   timing as a full-state push, so the chosen set is bit-identical to
//!   the full-push oracle this file keeps under `cfg(test)` and
//!   independent of the rank count.
//! * **After `MIS_CONF` of round `r`:** membership (`IN`) is globally
//!   consistent — owners mark shipped confirmations so they never re-ship
//!   as deltas, and a receiver may treat a remote `IN` as final (states
//!   never leave `IN`/`OUT`).
//! * **Staleness is one-sided:** a peer may still see `CAND` for a node
//!   already killed this round; that only suppresses tentatives
//!   conservatively and is resolved by the next opening delta.
//! * **Dead links go silent:** once every node of a pair's agreed list is
//!   decided *in the shared shipped-state view* (which owner and
//!   referencer update in lockstep), no word can ever flow on that link
//!   again — deltas need a state change, tentatives/confirmations/kills
//!   need a candidate — so both endpoints skip its messages outright
//!   ([`CommPlan::exact_round`]). Late rounds of a level,
//!   where most nodes are decided, collapse to near-zero messages.
//!
//! Malformed frames (an out-of-range index, an unknown state code — e.g. a
//! chaos-injected duplicate consumed as a later round's frame) surface as
//! structured [`FactorError::Protocol`] errors from the decoder, not index
//! panics. The paper truncates at five rounds; leftovers stay candidates
//! for the next level.
//!
//! # The kernel: level slots, a candidate frontier, one pricing rule
//!
//! `LevelMis` keeps a level over **slots**, in buffers the factorization
//! owns and refills per level (DESIGN §13.1 has the rationale):
//!
//! ```text
//! slot: 0 ........ n_rows | n_rows ....... n_mine | n_mine ........ n_slots
//!       my live rows      | my decided nodes a    | remote nodes my rows
//!       (interface order) | peer still references | reference, in the plan's
//!                         | (no row; born OUT)    | receive-list order
//! ```
//!
//! One CSR pattern over slots; state, shipped state, keys and per-round
//! marks as flat arrays by slot; the plan's node lists as slot lists by
//! peer rank. The rows still `CAND` form a compact **frontier**, shrunk in
//! place by the last scan of every round, and the four scans of a round
//! walk the frontier or its tentative / confirmed subsets: **a decided row
//! is never read again** (its state is, as a column of live rows).
//!
//! The logical clock is charged **5 units per key hashed** (one per local
//! or referenced-remote candidate per round, after the opening delta has
//! retired the remote ones it can) and **1 unit per pattern entry a scan
//! reads** — the diagonal included; an early exit stops the meter where it
//! stops the loop. Each round charges five integer-valued totals in fixed
//! program order (keys, tentative test, confirmation test, member kills,
//! member-adjacency sweep), so the clock is bit-reproducible and a round
//! with no candidate left costs nothing. Frame building and liveness
//! refresh walk slot lists, not the pattern, and are not priced.

use crate::dist::exchange::{tags, CommPlan};
use crate::dist::{Distribution, LocalView};
use crate::options::FactorError;
use pilut_par::{Ctx, Payload};
#[expect(clippy::disallowed_types, reason = "both doors sort what they read")]
use std::collections::HashMap;
use std::ops::Range;

/// Result of one distributed MIS computation.
pub struct MisOutcome {
    /// My nodes selected into `I_l`, ascending.
    pub my_in: Vec<usize>,
    /// Referenced remote nodes that entered `I_l`.
    pub remote_in: Vec<usize>,
}

/// Node states as the delta words carry them …
const CAND: u64 = 0;
const IN: u64 = 1;
const OUT: u64 = 2;
/// … and as the `u8` slot arrays store them.
const S_CAND: u8 = CAND as u8;
const S_IN: u8 = IN as u8;
const S_OUT: u8 = OUT as u8;

/// `MIS_CONF` event kinds (low bit of each frame word): a confirmation
/// indexes the sender's send list; a kill indexes the sender's receive
/// list.
const CONF_EV: u64 = 0;
const KILL_EV: u64 = 1;

/// Per-round slot marks: tentative this round (mine or remote), confirmed
/// this round (mine), kill already queued (remote).
const TENT: u8 = 1;
const CONF: u8 = 2;
const KILL: u8 = 4;

/// "No slot". Slots and the node ids parked in the pattern before binding
/// are stored as `u32`: the pattern and the node → slot index are the two
/// per-rank arrays of this kernel whose size follows the matrix.
const NONE: u32 = u32::MAX;
/// A column a pushed row met before it had a slot: a remote node until
/// `bind` numbers it, or a row of mine pushed later.
const SEEN: u32 = NONE - 1;

#[expect(clippy::expect_used, reason = "2^32 nodes do not fit in memory")]
fn narrow(x: usize) -> u32 {
    u32::try_from(x).expect("node ids and level slots fit 32 bits")
}

/// SplitMix64 — the per-(seed, level, round, node) random key. Owners and
/// referencing ranks recompute it independently from the shared arguments;
/// the delta protocol never puts a key on the wire.
pub fn mis_key(seed: u64, level: u64, round: u64, node: u64) -> u64 {
    let mut z = seed
        .wrapping_mul(0x9E3779B97F4A7C15)
        .wrapping_add(level.wrapping_mul(0xBF58476D1CE4E5B9))
        .wrapping_add(round.wrapping_mul(0x94D049BB133111EB))
        .wrapping_add(node.wrapping_mul(0xD6E8FEB86659FD93));
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58476D1CE4E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D049BB133111EB);
    z ^ (z >> 31)
}

/// The level's communication plan, given the distinct columns of my live
/// reduced rows (collective): the send side lists my nodes each peer's rows
/// reference; the receive side lists the remote nodes my rows reference.
fn link_plan(ctx: &mut Ctx, dist: &Distribution, cols: impl Iterator<Item = usize>) -> CommPlan {
    let me = ctx.rank();
    let needed = cols.filter(|&j| dist.owner(j) != me);
    CommPlan::build(ctx, tags::MIS_KEYS, needed, |j| dist.owner(j))
}

/// Collectively builds the level's communication plan from the current
/// reduced rows (`node → sorted columns`, all rows owned by this rank).
/// The send side lists my nodes each peer's rows reference; the receive
/// side lists the remote nodes my rows reference. The factorizations reuse
/// the same plan to route freshly factored `U` rows after the set is known.
#[expect(clippy::disallowed_types, reason = "the columns are sorted first")]
pub fn build_level_links(
    ctx: &mut Ctx,
    dist: &Distribution,
    reduced_cols: &HashMap<usize, Vec<usize>>,
) -> CommPlan {
    let mut cols: Vec<usize> = reduced_cols.values().flatten().copied().collect();
    cols.sort_unstable();
    cols.dedup();
    link_plan(ctx, dist, cols.into_iter())
}

/// Splits one `MIS_KEYS` delta word into `(index, state)`, validating the
/// state code and the index range against the pair's agreed node list.
fn decode_delta(word: u64, n_nodes: usize) -> Result<(usize, u64), String> {
    let idx = (word >> 2) as usize;
    let s = word & 0b11;
    if s != IN && s != OUT {
        return Err(format!("delta word {word:#x} carries state code {s}"));
    }
    if idx >= n_nodes {
        return Err(format!(
            "delta word {word:#x} indexes node {idx} of a {n_nodes}-node schedule"
        ));
    }
    Ok((idx, s))
}

/// Records the first decode failure of a round; later frames of a round
/// already known corrupt are ignored (the replay still drains every peer
/// so the wire stays aligned for the error return).
pub(crate) fn note_err(
    slot: &mut Option<FactorError>,
    tag: &'static str,
    peer: usize,
    what: String,
) {
    if slot.is_none() {
        *slot = Some(FactorError::Protocol {
            tag,
            what: format!("from rank {peer}: {what}"),
        });
    }
}

/// [`note_err`] for an event index with no node behind it.
fn note_bad_index(
    slot: &mut Option<FactorError>,
    tag: &'static str,
    peer: usize,
    kind: &str,
    idx: u64,
    n_nodes: usize,
) {
    let what = format!("{kind} index {idx} out of range for a {n_nodes}-node schedule");
    note_err(slot, tag, peer, what);
}

/// One wire frame: an exact-size buffer, and no buffer at all when the
/// frame is empty — the only heap acquisition a round makes.
fn frame<I: Iterator<Item = u64>>(words: impl Fn() -> I) -> Payload {
    // lint: allow(alloc-in-hot): the wire frame itself — one exact-size buffer per non-empty message
    let mut buf = Vec::with_capacity(words().count());
    buf.extend(words());
    Payload::u64s(buf)
}

/// Charges `units` of modelled MIS work to the clock; returns them for
/// the kernel's own tally.
fn charge(ctx: &mut Ctx, units: usize) -> f64 {
    ctx.work(units as f64);
    units as f64
}

/// The level plan's node lists in slot space, by peer rank (the replays
/// hand the frame builders a rank, not a link index).
#[derive(Default)]
struct Links {
    /// My slots peer `q` references are `send_slot[send[q]]`, in the order
    /// its receive list expects (empty without a link).
    send_slot: Vec<usize>,
    send: Vec<Range<usize>>,
    /// Peer `q`'s nodes I reference are the slots `recv[q]`.
    recv: Vec<Range<usize>>,
}

impl Links {
    fn send_slots(&self, peer: usize) -> &[usize] {
        &self.send_slot[self.send[peer].clone()]
    }

    fn recv_slots(&self, peer: usize) -> Range<usize> {
        self.recv[peer].clone()
    }
}

/// The `slot_of` key of `node`: its slot in `space` past the interiors —
/// its interface number — or the node itself.
fn map_key(space: Option<&LocalView>, node: usize) -> usize {
    space.map_or(node, |local| local.slot(node) - local.interior.len())
}

/// Empties `v` and refills it with `n` copies of `x`, keeping its capacity.
fn refill<T: Clone>(v: &mut Vec<T>, n: usize, x: T) {
    v.clear();
    v.resize(n, x);
}

/// One level's pattern and modified-Luby state over level slots (module
/// docs). A factorization keeps one and refills it per level: `begin`, one
/// `push_row` per live reduced row, `link` (or `bind` to a plan built
/// elsewhere), `run`; the chosen set is then read off the slot states
/// until the next `begin`.
#[derive(Default)]
pub(crate) struct LevelMis<'a> {
    /// The rank's column space, whose interface part keys `slot_of` when a
    /// factorization drives the kernel; `None` keys it by global node.
    space: Option<&'a LocalView>,
    /// Slot → global node.
    node: Vec<usize>,
    /// Node key ([`map_key`]) → slot for this level's nodes, [`SEEN`] for
    /// a column met before its slot, [`NONE`] elsewhere; sized once to the
    /// interface, or grown on demand by global node. Reset by
    /// [`LevelMis::begin`].
    slot_of: Vec<u32>,
    /// Each column first met before it had a slot, once, in the order the
    /// rows met it: the remote nodes my rows reference, and my rows that a
    /// lower row named first (`link_plan` drops those).
    seen: Vec<usize>,
    n_rows: usize,
    /// Slots below are mine, slots from here on remote.
    n_mine: usize,
    /// CSR pattern of my live rows: global columns until bound, slots after.
    ptr: Vec<usize>,
    adj: Vec<u32>,
    links: Links,
    /// `CAND`/`IN`/`OUT` by slot: the truth for my slots, my view of the
    /// remote ones (which is also the shared shipped view of their links).
    state: Vec<u8>,
    /// Last state shipped, by slot of mine. One array suffices because a
    /// transition ships to *all* referencing peers in the same round.
    shipped: Vec<u8>,
    /// The round's key of every slot still `CAND`.
    key: Vec<u64>,
    /// The round's `TENT`/`CONF`/`KILL` marks, zeroed at the round's end.
    flag: Vec<u8>,
    /// My rows still `CAND`, ascending; the remote slots I still see `CAND`.
    frontier: Vec<usize>,
    remote_frontier: Vec<usize>,
    /// This round's tentative rows, confirmed rows (both ascending), remote
    /// tentative slots, and remote slots to kill (ascending, deduplicated).
    tentative: Vec<usize>,
    confirmed: Vec<usize>,
    remote_tent: Vec<usize>,
    kills: Vec<usize>,
    /// Link liveness by peer rank, from the *shared* view: owner and
    /// referencer hold identical shipped states for every agreed list
    /// (`shipped` on the owner, the remote half of `state` on the
    /// referencer — both advance only at delta ship and confirmation), so
    /// both endpoints agree when a link can never carry another word.
    live_send: Vec<bool>,
    live_recv: Vec<bool>,
    live_pair: Vec<bool>,
    /// Modelled units this level has charged to the clock, and the number
    /// of its rounds that began with a row of mine still `CAND`.
    work: f64,
    live_rounds: usize,
}

impl<'a> LevelMis<'a> {
    /// A kernel keyed by `local`'s column space ([`LocalView::slot`]):
    /// every node of a level, row or referenced column, is an interface
    /// node this rank's rows can reach, so the map holds one entry per
    /// interface node and never outgrows the rank's column space.
    pub(crate) fn over(local: &'a LocalView) -> Self {
        LevelMis {
            space: Some(local),
            slot_of: vec![NONE; local.n_slots() - local.interior.len()],
            ..LevelMis::default()
        }
    }

    /// Length of the node → slot map.
    pub(crate) fn map_len(&self) -> usize {
        self.slot_of.len()
    }

    /// Forgets the previous level and makes room for `nnz` pattern entries
    /// (exactly: the pattern is a quarter of the reduced matrix's bytes, and
    /// amortized growth would round that up to the next power of two).
    pub(crate) fn begin(&mut self, nnz: usize) {
        for &g in self.node.iter().chain(&self.seen) {
            self.slot_of[map_key(self.space, g)] = NONE;
        }
        self.node.clear();
        self.seen.clear();
        self.ptr.clear();
        self.ptr.push(0);
        self.adj.clear();
        self.adj.reserve_exact(nnz);
        self.work = 0.0;
        self.live_rounds = 0;
    }

    /// The slot of `node` in this level, [`NONE`] or [`SEEN`] without one.
    fn slot(&self, node: usize) -> u32 {
        let k = map_key(self.space, node);
        self.slot_of.get(k).copied().unwrap_or(NONE)
    }

    /// Maps `node` to `slot`, growing a map keyed by global node on demand.
    fn map(&mut self, node: usize, slot: u32) {
        let k = map_key(self.space, node);
        if k >= self.slot_of.len() {
            self.slot_of.resize(k + 1, NONE);
        }
        self.slot_of[k] = slot;
    }

    fn set_slot(&mut self, node: usize) {
        self.map(node, narrow(self.node.len()));
        self.node.push(node);
    }

    /// Appends one live reduced row of mine (any column order; the
    /// diagonal may be present). Rows go in ascending node order — the
    /// interface order — so that the chosen set reads back ascending.
    pub(crate) fn push_row(&mut self, node: usize, cols: impl Iterator<Item = usize>) {
        debug_assert!(self.node.last().is_none_or(|&prev| prev < node));
        self.set_slot(node);
        for c in cols {
            self.adj.push(narrow(c));
            if self.slot(c) == NONE {
                self.map(c, SEEN);
                self.seen.push(c);
            }
        }
        self.ptr.push(self.adj.len());
    }

    /// Collectively builds the level's plan from the pushed rows' distinct
    /// columns and binds the level to it.
    pub(crate) fn link(&mut self, ctx: &mut Ctx, dist: &Distribution) -> CommPlan {
        let plan = link_plan(ctx, dist, self.seen.iter().copied());
        self.bind(&plan, ctx.nprocs());
        plan
    }

    /// Lays the level out over slots for `plan` on a `p`-rank machine:
    /// assigns the non-row slots, translates pattern and node lists, and
    /// resets every node to the all-`CAND` baseline.
    ///
    /// # Panics
    /// If a pushed row has a column that is neither a pushed row nor in
    /// the plan's receive lists.
    pub(crate) fn bind(&mut self, plan: &CommPlan, p: usize) {
        self.n_rows = self.node.len();
        let referenced = plan.send_lists().iter().flat_map(|(_, nodes)| nodes);
        for &v in referenced {
            if self.slot(v) == NONE {
                self.set_slot(v);
            }
        }
        self.n_mine = self.node.len();
        refill(&mut self.links.recv, p, 0..0);
        for (peer, nodes) in plan.recv_lists() {
            let start = self.node.len();
            nodes.iter().for_each(|&v| self.set_slot(v));
            self.links.recv[*peer] = start..self.node.len();
        }
        let (space, slot_of, links) = (self.space, &self.slot_of, &mut self.links);
        let slot = |v: usize| slot_of.get(map_key(space, v)).copied().unwrap_or(NONE);
        links.send_slot.clear();
        refill(&mut links.send, p, 0..0);
        for (peer, nodes) in plan.send_lists() {
            let start = links.send_slot.len();
            links
                .send_slot
                .extend(nodes.iter().map(|&v| slot(v) as usize));
            links.send[*peer] = start..links.send_slot.len();
        }
        for c in &mut self.adj {
            let slot = slot(*c as usize);
            assert!(
                slot < SEEN,
                "reduced row references node {c}: neither a live row of this rank nor in the level plan"
            );
            *c = slot;
        }

        let (n_rows, n_mine, n_slots) = (self.n_rows, self.n_mine, self.node.len());
        refill(&mut self.state, n_slots, S_CAND);
        self.state[n_rows..n_mine].fill(S_OUT);
        refill(&mut self.shipped, n_mine, S_CAND);
        refill(&mut self.key, n_slots, 0);
        refill(&mut self.flag, n_slots, 0);
        self.frontier.clear();
        self.frontier.extend(0..n_rows);
        self.remote_frontier.clear();
        self.remote_frontier.extend(n_mine..n_slots);
        refill(&mut self.live_send, p, true);
        refill(&mut self.live_recv, p, true);
        refill(&mut self.live_pair, p, true);
    }

    /// A link is live while its agreed list still holds a candidate in the
    /// shared view; decided states are final, so a dead link stays dead. A
    /// pair is live if either of its directed lists is — only candidates
    /// can turn tentative, be confirmed, or be killed.
    fn refresh_links(&mut self) {
        for q in 0..self.live_pair.len() {
            let sent = self.links.send_slots(q).iter();
            self.live_send[q] &= sent.map(|&s| self.shipped[s]).any(|s| s == S_CAND);
            self.live_recv[q] &= self.state[self.links.recv_slots(q)].contains(&S_CAND);
            self.live_pair[q] = self.live_send[q] || self.live_recv[q];
        }
    }

    /// Runs the modified Luby algorithm over the bound level: at most
    /// `max_rounds` augmentation rounds (the paper runs exactly five — all
    /// ranks agree on the schedule without a global convergence check),
    /// each three neighbour-to-neighbour replays along `plan`. Collective.
    pub(crate) fn run(
        &mut self,
        ctx: &mut Ctx,
        plan: &CommPlan,
        seed: u64,
        level: u64,
        max_rounds: usize,
    ) -> Result<(), FactorError> {
        // Everything from here on is replay along the fixed plan over
        // buffers sized at bind time: the wire frames are the only heap
        // traffic, which the kernel gate of `xtask paper` budgets per MIS
        // message.
        let _audit = pilut_allocaudit::region("mis_rounds");
        for round in 0..max_rounds as u64 {
            self.live_rounds += usize::from(!self.frontier.is_empty());
            self.round(ctx, plan, seed, level, round)?;
        }
        Ok(())
    }

    /// One Luby round. A rank with no candidate left still takes part in
    /// the replays of its live links, so messaging stays aligned.
    fn round(
        &mut self,
        ctx: &mut Ctx,
        plan: &CommPlan,
        seed: u64,
        level: u64,
        round: u64,
    ) -> Result<(), FactorError> {
        let n_mine = self.n_mine;
        let mut err: Option<FactorError> = None;

        // --- MIS_KEYS replay: state deltas since the previous ship. ------
        // Round 0 is the baseline round: exceptions to all-CAND only.
        self.refresh_links();
        let (mine, theirs) = self.state.split_at_mut(n_mine);
        let (links, shipped) = (&self.links, &self.shipped);
        plan.exact_round(
            ctx,
            tags::MIS_KEYS,
            &self.live_send[..],
            &self.live_recv[..],
            |peer, _| {
                frame(|| {
                    let sent = links.send_slots(peer).iter().enumerate();
                    sent.filter(|&(_, &s)| shipped[s] != mine[s])
                        .map(|(idx, &s)| ((idx as u64) << 2) | mine[s] as u64)
                })
            },
            |peer, nodes, payload| {
                let base = links.recv_slots(peer).start - n_mine;
                for &word in payload.as_u64() {
                    match decode_delta(word, nodes.len()) {
                        Ok((idx, s)) => theirs[base + idx] = s as u8,
                        Err(what) => note_err(&mut err, "mis_keys", peer, what),
                    }
                }
            },
        );
        if let Some(e) = err.take() {
            return Err(e);
        }
        // Post-delta both views equal the current state of every agreed
        // list, so the same liveness rule prunes the tentative round and
        // the symmetric confirmation round.
        for q in (0..self.live_send.len()).filter(|&q| self.live_send[q]) {
            for &s in self.links.send_slots(q) {
                self.shipped[s] = self.state[s];
            }
        }
        self.refresh_links();

        // --- Keys: hashed once per candidate, never on the wire. ---------
        let (links, state, node) = (&self.links, &self.state, &self.node);
        self.remote_frontier.retain(|&s| state[s] == S_CAND);
        for &s in self.frontier.iter().chain(&self.remote_frontier) {
            self.key[s] = mis_key(seed, level, round, node[s] as u64);
        }
        self.work += charge(ctx, 5 * (self.frontier.len() + self.remote_frontier.len()));

        // --- Tentative winners: my key beats every candidate out-neighbour.
        let (ptr, adj, key) = (&self.ptr, &self.adj, &self.key);
        let row = |s: usize| adj[ptr[s]..ptr[s + 1]].iter().map(|&u| u as usize);
        let mut read = 0;
        self.tentative.clear();
        for &s in &self.frontier {
            let kv = (key[s], node[s]);
            let beaten = |u: usize| u != s && state[u] == S_CAND && (key[u], node[u]) < kv;
            let lost = row(s).position(beaten);
            read += lost.map_or(row(s).len(), |at| at + 1);
            if lost.is_none() {
                self.flag[s] |= TENT;
                self.tentative.push(s);
            }
        }
        self.work += charge(ctx, read);

        // --- MIS_TENT replay: tentative winners, as indices. -------------
        let (my_flag, their_flag) = self.flag.split_at_mut(n_mine);
        let remote_tent = &mut self.remote_tent;
        remote_tent.clear();
        plan.exact_round(
            ctx,
            tags::MIS_TENT,
            &self.live_send[..],
            &self.live_recv[..],
            |peer, _| {
                frame(|| {
                    let sent = links.send_slots(peer).iter().enumerate();
                    sent.filter(|&(_, &s)| my_flag[s] & TENT != 0)
                        .map(|(idx, _)| idx as u64)
                })
            },
            |peer, nodes, payload| {
                let base = links.recv_slots(peer).start;
                for &word in payload.as_u64() {
                    if word < nodes.len() as u64 {
                        let slot = base + word as usize;
                        their_flag[slot - n_mine] |= TENT;
                        remote_tent.push(slot);
                    } else {
                        note_bad_index(&mut err, "mis_tent", peer, "tentative", word, nodes.len());
                    }
                }
            },
        );
        if let Some(e) = err.take() {
            return Err(e);
        }

        // --- Confirm tentatives with no tentative out-neighbour. ---------
        let flag = &self.flag;
        let mut read = 0;
        self.confirmed.clear();
        for &s in &self.tentative {
            let conflict = row(s).position(|u| u != s && flag[u] & TENT != 0);
            read += conflict.map_or(row(s).len(), |at| at + 1);
            if conflict.is_none() {
                self.confirmed.push(s);
            }
        }
        self.work += charge(ctx, read);

        // --- Members join; their out-neighbours die. ---------------------
        // The confirmation round below tells every referencing peer, so
        // the membership never re-ships as a delta. A local out-neighbour
        // dies here; a remote one must be killed by its owner.
        for &s in &self.confirmed {
            self.state[s] = S_IN;
            self.shipped[s] = S_IN;
            self.flag[s] |= CONF;
        }
        let mut read = 0;
        self.kills.clear();
        for &s in &self.confirmed {
            read += row(s).len();
            for u in row(s) {
                if u < n_mine {
                    if self.state[u] == S_CAND {
                        self.state[u] = S_OUT;
                    }
                } else if self.flag[u] & KILL == 0 {
                    self.flag[u] |= KILL;
                    self.kills.push(u);
                }
            }
        }
        self.kills.sort_unstable();
        self.work += charge(ctx, read);

        // --- MIS_CONF replay: confirmations + kills, symmetric round. ----
        // Confirmations flow owner → referencing ranks; kills flow
        // arc-source rank → target's owner, addressing the pair's agreed
        // list by index. Every live pair exchanges exactly one message
        // carrying both event kinds where the directions coincide.
        let (state, flag, kills) = (&mut self.state, &self.flag, &self.kills);
        plan.exact_round_symmetric(
            ctx,
            tags::MIS_CONF,
            &self.live_pair[..],
            |peer| {
                let theirs = links.recv_slots(peer);
                let lo = kills.partition_point(|&u| u < theirs.start);
                let hi = kills.partition_point(|&u| u < theirs.end);
                frame(|| {
                    let sent = links.send_slots(peer).iter().enumerate();
                    let conf = sent.filter(|&(_, &s)| flag[s] & CONF != 0);
                    let conf = conf.map(|(idx, _)| ((idx as u64) << 1) | CONF_EV);
                    let kill = kills[lo..hi].iter();
                    conf.chain(kill.map(|&u| (((u - theirs.start) as u64) << 1) | KILL_EV))
                })
            },
            |peer, payload| {
                // A confirmation indexes my receive list from the peer (a
                // node I reference joined); a kill indexes my send list to
                // it (a node of mine must die).
                let (theirs, mine) = (links.recv_slots(peer), links.send_slots(peer));
                for &word in payload.as_u64() {
                    let (idx, kill) = ((word >> 1) as usize, word & 1 == KILL_EV);
                    let (kind, n) =
                        [("confirmation", theirs.len()), ("kill", mine.len())][kill as usize];
                    if idx >= n {
                        note_bad_index(&mut err, "mis_conf", peer, kind, idx as u64, n);
                    } else if !kill {
                        state[theirs.start + idx] = S_IN;
                    } else if state[mine[idx]] == S_CAND {
                        state[mine[idx]] = S_OUT;
                    }
                }
            },
        );
        if let Some(e) = err.take() {
            return Err(e);
        }
        let marked = self.tentative.iter().chain(&self.remote_tent);
        for &s in marked.chain(&self.kills) {
            self.flag[s] = 0;
        }

        // --- Member-adjacency sweep, shrinking the frontier in place. ----
        // A candidate pointing at a (local or remote) member dies. These
        // kills ship in the *next* round's opening delta — the same
        // information timing as a full-state push.
        let state = &mut self.state;
        let mut read = 0;
        self.frontier.retain(|&s| {
            if state[s] != S_CAND {
                return false;
            }
            let member = row(s).position(|u| u != s && state[u] == S_IN);
            read += member.map_or(row(s).len(), |at| at + 1);
            if member.is_some() {
                state[s] = S_OUT;
            }
            member.is_none()
        });
        self.work += charge(ctx, read);
        Ok(())
    }

    /// My nodes selected into `I_l`, ascending.
    pub(crate) fn my_in(&self) -> impl Iterator<Item = usize> + '_ {
        let rows = self.node[..self.n_rows].iter().zip(&self.state);
        rows.filter_map(|(&v, &s)| (s == S_IN).then_some(v))
    }

    /// Referenced remote nodes that entered `I_l`, in slot order.
    pub(crate) fn remote_in(&self) -> impl Iterator<Item = usize> + '_ {
        let remote = self.node[self.n_mine..]
            .iter()
            .zip(&self.state[self.n_mine..]);
        remote.filter_map(|(&v, &s)| (s == S_IN).then_some(v))
    }

    /// Whether `node` — a row of this level or a column of one — is in `I_l`.
    pub(crate) fn is_in(&self, node: usize) -> bool {
        self.state[self.slot_of[map_key(self.space, node)] as usize] == S_IN
    }

    /// Modelled MIS units this level has charged to the clock.
    pub(crate) fn work(&self) -> f64 {
        self.work
    }

    /// Rounds of this level that began with a candidate row of mine.
    pub(crate) fn live_rounds(&self) -> usize {
        self.live_rounds
    }
}

/// Runs the modified Luby algorithm for one level over the remaining rows.
/// Every rank must call this collectively with consistent arguments.
///
/// The paper's structure: the communication *setup* ([`build_level_links`])
/// is the only collective; each of the (at most `max_rounds`) augmentation
/// rounds uses purely neighbour-to-neighbour replays along the fixed plan,
/// so round cost does not grow with `p`. The frames are the delta protocol
/// described in the module docs; a malformed frame returns
/// [`FactorError::Protocol`] from the rank that received it (its peers then
/// stall on the abandoned protocol, which checked runs diagnose as a
/// deadlock — corrupted traffic cannot complete silently).
///
/// This is the map-keyed door to the slot kernel the factorizations drive
/// directly: it lays the rows out in ascending node order and runs the
/// same rounds.
#[expect(clippy::disallowed_types, reason = "rows are sorted by node first")]
pub fn dist_mis(
    ctx: &mut Ctx,
    plan: &CommPlan,
    reduced_cols: &HashMap<usize, Vec<usize>>,
    seed: u64,
    level: u64,
    max_rounds: usize,
) -> Result<MisOutcome, FactorError> {
    let mut rows: Vec<(usize, &Vec<usize>)> = reduced_cols.iter().map(|(&v, c)| (v, c)).collect();
    rows.sort_unstable_by_key(|&(v, _)| v);
    let mut mis = LevelMis::default();
    mis.begin(rows.iter().map(|(_, cols)| cols.len()).sum());
    for (v, cols) in rows {
        mis.push_row(v, cols.iter().copied());
    }
    mis.bind(plan, ctx.nprocs());
    mis.run(ctx, plan, seed, level, max_rounds)?;
    let mut remote_in: Vec<usize> = mis.remote_in().collect();
    remote_in.sort_unstable();
    Ok(MisOutcome {
        my_in: mis.my_in().collect(),
        remote_in,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::dist::exchange::AllPeers;
    use pilut_par::{Machine, MachineModel};
    use std::collections::HashSet;

    /// The pre-delta **full-push** protocol, retained verbatim as the
    /// differential-testing oracle for [`dist_mis`]: every round re-ships a
    /// `(node, key, state)` triple for every referenced node. Identical
    /// information timing, so both protocols choose bit-identical sets; the
    /// delta protocol just stops paying for what the receiver already knows.
    /// Not used by any production path.
    fn dist_mis_reference(
        ctx: &mut Ctx,
        plan: &CommPlan,
        reduced_cols: &HashMap<usize, Vec<usize>>,
        seed: u64,
        level: u64,
        max_rounds: usize,
    ) -> MisOutcome {
        let mut state: HashMap<usize, u64> = reduced_cols.keys().map(|&v| (v, CAND)).collect();
        let mut remote: HashMap<usize, (u64, u64)> = HashMap::new(); // node -> (key, state)

        for round in 0..max_rounds as u64 {
            let undecided = state.values().filter(|&&s| s == CAND).count() as u64;
            ctx.work(5.0 * undecided as f64);

            // --- Step 1 replay: push (key, state) of referenced nodes. --------
            plan.exact_round(
                ctx,
                tags::MIS_KEYS,
                &AllPeers,
                &AllPeers,
                |_, nodes| {
                    let mut buf = Vec::with_capacity(nodes.len() * 3);
                    for &v in nodes {
                        buf.push(v as u64);
                        buf.push(mis_key(seed, level, round, v as u64));
                        buf.push(state.get(&v).copied().unwrap_or(OUT));
                    }
                    Payload::u64s(buf)
                },
                |_, _, payload| {
                    for c in payload.into_u64().chunks_exact(3) {
                        remote.insert(c[0] as usize, (c[1], c[2]));
                    }
                },
            );

            // --- Step 1: tentative winners. ------------------------------------
            let key_of = |v: usize| mis_key(seed, level, round, v as u64);
            let mut tentative: HashMap<usize, bool> = HashMap::new();
            for (&v, &s) in &state {
                if s != CAND {
                    continue;
                }
                let kv = (key_of(v), v);
                let mut wins = true;
                for &u in &reduced_cols[&v] {
                    if u == v {
                        continue;
                    }
                    let (ku, su) = match state.get(&u) {
                        Some(&su) => (key_of(u), su),
                        None => {
                            let &(ku, su) = remote
                                .get(&u)
                                .expect("referenced remote node missing from exchange");
                            (ku, su)
                        }
                    };
                    if su == CAND && (ku, u) < kv {
                        wins = false;
                        break;
                    }
                }
                if wins {
                    tentative.insert(v, true);
                }
            }
            ctx.work(reduced_cols.values().map(|c| c.len() as f64).sum::<f64>());

            // --- Step 2 replay: push tentative flags of referenced nodes. -----
            let mut remote_tentative: HashMap<usize, bool> = HashMap::new();
            plan.exact_round(
                ctx,
                tags::MIS_TENT,
                &AllPeers,
                &AllPeers,
                |_, nodes| {
                    Payload::u64s(
                        nodes
                            .iter()
                            .filter(|v| tentative.contains_key(v))
                            .map(|&v| v as u64)
                            .collect(),
                    )
                },
                |_, _, payload| {
                    for v in payload.into_u64() {
                        remote_tentative.insert(v as usize, true);
                    }
                },
            );

            // --- Step 2: confirm tentatives with no tentative out-neighbour. ---
            let mut confirmed: Vec<usize> = Vec::new();
            for &v in tentative.keys() {
                let conflict = reduced_cols[&v].iter().any(|&u| {
                    u != v && (tentative.contains_key(&u) || remote_tentative.contains_key(&u))
                });
                if !conflict {
                    confirmed.push(v);
                }
            }
            confirmed.sort_unstable();

            // Apply local effects: members join, their local out-neighbours die.
            let mut kills_by_rank: HashMap<usize, Vec<u64>> = HashMap::new();
            for &v in &confirmed {
                state.insert(v, IN);
            }
            for &v in &confirmed {
                for &u in &reduced_cols[&v] {
                    if u == v {
                        continue;
                    }
                    match state.get_mut(&u) {
                        Some(su) => {
                            if *su == CAND {
                                *su = OUT;
                            }
                        }
                        None => {
                            let owner = plan
                                .recv_lists()
                                .iter()
                                .find(|(_, nodes)| nodes.binary_search(&u).is_ok())
                                .expect("referenced node missing from plan")
                                .0;
                            kills_by_rank.entry(owner).or_default().push(u as u64);
                        }
                    }
                }
            }

            // --- Step 3 replay: confirmations + kills, symmetric round. -------
            // Encoding: [n_confirmed, confirmed..., kills...].
            let confirmed_set: HashSet<usize> = confirmed.iter().copied().collect();
            let conf_by_peer: HashMap<usize, Vec<u64>> = plan
                .send_lists()
                .iter()
                .map(|(peer, nodes)| {
                    (
                        *peer,
                        nodes
                            .iter()
                            .filter(|v| confirmed_set.contains(v))
                            .map(|&v| v as u64)
                            .collect(),
                    )
                })
                .collect();
            plan.exact_round_symmetric(
                ctx,
                tags::MIS_CONF,
                &AllPeers,
                |peer| {
                    let conf = conf_by_peer.get(&peer).cloned().unwrap_or_default();
                    let kills = kills_by_rank.get(&peer).cloned().unwrap_or_default();
                    let mut buf = Vec::with_capacity(conf.len() + kills.len() + 1);
                    buf.push(conf.len() as u64);
                    buf.extend_from_slice(&conf);
                    buf.extend_from_slice(&kills);
                    Payload::u64s(buf)
                },
                |_, payload| {
                    let buf = payload.into_u64();
                    assert!(
                        !buf.is_empty(),
                        "mis_conf reference frame must carry a count header"
                    );
                    let nc = buf[0] as usize;
                    assert!(nc < buf.len(), "mis_conf reference frame truncated");
                    for &v in &buf[1..1 + nc] {
                        remote.entry(v as usize).or_insert((0, CAND)).1 = IN;
                    }
                    for &v in &buf[1 + nc..] {
                        if let Some(s) = state.get_mut(&(v as usize)) {
                            if *s == CAND {
                                *s = OUT;
                            }
                        }
                    }
                },
            );

            // Kill any local candidate pointing at a (local or remote) member.
            for (&v, cols) in reduced_cols {
                if state[&v] != CAND {
                    continue;
                }
                let hits_member = cols.iter().any(|&u| {
                    u != v
                        && match state.get(&u) {
                            Some(&su) => su == IN,
                            None => remote.get(&u).map(|&(_, s)| s == IN).unwrap_or(false),
                        }
                });
                if hits_member {
                    state.insert(v, OUT);
                }
            }
        }

        let mut my_in: Vec<usize> = state
            .iter()
            .filter_map(|(&v, &s)| (s == IN).then_some(v))
            .collect();
        my_in.sort_unstable();
        let mut remote_in: Vec<usize> = remote
            .iter()
            .filter_map(|(&v, &(_, s))| (s == IN).then_some(v))
            .collect();
        remote_in.sort_unstable();
        MisOutcome { my_in, remote_in }
    }

    /// Builds the `node → cols` map of the `v % p == me` slice of a small
    /// directed graph (plus diagonals).
    fn local_rows(
        n: usize,
        arcs: &[(usize, usize)],
        p: usize,
        me: usize,
    ) -> HashMap<usize, Vec<usize>> {
        let mut reduced: HashMap<usize, Vec<usize>> = HashMap::new();
        for v in 0..n {
            if v % p == me {
                let mut cols: Vec<usize> = arcs
                    .iter()
                    .filter(|&&(s, _)| s == v)
                    .map(|&(_, t)| t)
                    .collect();
                cols.push(v); // diagonal
                cols.sort_unstable();
                cols.dedup();
                reduced.insert(v, cols);
            }
        }
        reduced
    }

    /// Distributes a small directed graph over `p` ranks and runs one MIS;
    /// returns the chosen set (and, with `reference`, runs the full-push
    /// oracle instead of the delta protocol).
    fn run_mis_with(
        n: usize,
        arcs: &[(usize, usize)],
        p: usize,
        rounds: usize,
        seed: u64,
        reference: bool,
    ) -> Vec<usize> {
        let part: Vec<usize> = (0..n).map(|v| v % p).collect();
        let dist = Distribution::from_part(part, p);
        let arcs = arcs.to_vec();
        let out = Machine::run_checked(p, MachineModel::cray_t3d(), |ctx| {
            let reduced = local_rows(n, &arcs, p, ctx.rank());
            let plan = build_level_links(ctx, &dist, &reduced);
            if reference {
                dist_mis_reference(ctx, &plan, &reduced, seed, 0, rounds).my_in
            } else {
                dist_mis(ctx, &plan, &reduced, seed, 0, rounds)
                    .expect("well-formed traffic must decode")
                    .my_in
            }
        });
        let mut all: Vec<usize> = out.results.into_iter().flatten().collect();
        all.sort_unstable();
        all
    }

    fn run_mis(n: usize, arcs: &[(usize, usize)], p: usize, rounds: usize) -> Vec<usize> {
        run_mis_with(n, arcs, p, rounds, 42, false)
    }

    fn assert_independent(set: &[usize], arcs: &[(usize, usize)]) {
        for &(s, t) in arcs {
            assert!(
                !(set.contains(&s) && set.contains(&t)),
                "arc ({s},{t}) inside the set {set:?}"
            );
        }
    }

    #[test]
    fn empty_arcs_select_everything() {
        let set = run_mis(7, &[], 3, 5);
        assert_eq!(set, vec![0, 1, 2, 3, 4, 5, 6]);
    }

    #[test]
    fn directed_chain_is_handled() {
        let arcs = [(0, 1), (1, 2), (2, 3), (3, 4), (4, 5)];
        let set = run_mis(6, &arcs, 2, 8);
        assert_independent(&set, &arcs);
        assert!(
            set.len() >= 2,
            "chain of 6 should give at least 3-ish: {set:?}"
        );
    }

    #[test]
    fn unsymmetric_cross_rank_conflicts_resolved() {
        // Arcs deliberately crossing rank boundaries (v % p ownership).
        let arcs = [
            (0, 1),
            (2, 1),
            (2, 3),
            (4, 3),
            (4, 5),
            (0, 5),
            (1, 6),
            (6, 0),
        ];
        for p in [2, 3, 4] {
            let set = run_mis(7, &arcs, p, 8);
            assert_independent(&set, &arcs);
            assert!(!set.is_empty());
        }
    }

    #[test]
    fn progress_with_single_round() {
        // Even one round must select someone (the max-key tentative).
        let arcs = [(0, 1), (1, 2), (2, 0)];
        let set = run_mis(3, &arcs, 3, 1);
        assert!(!set.is_empty());
        assert_independent(&set, &arcs);
    }

    #[test]
    fn matches_between_rank_counts() {
        // Determinism: same seed ⇒ same set regardless of distribution.
        let arcs = [(0, 2), (1, 2), (3, 4), (4, 0), (5, 1)];
        let s1 = run_mis(6, &arcs, 1, 5);
        let s3 = run_mis(6, &arcs, 3, 5);
        assert_eq!(s1, s3);
    }

    /// A seeded pseudo-random directed graph for the differential sweep.
    fn seeded_arcs(n: usize, m: usize, seed: u64) -> Vec<(usize, usize)> {
        let mut s = seed.wrapping_mul(0x9E3779B97F4A7C15) ^ 0xD1F7;
        let mut next = || {
            s = s.wrapping_add(0x9E3779B97F4A7C15);
            let mut z = s;
            z = (z ^ (z >> 30)).wrapping_mul(0xBF58476D1CE4E5B9);
            z = (z ^ (z >> 27)).wrapping_mul(0x94D049BB133111EB);
            z ^ (z >> 31)
        };
        let mut arcs = Vec::with_capacity(m);
        for _ in 0..m {
            let a = (next() % n as u64) as usize;
            let b = (next() % n as u64) as usize;
            if a != b {
                arcs.push((a, b));
            }
        }
        arcs
    }

    #[test]
    fn delta_matches_full_push_oracle_across_rank_counts_and_seeds() {
        // The tentpole contract: identical information timing means the
        // delta protocol and the full-push reference choose bit-identical
        // sets for every distribution and seed.
        for seed in [3u64, 17, 99] {
            let arcs = seeded_arcs(24, 40, seed);
            let oracle = run_mis_with(24, &arcs, 1, 5, seed, true);
            assert_independent(&oracle, &arcs);
            for p in [1usize, 2, 4, 8] {
                let delta = run_mis_with(24, &arcs, p, 5, seed, false);
                assert_eq!(delta, oracle, "p={p} seed={seed} (delta vs oracle)");
                let reference = run_mis_with(24, &arcs, p, 5, seed, true);
                assert_eq!(reference, oracle, "p={p} seed={seed} (reference)");
            }
        }
    }

    #[test]
    fn delta_protocol_ships_fewer_key_bytes_than_full_push() {
        // The point of the diet: MIS_KEYS bytes must drop well below the
        // 24-bytes-per-referenced-node-per-round full push, and the
        // planned ledger must predict the delta traffic exactly.
        let arcs = seeded_arcs(24, 40, 7);
        let part: Vec<usize> = (0..24).map(|v| v % 4).collect();
        let dist = Distribution::from_part(part, 4);
        let run = |reference: bool| {
            let arcs = arcs.clone();
            let dist = dist.clone();
            Machine::run_checked(4, MachineModel::cray_t3d(), move |ctx| {
                let reduced = local_rows(24, &arcs, 4, ctx.rank());
                let plan = build_level_links(ctx, &dist, &reduced);
                if reference {
                    dist_mis_reference(ctx, &plan, &reduced, 7, 0, 5).my_in
                } else {
                    dist_mis(ctx, &plan, &reduced, 7, 0, 5)
                        .expect("well-formed traffic must decode")
                        .my_in
                }
            })
        };
        let full = run(true);
        let delta = run(false);
        let (_, full_bytes) = full.stats.tag_totals(tags::MIS_KEYS);
        let (_, delta_bytes) = delta.stats.tag_totals(tags::MIS_KEYS);
        assert!(
            delta_bytes * 3 <= full_bytes,
            "delta MIS_KEYS bytes {delta_bytes} not ≥3× below full-push {full_bytes}"
        );
        for tag in [tags::MIS_KEYS, tags::MIS_TENT, tags::MIS_CONF] {
            let measured = delta.stats.tag_totals(tag);
            let planned = delta.stats.planned_by_tag.get(&tag);
            let planned = planned.expect("delta rounds record predictions");
            assert_eq!(&measured, planned, "tag {}", tags::tag_name(tag));
        }
    }

    #[test]
    fn malformed_frames_decode_to_structured_errors() {
        // Pure-decoder checks: out-of-range indices and unknown state
        // codes are protocol errors, never index panics.
        assert_eq!(decode_delta((3 << 2) | IN, 5), Ok((3, IN)));
        assert_eq!(decode_delta((4 << 2) | OUT, 5), Ok((4, OUT)));
        let range = decode_delta((5 << 2) | OUT, 5).unwrap_err();
        assert!(range.contains("indexes node 5"), "{range}");
        let code = decode_delta((1 << 2) | CAND, 5).unwrap_err();
        assert!(code.contains("state code 0"), "{code}");
        let code = decode_delta((1 << 2) | 0b11, 5).unwrap_err();
        assert!(code.contains("state code 3"), "{code}");
    }

    #[test]
    fn protocol_error_reaches_the_caller_structured() {
        // Drive the full decoder path with a corrupted frame: rank 1
        // replays a delta word whose index exceeds the schedule. The
        // receiving rank must get FactorError::Protocol, not a panic.
        let dist = Distribution::block(2, 2);
        let out = Machine::run(2, MachineModel::cray_t3d(), |ctx| {
            let me = ctx.rank();
            let needed = vec![1 - me];
            let plan = CommPlan::build(ctx, tags::MIS_KEYS, needed, |j| dist.owner(j));
            if me == 1 {
                // A hand-rolled corrupt round in place of the real one.
                plan.exact_round(
                    ctx,
                    tags::MIS_KEYS,
                    &AllPeers,
                    &AllPeers,
                    |_, _| Payload::u64s(vec![(9 << 2) | OUT]),
                    |_, _, _| {},
                );
                return "sender".to_string();
            }
            let reduced: HashMap<usize, Vec<usize>> = [(0usize, vec![0usize, 1])].into();
            match dist_mis(ctx, &plan, &reduced, 1, 0, 1) {
                Err(FactorError::Protocol { tag, what }) => format!("{tag}: {what}"),
                other => format!("unexpected: {:?}", other.map(|m| m.my_in)),
            }
        });
        assert_eq!(out.results[1], "sender");
        assert!(
            out.results[0].starts_with("mis_keys: from rank 1:"),
            "{}",
            out.results[0]
        );
    }

    /// Runs `rounds` Luby rounds of the slot kernel on the `v % p` slice of
    /// a graph; returns the machine's `flops` counter, the per-rank work
    /// tallies and the chosen set.
    fn run_kernel(
        n: usize,
        arcs: &[(usize, usize)],
        p: usize,
        rounds: usize,
        seed: u64,
    ) -> (f64, Vec<f64>, Vec<usize>) {
        let dist = Distribution::from_part((0..n).map(|v| v % p).collect(), p);
        let out = Machine::run_checked(p, MachineModel::cray_t3d(), |ctx| {
            let mut rows: Vec<_> = local_rows(n, arcs, p, ctx.rank()).into_iter().collect();
            rows.sort_unstable();
            let mut mis = LevelMis::default();
            mis.begin(rows.iter().map(|(_, cols)| cols.len()).sum());
            for (v, cols) in rows {
                mis.push_row(v, cols.into_iter());
            }
            let plan = mis.link(ctx, &dist);
            mis.run(ctx, &plan, seed, 0, rounds).expect("well-formed");
            (mis.work(), mis.my_in().collect::<Vec<_>>())
        });
        let (work, sets): (Vec<f64>, Vec<Vec<usize>>) = out.results.into_iter().unzip();
        let mut set: Vec<usize> = sets.into_iter().flatten().collect();
        set.sort_unstable();
        (out.stats.flops, work, set)
    }

    #[test]
    fn clock_charges_five_per_key_and_one_per_entry_read() {
        // Rows (diagonal included, ascending), rank = node % 2:
        //   rank 0:  0:[0,1]  2:[2,3]  4:[4,5]  6:[6,7]
        //   rank 1:  1:[0,1]  3:[1,3]  5:[4,5]  7:[5,7]
        // so rank 0 references {1,3,5,7} and rank 1 references {0,4}.
        let arcs = [
            (0, 1),
            (1, 0),
            (3, 1),
            (2, 3),
            (4, 5),
            (5, 4),
            (6, 7),
            (7, 5),
        ];
        // The hand count below rests on these key orders (lowest key wins).
        let order = |round: u64| {
            let mut keys: Vec<(u64, usize)> = (0..8)
                .map(|v| (mis_key(42, 0, round, v as u64), v))
                .collect();
            keys.sort_unstable();
            keys.into_iter().map(|(_, v)| v).collect::<Vec<_>>()
        };
        assert_eq!(order(0), [6, 0, 4, 1, 7, 5, 3, 2]);
        assert_eq!(order(1), [2, 4, 6, 7, 3, 5, 1, 0]);

        // Building the plan and binding the level charge nothing.
        assert_eq!(
            run_kernel(8, &arcs, 2, 0, 42),
            (0.0, vec![0.0, 0.0], vec![])
        );

        // Round 0, rank 0 — keys: 4 rows + 4 referenced = 8 → 40.
        //   tentative: 0 reads [0,1] and wins (2); 2 loses to 3 at its 2nd
        //     entry (2); 4 wins (2); 6 wins (2) → 8.
        //   confirm: 0 (2) and 4 (2) hold; 6 meets tentative 7 at its 2nd
        //     entry (2) and yields → 6.
        //   member kills: rows 0 and 4 read whole → 4 (kills 1 and 5 remotely).
        //   sweep: 2 reads [2,3], no member (2); 6 meets member 7 at its
        //     2nd entry (2) and dies → 4.            Rank 0: 62.
        // Round 0, rank 1 — keys: 4 rows + 2 referenced = 6 → 30.
        //   tentative: 1, 3 and 5 lose at their 1st entry (1 each); 7 reads
        //     [5,7] and wins (2) → 5.
        //   confirm: 7 (2). member kills: row 7 (2, kills 5 locally).
        //   sweep: 3 reads [1,3], no member (2); 1 and 5 are already OUT
        //     and are not read → 2.                  Rank 1: 41.
        let (flops, work, set) = run_kernel(8, &arcs, 2, 1, 42);
        assert_eq!((flops, work), (103.0, vec![62.0, 41.0]));
        assert_eq!(set, vec![0, 4, 7]);

        // Round 1 — the frontiers are {2} and {3}; rank 0 still sees 3 as a
        // candidate, rank 1 sees no remote candidate (0 and 4 are IN).
        //   rank 0: keys 2 → 10; tentative 2 wins (2); confirm 2 meets
        //     tentative 3 at its 2nd entry (2) and yields; kills 0; sweep 2
        //     meets member 3 (2) and dies → 16.
        //   rank 1: keys 1 → 5; tentative 3 reads [1,3] and wins (2);
        //     confirm (2); member kills row 3 (2); sweep: 3 is IN, nothing
        //     read → 11.
        let (flops, work, set) = run_kernel(8, &arcs, 2, 2, 42);
        assert_eq!((flops, work), (130.0, vec![78.0, 52.0]));
        assert_eq!(set, vec![0, 3, 4, 7]);

        // Round 2 on: no candidate anywhere, every link dead — nothing is
        // hashed, read, charged or sent.
        assert_eq!(run_kernel(8, &arcs, 2, 5, 42).0, 130.0);
    }

    #[test]
    fn dense_tail_charges_nothing_once_the_last_candidate_dies() {
        // A complete digraph over two ranks: the lowest key wins round 0
        // alone and its kills and the sweep decide everyone else, so the
        // four remaining rounds must be free — the flat per-round charge
        // this kernel replaced would have billed 36 entries for each.
        let n = 6;
        let arcs: Vec<(usize, usize)> = (0..n)
            .flat_map(|a| (0..n).filter(move |&b| b != a).map(move |b| (a, b)))
            .collect();
        let (one_round, _, set) = run_kernel(n, &arcs, 2, 1, 9);
        assert_eq!(set.len(), 1, "{set:?}");
        assert!(one_round > 0.0);
        let (five_rounds, _, same) = run_kernel(n, &arcs, 2, 5, 9);
        assert_eq!((five_rounds, same), (one_round, set));
    }

    #[test]
    fn referenced_node_without_a_row_ships_out_in_the_baseline_round() {
        // Rank 0's row 0 references node 1, for which its owner holds no
        // row (a node decided in an earlier level): the baseline round
        // ships it as OUT, so 0 has no live out-neighbour and must join.
        let dist = Distribution::from_part(vec![0, 1, 0, 1], 2);
        let run = |reference: bool| {
            let out = Machine::run_checked(2, MachineModel::cray_t3d(), |ctx| {
                let reduced: HashMap<usize, Vec<usize>> = if ctx.rank() == 0 {
                    [(0, vec![0, 1]), (2, vec![2, 3])].into()
                } else {
                    [(3, vec![0, 3])].into()
                };
                let plan = build_level_links(ctx, &dist, &reduced);
                if reference {
                    dist_mis_reference(ctx, &plan, &reduced, 5, 0, 5).my_in
                } else {
                    dist_mis(ctx, &plan, &reduced, 5, 0, 5)
                        .expect("well-formed traffic must decode")
                        .my_in
                }
            });
            out.results
        };
        let delta = run(false);
        assert_eq!(delta, run(true));
        assert!(delta[0].contains(&0), "{delta:?}");
    }
}
