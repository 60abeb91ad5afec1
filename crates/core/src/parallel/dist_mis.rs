//! Distributed modified-Luby maximal independent sets (paper §4.1), run
//! on a **delta protocol**.
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
//! ([`CommPlan::replay_exact_sparse_tagged`]), so `bench-verify --slack 0` gates
//! the diet:
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
//!   [`dist_mis_reference`] and independent of the rank count.
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
//!   ([`CommPlan::replay_exact_sparse_tagged`]). Late rounds of a level,
//!   where most nodes are decided, collapse to near-zero messages.
//!
//! Malformed frames (an out-of-range index, an unknown state code — e.g. a
//! chaos-injected duplicate consumed as a later round's frame) surface as
//! structured [`FactorError::Protocol`] errors from the decoder, not index
//! panics. The paper truncates at five rounds; leftovers stay candidates
//! for the next level.

use crate::dist::exchange::{tags, CommPlan};
use crate::dist::Distribution;
use crate::options::FactorError;
use pilut_par::{Ctx, Payload};
use std::collections::{HashMap, HashSet};

/// Result of one distributed MIS computation.
pub struct MisOutcome {
    /// My nodes selected into `I_l`, ascending.
    pub my_in: Vec<usize>,
    /// Referenced remote nodes that entered `I_l`.
    pub remote_in: Vec<usize>,
}

const CAND: u64 = 0;
const IN: u64 = 1;
const OUT: u64 = 2;

/// `MIS_CONF` event kinds (low bit of each frame word): a confirmation
/// indexes the sender's send list; a kill indexes the sender's receive
/// list.
const CONF_EV: u64 = 0;
const KILL_EV: u64 = 1;

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

/// Collectively builds the level's communication plan from the current
/// reduced rows (`node → sorted columns`, all rows owned by this rank).
/// The send side lists my nodes each peer's rows reference; the receive
/// side lists the remote nodes my rows reference. The factorizations reuse
/// the same plan to route freshly factored `U` rows after the set is known.
pub fn build_level_links(
    ctx: &mut Ctx,
    dist: &Distribution,
    reduced_cols: &HashMap<usize, Vec<usize>>,
) -> CommPlan {
    let me = ctx.rank();
    let needed = reduced_cols
        .values()
        .flat_map(|cols| cols.iter().copied())
        .filter(|&j| dist.owner(j) != me);
    CommPlan::build(ctx, tags::MIS_KEYS, needed, |j| dist.owner(j))
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
fn note_err(slot: &mut Option<FactorError>, tag: &'static str, peer: usize, what: String) {
    if slot.is_none() {
        *slot = Some(FactorError::Protocol {
            tag,
            what: format!("from rank {peer}: {what}"),
        });
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
pub fn dist_mis(
    ctx: &mut Ctx,
    plan: &CommPlan,
    reduced_cols: &HashMap<usize, Vec<usize>>,
    seed: u64,
    level: u64,
    max_rounds: usize,
) -> Result<MisOutcome, FactorError> {
    // Local state per owned node; remote state per referenced node. Every
    // referenced remote node starts CAND — the shared baseline neither
    // side ships (module invariants).
    let mut state: HashMap<usize, u64> = reduced_cols.keys().map(|&v| (v, CAND)).collect();
    let mut remote: HashMap<usize, u64> = plan
        .recv_lists()
        .iter()
        .flat_map(|(_, nodes)| nodes.iter().map(|&v| (v, CAND)))
        .collect();
    // Last state shipped per owned node; absent means the implicit
    // all-CAND baseline. One global map suffices because a transition
    // ships to *all* referencing peers in the same round.
    let mut shipped: HashMap<usize, u64> = HashMap::new();
    // node → (owner peer, index in the pair's agreed list) for every
    // referenced remote node — kills address the mirror list by index.
    let remote_slot: HashMap<usize, (usize, usize)> = plan
        .recv_lists()
        .iter()
        .flat_map(|(peer, nodes)| nodes.iter().enumerate().map(move |(i, &v)| (v, (*peer, i))))
        .collect();
    let send_list_of: HashMap<usize, &Vec<usize>> =
        plan.send_lists().iter().map(|(q, ns)| (*q, ns)).collect();
    let recv_list_of: HashMap<usize, &Vec<usize>> =
        plan.recv_lists().iter().map(|(q, ns)| (*q, ns)).collect();

    let mut err: Option<FactorError> = None;
    // Audit scope for the post-plan rounds: everything after this point is
    // replay along the fixed plan, so the allocation profile here is what
    // the bench's `mis_rounds` column reports. (Delta frames are
    // content-dependent, so this region is *measured*, not gated to zero.)
    let _audit = pilut_allocaudit::region("mis_rounds");
    for round in 0..max_rounds as u64 {
        // Fixed round count (the paper runs exactly five): all ranks agree
        // on the schedule without a global convergence check. Skip the local
        // work when this rank has nothing left, but keep messaging aligned.
        let undecided = state.values().filter(|&&s| s == CAND).count() as u64;
        // Per-candidate key hashing is a handful of integer ops.
        ctx.work(5.0 * undecided as f64);

        // Link liveness from the *shared* view: owner and referencer hold
        // identical shipped-state maps for every agreed list (`shipped` on
        // the owner, `remote` on the referencer — both advance only at
        // delta ship and confirmation), so both endpoints agree that a link
        // whose nodes are all decided-and-shipped can never carry another
        // word, and skip its messages entirely. Decided states are final,
        // so a dead link stays dead.
        let live_sets = |shipped: &HashMap<usize, u64>, remote: &HashMap<usize, u64>| {
            let send: HashSet<usize> = plan
                .send_lists()
                .iter()
                .filter(|(_, ns)| {
                    ns.iter()
                        .any(|v| shipped.get(v).copied().unwrap_or(CAND) == CAND)
                })
                .map(|(q, _)| *q)
                .collect();
            let recv: HashSet<usize> = plan
                .recv_lists()
                .iter()
                .filter(|(_, ns)| {
                    ns.iter()
                        .any(|v| remote.get(v).copied().unwrap_or(CAND) == CAND)
                })
                .map(|(q, _)| *q)
                .collect();
            (send, recv)
        };
        let (live_send, live_recv) = live_sets(&shipped, &remote);

        // --- MIS_KEYS replay: state deltas since the previous ship. ------
        // Round 0 is the baseline round: exceptions to all-CAND only.
        plan.replay_exact_sparse_tagged(
            ctx,
            tags::MIS_KEYS,
            &live_send,
            &live_recv,
            |_, nodes| {
                let mut frame: Vec<u64> = Vec::new();
                for (idx, v) in nodes.iter().enumerate() {
                    // Referenced nodes no longer in our row set are decided.
                    let cur = state.get(v).copied().unwrap_or(OUT);
                    if shipped.get(v).copied().unwrap_or(CAND) != cur {
                        frame.push(((idx as u64) << 2) | cur);
                    }
                }
                Payload::u64s(frame)
            },
            |peer, nodes, payload| {
                for word in payload.into_u64() {
                    match decode_delta(word, nodes.len()) {
                        Ok((idx, s)) => {
                            remote.insert(nodes[idx], s);
                        }
                        Err(what) => note_err(&mut err, "mis_keys", peer, what),
                    }
                }
            },
        );
        if let Some(e) = err.take() {
            return Err(e);
        }
        for (_, nodes) in plan.send_lists() {
            for v in nodes {
                shipped.insert(*v, state.get(v).copied().unwrap_or(OUT));
            }
        }
        // Post-delta both views equal the current state of every agreed
        // list, so the same liveness rule prunes the tentative round and
        // the symmetric confirmation round (a pair is live if either of its
        // directed lists still holds a candidate — only candidates can turn
        // tentative, be confirmed, or be killed).
        let (live_send, live_recv) = live_sets(&shipped, &remote);
        let live_pairs: HashSet<usize> = live_send.union(&live_recv).copied().collect();

        // --- Tentative winners (keys recomputed, never on the wire). -----
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
                let su = match state.get(&u) {
                    Some(&su) => su,
                    None => {
                        *remote
                            .get(&u)
                            // lint: allow(unwrap): the plan's receive lists cover every referenced remote node
                            .expect("referenced remote node missing from plan")
                    }
                };
                if su == CAND && (key_of(u), u) < kv {
                    wins = false;
                    break;
                }
            }
            if wins {
                tentative.insert(v, true);
            }
        }
        ctx.work(reduced_cols.values().map(|c| c.len() as f64).sum::<f64>());

        // --- MIS_TENT replay: tentative winners, as indices. -------------
        let mut remote_tentative: HashMap<usize, bool> = HashMap::new();
        plan.replay_exact_sparse_tagged(
            ctx,
            tags::MIS_TENT,
            &live_send,
            &live_recv,
            |_, nodes| {
                Payload::u64s(
                    nodes
                        .iter()
                        .enumerate()
                        .filter(|(_, v)| tentative.contains_key(v))
                        .map(|(idx, _)| idx as u64)
                        .collect(),
                )
            },
            |peer, nodes, payload| {
                for word in payload.into_u64() {
                    match nodes.get(word as usize) {
                        Some(&v) => {
                            remote_tentative.insert(v, true);
                        }
                        None => note_err(
                            &mut err,
                            "mis_tent",
                            peer,
                            format!(
                                "tentative index {word} out of range for a {}-node schedule",
                                nodes.len()
                            ),
                        ),
                    }
                }
            },
        );
        if let Some(e) = err.take() {
            return Err(e);
        }

        // --- Confirm tentatives with no tentative out-neighbour. ---------
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
            // The confirmation round below tells every referencing peer,
            // so the membership never re-ships as a delta.
            shipped.insert(v, IN);
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
                        // Remote out-neighbour: its owner must kill it. The
                        // kill addresses the pair's agreed list by index.
                        let &(owner, idx) = remote_slot
                            .get(&u)
                            // lint: allow(unwrap): every referenced remote node is in the plan
                            .expect("referenced node missing from plan");
                        kills_by_rank
                            .entry(owner)
                            .or_default()
                            .push(((idx as u64) << 1) | KILL_EV);
                    }
                }
            }
        }
        for kills in kills_by_rank.values_mut() {
            kills.sort_unstable();
            kills.dedup();
        }

        // --- MIS_CONF replay: confirmations + kills, symmetric round. ----
        // Confirmations flow owner → referencing ranks; kills flow
        // arc-source rank → target's owner. Every pair in the union of the
        // two plan directions exchanges exactly one message carrying both
        // event kinds where the directions coincide.
        let confirmed_set: HashSet<usize> = confirmed.iter().copied().collect();
        plan.replay_symmetric_exact_sparse_tagged(
            ctx,
            tags::MIS_CONF,
            &live_pairs,
            |peer| {
                let mut frame: Vec<u64> = Vec::new();
                if let Some(nodes) = send_list_of.get(&peer) {
                    for (idx, v) in nodes.iter().enumerate() {
                        if confirmed_set.contains(v) {
                            frame.push(((idx as u64) << 1) | CONF_EV);
                        }
                    }
                }
                if let Some(kills) = kills_by_rank.get(&peer) {
                    frame.extend_from_slice(kills);
                }
                Payload::u64s(frame)
            },
            |peer, payload| {
                for word in payload.into_u64() {
                    let idx = (word >> 1) as usize;
                    if word & 1 == CONF_EV {
                        // Peer confirmed a node I reference: the index
                        // addresses my receive list from it.
                        match recv_list_of.get(&peer).and_then(|ns| ns.get(idx)) {
                            Some(&v) => {
                                remote.insert(v, IN);
                            }
                            None => note_err(
                                &mut err,
                                "mis_conf",
                                peer,
                                format!("confirmation index {idx} has no scheduled node"),
                            ),
                        }
                    } else {
                        // Peer killed a node of mine: the index addresses
                        // my send list to it.
                        match send_list_of.get(&peer).and_then(|ns| ns.get(idx)) {
                            Some(&v) => {
                                if let Some(s) = state.get_mut(&v) {
                                    if *s == CAND {
                                        *s = OUT;
                                    }
                                }
                            }
                            None => note_err(
                                &mut err,
                                "mis_conf",
                                peer,
                                format!("kill index {idx} has no scheduled node"),
                            ),
                        }
                    }
                }
            },
        );
        if let Some(e) = err.take() {
            return Err(e);
        }

        // Kill any local candidate pointing at a (local or remote) member.
        // These kills ship in the *next* round's opening delta — the same
        // information timing as the reference full-state push.
        for (&v, cols) in reduced_cols {
            if state[&v] != CAND {
                continue;
            }
            let hits_member = cols.iter().any(|&u| {
                u != v
                    && match state.get(&u) {
                        Some(&su) => su == IN,
                        None => remote.get(&u).copied() == Some(IN),
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
        .filter_map(|(&v, &s)| (s == IN).then_some(v))
        .collect();
    remote_in.sort_unstable();
    Ok(MisOutcome { my_in, remote_in })
}

/// The pre-delta **full-push** protocol, retained verbatim as the
/// differential-testing oracle for [`dist_mis`]: every round re-ships a
/// `(node, key, state)` triple for every referenced node. Identical
/// information timing, so both protocols choose bit-identical sets; the
/// delta protocol just stops paying for what the receiver already knows.
/// Not used by any production path.
pub fn dist_mis_reference(
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
        plan.replay_tagged(
            ctx,
            tags::MIS_KEYS,
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
                            // lint: allow(unwrap): the replay returns exactly the requested remote nodes
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
        plan.replay_tagged(
            ctx,
            tags::MIS_TENT,
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
                            .owner_of(u)
                            // lint: allow(unwrap): every referenced remote node is in the plan
                            .expect("referenced node missing from plan");
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
        plan.replay_symmetric_tagged(
            ctx,
            tags::MIS_CONF,
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

#[cfg(test)]
mod tests {
    use super::*;
    use pilut_par::{Machine, MachineModel};

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
            let &(pm, pb, exact) = delta
                .stats
                .planned_by_tag
                .get(&tag)
                .expect("delta rounds record predictions");
            assert_eq!(measured, (pm, pb), "tag {}", tags::tag_name(tag));
            assert!(exact, "tag {} must be exactly planned", tags::tag_name(tag));
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
                let all: HashSet<usize> = [0, 1].into();
                plan.replay_exact_sparse_tagged(
                    ctx,
                    tags::MIS_KEYS,
                    &all,
                    &all,
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
}
