//! Multilevel k-way graph partitioning.
//!
//! A from-scratch reimplementation of the scheme the paper depends on
//! (Karypis & Kumar's multilevel k-way partitioner, reference \[6\] of the paper):
//!
//! 1. **Coarsening** — repeated heavy-edge matching (HEM): visit vertices in
//!    random order, match each unmatched vertex with the unmatched neighbour
//!    across the heaviest edge, and collapse matched pairs. Vertex weights
//!    add; parallel edges merge with added weights.
//! 2. **Initial partitioning** — on the coarsest graph, recursive bisection
//!    with greedy region growing (BFS from a random seed until half the
//!    weight is swallowed) over several seeds, keeping the best cut.
//! 3. **Uncoarsening** — project the partition back level by level and apply
//!    greedy boundary refinement (KL/FM-style gains, balance-constrained
//!    moves) after each projection.
//!
//! The paper partitions with the *parallel* formulation of this algorithm;
//! partitioning time does not appear in any reproduced table, so a serial
//! implementation preserves every measured behaviour (DESIGN.md §8).

use crate::adj::Graph;
use pilut_sparse::SplitMix64;

/// Allowed imbalance: max part weight ≤ `IMBALANCE · total / k`.
const IMBALANCE: f64 = 1.05;
/// Coarsening stops once the graph has at most `max(COARSEN_TO, 4k)` vertices.
const COARSEN_TO: usize = 200;
/// Refinement passes per uncoarsening level.
const REFINE_PASSES: usize = 4;
/// Region-growing attempts per bisection.
const BISECTION_TRIES: usize = 4;

/// What a caller chooses for [`partition_kway`].
#[derive(Clone, Debug)]
pub struct PartitionOptions {
    /// Number of parts.
    pub k: usize,
    /// RNG seed (the whole pipeline is deterministic given the seed).
    pub seed: u64,
}

impl PartitionOptions {
    /// Options for a `k`-way partition with seed 1.
    pub fn new(k: usize) -> Self {
        PartitionOptions { k, seed: 1 }
    }
}

/// The output of [`partition_kway`].
#[derive(Clone, Debug)]
pub struct PartitionResult {
    /// Part id per vertex, in `0..k`.
    pub part: Vec<usize>,
    /// Total weight of cut edges.
    pub edge_cut: i64,
    /// Vertex-weight per part.
    pub part_weights: Vec<i64>,
}

/// Partitions `g` into `opts.k` balanced parts minimising the edge cut.
pub fn partition_kway(g: &Graph, opts: &PartitionOptions) -> PartitionResult {
    let n = g.n_vertices();
    let k = opts.k.max(1);
    assert!(k >= 1);
    if k == 1 || n == 0 {
        return finish(g, vec![0; n], k);
    }
    if k >= n {
        // One vertex per part (possibly leaving parts empty).
        let part: Vec<usize> = (0..n).collect();
        return finish(g, part, k);
    }
    let mut rng = SplitMix64::new(opts.seed);

    // --- Coarsening phase -------------------------------------------------
    // `levels[i]` = (map of level i's vertices onto the next coarser graph,
    // that graph); level 0 is the caller's `g`, borrowed.
    let mut levels: Vec<(Vec<usize>, Graph)> = Vec::new();
    let floor = COARSEN_TO.max(4 * k);
    loop {
        let cur = levels.last().map_or(g, |(_, coarse)| coarse);
        if cur.n_vertices() <= floor {
            break;
        }
        let (coarse, cmap) = coarsen_once(cur, &mut rng);
        // Stalled coarsening (e.g. star graphs): give up and partition as-is.
        if coarse.n_vertices() as f64 > 0.95 * cur.n_vertices() as f64 {
            break;
        }
        levels.push((cmap, coarse));
    }

    // --- Initial partitioning on the coarsest graph -----------------------
    let cur = levels.last().map_or(g, |(_, coarse)| coarse);
    let total = cur.total_vertex_weight();
    let mut part = vec![usize::MAX; cur.n_vertices()];
    let targets: Vec<i64> = (0..k)
        .map(|p| {
            // Spread the total weight as evenly as integer division allows.
            total / k as i64 + if (p as i64) < total % k as i64 { 1 } else { 0 }
        })
        .collect();
    let all: Vec<usize> = (0..cur.n_vertices()).collect();
    recursive_bisect(cur, &all, &targets, 0, &mut part, &mut rng);
    debug_assert!(part.iter().all(|&p| p < k));

    // --- Uncoarsening + refinement ----------------------------------------
    refine_kway(cur, &mut part, k, &mut rng);
    while let Some((cmap, coarse)) = levels.pop() {
        drop(coarse); // `part` is all that is left to read of it
        part = cmap.iter().map(|&c| part[c]).collect();
        let finer = levels.last().map_or(g, |(_, coarse)| coarse);
        refine_kway(finer, &mut part, k, &mut rng);
    }
    finish(g, part, k)
}

fn finish(g: &Graph, part: Vec<usize>, k: usize) -> PartitionResult {
    let edge_cut = g.edge_cut(&part);
    let part_weights = g.part_weights(&part, k);
    PartitionResult {
        part,
        edge_cut,
        part_weights,
    }
}

/// One level of heavy-edge matching coarsening. Returns the coarse graph and
/// the fine→coarse vertex map.
fn coarsen_once(g: &Graph, rng: &mut SplitMix64) -> (Graph, Vec<usize>) {
    let n = g.n_vertices();
    let mut order: Vec<usize> = (0..n).collect();
    rng.shuffle(&mut order);
    let mut mate = vec![usize::MAX; n];
    for &u in &order {
        if mate[u] != usize::MAX {
            continue;
        }
        let mut best = usize::MAX;
        let mut best_w = i64::MIN;
        for (v, w) in g.neighbors(u) {
            if mate[v] == usize::MAX && w > best_w {
                best = v;
                best_w = w;
            }
        }
        if best != usize::MAX {
            mate[u] = best;
            mate[best] = u;
        } else {
            mate[u] = u; // singleton
        }
    }
    // Assign coarse ids: the lower-numbered endpoint of each pair owns the id.
    let mut cmap = vec![usize::MAX; n];
    let mut nc = 0usize;
    for u in 0..n {
        if cmap[u] != usize::MAX {
            continue;
        }
        let v = mate[u];
        cmap[u] = nc;
        if v != u {
            cmap[v] = nc;
        }
        nc += 1;
    }
    // Build the coarse graph with merged parallel edges.
    let mut cvwgt = vec![0i64; nc];
    for u in 0..n {
        cvwgt[cmap[u]] += g.vertex_weight(u);
    }
    // One coarse row per matched pair, built at the pair's lower endpoint
    // (coarse ids ascend with it) in a scratch row; `pos` maps a coarse
    // neighbour to its slot there and is reset per row.
    let arcs: usize = (0..n).map(|u| g.degree(u)).sum();
    let mut xadj = Vec::with_capacity(nc + 1);
    let mut adjncy: Vec<usize> = Vec::with_capacity(arcs);
    let mut adjwgt: Vec<i64> = Vec::with_capacity(arcs);
    xadj.push(0);
    let mut pos = vec![usize::MAX; nc];
    let mut row: Vec<(usize, i64)> = Vec::new();
    for u in 0..n {
        let v = mate[u];
        if v < u {
            continue;
        }
        let c = cmap[u];
        row.clear();
        for x in [u, v].into_iter().take(1 + usize::from(v != u)) {
            for (y, w) in g.neighbors(x) {
                let cy = cmap[y];
                if cy == c {
                    continue; // internal edge collapses
                }
                if pos[cy] == usize::MAX {
                    pos[cy] = row.len();
                    row.push((cy, w));
                } else {
                    row[pos[cy]].1 += w;
                }
            }
        }
        for &(cy, _) in &row {
            pos[cy] = usize::MAX;
        }
        row.sort_unstable_by_key(|&(cy, _)| cy);
        adjncy.extend(row.iter().map(|&(cy, _)| cy));
        adjwgt.extend(row.iter().map(|&(_, w)| w));
        xadj.push(adjncy.len());
    }
    adjncy.shrink_to_fit();
    adjwgt.shrink_to_fit();
    (Graph::from_raw(xadj, adjncy, adjwgt, cvwgt), cmap)
}

/// Recursively bisects the induced subgraph on `vertices` so that parts
/// `base..base + targets.len()` receive weights close to `targets`.
fn recursive_bisect(
    g: &Graph,
    vertices: &[usize],
    targets: &[i64],
    base: usize,
    part: &mut [usize],
    rng: &mut SplitMix64,
) {
    let k = targets.len();
    if k == 1 {
        for &u in vertices {
            part[u] = base;
        }
        return;
    }
    if vertices.len() <= k {
        // Degenerate subtree (fewer vertices than parts): round-robin one
        // vertex per part; surplus parts stay empty.
        for (slot, &u) in vertices.iter().enumerate() {
            part[u] = base + slot;
        }
        return;
    }
    let k_left = k / 2;
    let w_left: i64 = targets[..k_left].iter().sum();
    let (left, right) = bisect(g, vertices, w_left, rng);
    recursive_bisect(g, &left, &targets[..k_left], base, part, rng);
    recursive_bisect(g, &right, &targets[k_left..], base + k_left, part, rng);
}

/// Splits `vertices` into two sets, the first with weight ≈ `w_left`,
/// minimising the induced cut over several greedy region-growing attempts.
fn bisect(
    g: &Graph,
    vertices: &[usize],
    w_left: i64,
    rng: &mut SplitMix64,
) -> (Vec<usize>, Vec<usize>) {
    let mut in_set = vec![false; g.n_vertices()];
    for &u in vertices {
        in_set[u] = true;
    }
    let total: i64 = vertices.iter().map(|&u| g.vertex_weight(u)).sum();
    let tol = ((total as f64 * (IMBALANCE - 1.0)).ceil() as i64).max(1);
    // Rank trials by (balance violation beyond tolerance, cut): a cheap cut
    // is worthless if the split is lopsided, because recursion below this
    // level can never restore weight that landed on the wrong side.
    let mut best: Option<((i64, i64), Vec<bool>)> = None;
    for _ in 0..BISECTION_TRIES {
        let seed = vertices[rng.next_usize(vertices.len())];
        let mut side = vec![false; g.n_vertices()]; // true = left
        let mut grown = 0i64;
        let mut queue = std::collections::VecDeque::new();
        let mut visited = vec![false; g.n_vertices()];
        queue.push_back(seed);
        visited[seed] = true;
        while let Some(u) = queue.pop_front() {
            if grown >= w_left {
                break;
            }
            side[u] = true;
            grown += g.vertex_weight(u);
            for (v, _) in g.neighbors(u) {
                if in_set[v] && !visited[v] {
                    visited[v] = true;
                    queue.push_back(v);
                }
            }
            // If BFS exhausts a component, jump to a fresh unvisited vertex.
            if queue.is_empty() && grown < w_left {
                if let Some(&w) = vertices.iter().find(|&&w| !visited[w]) {
                    visited[w] = true;
                    queue.push_back(w);
                }
            }
        }
        refine_bisection(g, vertices, &in_set, &mut side, w_left);
        let cut = cut_within(g, vertices, &side);
        let lw: i64 = vertices
            .iter()
            .filter(|&&u| side[u])
            .map(|&u| g.vertex_weight(u))
            .sum();
        let violation = ((lw - w_left).abs() - tol).max(0);
        let key = (violation, cut);
        if best.as_ref().is_none_or(|(bk, _)| key < *bk) {
            best = Some((key, side));
        }
    }
    // lint: allow(unwrap): the trial loop always records at least one candidate
    let (_, side) = best.unwrap();
    let mut left = Vec::new();
    let mut right = Vec::new();
    for &u in vertices {
        if side[u] {
            left.push(u);
        } else {
            right.push(u);
        }
    }
    // Degenerate splits can happen on tiny graphs; force non-emptiness.
    if left.is_empty() && !right.is_empty() {
        // lint: allow(unwrap): pop is guarded by the non-emptiness test
        left.push(right.pop().unwrap());
    } else if right.is_empty() && !left.is_empty() {
        // lint: allow(unwrap): pop is guarded by the non-emptiness test
        right.push(left.pop().unwrap());
    }
    (left, right)
}

fn cut_within(g: &Graph, vertices: &[usize], side: &[bool]) -> i64 {
    let mut cut = 0;
    for &u in vertices {
        for (v, w) in g.neighbors(u) {
            if u < v && side[u] != side[v] {
                cut += w;
            }
        }
    }
    cut
}

/// FM-style single-vertex moves on a bisection, keeping the left-side weight
/// near `w_left`.
fn refine_bisection(
    g: &Graph,
    vertices: &[usize],
    in_set: &[bool],
    side: &mut [bool],
    w_left: i64,
) {
    let total: i64 = vertices.iter().map(|&u| g.vertex_weight(u)).sum();
    let tol = ((total as f64 * (IMBALANCE - 1.0)).ceil() as i64).max(1);
    let mut weight_left: i64 = vertices
        .iter()
        .filter(|&&u| side[u])
        .map(|&u| g.vertex_weight(u))
        .sum();
    for _ in 0..REFINE_PASSES {
        let mut moved_any = false;
        for &u in vertices {
            // Gain of flipping u = (cut edges) - (uncut edges) incident in-set.
            let mut ext = 0i64;
            let mut int = 0i64;
            for (v, w) in g.neighbors(u) {
                if !in_set[v] {
                    continue;
                }
                if side[v] != side[u] {
                    ext += w;
                } else {
                    int += w;
                }
            }
            let gain = ext - int;
            let wu = g.vertex_weight(u);
            let new_left = if side[u] {
                weight_left - wu
            } else {
                weight_left + wu
            };
            let balance_ok = (new_left - w_left).abs() <= tol;
            let improves_balance = (new_left - w_left).abs() < (weight_left - w_left).abs();
            if (gain > 0 && balance_ok) || (gain == 0 && improves_balance) {
                side[u] = !side[u];
                weight_left = new_left;
                moved_any = true;
            }
        }
        if !moved_any {
            break;
        }
    }
}

/// Greedy balance-constrained k-way boundary refinement.
fn refine_kway(g: &Graph, part: &mut [usize], k: usize, rng: &mut SplitMix64) {
    let n = g.n_vertices();
    let total = g.total_vertex_weight();
    let max_w = ((total as f64 / k as f64) * IMBALANCE).ceil() as i64;
    let mut pw = g.part_weights(part, k);
    let mut order: Vec<usize> = (0..n).collect();
    for _ in 0..REFINE_PASSES {
        rng.shuffle(&mut order);
        let mut moved_any = false;
        let mut conn: Vec<i64> = vec![0; k]; // connectivity scratch
        let mut touched: Vec<usize> = Vec::new();
        for &u in &order {
            let pu = part[u];
            // Connectivity of u to each adjacent part.
            touched.clear();
            for (v, w) in g.neighbors(u) {
                let pv = part[v];
                if conn[pv] == 0 {
                    touched.push(pv);
                }
                conn[pv] += w;
            }
            if touched.len() <= 1 && touched.first() == Some(&pu) {
                // Interior vertex.
                for &p in &touched {
                    conn[p] = 0;
                }
                continue;
            }
            let here = conn[pu];
            let wu = g.vertex_weight(u);
            let mut best_p = pu;
            let mut best_gain = 0i64;
            for &p in &touched {
                if p == pu {
                    continue;
                }
                let gain = conn[p] - here;
                let fits = pw[p] + wu <= max_w;
                let helps_balance = pw[p] + wu < pw[pu];
                if fits
                    && (gain > best_gain
                        || (gain == best_gain && gain >= 0 && helps_balance && best_p == pu))
                {
                    best_p = p;
                    best_gain = gain;
                }
            }
            // Balance restoration: an overweight part may shed boundary
            // vertices even at negative gain. Requiring the destination to
            // stay strictly below the source's current weight makes the
            // sorted weight vector decrease on every such move, so the pass
            // cannot oscillate; among admissible parts, take the one that
            // costs the cut least.
            if best_p == pu && pw[pu] > max_w {
                let mut best_relief = i64::MIN;
                for &p in &touched {
                    if p != pu && pw[p] + wu < pw[pu] {
                        let relief = conn[p] - here;
                        if relief > best_relief {
                            best_relief = relief;
                            best_p = p;
                        }
                    }
                }
            }
            if best_p != pu {
                pw[pu] -= wu;
                pw[best_p] += wu;
                part[u] = best_p;
                moved_any = true;
            }
            for &p in &touched {
                conn[p] = 0;
            }
        }
        if !moved_any {
            break;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use pilut_sparse::gen;

    fn grid_graph(nx: usize, ny: usize) -> Graph {
        Graph::from_csr_pattern(&gen::laplace_2d(nx, ny))
    }

    #[test]
    fn k1_is_trivial() {
        let g = grid_graph(5, 5);
        let r = partition_kway(&g, &PartitionOptions::new(1));
        assert!(r.part.iter().all(|&p| p == 0));
        assert_eq!(r.edge_cut, 0);
    }

    #[test]
    fn bisection_of_grid_is_balanced_and_cheap() {
        let g = grid_graph(16, 16);
        let r = partition_kway(&g, &PartitionOptions::new(2));
        assert_eq!(r.part_weights.iter().sum::<i64>(), 256);
        let max = *r.part_weights.iter().max().unwrap();
        assert!(
            max <= (256.0f64 / 2.0 * 1.06).ceil() as i64,
            "imbalanced: {:?}",
            r.part_weights
        );
        // Perfect bisection of a 16x16 grid cuts 16 edges; allow 2x slack.
        assert!(r.edge_cut <= 32, "cut too high: {}", r.edge_cut);
    }

    #[test]
    fn four_way_grid_partition_quality() {
        let g = grid_graph(20, 20);
        let r = partition_kway(&g, &PartitionOptions::new(4));
        let max = *r.part_weights.iter().max().unwrap();
        assert!(
            max <= (400.0f64 / 4.0 * 1.08).ceil() as i64,
            "imbalanced: {:?}",
            r.part_weights
        );
        // Ideal 4-way cut of 20x20 grid is 40; allow 2.5x slack.
        assert!(r.edge_cut <= 100, "cut too high: {}", r.edge_cut);
        // All parts used.
        let mut used = [false; 4];
        for &p in &r.part {
            used[p] = true;
        }
        assert!(used.iter().all(|&b| b));
    }

    #[test]
    fn many_parts_on_3d() {
        let g = Graph::from_csr_pattern(&gen::laplace_3d(8, 8, 8));
        let r = partition_kway(&g, &PartitionOptions::new(8));
        let max = *r.part_weights.iter().max().unwrap();
        assert!(
            max <= (512.0f64 / 8.0 * 1.10).ceil() as i64,
            "imbalanced: {:?}",
            r.part_weights
        );
        assert!(r.edge_cut > 0);
    }

    #[test]
    fn k_exceeding_n_gives_singletons() {
        let g = grid_graph(2, 2);
        let r = partition_kway(&g, &PartitionOptions::new(10));
        let mut sorted = r.part.clone();
        sorted.sort_unstable();
        sorted.dedup();
        assert_eq!(sorted.len(), 4);
    }

    #[test]
    fn deterministic_for_fixed_seed() {
        let g = grid_graph(12, 12);
        let a = partition_kway(&g, &PartitionOptions::new(4));
        let b = partition_kway(&g, &PartitionOptions::new(4));
        assert_eq!(a.part, b.part);
    }

    #[test]
    fn coarsening_preserves_total_weight() {
        let g = grid_graph(10, 10);
        let mut rng = SplitMix64::new(3);
        let (c, cmap) = coarsen_once(&g, &mut rng);
        assert_eq!(c.total_vertex_weight(), g.total_vertex_weight());
        assert!(c.n_vertices() < g.n_vertices());
        assert!(c.n_vertices() * 2 >= g.n_vertices());
        assert_eq!(cmap.len(), g.n_vertices());
        assert!(cmap.iter().all(|&c_id| c_id < c.n_vertices()));
    }

    /// Regression: a 3-D mesh at a large part count drives the recursive
    /// bisection into subtrees with fewer vertices than parts (the crash
    /// originally surfaced on the TORSO benchmark at p = 32).
    #[test]
    fn large_k_on_irregular_mesh_does_not_panic() {
        let a = gen::fem_torso(14, 9);
        let g = Graph::from_csr_pattern(&a);
        for k in [32usize, 64, 128] {
            let r = partition_kway(&g, &PartitionOptions::new(k));
            assert!(r.part.iter().all(|&p| p < k));
            assert_eq!(r.part_weights.iter().sum::<i64>(), g.total_vertex_weight());
        }
    }

    #[test]
    fn partition_of_torso_is_usable() {
        let a = gen::fem_torso(10, 1);
        let g = Graph::from_csr_pattern(&a);
        let r = partition_kway(&g, &PartitionOptions::new(4));
        let total = g.total_vertex_weight();
        let max = *r.part_weights.iter().max().unwrap();
        assert!(
            max as f64 <= total as f64 / 4.0 * 1.2,
            "imbalanced: {:?}",
            r.part_weights
        );
    }
}
