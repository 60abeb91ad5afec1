//! The partition vector is an input of every simulated number downstream
//! (interface sets, levels, factors, traffic), so a refactor of the graph
//! build or of the multilevel scheme must leave it alone to the last
//! vertex. The table was recorded at the commit before `from_csr_pattern`
//! stopped going through a transpose and `partition_kway` stopped cloning
//! its input; a mismatch prints the observed row.

use pilut_graph::{partition_kway, Graph, PartitionOptions};
use pilut_sparse::gen;

/// FNV-1a over the words of `xs`.
fn fnv(xs: impl Iterator<Item = u64>) -> u64 {
    xs.fold(0xcbf29ce484222325, |h, x| {
        (h ^ x).wrapping_mul(0x100000001b3)
    })
}

/// `(matrix, seed, k, fnv(part), edge_cut, fnv(part_weights))`.
const GOLDEN: [(&str, u64, usize, u64, i64, u64); 12] = [
    ("g40", 1, 2, 0x76fc5ee00ab165a3, 51, 0xfd96a807abea726d),
    ("g40", 1, 8, 0xd1933a0bcd79cd4d, 213, 0x4138d4834703aac5),
    ("g40", 1, 32, 0xf2dd742bf5a61d59, 465, 0xf555ef8dae2f7127),
    ("g40", 17, 8, 0xbf9d57af1b3ebe49, 210, 0x68b5e5cbe55c3485),
    ("torso", 1, 2, 0xff6dae2964b3b257, 91, 0x0a95cc07b6f263a5),
    ("torso", 1, 8, 0x096a537edc6257bb, 264, 0xa525a6ff9b14830b),
    ("torso", 1, 32, 0xff4452c74543410d, 491, 0xb87fde04b0de4589),
    ("torso", 9, 2, 0x25cb262afe1253f1, 103, 0x0a95cc07b6f263a5),
    ("torso", 9, 8, 0xf355a5c8d5f6a957, 262, 0xe31c929baad6277d),
    ("torso", 9, 32, 0x0b51ca9eed2ef6c7, 518, 0x563063f206a30f21),
    ("torso", 17, 8, 0x93f998dff7225ade, 262, 0xf0f170b9abb6f499),
    ("torso", 17, 32, 0xecdd195a9c1e1d49, 515, 0x7238b683e750924f),
];

#[test]
fn partitions_match_the_recorded_table() {
    let mut observed = Vec::new();
    for &(name, seed, k, ..) in &GOLDEN {
        // `seed` is the TORSO renumbering and the partitioner's seed.
        let a = match name {
            "g40" => gen::g40(1),
            _ => gen::fem_torso(12, seed),
        };
        let g = Graph::from_csr_pattern(&a);
        let opts = PartitionOptions {
            seed,
            ..PartitionOptions::new(k)
        };
        let r = partition_kway(&g, &opts);
        let part = fnv(r.part.iter().map(|&p| p as u64));
        let weights = fnv(r.part_weights.iter().map(|&w| w as u64));
        observed.push((name, seed, k, part, r.edge_cut, weights));
    }
    let rows: Vec<String> = observed
        .iter()
        .map(|(name, seed, k, part, cut, weights)| {
            format!("    (\"{name}\", {seed}, {k}, {part:#018x}, {cut}, {weights:#018x}),")
        })
        .collect();
    assert!(observed == GOLDEN, "observed:\n{}", rows.join("\n"));
}
