//! Smoke tests: every workload at `--quick` size, in process.

use pilut_benchmark::inputs::{fingerprint, INSTANCES};
use pilut_benchmark::layers::run_layers;
use pilut_benchmark::report::{combine, end_to_end, instance_lines, layer_lines, Line};
use pilut_benchmark::run::{run_instance, InstanceRun};
use pilut_benchmark::spec::{Workload, END_TO_END, PER_LAYER, UNDECLARED, WORKLOADS};

const SEED: u64 = 17;

/// The `"name"` values of the array `section` in `BENCHMARK.json`.
fn declared(section: &str) -> Vec<String> {
    let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
    let text = std::fs::read_to_string(path).expect("BENCHMARK.json at the repository root");
    let key = format!("\"{section}\"");
    let start = text.find(&key).unwrap_or_else(|| panic!("no {key}"));
    let body = &text[start..];
    let body = &body[..body.find(']').expect("the array is closed")];
    body.split("\"name\"")
        .skip(1)
        .map(|rest| {
            let mut quoted = rest.split('"');
            quoted.nth(1).expect("a quoted name").to_string()
        })
        .collect()
}

fn well_formed(name: &str) -> bool {
    !name.is_empty()
        && name.len() <= 64
        && name
            .chars()
            .all(|c| c.is_ascii_alphanumeric() || "_.-".contains(c))
}

#[test]
fn benchmark_json_declares_what_the_harness_prints() {
    let names = WORKLOADS.iter().map(|w| w.name);
    let workloads: Vec<&str> = names.filter(|n| !UNDECLARED.contains(n)).collect();
    assert_eq!(declared("workloads"), workloads);
    let e2e: Vec<&str> = END_TO_END.iter().map(|m| m.0).collect();
    assert_eq!(declared("end_to_end"), e2e);
    let layers: Vec<&str> = PER_LAYER.iter().map(|m| m.0).collect();
    assert_eq!(declared("per_layer"), layers);
    for name in workloads.iter().chain(&e2e).chain(&layers) {
        assert!(well_formed(name), "bad name {name:?}");
    }

    for w in &WORKLOADS {
        let instances: Vec<Vec<Line>> = (0..INSTANCES)
            .map(|i| instance_lines(&clean_run(w, SEED, i)))
            .collect();
        let combined = combine(&instances).expect("every instance printed every metric");
        // The wall times printed beside them are no part of the result.
        assert_eq!(combined.len(), e2e.len() + 2, "{}", w.name);
        let result = end_to_end(&combined);
        let printed: Vec<&str> = result.iter().map(|l| l.metric.as_str()).collect();
        assert_eq!(printed, e2e, "{}", w.name);

        let l = run_layers(w, SEED, true);
        assert_eq!(l.failed, 0, "{}: {:?}", w.name, l.failures);
        let lines = layer_lines(&l);
        let printed: Vec<&str> = lines.iter().map(|l| l.metric.as_str()).collect();
        assert_eq!(printed, layers, "{}", w.name);
        for line in &lines {
            assert!(line.value.is_finite(), "{} {}", w.name, line.metric);
        }
        assert!(l.trace.to_chrome_json(w.name).ends_with("]}\n"));
    }
}

/// A `--quick` run of one instance with the minimum of timed reps, none of
/// which may fail.
fn clean_run(w: &Workload, seed: u64, index: usize) -> InstanceRun {
    let r = run_instance(w, seed, index, true, 0.0, None);
    assert_eq!(r.failed, 0, "{}: {:?}", w.name, r.failures);
    r
}

/// Of the last rep of instance 0: the solution's bits with the matvec and
/// traffic counts, and the simulated times.
fn outcome(w: &Workload, seed: u64) -> ([u64; 4], [f64; 3]) {
    let r = clean_run(w, seed, 0).last;
    let exact = [
        fingerprint(&r.x, r.matvecs),
        r.matvecs as u64,
        r.machine.messages,
        r.machine.bytes,
    ];
    (exact, [r.tts_sim_s, r.factor_sim_s(), r.solve_sim_s()])
}

#[test]
fn same_seed_repeats_and_another_seed_does_not() {
    for w in &WORKLOADS {
        let (exact, sim) = outcome(w, SEED);
        let (exact_again, sim_again) = outcome(w, SEED);
        assert_eq!(exact, exact_again, "{}", w.name);
        // The logical clock adds arrival times in the order messages happen
        // to arrive, so simulated times repeat to rounding, not to the bit.
        for (a, b) in sim.iter().zip(&sim_again) {
            assert!((a - b).abs() <= 1e-12 * a.abs(), "{}: {a} vs {b}", w.name);
        }
        // x_true is seeded on every workload, so the solution's bits move.
        assert_ne!(exact[0], outcome(w, SEED + 1).0[0], "{}", w.name);
    }
}

#[test]
fn a_corrupted_solution_counts_as_a_failed_operation() {
    for w in &WORKLOADS {
        let r = run_instance(w, SEED, 0, true, 0.0, Some(1));
        assert_eq!(r.failed, 1, "{}: {:?}", w.name, r.failures);
        assert!(r.attempted > 1);
    }
}
