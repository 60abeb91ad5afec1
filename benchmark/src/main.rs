//! Command line of the benchmark.
//!
//! An untraced run of a workload is one child process per problem instance
//! (`--instance`), whose figures this process combines; a traced run works in
//! this process. A single-workload run ends with the result line the
//! repository's `BENCHMARK.json` contract asks for.

use pilut_benchmark::inputs::INSTANCES;
use pilut_benchmark::layers::run_layers;
use pilut_benchmark::report::{self, Line};
use pilut_benchmark::run::run_instance;
use pilut_benchmark::spec::{self, Workload, DEFAULT_SECONDS, DEFAULT_SEED, END_TO_END, WORKLOADS};
use std::process::{Command, ExitCode, Stdio};

const USAGE: &str = "usage: run.sh [--workload NAME|all] [--seed N] [--seconds S] [--trace 0|1] [--quick] [--aa]
  --workload  g40_serial | g40_p1 | g40_loose_p2 | torso_tight_p2 | torso_tight_star_p8 | all (default all)
  --seed      drives the partition seeds, the torso renumberings and x_true of the run's instances (default 17)
  --seconds   time budget of the timed reps of one workload, shared by its instances (default 15)
  --trace     0: end-to-end metrics and the untraced wall times; 1: per-layer metrics and benchmark/out/trace_<workload>.json
  --quick     tiny matrices, for smoke tests only; never for reported numbers
  --aa        run the untraced set twice and compare the two against the bounds";

struct Args {
    workload: String,
    seed: u64,
    seconds: f64,
    trace: bool,
    quick: bool,
    aa: bool,
    /// Set on the child processes this program starts: measure this
    /// instance only.
    instance: Option<usize>,
}

fn parse_args() -> Result<Args, String> {
    let mut a = Args {
        workload: "all".into(),
        seed: DEFAULT_SEED,
        seconds: DEFAULT_SECONDS,
        trace: false,
        quick: false,
        aa: false,
        instance: None,
    };
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let mut value = || it.next().ok_or(format!("{flag} needs a value"));
        match flag.as_str() {
            "--workload" => a.workload = value()?,
            "--seed" => a.seed = value()?.parse().map_err(|e| format!("--seed: {e}"))?,
            "--seconds" => {
                a.seconds = value()?.parse().map_err(|e| format!("--seconds: {e}"))?;
                if !(0.0..=3600.0).contains(&a.seconds) {
                    return Err("--seconds must be between 0 and 3600".into());
                }
            }
            "--trace" => {
                a.trace = match value()?.as_str() {
                    "0" => false,
                    "1" => true,
                    other => return Err(format!("--trace takes 0 or 1, got {other}")),
                }
            }
            "--instance" => {
                let i: usize = value()?.parse().map_err(|e| format!("--instance: {e}"))?;
                if i >= INSTANCES {
                    return Err(format!("--instance must be below {INSTANCES}"));
                }
                a.instance = Some(i);
            }
            "--quick" => a.quick = true,
            "--aa" => a.aa = true,
            other => return Err(format!("unknown argument {other}")),
        }
    }
    if a.workload != "all" && spec::workload(&a.workload).is_none() {
        return Err(format!("unknown workload {}", a.workload));
    }
    if a.instance.is_some() && a.workload == "all" {
        return Err("--instance needs one --workload".into());
    }
    Ok(a)
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("{e}\n{USAGE}");
            return ExitCode::from(2);
        }
    };
    let chosen: Vec<&Workload> = WORKLOADS
        .iter()
        .filter(|w| args.workload == "all" || args.workload == w.name)
        .collect();
    let ok = if let Some(i) = args.instance {
        instance_process(chosen[0], i, &args)
    } else if args.aa {
        a_a(&chosen, &args)
    } else {
        // Every workload runs even after one has failed.
        let results: Vec<_> = chosen.iter().map(|w| run_workload(w, &args)).collect();
        match results.as_slice() {
            // One workload: the contract's result line ends the output.
            [Some((lines, attempted, failed))] => report::print_result(lines, *attempted, *failed),
            many => many.iter().all(|r| matches!(r, Some((_, _, 0)))),
        }
    };
    if ok {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}

/// A child process: measures one instance and prints its figures.
fn instance_process(w: &Workload, index: usize, args: &Args) -> bool {
    let r = run_instance(w, args.seed, index, args.quick, args.seconds, None);
    for why in &r.failures {
        eprintln!("FAILED {why}");
    }
    let label = format!("{}#{index}", w.name);
    let lines = report::instance_lines(&r);
    report::print_lines(&label, &lines, r.attempted, r.failed, true);
    r.failed == 0
}

/// Runs `w` and prints its figures; returns its metrics with the operations
/// attempted and failed, or `None` when a child process broke down.
fn run_workload(w: &Workload, args: &Args) -> Option<(Vec<Line>, u64, u64)> {
    let (lines, attempted, failed) = if args.trace {
        let l = run_layers(w, args.seed, args.quick);
        for why in &l.failures {
            eprintln!("FAILED {why}");
        }
        let path = format!("benchmark/out/trace_{}.json", w.name);
        let written = std::fs::create_dir_all("benchmark/out")
            .and_then(|()| std::fs::write(&path, l.trace.to_chrome_json(w.name)));
        match written {
            Ok(()) => eprintln!("{} spans written to {path}", l.trace.len()),
            Err(e) => eprintln!("cannot write {path}: {e}"),
        }
        (report::layer_lines(&l), l.attempted, l.failed)
    } else {
        let children: Vec<Vec<Line>> = (0..INSTANCES)
            .map(|i| instance_child(w, i, args))
            .collect::<Option<_>>()?;
        let count = |name: &str| -> u64 {
            let of = |c: &Vec<Line>| c.iter().find(|l| l.metric == name).map_or(0.0, |l| l.value);
            children.iter().map(of).sum::<f64>() as u64
        };
        (
            report::combine(&children)?,
            count("ops_attempted"),
            count("ops_failed"),
        )
    };
    report::print_lines(w.name, &lines, attempted, failed, false);
    // The wall times an untraced run prints are no part of its result.
    let lines = if args.trace {
        lines
    } else {
        report::end_to_end(&lines)
    };
    Some((lines, attempted, failed))
}

/// Measures instance `index` of `w` in a child process, prints its figures
/// and returns them; `None` when it did not end normally.
fn instance_child(w: &Workload, index: usize, args: &Args) -> Option<Vec<Line>> {
    let exe = std::env::current_exe().expect("the running program has a path");
    let mut cmd = Command::new(exe);
    cmd.args(["--workload", w.name, "--trace", "0"])
        .args(["--seed", &args.seed.to_string()])
        .args(["--seconds", &(args.seconds / INSTANCES as f64).to_string()])
        .args(["--instance", &index.to_string()]);
    if args.quick {
        cmd.arg("--quick");
    }
    // `output` waits for the child; its stderr goes straight through.
    let out = cmd
        .stderr(Stdio::inherit())
        .output()
        .expect("the benchmark can start itself");
    // A child that found a failed rep still reports; one that died does not.
    out.status.code()?;
    let text = String::from_utf8_lossy(&out.stdout);
    let lines: Vec<Line> = text.lines().filter_map(report::parse).collect();
    let label = format!("{}#{index}", w.name);
    for l in &lines {
        println!("{}", report::render(&label, l, false));
    }
    Some(lines)
}

/// Runs the untraced set twice and compares the end-to-end metrics of the
/// two: what repeats for a seed must match, the others lie within their
/// bounds.
fn a_a(chosen: &[&Workload], args: &Args) -> bool {
    let args = Args {
        trace: false,
        workload: args.workload.clone(),
        ..*args
    };
    let mut sets = Vec::new();
    for set in ["A", "B"] {
        println!("# set {set}");
        let Some(lines) = chosen
            .iter()
            .map(|w| run_workload(w, &args).filter(|r| r.2 == 0))
            .collect::<Option<Vec<_>>>()
        else {
            return false;
        };
        sets.push(lines);
    }
    println!("# A/A: workload metric A B relative_difference bound verdict");
    let mut ok = true;
    for ((w, a), b) in chosen.iter().zip(&sets[0]).zip(&sets[1]) {
        for &(name, unit, bound) in &END_TO_END {
            let find = |set: &[Line]| set.iter().find(|l| l.metric == name).map(|l| l.value);
            let (Some(a), Some(b)) = (find(&a.0), find(&b.0)) else {
                println!("{} {name} missing", w.name);
                ok = false;
                continue;
            };
            // Same seed, same inputs: a count repeats exactly and a simulated
            // time to rounding; the set-up time and the memory do not.
            let bound = match name {
                "setup_s" | "peak_rss_mib" => bound,
                _ if unit == "count" => 0.0,
                _ => 1e-9,
            };
            // Equal figures agree, also the 0 of a pipeline without that clock.
            let diff = if a == b {
                0.0
            } else {
                (b - a).abs() / a.abs().max(b.abs())
            };
            let pass = diff <= bound;
            ok &= pass;
            println!(
                "{} {name} {a} {b} {diff:.4} {bound} {}",
                w.name,
                if pass { "ok" } else { "EXCEEDED" }
            );
        }
    }
    ok
}
