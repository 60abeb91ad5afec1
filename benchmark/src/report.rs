//! Output: one `label metric value unit` line per metric, then the result
//! line (one JSON object) that ends a single-workload run.

use crate::layers::Layers;
use crate::run::{peak_rss_mib, InstanceRun};
use crate::spec::END_TO_END;
use crate::stats::{fastest, median, tail};

/// One printed metric.
#[derive(Clone, Debug)]
pub struct Line {
    pub metric: String,
    pub value: f64,
    pub unit: String,
    /// The timed samples behind a timing, whose value is the fastest of
    /// them; empty for other metrics.
    pub reps: Vec<f64>,
}

fn line(metric: &str, value: f64, unit: &str) -> Line {
    Line {
        metric: metric.into(),
        value,
        unit: unit.into(),
        reps: Vec::new(),
    }
}

/// A timing: the fastest of its samples. The machine under the benchmark
/// only ever adds to the time of a rep whose work repeats to the bit, so the
/// fastest rep is the steadiest estimate of what the program costs.
fn timing(metric: &str, reps: Vec<f64>) -> Line {
    let value = fastest(&reps);
    Line {
        reps,
        ..line(metric, value, "s")
    }
}

/// What one instance's process reports: the end-to-end metrics in
/// `END_TO_END` order, then the wall times, which are printed for the reader
/// and are no part of the result.
pub fn instance_lines(r: &InstanceRun) -> Vec<Line> {
    vec![
        line("setup_s", r.setup_s, "s"),
        line("tts_sim_s", r.last.tts_sim_s, "s"),
        line("factor_sim_s", r.last.factor_sim_s(), "s"),
        line("solve_sim_s", r.last.solve_sim_s(), "s"),
        line("matvecs", r.last.matvecs as f64, "count"),
        line("peak_rss_mib", peak_rss_mib(), "MiB"),
        line("warmup_rep_s", r.warmup_rep_s, "s"),
        timing("tts_wall_s", r.tts_wall_s.clone()),
    ]
}

/// The run's figures from its instances' lines: the fastest set-up and
/// warm-up rep, the fastest rep of all, the largest resident set, and for
/// the simulated times and the matvec count, which repeat for an instance,
/// the mean over the instances. `None` when an instance lacks a metric.
pub fn combine(instances: &[Vec<Line>]) -> Option<Vec<Line>> {
    let names = END_TO_END.iter().map(|m| m.0);
    names
        .chain(["warmup_rep_s", "tts_wall_s"])
        .map(|name| {
            let of: Vec<&Line> = instances
                .iter()
                .map(|lines| lines.iter().find(|l| l.metric == name))
                .collect::<Option<_>>()?;
            let unit = &of.first()?.unit;
            let values: Vec<f64> = of.iter().map(|l| l.value).collect();
            Some(match name {
                "setup_s" | "warmup_rep_s" => line(name, fastest(&values), unit),
                "tts_wall_s" => timing(name, of.iter().flat_map(|l| l.reps.clone()).collect()),
                "peak_rss_mib" => line(name, values.iter().copied().fold(0.0, f64::max), unit),
                _ => line(name, values.iter().sum::<f64>() / values.len() as f64, unit),
            })
        })
        .collect()
}

/// The lines of `lines` that are end-to-end metrics.
pub fn end_to_end(lines: &[Line]) -> Vec<Line> {
    let declared = |l: &&Line| END_TO_END.iter().any(|m| m.0 == l.metric);
    lines.iter().filter(declared).cloned().collect()
}

/// The per-layer metrics of a traced run, in `PER_LAYER` order.
pub fn layer_lines(l: &Layers) -> Vec<Line> {
    l.metrics
        .iter()
        .map(|&(name, unit, v)| line(name, v, unit))
        .collect()
}

/// One metric under `label` as a line of text. A timing carries its sample
/// count, its median and the highest percentile with ten samples beyond it,
/// and with `with_reps` the samples themselves, which is how a child process
/// hands them to the one that started it.
pub fn render(label: &str, l: &Line, with_reps: bool) -> String {
    let mut text = format!("{label} {} {} {}", l.metric, l.value, l.unit);
    if !l.reps.is_empty() {
        text += &format!(" samples={} median={:.6}", l.reps.len(), median(&l.reps));
        if let Some((pct, v)) = tail(&l.reps) {
            text += &format!(" p{pct:.0}={v:.6}");
        }
        if with_reps {
            let reps: Vec<String> = l.reps.iter().map(|v| format!("{v:?}")).collect();
            text += &format!(" reps={}", reps.join(","));
        }
    }
    text
}

/// Prints metric lines and the operation counts under `label`.
pub fn print_lines(label: &str, lines: &[Line], attempted: u64, failed: u64, with_reps: bool) {
    for l in lines {
        println!("{}", render(label, l, with_reps));
    }
    println!("{label} ops_attempted {attempted} count");
    println!("{label} ops_failed {failed} count");
}

/// Prints the result line of a single-workload run. Returns whether the run
/// was correct: no rep failed and every value is a finite number.
pub fn print_result(lines: &[Line], attempted: u64, failed: u64) -> bool {
    let correct = failed == 0 && attempted > 0 && lines.iter().all(|l| l.value.is_finite());
    let metrics: Vec<String> = lines
        .iter()
        .map(|l| {
            let v = if l.value.is_finite() { l.value } else { 0.0 };
            format!(
                "\"{}\": {{\"value\": {v:?}, \"unit\": \"{}\"}}",
                l.metric, l.unit
            )
        })
        .collect();
    println!(
        "{{\"correct\": {correct}, \"attempted\": {attempted}, \"failed\": {failed}, \"metrics\": {{{}}}}}",
        metrics.join(", ")
    );
    correct
}

/// Reads back a `label metric value unit [… reps=a,b,…]` line.
pub fn parse(text: &str) -> Option<Line> {
    let mut it = text.split_whitespace();
    let (_label, metric, value, unit) = (it.next()?, it.next()?, it.next()?, it.next()?);
    let reps = it
        .find_map(|t| t.strip_prefix("reps="))
        .map_or(Some(Vec::new()), |list| {
            list.split(',').map(|v| v.parse().ok()).collect()
        })?;
    Some(Line {
        reps,
        ..line(metric, value.parse().ok()?, unit)
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn a_child_line_reads_back_with_its_reps() {
        let reps: Vec<f64> = (0..25).map(|i| 0.5 + f64::from(i) / 3.0).collect();
        let sent = timing("tts_wall_s", reps.clone());
        let got = parse(&render("g40_p1#2", &sent, true)).expect("a metric line");
        assert_eq!(
            (got.metric.as_str(), got.value, got.reps),
            ("tts_wall_s", 0.5, reps)
        );
        let plain = parse("g40_p1 matvecs 38 count").expect("a metric line");
        assert_eq!((plain.value, plain.reps.len()), (38.0, 0));
        assert!(parse("g40_p1 tts_wall_s 0.5 s reps=0.5,oops").is_none());
    }
}
