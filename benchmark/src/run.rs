//! The untraced run of one instance: set-up, then a closed loop of one rep
//! at a time for the instance's share of the time budget, every rep
//! checked. A run is one such process per instance (see `main.rs`).

use crate::inputs::{accuracy, fingerprint, generate, Inputs};
use crate::pipeline::{run_rep, Mode, Rep};
use crate::spec::Workload;
use crate::stats::fastest;
use std::time::Instant;

/// Timed reps an instance gets even when they outlast its budget.
const MIN_TIMED_REPS: usize = 2;
/// Times a process generates its instance; `setup_s` is the fastest.
const GENERATIONS: usize = 20;

/// Runs reps of one workload, checks each, and counts the failures.
pub struct Runner<'a> {
    pub w: &'a Workload,
    pub origin: Instant,
    /// Fingerprint and traffic of the first rep, which the others must
    /// repeat bit for bit.
    reference: Option<(u64, u64, u64)>,
    pub attempted: u64,
    pub failed: u64,
    /// One line per failed rep.
    pub failures: Vec<String>,
    /// Test hook: the rep with this index has its solution perturbed before
    /// the check, which must then count it as failed.
    pub corrupt_rep: Option<u64>,
}

impl<'a> Runner<'a> {
    pub fn new(w: &'a Workload, origin: Instant) -> Self {
        Runner {
            w,
            origin,
            reference: None,
            attempted: 0,
            failed: 0,
            failures: Vec::new(),
            corrupt_rep: None,
        }
    }

    /// Runs and checks one rep. A staged rep has extra barriers, so only its
    /// solution and matvec count are compared with the first rep, not its
    /// traffic.
    pub fn rep(&mut self, inp: &Inputs, mode: Mode) -> Rep {
        let mut rep = run_rep(self.w, inp, mode, self.origin);
        if self.corrupt_rep == Some(self.attempted) {
            if let Some(v) = rep.x.first_mut() {
                *v += 1.0;
            }
        }
        let verdict = self.judge(inp, &rep, mode == Mode::Staged);
        self.attempted += 1;
        if let Err(why) = verdict {
            self.failed += 1;
            self.failures
                .push(format!("{} rep {}: {why}", self.w.name, self.attempted - 1));
        }
        rep
    }

    fn judge(&mut self, inp: &Inputs, rep: &Rep, staged: bool) -> Result<(), String> {
        if let Some(e) = &rep.error {
            return Err(e.clone());
        }
        let acc = accuracy(inp, &rep.x);
        if !acc.ok() {
            return Err(format!(
                "true relative residual {:e}, relative error {:e}",
                acc.true_rel_residual, acc.rel_error_inf
            ));
        }
        let fp = fingerprint(&rep.x, rep.matvecs);
        let seen = (fp, rep.machine.messages, rep.machine.bytes);
        let first = *self.reference.get_or_insert(seen);
        let same = first.0 == seen.0 && (staged || first == seen);
        if !same {
            return Err(format!(
                "not deterministic: (fingerprint, messages, bytes) {seen:x?} differs from the first rep's {first:x?}"
            ));
        }
        Ok(())
    }
}

/// What the untraced run of one instance measured.
pub struct InstanceRun {
    /// Generation of the instance (matrix, `x_true`, `b`): the fastest of
    /// [`GENERATIONS`].
    pub setup_s: f64,
    /// The untimed first rep, which pays for whatever a process sets up once.
    pub warmup_rep_s: f64,
    /// Time-to-solution of every timed rep, in order.
    pub tts_wall_s: Vec<f64>,
    pub last: Rep,
    pub attempted: u64,
    pub failed: u64,
    pub failures: Vec<String>,
}

/// Sets up instance `index` of the run (generation, then one warm-up rep),
/// then runs timed reps of it while another one fits into `seconds`.
pub fn run_instance(
    w: &Workload,
    seed: u64,
    index: usize,
    quick: bool,
    seconds: f64,
    corrupt_rep: Option<u64>,
) -> InstanceRun {
    let mut runner = Runner::new(w, Instant::now());
    runner.corrupt_rep = corrupt_rep;
    let mut generations = Vec::with_capacity(GENERATIONS);
    let mut generated = || {
        let t = Instant::now();
        let inp = generate(w, seed, index, quick);
        generations.push(t.elapsed().as_secs_f64());
        inp
    };
    for _ in 1..GENERATIONS {
        generated();
    }
    let inp = generated();
    let warmup_rep_s = runner.rep(&inp, Mode::Plain).tts_wall_s;

    let mut tts = Vec::new();
    let mut last = Rep::default();
    let start = Instant::now();
    // A rep is started only if the fastest so far would end inside the
    // budget, so a run lasts its `--seconds` and not a rep per instance more.
    while tts.len() < MIN_TIMED_REPS || start.elapsed().as_secs_f64() + fastest(&tts) < seconds {
        last = runner.rep(&inp, Mode::Plain);
        tts.push(last.tts_wall_s);
    }
    InstanceRun {
        setup_s: fastest(&generations),
        warmup_rep_s,
        tts_wall_s: tts,
        last,
        attempted: runner.attempted,
        failed: runner.failed,
        failures: runner.failures,
    }
}

/// `VmHWM` of this process in MiB, 0 where `/proc` does not say.
pub fn peak_rss_mib() -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|s| {
            let line = s.lines().find(|l| l.starts_with("VmHWM:"))?;
            line.split_whitespace().nth(1)?.parse::<f64>().ok()
        })
        .map_or(0.0, |kib| kib / 1024.0)
}
