//! `e2ebench` — the outside-in Remp benchmark.
//!
//! ```text
//! e2ebench --workload NAME --seed N --seconds S --trace 0|1
//! ```
//!
//! Generates the workload's inputs from the seed, writes them to disk,
//! then runs the system under test in fresh processes until `S` seconds
//! of measuring are spent (at least four runs), checks every outcome,
//! and prints a table followed by one JSON result line. `--trace 0`
//! reports the end-to-end metrics, `--trace 1` the per-layer metrics
//! (see `README.md` next to this file). `--workload all` runs every
//! workload in turn.
//!
//! Every layer is measured from outside, by timing calls into the
//! workspace crates' public functions, into a real `rempd` over HTTP,
//! and into `remp_scale`'s shard pipeline.

mod campaign;
mod proc;
mod report;
mod scale;
mod serve;
mod stats;

use std::path::{Path, PathBuf};
use std::process::ExitCode;
use std::time::Instant;

use remp_json::Json;

use report::{Outcome, END_TO_END, PER_LAYER};

/// The workloads, in the order `--workload all` runs them.
pub const WORKLOADS: [&str; 4] = ["campaign-deep", "campaign-wide", "serve-crowd", "scale-sharded"];

/// Runs a measurement makes at least, whatever `--seconds` says.
const MIN_RUNS: usize = 4;

/// Distinct crowds (crowd seeds) a measurement alternates between.
pub const CROWDS: usize = 3;

/// What one run of a measurement is.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct Run {
    /// Whether the run is traced.
    pub traced: bool,
    /// Which of the [`CROWDS`] crowds answers.
    pub crowd: usize,
}

const USAGE: &str = "\
usage: e2ebench --workload NAME|all --seed N --seconds S --trace 0|1
workloads: campaign-deep, campaign-wide, serve-crowd, scale-sharded";

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let result = match args.first().map(String::as_str) {
        Some("child-campaign") => child_campaign(&args[1..]),
        Some("child-scale-setup") => scale::child_setup(&Flags::parse(&args[1..])),
        Some("child-shard-worker") => scale::child_worker(&Flags::parse(&args[1..])),
        _ => bench(&args),
    };
    match result {
        Ok(()) => ExitCode::SUCCESS,
        Err(msg) => {
            eprintln!("e2ebench: {msg}");
            ExitCode::from(2)
        }
    }
}

/// `--key value` flags.
pub struct Flags(Vec<(String, String)>);

impl Flags {
    fn parse(args: &[String]) -> Flags {
        Flags(
            args.chunks(2)
                .filter_map(|kv| Some((kv[0].strip_prefix("--")?.to_owned(), kv.get(1)?.clone())))
                .collect(),
        )
    }

    /// The value of `--key`.
    pub fn get(&self, key: &str) -> Result<&str, String> {
        self.0
            .iter()
            .find(|(k, _)| k == key)
            .map(|(_, v)| v.as_str())
            .ok_or_else(|| format!("missing --{key}\n{USAGE}"))
    }

    /// The value of `--key`, parsed.
    pub fn parsed<T: std::str::FromStr>(&self, key: &str) -> Result<T, String> {
        let raw = self.get(key)?;
        raw.parse().map_err(|_| format!("--{key}: cannot parse {raw:?}\n{USAGE}"))
    }
}

fn child_campaign(args: &[String]) -> Result<(), String> {
    let flags = Flags::parse(args);
    let doc = campaign::child(
        flags.get("workload")?,
        Path::new(flags.get("dir")?),
        flags.parsed("seed")?,
        flags.get("traced")? == "1",
        flags.parsed("crowd")?,
    )?;
    println!("{doc}");
    Ok(())
}

fn bench(args: &[String]) -> Result<(), String> {
    if !args.len().is_multiple_of(2) || args.iter().step_by(2).any(|a| !a.starts_with("--")) {
        return Err(USAGE.into());
    }
    let flags = Flags::parse(args);
    for (key, _) in &flags.0 {
        if !["workload", "seed", "seconds", "trace"].contains(&key.as_str()) {
            return Err(format!("unknown option --{key}\n{USAGE}"));
        }
    }
    let workload = flags.get("workload")?;
    let seed: u64 = flags.parsed("seed")?;
    let seconds: f64 = flags.parsed("seconds")?;
    let trace = match flags.get("trace")? {
        "0" => false,
        "1" => true,
        other => return Err(format!("--trace must be 0 or 1, got {other:?}")),
    };
    if !(seconds > 0.0 && seconds <= 600.0) {
        return Err("--seconds must be in (0, 600]".into());
    }
    let names: Vec<&str> = if workload == "all" {
        WORKLOADS.to_vec()
    } else if WORKLOADS.contains(&workload) {
        vec![workload]
    } else {
        return Err(format!("unknown workload {workload:?}\n{USAGE}"));
    };
    for &(name, unit) in END_TO_END.iter().chain(PER_LAYER) {
        if !stats::valid_name(name) || !stats::valid_unit(unit) {
            return Err(format!("bad metric name or unit in the catalogue: {name} [{unit}]"));
        }
    }
    let catalogue = if trace { PER_LAYER } else { END_TO_END };
    let root = std::env::current_dir().map_err(|e| e.to_string())?.join(".bench_work");

    let mut summary: Vec<(String, String)> = Vec::new();
    let (mut attempted, mut failed) = (0, 0);
    for name in &names {
        let work = root.join(format!("{name}-{seed}-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&work);
        std::fs::create_dir_all(&work).map_err(|e| format!("{}: {e}", work.display()))?;
        let started = Instant::now();
        let outcome = run_workload(name, seed, seconds, trace, &work);
        let _ = std::fs::remove_dir_all(&work);
        // Gone only when empty: another run may be using it.
        let _ = std::fs::remove_dir(&root);
        eprintln!("e2ebench: {name} took {:.1}s", started.elapsed().as_secs_f64());
        let text = outcome.render(name, catalogue);
        if names.len() == 1 {
            print!("{text}");
            return Ok(());
        }
        // Every line but the per-workload result line, which the
        // combined result line below replaces.
        for line in text.lines().take(text.lines().count() - 1) {
            println!("{line}");
        }
        attempted += outcome.attempted;
        failed += outcome.failed;
        for &(metric, unit) in catalogue {
            let value = outcome.values.get(metric).map_or(0.0, |v| v.value);
            summary.push((
                format!("{name}.{metric}"),
                format!("{{\"value\": {value}, \"unit\": \"{unit}\"}}"),
            ));
        }
    }
    let metrics: Vec<String> = summary.iter().map(|(k, v)| format!("\"{k}\": {v}")).collect();
    println!(
        "{{\"correct\": {}, \"attempted\": {attempted}, \"failed\": {failed}, \"metrics\": {{{}}}}}",
        attempted > 0 && failed == 0,
        metrics.join(", ")
    );
    Ok(())
}

fn run_workload(name: &str, seed: u64, seconds: f64, trace: bool, work: &Path) -> Outcome {
    match name {
        "serve-crowd" => serve::run(seed, seconds, trace, work),
        "scale-sharded" => scale::run(seed, seconds, trace, work),
        _ => {
            let shape = campaign::shape(name).expect("campaign workload");
            campaign::run(name, shape, seed, seconds, trace, work)
        }
    }
}

/// Decides how many runs a measurement makes and what each one is: at
/// least [`MIN_RUNS`] runs, then more while the next run is expected to
/// end within the time budget.
///
/// Runs cycle through [`CROWDS`] simulated crowds seeded from the
/// workload seed, so quality figures average over several crowds, and at
/// least one crowd runs twice (every run of a crowd must agree). With
/// `--trace 1`, each crowd runs untraced and then traced.
pub struct Reps {
    started: Instant,
    seconds: f64,
    trace: bool,
    done: usize,
}

impl Reps {
    /// Starts the clock.
    pub fn new(seconds: f64, trace: bool) -> Reps {
        Reps { started: Instant::now(), seconds, trace, done: 0 }
    }

    /// The next run to make, if any.
    pub fn next_run(&mut self) -> Option<Run> {
        let elapsed = self.started.elapsed().as_secs_f64();
        let per_run = if self.done == 0 { 0.0 } else { elapsed / self.done as f64 };
        if self.done >= MIN_RUNS && elapsed + per_run > self.seconds {
            return None;
        }
        Some(Reps::kind(self.done, self.trace))
    }

    /// What run `i` of a measurement is.
    fn kind(i: usize, trace: bool) -> Run {
        if trace {
            Run { traced: i % 2 == 1, crowd: (i / 2) % CROWDS }
        } else {
            Run { traced: false, crowd: i % CROWDS }
        }
    }

    /// Marks a run as finished.
    pub fn done(&mut self) {
        self.done += 1;
    }
}

/// Makes a measurement's runs with `run_once` until [`Reps`] says stop
/// or a run fails (which counts in `out` and ends the measurement).
/// Returns each run's document, tagged with `traced` and `crowd`.
pub fn measure(
    workload: &str,
    seconds: f64,
    trace: bool,
    out: &mut Outcome,
    mut run_once: impl FnMut(Run) -> Result<Json, String>,
) -> Vec<Json> {
    let mut runs = Vec::new();
    let mut reps = Reps::new(seconds, trace);
    while let Some(run) = reps.next_run() {
        out.attempted += 1;
        match run_once(run) {
            Ok(Json::Obj(mut fields)) => {
                fields.push(("traced".into(), Json::from(run.traced)));
                fields.push(("crowd".into(), Json::from(run.crowd)));
                let doc = Json::Obj(fields);
                log_run(workload, runs.len(), &doc);
                runs.push(doc);
            }
            Ok(other) => {
                out.fail(format!("a run reported {other} instead of an object"));
                break;
            }
            Err(e) => {
                out.fail(e);
                break;
            }
        }
        reps.done();
    }
    runs
}

/// The seed of simulated crowd `crowd` for workload seed `seed`.
pub fn crowd_seed(seed: u64, crowd: usize) -> u64 {
    remp_scale::mix_many(&[seed, crowd as u64])
}

/// `doc[key]`, or `null`.
pub fn field<'a>(doc: &'a Json, key: &str) -> &'a Json {
    static NULL: Json = Json::Null;
    doc.get(key).unwrap_or(&NULL)
}

/// `doc[key]` as a number (0 when absent).
pub fn num(doc: &Json, key: &str) -> f64 {
    field(doc, key).as_f64().unwrap_or(0.0)
}

/// Logs one finished run to standard error.
pub fn log_run(workload: &str, index: usize, run: &Json) {
    eprintln!(
        "e2ebench: {workload} run {index} (crowd {}, traced {}): setup {:.3} s CPU / {:.3} s wall, \
         campaign {:.3} s CPU / {:.3} s wall",
        num(run, "crowd"),
        is_traced(run),
        num(run, "setup_cpu_s"),
        num(run, "setup_s"),
        num(run, "campaign_cpu_s"),
        num(run, "campaign_s"),
    );
}

/// Whether a run's measurements come from a traced run.
pub fn is_traced(run: &Json) -> bool {
    field(run, "traced").as_bool().unwrap_or(false)
}

/// `(untraced, traced)` runs.
pub fn split_traced(runs: &[Json]) -> (Vec<&Json>, Vec<&Json>) {
    let (traced, plain) = runs.iter().partition(|r| is_traced(r));
    (plain, traced)
}

/// The first run of each crowd: the per-seed (deterministic) figures.
pub fn per_crowd<'a>(runs: &[&'a Json]) -> Vec<&'a Json> {
    let mut firsts: Vec<&Json> = Vec::new();
    for r in runs {
        if !firsts.iter().any(|f| num(f, "crowd") == num(r, "crowd")) {
            firsts.push(r);
        }
    }
    firsts
}

/// Median of `key` over `runs` (0 when there are none).
pub fn med(runs: &[&Json], key: &str) -> f64 {
    stats::median(&runs.iter().map(|r| num(r, key)).collect::<Vec<_>>()).unwrap_or(0.0)
}

/// Mean of `key` over `runs`.
pub fn mean(runs: &[&Json], key: &str) -> f64 {
    runs.iter().map(|r| num(r, key)).sum::<f64>() / runs.len().max(1) as f64
}

/// Median of `doc[section][key]` over `runs`.
pub fn med_in(runs: &[&Json], section: &str, key: &str) -> f64 {
    let values: Vec<f64> =
        runs.iter().filter_map(|r| field(r, section).get(key).and_then(Json::as_f64)).collect();
    stats::median(&values).unwrap_or(0.0)
}

/// Every sample of the array `key`, pooled over `runs`.
pub fn pooled(runs: &[&Json], key: &str) -> Vec<f64> {
    runs.iter()
        .flat_map(|r| field(r, key).as_array().unwrap_or(&[]).iter().filter_map(Json::as_f64))
        .collect()
}

/// The figures every workload reports the same way. Each run carries
/// `setup_cpu_s`/`campaign_cpu_s` (CPU seconds of the processes doing
/// the work), `setup_s`/`campaign_s` (wall clock), `questions`,
/// `correct_matches`, `f1`, `rss_mb` and `crowd`.
///
/// The bounded end-to-end times are CPU seconds: on a shared virtual
/// machine whose hypervisor steals a varying share of the CPUs, wall
/// clock of identical runs drifts far more than CPU time does. The
/// wall-clock figures are reported per layer as `wall.*`.
pub fn end_to_end(plain: &[&Json], traced: &[&Json], out: &mut Outcome, rss_of: &str) {
    let n = plain.len();
    if n == 0 {
        return;
    }
    out.set("setup_s", med(plain, "setup_cpu_s"), n, "CPU seconds, median over runs");
    out.set("campaign_s", med(plain, "campaign_cpu_s"), n, "CPU seconds, median over runs");
    let crowds = per_crowd(plain);
    let questions: f64 = crowds.iter().map(|r| num(r, "questions")).sum();
    let correct: f64 = crowds.iter().map(|r| num(r, "correct_matches")).sum();
    out.set("questions_per_match", questions / correct.max(1.0), crowds.len(), "over the crowds");
    out.set("f1", mean(&crowds, "f1"), crowds.len(), "mean over the crowds");
    out.set("peak_rss_mb", med(plain, "rss_mb"), n, format!("{rss_of} VmHWM, median"));
    out.set("wall.setup_s", med(plain, "setup_s"), n, "wall clock, median over runs");
    out.set("wall.campaign_s", med(plain, "campaign_s"), n, "wall clock, median over runs");
    if !traced.is_empty() {
        let cpu = |rs: &[&Json]| med(rs, "setup_cpu_s") + med(rs, "campaign_cpu_s");
        let pct = 100.0 * (cpu(traced) / cpu(plain) - 1.0);
        out.set("trace.overhead_pct", pct, traced.len() + n, "traced vs untraced CPU seconds");
    }
}

/// A fresh, empty directory `name` under `work`.
pub fn fresh_dir(work: &Path, name: &str) -> Result<PathBuf, String> {
    let dir = work.join(name);
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).map_err(|e| format!("{}: {e}", dir.display()))?;
    Ok(dir)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn runs_alternate_crowds_and_pair_traced_with_untraced() {
        let plain: Vec<Run> = (0..4).map(|i| Reps::kind(i, false)).collect();
        assert!(plain.iter().all(|r| !r.traced));
        assert_eq!(plain.iter().map(|r| r.crowd).collect::<Vec<_>>(), [0, 1, 2, 0]);
        let traced: Vec<Run> = (0..4).map(|i| Reps::kind(i, true)).collect();
        assert_eq!(
            traced.iter().map(|r| (r.traced, r.crowd)).collect::<Vec<_>>(),
            [(false, 0), (true, 0), (false, 1), (true, 1)]
        );
    }

    #[test]
    fn a_measurement_makes_the_minimum_runs_even_with_no_time() {
        let mut reps = Reps::new(1e-9, false);
        let mut n = 0;
        while reps.next_run().is_some() {
            reps.done();
            n += 1;
        }
        assert_eq!(n, MIN_RUNS);
    }

    #[test]
    fn flags_parse_pairs() {
        let args: Vec<String> =
            ["--seed", "7", "--workload", "x"].iter().map(|s| s.to_string()).collect();
        let f = Flags::parse(&args);
        assert_eq!(f.parsed::<u64>("seed"), Ok(7));
        assert_eq!(f.get("workload"), Ok("x"));
        assert!(f.get("trace").is_err());
        assert_ne!(crowd_seed(7, 0), crowd_seed(7, 1));
        assert_ne!(crowd_seed(7, 0), crowd_seed(8, 0));
    }
}
