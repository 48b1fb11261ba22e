//! `scale-sharded`: a seeded `remp_scale` world planned into shards by a
//! fresh setup process, then run by shard-worker processes leasing
//! shards from a fresh `rempd` coordinator over its `/scale` routes.
//!
//! The traced run also times `stream_candidates` and `plan_shards` on
//! their own (off the setup clock), and `merge_results` over the shard
//! results the workers hand back. The merged outcome must equal
//! `run_sharded_local`'s on the same campaign directory.

use std::collections::HashSet;
use std::path::Path;
use std::process::{Command, Stdio};
use std::time::{Duration, Instant};

use remp_core::RempConfig;
use remp_ingest::{load_gold, load_snapshot};
use remp_json::Json;
use remp_par::Parallelism;
use remp_scale::{
    generate_dataset, merge_results, plan_shards, process_shard, run_sharded_local,
    stream_candidates, write_campaign, CrowdSpec, MergedOutcome, PlanMode, ScaleSpec, ShardResult,
};
use remp_serve::ServeClient;

use crate::proc::{peak_rss_mb, process_cpu_s, Interval, Rempd};
use crate::report::Outcome;
use crate::{
    crowd_seed, end_to_end, field, fresh_dir, measure, med, num, pooled, split_traced, stats,
    Flags, CROWDS,
};

/// Entities per KB.
const ENTITIES: usize = 20_000;
/// Shards the campaign is planned into.
const SHARDS: usize = 4;
/// Shard-worker processes (at most `nproc` here; each runs one thread).
const WORKERS: usize = 2;
/// Questions each shard may ask.
const SHARD_BUDGET: usize = 200;
/// Blocking budget per token block.
const MAX_BLOCK: usize = 200_000;
/// Shard lease lifetime: far above any shard's run time, so no worker
/// needs a heartbeat and no lease expires.
const LEASE_MS: u64 = 600_000;

fn config() -> RempConfig {
    RempConfig::default()
        .with_budget(SHARD_BUDGET)
        .without_classifier()
        .with_parallelism(Parallelism::Sequential)
}

fn crowd() -> CrowdSpec {
    CrowdSpec::Simulated { workers: 100, min_quality: 0.8, max_quality: 0.99, per_question: 5 }
}

/// Runs the workload.
pub fn run(seed: u64, seconds: f64, trace: bool, work: &Path) -> Outcome {
    let mut out = Outcome::default();
    let inputs = match fresh_dir(work, "inputs").and_then(|dir| {
        // A fixed world, like a fixed benchmark dataset; the seed draws
        // the crowds. Seeded worlds vary the work by more than the bounds.
        let spec = ScaleSpec::new("scale-sharded", ENTITIES);
        generate_dataset(&spec, &dir).map_err(|e| e.to_string())?;
        Ok(dir)
    }) {
        Ok(dir) => dir,
        Err(e) => {
            out.attempted = 1;
            out.fail(format!("writing inputs: {e}"));
            return out;
        }
    };
    // `run_sharded_local`'s outcome digest per crowd, computed off the
    // clock on that crowd's first campaign directory.
    let mut references: Vec<Option<u64>> = vec![None; CROWDS];
    let mut index = 0;
    let runs = measure("scale-sharded", seconds, trace, &mut out, |run| {
        let dir = fresh_dir(work, &format!("campaign{index}"))?;
        index += 1;
        let doc = run_once(&inputs, &dir, seed, run.crowd, run.traced)?;
        let digest = field(&doc, "digest").as_u64().ok_or("run without digest")?;
        let want = match references[run.crowd] {
            Some(d) => d,
            None => *references[run.crowd].insert(run_sharded_local(&dir)?.outcome_digest),
        };
        if digest != want {
            return Err(format!(
                "merged digest {digest:016x} differs from run_sharded_local's {want:016x}"
            ));
        }
        let _ = std::fs::remove_dir_all(&dir);
        Ok(doc)
    });
    summarize(&runs, trace, &mut out);
    out
}

/// One sharded campaign: setup in a fresh process, then the coordinated
/// multi-process run.
fn run_once(
    inputs: &Path,
    dir: &Path,
    seed: u64,
    crowd: usize,
    traced: bool,
) -> Result<Json, String> {
    let s = |v: &dyn ToString| v.to_string();
    let setup = crate::proc::run_child(&[
        s(&"child-scale-setup"),
        s(&"--inputs"),
        inputs.display().to_string(),
        s(&"--dir"),
        dir.display().to_string(),
        s(&"--seed"),
        s(&crowd_seed(seed, crowd)),
        s(&"--traced"),
        s(&u8::from(traced)),
    ])?;

    let rempd = Rempd::start(None, WORKERS)?;
    let client = ServeClient::new(rempd.addr.clone());
    let coordinator_cpu = || crate::proc::cpu_s_of(rempd.pid()).unwrap_or(0.0);
    let cpu_start = coordinator_cpu();
    let started = Instant::now();
    let abs = dir.canonicalize().map_err(|e| e.to_string())?;
    let body = Json::Obj(vec![
        ("dir".into(), Json::from(abs.display().to_string())),
        ("lease_ms".into(), Json::from(LEASE_MS)),
    ]);
    let created = client.post("/scale/jobs", &body).map_err(|e| format!("create job: {e}"))?;
    let job = created.get("job").and_then(Json::as_str).ok_or("no job id")?.to_owned();
    let exe = std::env::current_exe().map_err(|e| e.to_string())?;
    let mut children = Vec::new();
    for i in 0..WORKERS {
        let spawned = Command::new(&exe)
            .args(["child-shard-worker", "--url", &rempd.addr, "--job", &job])
            .args(["--worker", &format!("w{i}")])
            .stdin(Stdio::null())
            .stdout(Stdio::piped())
            .stderr(Stdio::inherit())
            .spawn();
        match spawned {
            Ok(child) => children.push(child),
            Err(e) => {
                for mut child in children {
                    let _ = child.kill();
                    let _ = child.wait();
                }
                return Err(format!("spawning a shard worker: {e}"));
            }
        }
    }
    // Reap every worker before judging any of them.
    let finished: Vec<_> = children.into_iter().map(|c| c.wait_with_output()).collect();
    let mut workers = Vec::new();
    for output in finished {
        let output = output.map_err(|e| format!("shard worker: {e}"))?;
        let text = String::from_utf8_lossy(&output.stdout);
        if !output.status.success() {
            return Err(format!("a shard worker failed ({}): {}", output.status, text.trim()));
        }
        let last = text.lines().last().unwrap_or("");
        workers.push(Json::parse(last).map_err(|e| format!("worker result: {e}"))?);
    }
    let t = Instant::now();
    let outcome =
        client.get(&format!("/scale/jobs/{job}/outcome")).map_err(|e| format!("outcome: {e}"))?;
    let outcome_ms = t.elapsed().as_secs_f64() * 1e3;
    let campaign_s = started.elapsed().as_secs_f64();
    let coordinator_cpu_s = coordinator_cpu() - cpu_start;
    let coordinator_rss = rempd.peak_rss_mb().unwrap_or(0.0);
    drop(rempd);
    let merged = MergedOutcome::from_json(&outcome)?;

    // The merge, timed from outside on the results the workers shipped.
    let mut results: Vec<ShardResult> = Vec::new();
    for w in &workers {
        for r in field(w, "results").as_array().unwrap_or(&[]) {
            results.push(ShardResult::from_json(r)?);
        }
    }
    results.sort_by_key(|r| r.shard_id);
    let t = Instant::now();
    let local = merge_results(&merged.campaign, &results, merged.gold_total);
    let merge_s = t.elapsed().as_secs_f64();
    if local.outcome_digest != merged.outcome_digest {
        return Err("merge_results over the workers' results differs from the coordinator's".into());
    }

    let busiest = workers.iter().map(|w| num(w, "busy_s")).fold(0.0, f64::max);
    let rss = workers
        .iter()
        .map(|w| num(w, "rss_mb"))
        .fold(num(&setup, "setup_rss_mb").max(coordinator_rss), f64::max);
    let shard_s: Vec<Json> = workers
        .iter()
        .flat_map(|w| field(w, "shard_s").as_array().unwrap_or(&[]).to_vec())
        .collect();
    let mut doc = match setup {
        Json::Obj(fields) => fields,
        _ => return Err("setup printed no object".into()),
    };
    doc.extend([
        ("campaign_s".into(), Json::from(campaign_s)),
        (
            "campaign_cpu_s".into(),
            Json::from(coordinator_cpu_s + workers.iter().map(|w| num(w, "cpu_s")).sum::<f64>()),
        ),
        ("busiest_worker_s".into(), Json::from(busiest)),
        ("outcome_ms".into(), Json::from(outcome_ms)),
        ("shard_s".into(), Json::Arr(shard_s)),
        ("merge_s".into(), Json::from(merge_s)),
        ("questions".into(), Json::from(merged.questions_total)),
        ("correct_matches".into(), Json::from(merged.gold_matched)),
        ("f1".into(), Json::from(merged.f1)),
        ("digest".into(), Json::from(merged.outcome_digest)),
        ("rss_mb".into(), Json::from(rss)),
    ]);
    Ok(Json::Obj(doc))
}

/// The setup process: load, plan and write the sharded campaign.
pub fn child_setup(flags: &Flags) -> Result<(), String> {
    let inputs = Path::new(flags.get("inputs")?);
    let dir = Path::new(flags.get("dir")?);
    let campaign_seed: u64 = flags.parsed("seed")?;
    let traced = flags.get("traced")? == "1";
    let config = config();
    let mode = PlanMode::Stream { max_block: MAX_BLOCK };

    let mut setup = Interval::start();
    let kb1 = load_snapshot(&inputs.join("kb1.rkb")).map_err(|e| e.to_string())?;
    let kb2 = load_snapshot(&inputs.join("kb2.rkb")).map_err(|e| e.to_string())?;
    let load_s = setup.read().0;
    let gold: HashSet<_> = setup
        .exclude(|| load_gold(&inputs.join("gold.tsv"), &kb1.id_map(), &kb2.id_map()))
        .map_err(|e| e.to_string())?;

    let (mut blocking_s, mut plan_shards_s) = (0.0, 0.0);
    if traced {
        setup.exclude(|| {
            let t = Instant::now();
            stream_candidates(
                &kb1.kb,
                &kb2.kb,
                config.label_sim_threshold,
                MAX_BLOCK,
                &mut |_, _| {},
            );
            blocking_s = t.elapsed().as_secs_f64();
            let t = Instant::now();
            drop(plan_shards(&kb1.kb, &kb2.kb, &config, &mode, SHARDS));
            plan_shards_s = t.elapsed().as_secs_f64();
        });
    }
    let t = Instant::now();
    let manifest = write_campaign(
        dir,
        "scale-sharded",
        &kb1,
        &kb2,
        &gold,
        &config,
        &crowd(),
        campaign_seed,
        &mode,
        SHARDS,
    )
    .map_err(|e| e.to_string())?;
    let write_campaign_s = t.elapsed().as_secs_f64();
    let (setup_s, setup_cpu_s) = setup.read();
    let shard_bytes: u64 = manifest
        .shard_paths(dir)
        .iter()
        .filter_map(|p| std::fs::metadata(p).ok())
        .map(|m| m.len())
        .sum();
    let doc = Json::Obj(vec![
        ("setup_s".into(), Json::from(setup_s)),
        ("setup_cpu_s".into(), Json::from(setup_cpu_s)),
        ("load_s".into(), Json::from(load_s)),
        ("blocking_s".into(), Json::from(blocking_s)),
        ("plan_shards_s".into(), Json::from(plan_shards_s)),
        ("write_campaign_s".into(), Json::from(write_campaign_s)),
        ("pairs".into(), Json::from(manifest.pairs_total)),
        ("shards".into(), Json::from(manifest.shards.len())),
        ("shard_bytes".into(), Json::from(shard_bytes)),
        ("setup_rss_mb".into(), Json::from(peak_rss_mb(std::process::id()).unwrap_or(0.0))),
    ]);
    println!("{doc}");
    Ok(())
}

/// A shard-worker process: lease shards from the coordinator, run each
/// with `process_shard`, post the result; print timings and results.
pub fn child_worker(flags: &Flags) -> Result<(), String> {
    let client = ServeClient::new(flags.get("url")?);
    let job = flags.get("job")?;
    let worker = flags.get("worker")?;
    let lease_body = Json::Obj(vec![("worker".into(), Json::from(worker))]);
    let (mut busy_s, mut shard_s, mut results) = (0.0, Vec::new(), Vec::new());
    loop {
        let next = client
            .post(&format!("/scale/jobs/{job}/next"), &lease_body)
            .map_err(|e| e.to_string())?;
        let Some(path) = next.get("path").and_then(Json::as_str) else {
            if next.get("done").and_then(Json::as_bool) == Some(true) {
                break;
            }
            // Every pending shard is leased elsewhere; wait for the job.
            std::thread::sleep(Duration::from_millis(5));
            continue;
        };
        let t = Instant::now();
        let result = process_shard(Path::new(path))?;
        let run_s = t.elapsed().as_secs_f64();
        let doc = result.to_json();
        client.post(&format!("/scale/jobs/{job}/result"), &doc).map_err(|e| e.to_string())?;
        busy_s += t.elapsed().as_secs_f64();
        shard_s.push(Json::from(run_s));
        results.push(doc);
    }
    let doc = Json::Obj(vec![
        ("busy_s".into(), Json::from(busy_s)),
        ("shard_s".into(), Json::Arr(shard_s)),
        ("results".into(), Json::Arr(results)),
        ("rss_mb".into(), Json::from(peak_rss_mb(std::process::id()).unwrap_or(0.0))),
        ("cpu_s".into(), Json::from(process_cpu_s())),
    ]);
    println!("{doc}");
    Ok(())
}

fn summarize(runs: &[Json], trace: bool, out: &mut Outcome) {
    let (plain, traced) = split_traced(runs);
    end_to_end(&plain, &traced, out, "largest scale process");
    if !trace || traced.is_empty() {
        return;
    }
    let nt = traced.len();
    out.set("scale.load_s", med(&traced, "load_s"), nt, "load_snapshot x2");
    out.set("scale.blocking_s", med(&traced, "blocking_s"), nt, "stream_candidates");
    let plan: Vec<f64> =
        traced.iter().map(|r| num(r, "plan_shards_s") - num(r, "blocking_s")).collect();
    out.set("scale.plan_s", stats::median(&plan).unwrap_or(0.0), nt, "plan_shards minus blocking");
    let write: Vec<f64> =
        traced.iter().map(|r| num(r, "write_campaign_s") - num(r, "plan_shards_s")).collect();
    out.set(
        "scale.write_s",
        stats::median(&write).unwrap_or(0.0),
        nt,
        "write_campaign minus plan_shards",
    );
    let shards = pooled(&traced, "shard_s");
    if let Some(s) = stats::summarize(&shards, 50) {
        let max = shards.iter().copied().fold(0.0, f64::max);
        out.set("scale.shard_run_s_p50", s.p50, s.n, "process_shard");
        out.set("scale.shard_run_s_max", max, s.n, "");
        let mean_s = shards.iter().sum::<f64>() / shards.len() as f64;
        out.set("scale.shard_skew", max / mean_s.max(1e-9), s.n, "max / mean shard time");
    }
    let overhead: Vec<f64> =
        traced.iter().map(|r| num(r, "campaign_s") - num(r, "busiest_worker_s")).collect();
    out.set(
        "scale.coord_overhead_s",
        stats::median(&overhead).unwrap_or(0.0),
        nt,
        "run wall minus the busiest worker",
    );
    out.set("scale.merge_s", med(&traced, "merge_s"), nt, "merge_results");
    out.set("scale.pairs_scored", num(traced[0], "pairs"), 1, "");
    out.set("scale.shard_bytes", num(traced[0], "shard_bytes"), 1, "");
    let coverage: Vec<f64> = traced
        .iter()
        .map(|r| {
            let leaves = num(r, "load_s")
                + num(r, "write_campaign_s")
                + num(r, "busiest_worker_s")
                + num(r, "outcome_ms") / 1e3;
            leaves / (num(r, "setup_s") + num(r, "campaign_s"))
        })
        .collect();
    out.set(
        "trace.coverage",
        stats::median(&coverage).unwrap_or(0.0),
        nt,
        "remainder: worker start-up, job creation, lease polling",
    );
}
