//! `serve-crowd`: a fresh `rempd` per run hosts one campaign over `.rkb`
//! snapshots; two keep-alive connections drive it.
//!
//! * Crowd lane (closed loop): for each open question, the seeded wire
//!   crowd's five workers each lease it and answer from gold; every
//!   request is sent only after the previous reply.
//! * Reader lane (open loop): polls `GET /campaigns/{id}` at
//!   [`READER_HZ`], every [`METRICS_EVERY`]th poll a `GET /metrics`
//!   scrape instead, each request timed from its scheduled send time, so
//!   a stalled server shows as latency even when the reader falls behind.
//!   The reader's load on `rempd` grows with the campaign's wall time;
//!   scrapes, three times dearer than status reads, are kept rare so
//!   that coupling stays small.
//!
//! The wire outcome must be bit-identical to
//! [`remp_serve::reference_outcome`] for the same crowd.

use std::path::Path;
use std::sync::atomic::{AtomicBool, Ordering};
use std::time::{Duration, Instant};

use remp_core::{RempConfig, RempOutcome};
use remp_datasets::{dblp_acm, generate};
use remp_ingest::gold::export_gold;
use remp_ingest::ntriples::entity_iri;
use remp_ingest::{write_snapshot, FileDataset};
use remp_json::Json;
use remp_obs::Exposition;
use remp_serve::wire::SubmittedRecord;
use remp_serve::{
    outcome_matches, reference_outcome, CrowdParams, CrowdPolicy, ServeClient, WireCrowd,
};

use crate::proc::Rempd;
use crate::report::Outcome;
use crate::{
    crowd_seed, end_to_end, fresh_dir, mean, measure, med, num, per_crowd, pooled, split_traced,
    stats, CROWDS,
};

/// D-A at this scale: the campaign `rempd` hosts.
const SCALE: f64 = 6.0;
/// Distinct workers answering each question.
const PER_QUESTION: usize = 5;
/// Reader-lane polls per second.
const READER_HZ: f64 = 100.0;
/// Every this many reader polls, one is a `GET /metrics` scrape.
const METRICS_EVERY: u32 = 10;
/// `rempd --threads`: the handler pool, at most `nproc` here.
const THREADS: usize = 2;

fn write_inputs(dir: &Path) -> Result<(), String> {
    let dataset = generate(&dblp_acm(SCALE));
    let ids = |n: usize| (0..n).map(entity_iri).collect::<Vec<String>>();
    let (ids1, ids2) = (ids(dataset.kb1.num_entities()), ids(dataset.kb2.num_entities()));
    let err = |e: remp_ingest::IngestError| e.to_string();
    write_snapshot(&dataset.kb1, &ids1, &dir.join("kb1.rkb")).map_err(err)?;
    write_snapshot(&dataset.kb2, &ids2, &dir.join("kb2.rkb")).map_err(err)?;
    export_gold(&dataset.gold, &ids1, &ids2, &dir.join("gold.tsv")).map_err(err)?;
    Ok(())
}

fn params(seed: u64, crowd: usize) -> CrowdParams {
    CrowdParams {
        per_question: PER_QUESTION,
        ..CrowdParams::paper_default(crowd_seed(seed, crowd))
    }
}

fn policy() -> CrowdPolicy {
    CrowdPolicy { per_question: PER_QUESTION, ..CrowdPolicy::default() }
}

/// Runs the workload.
pub fn run(seed: u64, seconds: f64, trace: bool, work: &Path) -> Outcome {
    let mut out = Outcome::default();
    let prepared = (|| -> Result<FileDataset, String> {
        let dir = fresh_dir(work, "inputs")?;
        write_inputs(&dir)?;
        FileDataset::load(
            "serve",
            &dir.join("kb1.rkb"),
            &dir.join("kb2.rkb"),
            &dir.join("gold.tsv"),
        )
        .map_err(|e| e.to_string())
    })();
    let dataset = match prepared {
        Ok(d) => d,
        Err(e) => {
            out.attempted = 1;
            out.fail(format!("writing inputs: {e}"));
            return out;
        }
    };
    let inputs = work.join("inputs");
    // The in-process references, one per crowd, computed off the clock.
    let mut references: Vec<Option<(RempOutcome, Vec<SubmittedRecord>)>> = vec![None; CROWDS];

    let mut index = 0;
    let runs = measure("serve-crowd", seconds, trace, &mut out, |run| {
        let reference = match &references[run.crowd] {
            Some(r) => r,
            None => {
                let truth = |a, b| dataset.is_match(a, b);
                let made = reference_outcome(
                    &dataset.kb1,
                    &dataset.kb2,
                    &RempConfig::default(),
                    &policy(),
                    &params(seed, run.crowd),
                    &truth,
                )
                .map_err(|e| format!("reference run: {e}"))?;
                references[run.crowd].insert(made)
            }
        };
        let state = fresh_dir(work, &format!("state{index}"))?;
        index += 1;
        let doc = drive_once(&inputs, &state, &dataset, &params(seed, run.crowd), reference);
        let _ = std::fs::remove_dir_all(&state);
        doc
    });
    summarize(&runs, trace, &mut out);
    out
}

/// Request latencies by kind, in milliseconds.
#[derive(Default)]
struct Lane {
    questions: Vec<f64>,
    next: Vec<f64>,
    answer: Vec<f64>,
    other: Vec<f64>,
    failed: usize,
    empty_next: usize,
}

impl Lane {
    fn all(&self) -> Vec<f64> {
        [&self.questions, &self.next, &self.answer, &self.other]
            .into_iter()
            .flatten()
            .copied()
            .collect()
    }
}

fn timed<T>(samples: &mut Vec<f64>, f: impl FnOnce() -> T) -> T {
    let t = Instant::now();
    let out = f();
    samples.push(t.elapsed().as_secs_f64() * 1e3);
    out
}

fn ms(d: Duration) -> f64 {
    d.as_secs_f64() * 1e3
}

/// The reader lane: polls status and metrics at a fixed rate until
/// `stop`, timing each request from its scheduled send time. Returns
/// `(latencies_ms, failures, worst lateness of the generator in ms)`.
fn reader(addr: &str, campaign: &str, stop: &AtomicBool) -> (Vec<f64>, usize, f64) {
    let client = ServeClient::new(addr);
    let period = Duration::from_secs_f64(1.0 / READER_HZ);
    let started = Instant::now();
    let (mut latencies, mut failed, mut late_ms) = (Vec::new(), 0, 0.0f64);
    let status = format!("/campaigns/{campaign}");
    for k in 0u32.. {
        if stop.load(Ordering::SeqCst) {
            break;
        }
        let due = started + period * k;
        let now = Instant::now();
        if due > now {
            std::thread::sleep(due - now);
        } else {
            late_ms = late_ms.max(ms(now - due));
        }
        let ok = if k % METRICS_EVERY == METRICS_EVERY - 1 {
            matches!(client.get_text("/metrics"), Ok((200, _)))
        } else {
            client.get(&status).is_ok()
        };
        latencies.push(ms(due.elapsed()));
        failed += usize::from(!ok);
    }
    (latencies, failed, late_ms)
}

/// One campaign on a fresh `rempd`, checked against `reference`.
fn drive_once(
    inputs: &Path,
    state: &Path,
    dataset: &FileDataset,
    params: &CrowdParams,
    reference: &(RempOutcome, Vec<SubmittedRecord>),
) -> Result<Json, String> {
    let rempd = Rempd::start(Some(state), THREADS)?;
    let client = ServeClient::new(rempd.addr.clone());
    let path = |name: &str| {
        inputs.join(name).canonicalize().map(|p| p.display().to_string()).map_err(|e| e.to_string())
    };
    let body = Json::Obj(vec![
        ("name".into(), Json::from("serve-crowd")),
        ("kb1".into(), Json::from(path("kb1.rkb")?)),
        ("kb2".into(), Json::from(path("kb2.rkb")?)),
        ("per_question".into(), Json::from(PER_QUESTION)),
        ("threads".into(), Json::from(THREADS.to_string())),
    ]);
    let mut lane = Lane::default();
    let pid = rempd.pid();
    let cpu = || crate::proc::cpu_s_of(pid).unwrap_or(0.0);
    let cpu_start = cpu();
    let started = Instant::now();
    let created = client.post("/campaigns", &body).map_err(|e| format!("create: {e}"))?;
    let create_s = started.elapsed().as_secs_f64();
    let id = created.get("id").and_then(Json::as_str).ok_or("create returned no id")?.to_owned();

    let stop = AtomicBool::new(false);
    let (crowd_result, (reader_ms, reader_failed, reader_late_ms)) = std::thread::scope(|s| {
        let reader = s.spawn(|| reader(&rempd.addr, &id, &stop));
        let result = crowd_lane(&client, &id, dataset, params, &mut lane, started, &cpu);
        stop.store(true, Ordering::SeqCst);
        (result, reader.join().expect("reader lane panicked"))
    });
    let (setup_s, campaign_s, cpu_at_first_lease, gaps_ms, outcome) = crowd_result?;
    let cpu_end = cpu();
    if reader_failed > 0 {
        return Err(format!("{reader_failed} reader-lane request(s) failed"));
    }

    outcome_matches(&outcome, &reference.0, &reference.1)
        .map_err(|d| format!("wire outcome differs from reference_outcome: {d}"))?;
    let status = client.get(&format!("/campaigns/{id}")).map_err(|e| e.to_string())?;
    let (code, text) = client.get_text("/metrics").map_err(|e| e.to_string())?;
    if code != 200 {
        return Err(format!("GET /metrics answered {code}"));
    }
    let expo = Exposition::parse(&text)?;
    let rss_mb = rempd.peak_rss_mb().unwrap_or(0.0);
    drop(rempd);

    let stage =
        |name: &str| expo.value("remp_stage_seconds_sum", &[("stage", name)]).unwrap_or(0.0);
    let leases = status.get("leases");
    let reissued = leases.and_then(|l| l.get("reissued")).and_then(Json::as_u64).unwrap_or(0);
    let requests = lane.all().len() + reader_ms.len();
    let questions = reference.0.questions_asked as f64;
    let correct = reference.0.matches.iter().filter(|&&(a, b)| dataset.is_match(a, b)).count();
    let arr = |v: &[f64]| Json::Arr(v.iter().copied().map(Json::from).collect());
    Ok(Json::Obj(vec![
        ("setup_s".into(), Json::from(setup_s)),
        ("campaign_s".into(), Json::from(campaign_s)),
        ("setup_cpu_s".into(), Json::from(cpu_at_first_lease - cpu_start)),
        ("campaign_cpu_s".into(), Json::from(cpu_end - cpu_at_first_lease)),
        ("create_s".into(), Json::from(create_s)),
        ("gaps_ms".into(), arr(&gaps_ms)),
        ("crowd_ms".into(), arr(&lane.all())),
        ("next_ms".into(), arr(&lane.next)),
        ("answer_ms".into(), arr(&lane.answer)),
        ("reader_ms".into(), arr(&reader_ms)),
        ("reader_late_ms".into(), Json::from(reader_late_ms)),
        ("crowd_busy_s".into(), Json::from(lane.all().iter().sum::<f64>() / 1e3)),
        ("requests".into(), Json::from(requests)),
        ("failed".into(), Json::from(lane.failed)),
        ("empty_next".into(), Json::from(lane.empty_next)),
        // The crowd lane's client also sent the create, status and metrics
        // requests around the lane.
        (
            "reuse_ratio".into(),
            Json::from(client.reuse_count() as f64 / (lane.all().len() + 3) as f64),
        ),
        ("leases_reissued".into(), Json::from(reissued)),
        (
            "wal_bytes_per_answer".into(),
            Json::from(
                expo.total("remp_wal_bytes_total") / expo.total("remp_wal_records_total").max(1.0),
            ),
        ),
        ("stage1_candidates".into(), Json::from(stage("candidates"))),
        ("stage1_attr_alignment".into(), Json::from(stage("attr_alignment"))),
        ("stage1_sim_vectors".into(), Json::from(stage("sim_vectors"))),
        ("stage1_prune".into(), Json::from(stage("prune"))),
        ("stage1_graph".into(), Json::from(stage("graph"))),
        ("loops".into(), Json::from(reference.0.loops)),
        ("labels".into(), Json::from(questions * PER_QUESTION as f64)),
        ("questions".into(), Json::from(questions)),
        ("correct_matches".into(), Json::from(correct)),
        ("f1".into(), Json::from(f1(correct, reference.0.matches.len(), dataset.num_gold()))),
        ("rss_mb".into(), Json::from(rss_mb)),
    ]))
}

fn f1(correct: usize, predicted: usize, gold: usize) -> f64 {
    if predicted + gold == 0 {
        0.0
    } else {
        2.0 * correct as f64 / (predicted + gold) as f64
    }
}

/// The crowd lane: drives the campaign to completion. Returns
/// `(setup_s, campaign_s, rempd CPU seconds at the first lease, loop
/// gaps in ms, outcome document)`.
fn crowd_lane(
    client: &ServeClient,
    id: &str,
    dataset: &FileDataset,
    params: &CrowdParams,
    lane: &mut Lane,
    started: Instant,
    cpu: &dyn Fn() -> f64,
) -> Result<(f64, f64, f64, Vec<f64>, Json), String> {
    let mut cpu_at_first_lease = 0.0;
    let mut crowd = WireCrowd::new(params);
    let mut first_lease: Option<Instant> = None;
    let mut setup_s = 0.0;
    let mut batch_done: Option<Instant> = None;
    let mut gaps_ms = Vec::new();
    let questions_path = format!("/campaigns/{id}/questions");
    loop {
        let open = timed(&mut lane.questions, || client.get(&questions_path)).map_err(|e| {
            lane.failed += 1;
            format!("questions: {e}")
        })?;
        let Some(q) = open.get("questions").and_then(Json::as_array).and_then(|a| a.first()) else {
            let status = client.get(&format!("/campaigns/{id}")).map_err(|e| e.to_string())?;
            if status.get("complete").and_then(Json::as_bool) == Some(true) {
                break;
            }
            return Err("campaign is not complete but has no open questions".into());
        };
        if let Some(done) = batch_done.take() {
            gaps_ms.push(ms(done.elapsed()));
        }
        let qid = q.get("id").and_then(Json::as_str).ok_or("question without id")?.to_owned();
        let entity = |k: &str| q.get(k).and_then(Json::as_u64).map(|v| remp_kb::EntityId(v as u32));
        let (u1, u2) = entity("u1").zip(entity("u2")).ok_or("question without entities")?;
        for (worker, says) in crowd.answers(dataset.is_match(u1, u2)) {
            let path = format!("/campaigns/{id}/next?worker={worker}");
            let lease = timed(&mut lane.next, || client.get(&path)).map_err(|e| {
                lane.failed += 1;
                format!("lease: {e}")
            })?;
            let assigned = lease.get("assignment").and_then(|a| a.get("id")).and_then(Json::as_str);
            match assigned {
                Some(a) if a == qid => {}
                Some(a) => return Err(format!("{worker} was leased {a}, expected {qid}")),
                None => {
                    lane.empty_next += 1;
                    return Err(format!("no lease for {worker} on {qid}"));
                }
            }
            if first_lease.is_none() {
                setup_s = started.elapsed().as_secs_f64();
                cpu_at_first_lease = cpu();
                first_lease = Some(Instant::now());
            }
            let body = Json::Obj(vec![
                ("worker".into(), Json::from(worker.as_str())),
                ("question".into(), Json::from(qid.as_str())),
                ("says_match".into(), Json::from(says)),
            ]);
            let ack =
                timed(&mut lane.answer, || client.post(&format!("/campaigns/{id}/answers"), &body))
                    .map_err(|e| {
                        lane.failed += 1;
                        format!("answer: {e}")
                    })?;
            let complete = ack.get("submitted").and_then(|s| s.get("batch_complete"));
            if complete.and_then(Json::as_bool) == Some(true) {
                batch_done = Some(Instant::now());
            }
        }
    }
    let outcome = timed(&mut lane.other, || client.get(&format!("/campaigns/{id}/outcome")))
        .map_err(|e| format!("outcome: {e}"))?;
    let first = first_lease.ok_or("the campaign asked no questions")?;
    Ok((setup_s, first.elapsed().as_secs_f64(), cpu_at_first_lease, gaps_ms, outcome))
}

fn summarize(runs: &[Json], trace: bool, out: &mut Outcome) {
    let (plain, traced) = split_traced(runs);
    end_to_end(&plain, &traced, out, "rempd");
    // Every request is timed on every run, traced or not, so the
    // latency pools take every run.
    let all: Vec<&Json> = runs.iter().collect();
    let tail = |key: &str, pct: u32| stats::summarize(&pooled(&all, key), pct);
    if let Some(s) = tail("gaps_ms", 90) {
        out.set("crowd.loop_gap_ms_p50", s.p50, s.n, "last answer of a batch to next batch");
        out.set("crowd.loop_gap_ms_p90", s.tail, s.n, format!("p{}", s.tail_pct));
    }
    for (key, p50, p99) in [
        ("crowd_ms", "serve.request_ms_p50", "serve.request_ms_p99"),
        ("next_ms", "serve.next_ms_p50", "serve.next_ms_p99"),
        ("answer_ms", "serve.answer_ms_p50", "serve.answer_ms_p99"),
    ] {
        if let Some(s) = tail(key, 99) {
            out.set(p50, s.p50, s.n, "");
            out.set(p99, s.tail, s.n, format!("p{}", s.tail_pct));
        }
    }
    if let Some(s) = tail("reader_ms", 99) {
        let late = med(&all, "reader_late_ms");
        let note = format!(
            "p{}, open loop at {READER_HZ} Hz, generator late by <= {late:.1} ms",
            s.tail_pct
        );
        out.set("serve.status_ms_p99", s.tail, s.n, note);
    }
    if !trace || traced.is_empty() {
        return;
    }
    let nt = traced.len();
    out.set("serve.create_s", med(&traced, "create_s"), nt, "POST /campaigns (stage 1 inside)");
    let sum = |key: &str| traced.iter().map(|r| num(r, key)).sum::<f64>();
    out.set("serve.requests", sum("requests"), nt, "both lanes, all traced runs");
    out.set("serve.failed", sum("failed"), nt, "");
    out.set("serve.empty_next", sum("empty_next"), nt, "");
    out.set("serve.keepalive_reuse_ratio", med(&traced, "reuse_ratio"), nt, "crowd lane");
    out.set("serve.leases_reissued", sum("leases_reissued"), nt, "");
    out.set(
        "serve.wal_bytes_per_answer",
        med(&traced, "wal_bytes_per_answer"),
        nt,
        "from GET /metrics",
    );
    for (key, name) in [
        ("stage1_candidates", "ergraph.candidates_s"),
        ("stage1_attr_alignment", "ergraph.attr_alignment_s"),
        ("stage1_sim_vectors", "ergraph.sim_vectors_s"),
        ("stage1_prune", "ergraph.prune_s"),
        ("stage1_graph", "ergraph.graph_s"),
    ] {
        out.set(name, med(&traced, key), nt, "rempd's remp_stage_seconds from GET /metrics");
    }
    let crowds = per_crowd(&traced);
    out.set("core.loops", mean(&crowds, "loops"), crowds.len(), "mean over the crowds");
    out.set("crowd.labels", mean(&crowds, "labels"), crowds.len(), "mean over the crowds");
    let coverage: Vec<f64> = traced
        .iter()
        .map(|r| {
            (num(r, "create_s") + num(r, "crowd_busy_s"))
                / (num(r, "setup_s") + num(r, "campaign_s"))
        })
        .collect();
    out.set(
        "trace.coverage",
        stats::median(&coverage).unwrap_or(0.0),
        nt,
        "crowd-lane requests / wall; remainder: client-side crowd",
    );
}
