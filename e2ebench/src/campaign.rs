//! `campaign-deep` and `campaign-wide`: one in-process Remp campaign per
//! child process, loaded from N-Triples and driven to convergence by a
//! seeded noisy crowd.
//!
//! The untraced run calls [`Remp::begin`] and the session API only. The
//! traced run replaces `begin` by the `remp_ergraph` stage-1 functions in
//! `prepare`'s order, then opens the session with
//! [`Remp::begin_prepared`]; it also times one full propagation build
//! (consistency, neighbour propagation, inferred sets, selection) on the
//! stage-1 output, outside the campaign's wall clock.

use std::path::Path;
use std::time::Instant;

use remp_core::{LoopStat, PreparedEr, Remp, RempConfig, RempOutcome, RempSession};
use remp_crowd::{LabelSource, SimulatedCrowd};
use remp_datasets::{generate, preset_by_name};
use remp_ergraph::{
    build_sim_vectors, generate_candidates, initial_matches, match_attributes, prune,
    ComponentIndex, ErGraph, PairId,
};
use remp_ingest::{export_dataset, load_gold, load_ntriples, ExportFormat, LoadedKb};
use remp_json::Json;
use remp_propagation::{inferred_sets_dijkstra, ConsistencyTable, ProbErGraph};
use remp_selection::select_batch;
use remp_simil::SimVec;

use crate::proc::Interval;
use crate::report::Outcome;
use crate::{
    crowd_seed, end_to_end, field, mean, measure, med, med_in, num, per_crowd, pooled,
    split_traced, stats,
};

/// The dataset and loop shape of one campaign workload.
#[derive(Clone, Copy, Debug)]
pub struct Shape {
    /// Dataset preset.
    pub preset: &'static str,
    /// Preset scale.
    pub scale: f64,
    /// Questions per loop (µ); `None` keeps the default.
    pub mu: Option<usize>,
}

/// The shape of `workload`, if it is a campaign workload.
pub fn shape(workload: &str) -> Option<Shape> {
    match workload {
        "campaign-deep" => Some(Shape { preset: "I-Y", scale: 1.0, mu: Some(1) }),
        "campaign-wide" => Some(Shape { preset: "D-A", scale: 16.0, mu: None }),
        _ => None,
    }
}

fn config(shape: Shape) -> RempConfig {
    let config = RempConfig::default();
    match shape.mu {
        Some(mu) => config.with_mu(mu),
        None => config,
    }
}

/// Writes the workload's dataset to `dir` as `kb1.nt`, `kb2.nt` and
/// `gold.tsv`. The dataset is the preset's own, fixed like a benchmark
/// dataset; the workload seed draws the crowds.
pub fn write_inputs(shape: Shape, dir: &Path) -> Result<(), String> {
    let spec = preset_by_name(shape.preset, shape.scale).expect("known preset");
    let dataset = generate(&spec);
    export_dataset(&dataset, dir, ExportFormat::NTriples).map_err(|e| e.to_string())?;
    Ok(())
}

/// Stage 1 through the `remp_ergraph` functions, in `prepare`'s order,
/// with one timing per stage.
fn stage1_traced(
    kb1: &remp_kb::Kb,
    kb2: &remp_kb::Kb,
    config: &RempConfig,
) -> (PreparedEr, Vec<(&'static str, f64)>) {
    let par = config.parallelism;
    let mut times = Vec::new();
    let mut t = Instant::now();
    let mut lap = |name: &'static str, t: &mut Instant| {
        times.push((name, t.elapsed().as_secs_f64()));
        *t = Instant::now();
    };
    let pre = generate_candidates(kb1, kb2, config.label_sim_threshold, &par);
    lap("candidates", &mut t);
    let initial_full = initial_matches(kb1, kb2, &pre);
    let alignment = match_attributes(kb1, kb2, &pre, &initial_full, &config.attr);
    lap("attr_alignment", &mut t);
    let vectors_full =
        build_sim_vectors(kb1, kb2, &pre, &alignment, config.literal_threshold, &par);
    lap("sim_vectors", &mut t);
    let retained = prune(&pre, &vectors_full, config.knn_k, &par);
    lap("prune", &mut t);
    let (candidates, mapping) = pre.restrict(&retained);
    let mut sim_vectors = vec![SimVec::new(Vec::new()); candidates.len()];
    for &old in &retained {
        sim_vectors[mapping[&old].index()] = vectors_full[old.index()].clone();
    }
    let initial: Vec<PairId> =
        initial_full.iter().filter_map(|old| mapping.get(old).copied()).collect();
    let graph = ErGraph::build(kb1, kb2, &candidates);
    let components = ComponentIndex::build(&graph);
    lap("graph", &mut t);
    let prep = PreparedEr {
        candidates,
        candidate_count: pre.len(),
        pre_candidates: pre,
        initial,
        alignment,
        sim_vectors,
        graph,
        components,
    };
    (prep, times)
}

/// One full stage-2/3 build on the stage-1 output, as the session's
/// first `next_batch` does it: `(stage, seconds)`.
fn full_build_traced(
    kb1: &remp_kb::Kb,
    kb2: &remp_kb::Kb,
    prep: &PreparedEr,
    config: &RempConfig,
) -> Vec<(&'static str, f64)> {
    let par = config.parallelism;
    let (candidates, graph) = (&prep.candidates, &prep.graph);
    let t = Instant::now();
    let cons = ConsistencyTable::estimate(kb1, kb2, candidates, graph, &prep.initial, &par);
    let consistency_s = t.elapsed().as_secs_f64();
    let t = Instant::now();
    let pg = ProbErGraph::build(kb1, kb2, candidates, graph, &cons, &config.propagation, &par);
    let neighbor_s = t.elapsed().as_secs_f64();
    let t = Instant::now();
    let inferred = inferred_sets_dijkstra(&pg, config.tau, &par);
    let inferred_s = t.elapsed().as_secs_f64();
    let t = Instant::now();
    let eligible: Vec<bool> = candidates.ids().map(|p| !graph.is_isolated_vertex(p)).collect();
    let question_cands: Vec<PairId> = candidates.ids().filter(|&p| eligible[p.index()]).collect();
    let picked = select_batch(
        config.strategy,
        &question_cands,
        &inferred,
        candidates.priors(),
        &eligible,
        config.mu,
        &par,
    );
    std::hint::black_box(picked);
    let select_s = t.elapsed().as_secs_f64();
    vec![
        ("consistency", consistency_s),
        ("neighbor", neighbor_s),
        ("inferred_sets", inferred_s),
        ("select", select_s),
    ]
}

/// Digest of everything a campaign decides: matches, per-pair
/// resolutions, questions and loops.
fn outcome_digest(outcome: &RempOutcome) -> u64 {
    let mut matches = outcome.matches.clone();
    matches.sort_unstable();
    let mut bytes = Vec::new();
    for (u1, u2) in matches {
        bytes.extend_from_slice(&u1.0.to_le_bytes());
        bytes.extend_from_slice(&u2.0.to_le_bytes());
    }
    bytes.extend(outcome.resolutions.iter().map(|r| r.code() as u8));
    bytes.extend_from_slice(&(outcome.questions_asked as u64).to_le_bytes());
    bytes.extend_from_slice(&(outcome.loops as u64).to_le_bytes());
    remp_ingest::framing::fnv1a64(&bytes)
}

fn load(dir: &Path, name: &str) -> Result<LoadedKb, String> {
    load_ntriples(&dir.join(format!("{name}.nt")), name).map_err(|e| e.to_string())
}

/// One campaign, start to finish, in this (fresh) process. Prints
/// nothing; returns the measurements as a JSON object.
pub fn child(
    workload: &str,
    dir: &Path,
    seed: u64,
    traced: bool,
    crowd_index: usize,
) -> Result<Json, String> {
    let shape = shape(workload).ok_or_else(|| format!("{workload} is not a campaign workload"))?;
    let config = config(shape);
    let remp = Remp::new(config.clone());

    // Setup: files on disk → first batch of questions ready.
    let mut setup = Interval::start();
    let l1 = load(dir, "kb1")?;
    let l2 = load(dir, "kb2")?;
    let load_s = setup.read().0;
    // The hidden truth the simulated crowd answers from is not part of
    // the system under test: load it off the clock.
    let gold = setup
        .exclude(|| load_gold(&dir.join("gold.tsv"), &l1.id_map(), &l2.id_map()))
        .map_err(|e| e.to_string())?;
    let (kb1, kb2) = (&l1.kb, &l2.kb);
    let triples = kb1.num_attr_triples()
        + kb1.num_rel_triples()
        + kb2.num_attr_triples()
        + kb2.num_rel_triples();

    let t = Instant::now();
    let mut stage1 = Vec::new();
    let mut full_build = Vec::new();
    let mut components = 0;
    let mut probe_s = 0.0;
    let mut session: RempSession<'_> = if traced {
        let (prep, times) = stage1_traced(kb1, kb2, &config);
        stage1 = times;
        components = prep.components.len();
        let probe = Instant::now();
        full_build = setup.exclude(|| full_build_traced(kb1, kb2, &prep, &config));
        probe_s = probe.elapsed().as_secs_f64();
        remp.begin_prepared(kb1, kb2, prep)
    } else {
        remp.begin(kb1, kb2)
    }
    .map_err(|e| e.to_string())?;
    let begin_s = t.elapsed().as_secs_f64() - probe_s;

    let t = Instant::now();
    let first = session.next_batch().map_err(|e| e.to_string())?;
    let first_batch_s = t.elapsed().as_secs_f64();
    let (setup_s, setup_cpu_s) = setup.read();
    let mut batch = first.ok_or("the campaign asked no questions")?;

    // Campaign: first batch → final outcome.
    let campaign = Interval::start();
    let mut crowd = SimulatedCrowd::paper_default(crowd_seed(seed, crowd_index));
    let (mut submit_s, mut next_batch_s) = (0.0, 0.0);
    let mut gaps_ms = Vec::new();
    loop {
        for q in &batch.questions {
            let labels = crowd.label(gold.contains(&(q.pair.0, q.pair.1)));
            let t = Instant::now();
            session.submit(q.id, labels).map_err(|e| e.to_string())?;
            submit_s += t.elapsed().as_secs_f64();
        }
        // The batch's last answer is in: the crowd now waits for the next.
        let t = Instant::now();
        let next = session.next_batch().map_err(|e| e.to_string())?;
        let gap = t.elapsed().as_secs_f64();
        next_batch_s += gap;
        match next {
            Some(b) => {
                gaps_ms.push(gap * 1e3);
                batch = b;
            }
            None => break,
        }
    }
    let loop_stats: Vec<LoopStat> = session.loop_stats().to_vec();
    let t = Instant::now();
    let outcome = session.finish();
    let finish_s = t.elapsed().as_secs_f64();
    let (campaign_s, campaign_cpu_s) = campaign.read();

    let correct = outcome.matches.iter().filter(|&&(a, b)| gold.contains(&(a, b))).count();
    let f1 = if outcome.matches.is_empty() || gold.is_empty() {
        0.0
    } else {
        2.0 * correct as f64 / (outcome.matches.len() + gold.len()) as f64
    };
    let later = loop_stats.get(1..).unwrap_or(&[]);
    let mean_later = |f: fn(&LoopStat) -> usize| {
        later.iter().map(|s| f(s) as f64).sum::<f64>() / later.len().max(1) as f64
    };
    let full_sources = loop_stats.first().map_or(0, |s| s.refresh.recomputed_sources);

    let pairs =
        |v: &[(&str, f64)]| Json::Obj(v.iter().map(|&(k, s)| (k.into(), Json::from(s))).collect());
    Ok(Json::Obj(vec![
        ("setup_s".into(), Json::from(setup_s)),
        ("campaign_s".into(), Json::from(campaign_s)),
        ("setup_cpu_s".into(), Json::from(setup_cpu_s)),
        ("campaign_cpu_s".into(), Json::from(campaign_cpu_s)),
        ("load_s".into(), Json::from(load_s)),
        ("triples".into(), Json::from(triples)),
        ("begin_s".into(), Json::from(begin_s)),
        ("first_batch_s".into(), Json::from(first_batch_s)),
        ("next_batch_s".into(), Json::from(next_batch_s)),
        ("submit_s".into(), Json::from(submit_s)),
        ("finish_s".into(), Json::from(finish_s)),
        ("gaps_ms".into(), Json::Arr(gaps_ms.into_iter().map(Json::from).collect())),
        ("stage1".into(), pairs(&stage1)),
        ("full_build".into(), pairs(&full_build)),
        ("loops".into(), Json::from(outcome.loops)),
        ("questions".into(), Json::from(outcome.questions_asked)),
        ("labels".into(), Json::from(crowd.labels_collected())),
        ("correct_matches".into(), Json::from(correct)),
        ("f1".into(), Json::from(f1)),
        ("candidate_pairs".into(), Json::from(outcome.candidate_count)),
        ("retained".into(), Json::from(outcome.retained_count)),
        ("edges".into(), Json::from(outcome.edge_count)),
        ("components".into(), Json::from(components)),
        ("dirty_vertices_per_loop".into(), Json::from(mean_later(|s| s.refresh.dirty_vertices))),
        (
            "recomputed_sources_per_loop".into(),
            Json::from(mean_later(|s| s.refresh.recomputed_sources)),
        ),
        ("full_build_sources".into(), Json::from(full_sources)),
        ("digest".into(), Json::from(format!("{:016x}", outcome_digest(&outcome)))),
        ("rss_mb".into(), Json::from(crate::proc::peak_rss_mb(std::process::id()).unwrap_or(0.0))),
    ]))
}

/// Runs the workload: inputs first, then one fresh child process per
/// campaign until `seconds` of measuring are spent.
pub fn run(
    workload: &str,
    shape: Shape,
    seed: u64,
    seconds: f64,
    trace: bool,
    work: &Path,
) -> Outcome {
    let mut out = Outcome::default();
    let dir = work.join("inputs");
    if let Err(e) = write_inputs(shape, &dir) {
        out.attempted = 1;
        out.fail(format!("writing inputs: {e}"));
        return out;
    }
    let runs = measure(workload, seconds, trace, &mut out, |run| {
        let args: Vec<String> = [
            "child-campaign",
            "--workload",
            workload,
            "--dir",
            &dir.display().to_string(),
            "--seed",
            &seed.to_string(),
            "--traced",
            if run.traced { "1" } else { "0" },
            "--crowd",
            &run.crowd.to_string(),
        ]
        .iter()
        .map(|s| s.to_string())
        .collect();
        crate::proc::run_child(&args)
    });
    check(&runs, &mut out);
    summarize(&runs, trace, &mut out);
    out
}

/// Output checks: one outcome digest per crowd across every run of the
/// seed, traced runs included, and traced stage 1 reproducing
/// `Remp::begin`'s candidates, retained pairs and edges.
fn check(runs: &[Json], out: &mut Outcome) {
    let Some(reference) = runs.iter().find(|r| !crate::is_traced(r)) else {
        if !runs.is_empty() {
            out.fail("no untraced run to check traced runs against");
        }
        return;
    };
    for (i, r) in runs.iter().enumerate() {
        let crowd = num(r, "crowd");
        let first = runs.iter().find(|f| num(f, "crowd") == crowd).expect("r itself");
        let (d, want) = (field(r, "digest").as_str(), field(first, "digest").as_str());
        if d != want {
            out.fail(format!(
                "run {i}: outcome digest {d:?} differs from {want:?} (crowd {crowd})"
            ));
        }
        for key in ["retained", "edges", "candidate_pairs"] {
            if num(r, key) != num(reference, key) {
                out.fail(format!(
                    "run {i}: {key} {} differs from Remp::begin's {}",
                    num(r, key),
                    num(reference, key)
                ));
            }
        }
        if num(r, "questions") < 1.0 || num(r, "correct_matches") < 1.0 {
            out.fail(format!("run {i}: the campaign resolved no match"));
        }
    }
}

fn summarize(runs: &[Json], trace: bool, out: &mut Outcome) {
    let (plain, traced) = split_traced(runs);
    end_to_end(&plain, &traced, out, "campaign child");
    if let Some(s) = stats::summarize(&pooled(&plain, "gaps_ms"), 90) {
        out.set("crowd.loop_gap_ms_p50", s.p50, s.n, "next_batch after a batch's last answer");
        out.set("crowd.loop_gap_ms_p90", s.tail, s.n, format!("p{}", s.tail_pct));
    }
    if !trace || traced.is_empty() {
        return;
    }
    let nt = traced.len();
    let load_s = med(&traced, "load_s");
    out.set("ingest.load_s", load_s, nt, "load_ntriples x2");
    out.set("ingest.triples_per_s", med(&traced, "triples") / load_s.max(1e-9), nt, "");
    for (stage, name) in [
        ("candidates", "ergraph.candidates_s"),
        ("attr_alignment", "ergraph.attr_alignment_s"),
        ("sim_vectors", "ergraph.sim_vectors_s"),
        ("prune", "ergraph.prune_s"),
        ("graph", "ergraph.graph_s"),
    ] {
        out.set(name, med_in(&traced, "stage1", stage), nt, "");
    }
    let crowds = per_crowd(&traced);
    let first = crowds[0];
    out.set("ergraph.candidate_pairs", num(first, "candidate_pairs"), 1, "");
    out.set(
        "ergraph.retained_ratio",
        num(first, "retained") / num(first, "candidate_pairs").max(1.0),
        1,
        "",
    );
    out.set("ergraph.edges", num(first, "edges"), 1, "");
    out.set("ergraph.components", num(first, "components"), 1, "");
    for (stage, name) in [
        ("consistency", "propagation.consistency_s"),
        ("neighbor", "propagation.neighbor_s"),
        ("inferred_sets", "propagation.inferred_sets_s"),
        ("select", "selection.select_s"),
    ] {
        out.set(name, med_in(&traced, "full_build", stage), nt, "one full build, initial seeds");
    }
    let nc = crowds.len();
    out.set(
        "propagation.dirty_vertices_per_loop",
        mean(&crowds, "dirty_vertices_per_loop"),
        nc,
        "mean over later loops",
    );
    let recomputed = mean(&crowds, "recomputed_sources_per_loop");
    out.set("propagation.recomputed_sources_per_loop", recomputed, nc, "mean over later loops");
    out.set(
        "propagation.recompute_ratio",
        recomputed / mean(&crowds, "full_build_sources").max(1.0),
        nc,
        "per later loop / full-build sources",
    );
    for (key, name) in [
        ("begin_s", "core.begin_s"),
        ("first_batch_s", "core.first_batch_s"),
        ("next_batch_s", "core.next_batch_s"),
        ("submit_s", "core.submit_s"),
        ("finish_s", "core.finish_s"),
    ] {
        out.set(name, med(&traced, key), nt, "");
    }
    out.set("core.loops", mean(&crowds, "loops"), nc, "mean over the crowds");
    out.set("crowd.labels", mean(&crowds, "labels"), nc, "mean over the crowds");
    let coverage: Vec<f64> = traced
        .iter()
        .map(|r| {
            let leaves: f64 =
                ["load_s", "begin_s", "first_batch_s", "next_batch_s", "submit_s", "finish_s"]
                    .iter()
                    .map(|k| num(r, k))
                    .sum();
            leaves / (num(r, "setup_s") + num(r, "campaign_s"))
        })
        .collect();
    let remainder = "remainder: simulated crowd labels, loop bookkeeping";
    out.set("trace.coverage", stats::median(&coverage).unwrap_or(0.0), nt, remainder);
}
