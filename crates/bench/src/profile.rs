//! Per-stage wall-clock profiling of the pipeline — the engine behind
//! `rempctl bench`.
//!
//! One [`run_pipeline_bench`] call generates a preset dataset, then runs
//! the hot stages (candidate generation, attribute alignment, similarity
//! vectors, pruning, graph construction, consistency estimation, neighbour
//! propagation, inferred-set discovery, batch scoring) plus one full
//! oracle-driven campaign at each requested thread count, timing each
//! stage. The report serializes to the `BENCH_pipeline.json` document the
//! CI bench job uploads and gates on, and doubles as an equivalence smoke
//! check: a run whose question count or F1 differs across thread counts is
//! an error, not a report.

use std::time::Instant;

use remp_core::{evaluate_matches, LoopStat, Remp, RempConfig};
use remp_crowd::OracleCrowd;
use remp_datasets::{generate, preset_by_name, GeneratedDataset};
use remp_ergraph::{
    build_sim_vectors, generate_candidates, initial_matches, match_attributes, prune, ErGraph,
    PairId,
};
use remp_json::Json;
use remp_par::Parallelism;
use remp_propagation::{inferred_sets_dijkstra, ConsistencyTable, ProbErGraph};
use remp_selection::select_batch;

/// Parses a `--threads` list like `"1,2,4"` into thread counts.
///
/// Every count must be at least 1 and appear once: a 0-thread run would
/// pose as the sequential baseline, and two runs at the same count leave
/// the speedup gate comparing an arbitrary one of them.
pub fn parse_thread_list(raw: &str) -> Result<Vec<usize>, String> {
    let mut counts = Vec::new();
    for part in raw.split(',') {
        match part.trim().parse::<usize>() {
            Ok(count) if count > 0 && !counts.contains(&count) => counts.push(count),
            _ => return Err(format!("--threads: {part:?} is not a count >= 1 or is repeated")),
        }
    }
    Ok(counts)
}

/// Parses a `--min-stage-speedup` list like
/// `"prune=1.3,candidates=1.3,sim_vectors=1.2"` into `(stage, floor)`
/// pairs.
pub fn parse_min_stage_speedup(raw: &str) -> Result<Vec<(String, f64)>, String> {
    raw.split(',')
        .map(|part| {
            let part = part.trim();
            let (stage, floor) = part.split_once('=').ok_or_else(|| {
                format!("--min-stage-speedup: expected STAGE=FLOOR, got {part:?}")
            })?;
            let floor: f64 = floor
                .trim()
                .parse()
                .map_err(|_| format!("--min-stage-speedup: bad floor in {part:?}"))?;
            Ok((stage.trim().to_owned(), floor))
        })
        .collect()
}

/// The frozen per-stage sequential wall-clock a later bench run is gated
/// against — extracted from a committed `BENCH_pipeline.json`.
#[derive(Clone, Debug)]
pub struct StageBaseline {
    /// Preset the baseline was measured on.
    pub preset: String,
    /// Scale it was generated at.
    pub scale: f64,
    /// `(stage name, seconds)` of the baseline's sequential run.
    pub stages: Vec<(String, f64)>,
}

impl StageBaseline {
    /// Reads the frozen baseline out of a prior report document.
    ///
    /// A report that already carries a `"baseline"` section (it was
    /// itself gated against one) yields that section verbatim, so the
    /// frozen row survives any number of regenerations. Otherwise the
    /// report's own sequential (1-thread) run becomes the baseline —
    /// errors when there is none: gating against a parallel run would
    /// conflate layout wins with thread-pool overhead.
    pub fn from_report_json(doc: &Json) -> Result<StageBaseline, String> {
        let (context, stages_doc): (&Json, &Json) = match doc.opt_field("baseline")? {
            Some(section) => (section, section.field("stages_s")?),
            None => {
                let sequential = doc
                    .field::<Vec<&Json>>("runs")?
                    .into_iter()
                    .find(|r| r.field::<usize>("threads").is_ok_and(|t| t <= 1))
                    .ok_or("baseline report has no sequential (1-thread) run")?;
                (doc, sequential.field("stages_s")?)
            }
        };
        let stages = stages_doc
            .as_object()
            .ok_or("baseline has no \"stages_s\" object")?
            .iter()
            .map(|(name, secs)| {
                secs.as_f64()
                    .map(|s| (name.clone(), s))
                    .ok_or_else(|| format!("baseline stage {name:?} is not a number"))
            })
            .collect::<Result<Vec<_>, _>>()?;
        Ok(StageBaseline {
            preset: context.opt_field("preset")?.unwrap_or_else(|| "?".to_owned()),
            scale: context.opt_field("scale")?.unwrap_or(0.0),
            stages,
        })
    }

    /// The `"baseline"` section a gated report embeds so the frozen row
    /// persists across regenerations.
    pub fn to_json(&self) -> Json {
        Json::Obj(vec![
            ("preset".into(), Json::from(self.preset.as_str())),
            ("scale".into(), Json::from(self.scale)),
            (
                "stages_s".into(),
                Json::Obj(self.stages.iter().map(|(n, s)| (n.clone(), Json::from(*s))).collect()),
            ),
        ])
    }

    fn stage(&self, name: &str) -> Option<f64> {
        self.stages.iter().find(|(n, _)| n == name).map(|&(_, s)| s)
    }
}

/// What to measure: which preset, at which scale, at which thread counts.
#[derive(Clone, Debug)]
pub struct PipelineBenchOptions {
    /// Dataset preset name (`IIMB`, `D-A`, `I-Y`, `D-Y`, `TINY`).
    pub preset: String,
    /// Preset scale multiplier.
    pub scale: f64,
    /// Thread counts to profile, in order; `1` runs the sequential mode.
    /// The speedup summary compares the sequential (or first) run against
    /// the run with the most threads.
    pub thread_counts: Vec<usize>,
}

impl Default for PipelineBenchOptions {
    fn default() -> Self {
        // D-A at 8x scale: the mid-size workload — a couple of seconds of
        // sequential end-to-end, so stage times dominate thread-pool
        // overhead, while the whole 1/2/4-thread sweep stays CI-friendly.
        PipelineBenchOptions { preset: "D-A".to_owned(), scale: 8.0, thread_counts: vec![1, 2, 4] }
    }
}

/// Wall-clock numbers for one thread count.
#[derive(Clone, Debug)]
pub struct StageProfile {
    /// Worker threads this run was measured with.
    pub threads: usize,
    /// `(stage name, seconds)` in pipeline order.
    pub stages: Vec<(&'static str, f64)>,
    /// Sum of the per-stage times (one pass over stages 1–3).
    pub stage_total: f64,
    /// Full campaign (stage 1 + crowd loop + classifier) wall time.
    pub end_to_end: f64,
    /// Questions the campaign asked (must agree across thread counts).
    pub questions: usize,
    /// Campaign F1 against gold (must agree across thread counts).
    pub f1: f64,
}

/// One human-machine loop of the `loops` scenario: stage-2/3 wall-clock
/// under the incremental engine vs a from-scratch rebuild.
#[derive(Clone, Copy, Debug)]
pub struct LoopBenchRow {
    /// Loop index (0 = the initial full build).
    pub loop_index: usize,
    /// Stage-2 + selection seconds with the incremental engine.
    pub incremental_s: f64,
    /// Stage-2 + selection seconds rebuilding from scratch.
    pub full_s: f64,
    /// Vertices the incremental engine recomputed edges for.
    pub dirty_vertices: usize,
    /// Dijkstra sources the incremental engine re-ran.
    pub recomputed_sources: usize,
}

/// The `loops` scenario: the same oracle campaign driven twice — once on
/// the incremental engine, once forcing a from-scratch stage-2 rebuild
/// every loop — with per-loop wall-clock side by side. The campaigns are
/// bit-identical (question counts are verified); only the time to produce
/// each batch differs.
#[derive(Clone, Debug)]
pub struct LoopsBench {
    /// Worker threads the scenario ran with.
    pub threads: usize,
    /// Questions both campaigns asked (must agree — equivalence check).
    pub questions: usize,
    /// One row per propagation pass.
    pub rows: Vec<LoopBenchRow>,
    /// Full per-loop stats of the incremental campaign.
    pub incremental_stats: Vec<LoopStat>,
}

impl LoopsBench {
    /// Mean per-loop seconds after the first loop, `(incremental, full)` —
    /// the headline of the scenario: from loop 1 on, the incremental
    /// engine pays for the changed region only.
    pub fn steady_state_means(&self) -> Option<(f64, f64)> {
        let tail = self.rows.get(1..)?;
        if tail.is_empty() {
            return None;
        }
        let n = tail.len() as f64;
        Some((
            tail.iter().map(|r| r.incremental_s).sum::<f64>() / n,
            tail.iter().map(|r| r.full_s).sum::<f64>() / n,
        ))
    }

    /// The scenario's JSON section in `BENCH_pipeline.json`.
    pub fn to_json(&self) -> Json {
        let rows = self
            .rows
            .iter()
            .map(|r| {
                Json::Obj(vec![
                    ("loop".into(), Json::from(r.loop_index)),
                    ("incremental_s".into(), Json::from(r.incremental_s)),
                    ("full_s".into(), Json::from(r.full_s)),
                    ("dirty_vertices".into(), Json::from(r.dirty_vertices)),
                    ("recomputed_sources".into(), Json::from(r.recomputed_sources)),
                ])
            })
            .collect();
        let mut fields = vec![
            ("threads".into(), Json::from(self.threads)),
            ("questions".into(), Json::from(self.questions)),
            ("rows".into(), Json::Arr(rows)),
            (
                "incremental_total_s".into(),
                Json::from(self.rows.iter().map(|r| r.incremental_s).sum::<f64>()),
            ),
            ("full_total_s".into(), Json::from(self.rows.iter().map(|r| r.full_s).sum::<f64>())),
            (
                "incremental_detail".into(),
                Json::Arr(self.incremental_stats.iter().map(LoopStat::to_json).collect()),
            ),
        ];
        if let Some((inc, full)) = self.steady_state_means() {
            fields.push(("steady_state_incremental_s".into(), Json::from(inc)));
            fields.push(("steady_state_full_s".into(), Json::from(full)));
            fields.push((
                "steady_state_speedup".into(),
                Json::from(if inc > 0.0 { full / inc } else { 1.0 }),
            ));
        }
        Json::Obj(fields)
    }
}

/// The `observability` scenario: the same oracle campaign end-to-end
/// with instrumentation enabled vs disabled (best of
/// [`OBS_OVERHEAD_ATTEMPTS`] runs each) — the guard on the tracing
/// layer's "negligible when on, free when off" claim.
#[derive(Clone, Copy, Debug)]
pub struct ObsOverheadBench {
    /// Best end-to-end campaign seconds with metrics/spans recording on.
    pub instrumented_s: f64,
    /// Best end-to-end campaign seconds with the global switch off.
    pub disabled_s: f64,
}

impl ObsOverheadBench {
    /// Instrumentation overhead in percent (negative when the
    /// instrumented run happened to be faster — measurement noise).
    pub fn overhead_pct(&self) -> f64 {
        if self.disabled_s <= 0.0 {
            return 0.0;
        }
        (self.instrumented_s / self.disabled_s - 1.0) * 100.0
    }

    /// The scenario's JSON section in `BENCH_pipeline.json`.
    pub fn to_json(&self) -> Json {
        Json::Obj(vec![
            ("instrumented_s".into(), Json::from(self.instrumented_s)),
            ("disabled_s".into(), Json::from(self.disabled_s)),
            ("overhead_pct".into(), Json::from(self.overhead_pct())),
        ])
    }
}

/// The full measurement: one [`StageProfile`] per requested thread count,
/// plus the `loops` scenario (incremental vs from-scratch per-loop cost).
#[derive(Clone, Debug)]
pub struct PipelineBenchReport {
    /// Preset that was measured.
    pub preset: String,
    /// Scale it was generated at.
    pub scale: f64,
    /// `std::thread::available_parallelism` on the measuring host — the
    /// context needed to read the speedup numbers (a 4-thread run cannot
    /// beat sequential on a single-core host).
    pub host_threads: usize,
    /// One profile per thread count, in the order requested.
    pub runs: Vec<StageProfile>,
    /// The `loops` scenario, run at the first requested thread count.
    pub loops: LoopsBench,
    /// The `observability` scenario: instrumented vs disabled overhead,
    /// run at the first requested thread count.
    pub observability: ObsOverheadBench,
    /// The frozen baseline this run was gated against, when one was
    /// supplied — serialized into the report so the row persists across
    /// regenerations and the document carries its own before/after rows.
    pub baseline: Option<StageBaseline>,
    /// Peak resident set size of the measuring process (`VmHWM`), in
    /// bytes, sampled after the runs — `None` off Linux. Memory context
    /// for the timings, same source as the `remp_peak_rss_bytes` gauge.
    pub peak_rss_bytes: Option<u64>,
}

impl PipelineBenchReport {
    /// The baseline run: the first with one thread, else the first.
    pub fn sequential(&self) -> &StageProfile {
        self.runs.iter().find(|r| r.threads <= 1).unwrap_or(&self.runs[0])
    }

    /// The most-parallel run (largest thread count).
    pub fn parallel(&self) -> &StageProfile {
        self.runs.iter().max_by_key(|r| r.threads).expect("at least one run")
    }

    /// End-to-end speedup of the most-parallel run over the baseline.
    pub fn speedup(&self) -> f64 {
        let par = self.parallel().end_to_end;
        if par <= 0.0 {
            return 1.0;
        }
        self.sequential().end_to_end / par
    }

    /// The `--min-speedup` regression gate of `rempctl bench`: errors
    /// when the end-to-end speedup of the most-parallel run over the
    /// *sequential* run falls below `floor`.
    ///
    /// Requires an actual 1-thread run in the report — without one the
    /// "baseline" would be some parallel run (in the degenerate single
    /// thread-count case the most-parallel run itself, speedup ≡ 1.0) and
    /// the gate could never fail, silently waving regressions through.
    pub fn check_min_speedup(&self, floor: f64) -> Result<(), String> {
        if !self.runs.iter().any(|r| r.threads <= 1) {
            return Err(
                "the speedup gate needs a sequential baseline: include 1 in --threads".into()
            );
        }
        let speedup = self.speedup();
        if speedup < floor {
            return Err(format!(
                "regression gate failed: end-to-end speedup {speedup:.2}x at {} threads is \
                 below the required {floor:.2}x",
                self.parallel().threads
            ));
        }
        Ok(())
    }

    /// Per-stage before/after rows of this report's *sequential* run
    /// against a frozen [`StageBaseline`]: `(stage, baseline_s,
    /// current_s, speedup)`, in this report's stage order. Stages absent
    /// from the baseline (new stages) carry no speedup.
    pub fn stage_delta(
        &self,
        baseline: &StageBaseline,
    ) -> Vec<(String, Option<f64>, f64, Option<f64>)> {
        self.sequential()
            .stages
            .iter()
            .map(|&(name, current_s)| {
                let baseline_s = baseline.stage(name);
                let speedup =
                    baseline_s.filter(|_| current_s > 0.0).map(|before| before / current_s);
                (name.to_owned(), baseline_s, current_s, speedup)
            })
            .collect()
    }

    /// The `BENCH_stage_delta.json` document the CI bench job uploads:
    /// one row per stage of the sequential run, before/after/speedup.
    pub fn stage_delta_json(&self, baseline: &StageBaseline) -> Json {
        let rows = self
            .stage_delta(baseline)
            .into_iter()
            .map(|(stage, baseline_s, current_s, speedup)| {
                let opt = |v: Option<f64>| v.map(Json::from).unwrap_or(Json::Null);
                Json::Obj(vec![
                    ("stage".into(), Json::from(stage.as_str())),
                    ("baseline_s".into(), opt(baseline_s)),
                    ("current_s".into(), Json::from(current_s)),
                    ("speedup".into(), opt(speedup)),
                ])
            })
            .collect();
        let baseline_total: f64 = baseline.stages.iter().map(|&(_, s)| s).sum();
        let current_total = self.sequential().stage_total;
        Json::Obj(vec![
            ("preset".into(), Json::from(self.preset.as_str())),
            ("scale".into(), Json::from(self.scale)),
            ("baseline_preset".into(), Json::from(baseline.preset.as_str())),
            ("baseline_scale".into(), Json::from(baseline.scale)),
            ("rows".into(), Json::Arr(rows)),
            ("baseline_stage_total_s".into(), Json::from(baseline_total)),
            ("current_stage_total_s".into(), Json::from(current_total)),
            (
                "stage_total_speedup".into(),
                Json::from(if current_total > 0.0 { baseline_total / current_total } else { 1.0 }),
            ),
        ])
    }

    /// The per-stage regression gate: for every `(stage, floor)` pair the
    /// sequential run must be at least `floor`× faster than the baseline's
    /// sequential time for that stage. A floor naming a stage missing from
    /// either side is an error too — a renamed stage must not silently
    /// disarm its gate. Requires an actual 1-thread run, like
    /// [`check_min_speedup`](Self::check_min_speedup).
    pub fn check_min_stage_speedup(
        &self,
        baseline: &StageBaseline,
        floors: &[(String, f64)],
    ) -> Result<(), String> {
        if !self.runs.iter().any(|r| r.threads <= 1) {
            return Err(
                "the stage-speedup gate needs a sequential baseline: include 1 in --threads".into(),
            );
        }
        if baseline.preset != self.preset || baseline.scale != self.scale {
            return Err(format!(
                "stage-speedup gate compares different workloads: baseline is {} (scale {}), \
                 this run is {} (scale {})",
                baseline.preset, baseline.scale, self.preset, self.scale
            ));
        }
        let delta = self.stage_delta(baseline);
        let mut failures = Vec::new();
        for (stage, floor) in floors {
            let Some((_, baseline_s, current_s, speedup)) =
                delta.iter().find(|(name, ..)| name == stage)
            else {
                failures.push(format!("stage {stage:?} is not in this report"));
                continue;
            };
            let Some(before) = baseline_s else {
                failures.push(format!("stage {stage:?} is not in the baseline report"));
                continue;
            };
            let speedup = speedup.unwrap_or(f64::INFINITY);
            if speedup < *floor {
                failures.push(format!(
                    "stage {stage}: {before:.4}s -> {current_s:.4}s is {speedup:.2}x, \
                     below the required {floor:.2}x"
                ));
            }
        }
        if failures.is_empty() {
            Ok(())
        } else {
            Err(format!("per-stage regression gate failed: {}", failures.join("; ")))
        }
    }

    /// The observability-overhead gate: errors when the instrumented
    /// campaign is more than `max_pct` percent slower than the same
    /// campaign with instrumentation disabled.
    pub fn check_max_obs_overhead(&self, max_pct: f64) -> Result<(), String> {
        let pct = self.observability.overhead_pct();
        if pct > max_pct {
            return Err(format!(
                "observability overhead gate failed: instrumented campaign is {pct:.1}% slower \
                 than disabled ({:.3}s vs {:.3}s), above the allowed {max_pct:.1}%",
                self.observability.instrumented_s, self.observability.disabled_s
            ));
        }
        Ok(())
    }

    /// Human-readable per-run summary, one line per entry.
    pub fn summary_lines(&self) -> Vec<String> {
        let mut lines = vec![format!(
            "pipeline bench: {} (scale {}) on a host with {} hardware thread(s)",
            self.preset, self.scale, self.host_threads
        )];
        for run in &self.runs {
            lines.push(format!(
                "  {} thread(s): stages {:.2}s, end-to-end {:.2}s ({} questions, F1 {:.3})",
                run.threads, run.stage_total, run.end_to_end, run.questions, run.f1
            ));
        }
        lines.push(format!(
            "  speedup at {} threads vs sequential: {:.2}x",
            self.parallel().threads,
            self.speedup()
        ));
        lines.push(format!(
            "  loops scenario ({} loops, {} questions): first loop {:.3}s",
            self.loops.rows.len(),
            self.loops.questions,
            self.loops.rows.first().map(|r| r.incremental_s).unwrap_or(0.0),
        ));
        if let Some((inc, full)) = self.loops.steady_state_means() {
            lines.push(format!(
                "  per-loop stage 2+3 after the first loop: incremental {:.4}s vs \
                 from-scratch {:.4}s ({:.1}x)",
                inc,
                full,
                if inc > 0.0 { full / inc } else { 1.0 }
            ));
        }
        lines.push(format!(
            "  observability overhead: instrumented {:.3}s vs disabled {:.3}s ({:+.1}%)",
            self.observability.instrumented_s,
            self.observability.disabled_s,
            self.observability.overhead_pct()
        ));
        lines
    }

    /// The `BENCH_pipeline.json` document.
    pub fn to_json(&self) -> Json {
        let runs = self
            .runs
            .iter()
            .map(|r| {
                Json::Obj(vec![
                    ("threads".into(), Json::from(r.threads)),
                    (
                        "stages_s".into(),
                        Json::Obj(
                            r.stages
                                .iter()
                                .map(|&(name, secs)| (name.to_owned(), Json::from(secs)))
                                .collect(),
                        ),
                    ),
                    ("stage_total_s".into(), Json::from(r.stage_total)),
                    ("end_to_end_s".into(), Json::from(r.end_to_end)),
                    ("questions".into(), Json::from(r.questions)),
                    ("f1".into(), Json::from(r.f1)),
                ])
            })
            .collect();
        let mut fields = vec![
            ("preset".into(), Json::from(self.preset.as_str())),
            ("scale".into(), Json::from(self.scale)),
            ("host_threads".into(), Json::from(self.host_threads)),
            ("runs".into(), Json::Arr(runs)),
            ("sequential_end_to_end_s".into(), Json::from(self.sequential().end_to_end)),
            ("parallel_threads".into(), Json::from(self.parallel().threads)),
            ("parallel_end_to_end_s".into(), Json::from(self.parallel().end_to_end)),
            ("speedup_parallel_vs_sequential".into(), Json::from(self.speedup())),
            ("loops".into(), self.loops.to_json()),
            ("observability".into(), self.observability.to_json()),
        ];
        if let Some(rss) = self.peak_rss_bytes {
            fields.push(("peak_rss_bytes".into(), Json::from(rss)));
        }
        if let Some(baseline) = &self.baseline {
            fields.push(("baseline".into(), baseline.to_json()));
            fields.push(("stage_delta".into(), self.stage_delta_json(baseline)));
        }
        Json::Obj(fields)
    }
}

/// Times one stage through [`remp_obs::time_stage`], so a bench run feeds
/// the same `remp_stage_seconds` histogram (and any active trace) as a
/// production campaign, while the report keeps its own copy of the
/// measurement.
fn timed<T>(stages: &mut Vec<(&'static str, f64)>, name: &'static str, f: impl FnOnce() -> T) -> T {
    let (out, secs) = remp_obs::time_stage(name, f);
    stages.push((name, secs));
    out
}

/// Profiles every hot stage plus one full campaign at one thread count.
fn profile_run(dataset: &GeneratedDataset, threads: usize) -> StageProfile {
    let par = if threads <= 1 { Parallelism::Sequential } else { Parallelism::Fixed(threads) };
    let config = RempConfig::default().with_parallelism(par);
    let (kb1, kb2) = (&dataset.kb1, &dataset.kb2);
    let mut stages: Vec<(&'static str, f64)> = Vec::new();

    // Stage 1, piece by piece (mirrors `prepare`).
    let pre = timed(&mut stages, "candidates", || {
        generate_candidates(kb1, kb2, config.label_sim_threshold, &par)
    });
    let (initial_full, alignment) = timed(&mut stages, "attr_alignment", || {
        let initial = initial_matches(kb1, kb2, &pre);
        let alignment = match_attributes(kb1, kb2, &pre, &initial, &config.attr);
        (initial, alignment)
    });
    let vectors = timed(&mut stages, "sim_vectors", || {
        build_sim_vectors(kb1, kb2, &pre, &alignment, config.literal_threshold, &par)
    });
    let retained = timed(&mut stages, "prune", || prune(&pre, &vectors, config.knn_k, &par));
    let (candidates, initial, graph) = timed(&mut stages, "graph", || {
        let (candidates, mapping) = pre.restrict(&retained);
        let initial: Vec<PairId> =
            initial_full.iter().filter_map(|old| mapping.get(old).copied()).collect();
        let graph = ErGraph::build(kb1, kb2, &candidates);
        (candidates, initial, graph)
    });

    // Stages 2–3, one loop's worth over the initial seeds.
    let cons = timed(&mut stages, "consistency", || {
        ConsistencyTable::estimate(kb1, kb2, &candidates, &graph, &initial, &par)
    });
    let pg = timed(&mut stages, "propagation", || {
        ProbErGraph::build(kb1, kb2, &candidates, &graph, &cons, &config.propagation, &par)
    });
    let inferred =
        timed(&mut stages, "inferred_sets", || inferred_sets_dijkstra(&pg, config.tau, &par));
    timed(&mut stages, "selection", || {
        let eligible: Vec<bool> = candidates.ids().map(|p| !graph.is_isolated_vertex(p)).collect();
        let question_cands: Vec<PairId> =
            candidates.ids().filter(|&p| eligible[p.index()]).collect();
        let priors: Vec<f64> = candidates.ids().map(|p| candidates.prior(p)).collect();
        select_batch(
            config.strategy,
            &question_cands,
            &inferred,
            &priors,
            &eligible,
            config.mu,
            &par,
        )
    });
    let stage_total = stages.iter().map(|&(_, s)| s).sum();

    // The full campaign (stage 1 rebuilt + every loop + classifier),
    // driven by an oracle so the workload is identical per thread count.
    let started = Instant::now();
    let remp = Remp::new(config);
    let mut crowd = OracleCrowd::new();
    let outcome = remp.run(kb1, kb2, &|u1, u2| dataset.is_match(u1, u2), &mut crowd);
    let end_to_end = started.elapsed().as_secs_f64();
    let f1 = evaluate_matches(outcome.matches.iter().copied(), &dataset.gold).f1;

    StageProfile {
        threads,
        stages,
        stage_total,
        end_to_end,
        questions: outcome.questions_asked,
        f1,
    }
}

/// Drives one oracle campaign through the session API and returns its
/// per-loop stats and question count.
fn campaign_loop_stats(
    dataset: &GeneratedDataset,
    threads: usize,
    incremental: bool,
) -> (Vec<LoopStat>, usize) {
    let par = if threads <= 1 { Parallelism::Sequential } else { Parallelism::Fixed(threads) };
    let config = RempConfig::default().with_parallelism(par);
    let remp = Remp::new(config);
    let mut session = remp.begin(&dataset.kb1, &dataset.kb2).expect("default config is valid");
    session.set_incremental(incremental);
    let mut crowd = OracleCrowd::new();
    session
        .drive(&|u1, u2| dataset.is_match(u1, u2), &mut crowd)
        .expect("draining a fresh session cannot hit caller-protocol errors");
    (session.loop_stats().to_vec(), session.questions_asked())
}

/// Runs each overhead mode this many times and keeps the fastest run —
/// the standard way to cut scheduler noise out of a small timing delta.
pub const OBS_OVERHEAD_ATTEMPTS: usize = 3;

/// One full oracle campaign, returning its wall-clock and question count.
fn campaign_seconds(dataset: &GeneratedDataset, threads: usize) -> (f64, usize) {
    let par = if threads <= 1 { Parallelism::Sequential } else { Parallelism::Fixed(threads) };
    let remp = Remp::new(RempConfig::default().with_parallelism(par));
    let mut crowd = OracleCrowd::new();
    let started = Instant::now();
    let outcome =
        remp.run(&dataset.kb1, &dataset.kb2, &|u1, u2| dataset.is_match(u1, u2), &mut crowd);
    (started.elapsed().as_secs_f64(), outcome.questions_asked)
}

/// The `observability` scenario: the same campaign, best of
/// [`OBS_OVERHEAD_ATTEMPTS`] runs with instrumentation on, then off.
/// Restores the global instrumentation switch it found. Errors when the
/// two modes disagree on the question count — instrumentation must be
/// observation-only.
fn profile_obs_overhead(
    dataset: &GeneratedDataset,
    threads: usize,
) -> Result<ObsOverheadBench, String> {
    let previous = remp_obs::enabled();
    let best_of = |enabled: bool| {
        remp_obs::set_enabled(enabled);
        let mut best = f64::INFINITY;
        let mut questions = 0usize;
        for _ in 0..OBS_OVERHEAD_ATTEMPTS {
            let (secs, q) = campaign_seconds(dataset, threads);
            best = best.min(secs);
            questions = q;
        }
        (best, questions)
    };
    let (instrumented_s, instrumented_q) = best_of(true);
    let (disabled_s, disabled_q) = best_of(false);
    remp_obs::set_enabled(previous);
    if instrumented_q != disabled_q {
        return Err(format!(
            "observability equivalence violated: instrumented campaign asked {instrumented_q} \
             questions, disabled asked {disabled_q}"
        ));
    }
    Ok(ObsOverheadBench { instrumented_s, disabled_s })
}

/// The `loops` scenario: the campaign once incremental, once from
/// scratch, rows zipped per loop. Errors when the two campaigns disagree
/// on questions or loop count (they must be bit-identical).
fn profile_loops(dataset: &GeneratedDataset, threads: usize) -> Result<LoopsBench, String> {
    let (incremental_stats, incremental_questions) = campaign_loop_stats(dataset, threads, true);
    let (full_stats, full_questions) = campaign_loop_stats(dataset, threads, false);
    if incremental_questions != full_questions || incremental_stats.len() != full_stats.len() {
        return Err(format!(
            "loops scenario equivalence violated: incremental asked {incremental_questions} \
             questions over {} loops, from-scratch {full_questions} over {}",
            incremental_stats.len(),
            full_stats.len()
        ));
    }
    let rows = incremental_stats
        .iter()
        .zip(&full_stats)
        .map(|(inc, full)| LoopBenchRow {
            loop_index: inc.loop_index,
            incremental_s: inc.total_s(),
            full_s: full.total_s(),
            dirty_vertices: inc.refresh.dirty_vertices,
            recomputed_sources: inc.refresh.recomputed_sources,
        })
        .collect();
    Ok(LoopsBench { threads, questions: incremental_questions, rows, incremental_stats })
}

/// Runs the pipeline benchmark: one [`StageProfile`] per thread count on
/// a freshly generated preset, plus the `loops` scenario at the first
/// requested thread count.
///
/// Errors on an unknown preset, an empty thread list, or — the built-in
/// equivalence smoke check — when any run's question count or F1 deviates
/// from the baseline's.
pub fn run_pipeline_bench(opts: &PipelineBenchOptions) -> Result<PipelineBenchReport, String> {
    if opts.thread_counts.is_empty() {
        return Err("no thread counts requested".into());
    }
    let spec = preset_by_name(&opts.preset, opts.scale)
        .ok_or_else(|| format!("unknown preset {:?}", opts.preset))?;
    let dataset = generate(&spec);

    let runs: Vec<StageProfile> =
        opts.thread_counts.iter().map(|&t| profile_run(&dataset, t)).collect();
    let loops = profile_loops(&dataset, opts.thread_counts[0])?;
    let observability = profile_obs_overhead(&dataset, opts.thread_counts[0])?;
    let baseline = &runs[0];
    for run in &runs[1..] {
        if run.questions != baseline.questions || (run.f1 - baseline.f1).abs() > 1e-12 {
            return Err(format!(
                "thread-count equivalence violated: {} threads asked {} questions (F1 {}), \
                 {} threads asked {} (F1 {})",
                baseline.threads,
                baseline.questions,
                baseline.f1,
                run.threads,
                run.questions,
                run.f1
            ));
        }
    }

    Ok(PipelineBenchReport {
        preset: opts.preset.clone(),
        scale: opts.scale,
        host_threads: std::thread::available_parallelism().map(|n| n.get()).unwrap_or(1),
        runs,
        loops,
        observability,
        baseline: None,
        peak_rss_bytes: remp_obs::sample_peak_rss(),
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn bench_runs_on_the_tiny_preset() {
        let opts =
            PipelineBenchOptions { preset: "TINY".into(), scale: 1.0, thread_counts: vec![1, 2] };
        let report = run_pipeline_bench(&opts).expect("TINY bench runs");
        assert_eq!(report.runs.len(), 2);
        assert_eq!(report.sequential().threads, 1);
        assert_eq!(report.parallel().threads, 2);
        assert!(report.speedup() > 0.0);
        let doc = report.to_json();
        assert!(doc.get("runs").is_some());
        assert!(doc.get("speedup_parallel_vs_sequential").is_some());
        // The loops scenario is part of every report: both campaigns ran,
        // agreed on the question count, and produced per-loop rows.
        let loops = doc.get("loops").expect("loops scenario in the report");
        assert!(loops.get("rows").and_then(Json::as_array).is_some_and(|r| !r.is_empty()));
        assert_eq!(loops.field::<usize>("questions"), Ok(report.runs[0].questions));
        // The observability scenario is part of every report: both modes
        // ran and the overhead row is serialized.
        let obs = doc.get("observability").expect("observability scenario in the report");
        assert!(obs.get("instrumented_s").and_then(Json::as_f64).is_some_and(|s| s > 0.0));
        assert!(obs.get("disabled_s").and_then(Json::as_f64).is_some_and(|s| s > 0.0));
        assert!(obs.get("overhead_pct").and_then(Json::as_f64).is_some());
        // A generous gate always passes; an impossible one always fails.
        assert!(report.check_max_obs_overhead(f64::INFINITY).is_ok());
        assert!(report.check_max_obs_overhead(f64::NEG_INFINITY).is_err());
        // Stage names are stable — the CI gate and docs key off them.
        let names: Vec<&str> = report.runs[0].stages.iter().map(|&(n, _)| n).collect();
        assert_eq!(
            names,
            [
                "candidates",
                "attr_alignment",
                "sim_vectors",
                "prune",
                "graph",
                "consistency",
                "propagation",
                "inferred_sets",
                "selection"
            ]
        );
    }

    #[test]
    fn speedup_gate_requires_a_sequential_baseline() {
        let opts =
            PipelineBenchOptions { preset: "TINY".into(), scale: 1.0, thread_counts: vec![2, 4] };
        let report = run_pipeline_bench(&opts).expect("TINY bench runs");
        // Without a 1-thread run the gate must refuse rather than compare
        // the most-parallel run against another parallel run.
        let err = report.check_min_speedup(1.0).unwrap_err();
        assert!(err.contains("sequential baseline"), "{err}");

        let with_baseline =
            run_pipeline_bench(&PipelineBenchOptions { thread_counts: vec![1, 2], ..opts })
                .expect("TINY bench runs");
        assert!(with_baseline.check_min_speedup(0.0).is_ok());
        let err = with_baseline.check_min_speedup(f64::INFINITY).unwrap_err();
        assert!(err.contains("regression gate failed"), "{err}");
    }

    #[test]
    fn thread_lists_parse() {
        assert_eq!(parse_thread_list("1,2,4").unwrap(), vec![1, 2, 4]);
        assert_eq!(parse_thread_list(" 8 ").unwrap(), vec![8]);
        assert!(parse_thread_list("1,x").is_err());
        assert!(parse_thread_list("0,2").is_err());
        assert!(parse_thread_list("1,1").is_err());
        assert!(parse_thread_list("1,2, 2").is_err());
    }

    #[test]
    fn stage_speedup_lists_parse() {
        assert_eq!(
            parse_min_stage_speedup("prune=1.3, candidates=1.3,sim_vectors=1.2").unwrap(),
            vec![
                ("prune".to_owned(), 1.3),
                ("candidates".to_owned(), 1.3),
                ("sim_vectors".to_owned(), 1.2)
            ]
        );
        assert!(parse_min_stage_speedup("prune").is_err());
        assert!(parse_min_stage_speedup("prune=fast").is_err());
    }

    #[test]
    fn stage_gate_compares_against_a_frozen_baseline() {
        let opts =
            PipelineBenchOptions { preset: "TINY".into(), scale: 1.0, thread_counts: vec![1] };
        let report = run_pipeline_bench(&opts).expect("TINY bench runs");

        // Round-trip the report through its own JSON as the "committed"
        // baseline: every stage is then exactly 1.0x.
        let doc = Json::parse(&report.to_json().to_string()).expect("report JSON parses");
        let baseline = StageBaseline::from_report_json(&doc).expect("sequential run present");
        assert_eq!(baseline.preset, "TINY");
        assert_eq!(baseline.stages.len(), report.sequential().stages.len());

        // A 1.0x-vs-itself comparison passes any floor <= 1 and fails any
        // floor > 1 (modulo f64 round-trip jitter, hence 0.5/2.0).
        report
            .check_min_stage_speedup(&baseline, &[("prune".into(), 0.5)])
            .expect("self-comparison clears a 0.5x floor");
        let err = report
            .check_min_stage_speedup(&baseline, &[("prune".into(), 2.0)])
            .expect_err("self-comparison cannot double");
        assert!(err.contains("stage prune"), "{err}");
        // Unknown stages must fail loudly, not disarm the gate.
        let err = report
            .check_min_stage_speedup(&baseline, &[("warp_drive".into(), 1.0)])
            .expect_err("unknown stage");
        assert!(err.contains("warp_drive"), "{err}");

        // The delta artifact carries one row per stage with both sides.
        let delta = report.stage_delta_json(&baseline);
        let rows = delta.get("rows").and_then(Json::as_array).expect("rows");
        assert_eq!(rows.len(), report.sequential().stages.len());
        assert!(rows.iter().all(|r| r.get("speedup").and_then(Json::as_f64).is_some()));

        // A mismatched workload is refused outright.
        let other = StageBaseline { preset: "D-A".into(), ..baseline.clone() };
        let err = report
            .check_min_stage_speedup(&other, &[("prune".into(), 0.5)])
            .expect_err("different preset");
        assert!(err.contains("different workloads"), "{err}");

        // A gated report embeds the frozen row; re-reading such a report
        // as the next baseline yields the *frozen* times, not the
        // report's own fresh run — the baseline survives regeneration.
        let mut gated = report.clone();
        let frozen = StageBaseline { stages: vec![("prune".into(), 123.0)], ..baseline.clone() };
        gated.baseline = Some(frozen);
        let doc = Json::parse(&gated.to_json().to_string()).expect("gated report JSON parses");
        assert!(doc.get("stage_delta").is_some(), "gated report carries before/after rows");
        let reread = StageBaseline::from_report_json(&doc).expect("baseline section wins");
        assert_eq!(reread.stages, vec![("prune".to_owned(), 123.0)]);
    }

    #[test]
    fn stage_baseline_requires_a_sequential_run() {
        let opts =
            PipelineBenchOptions { preset: "TINY".into(), scale: 1.0, thread_counts: vec![2] };
        let report = run_pipeline_bench(&opts).expect("TINY bench runs");
        let doc = Json::parse(&report.to_json().to_string()).expect("report JSON parses");
        let err = StageBaseline::from_report_json(&doc).expect_err("no 1-thread run");
        assert!(err.contains("sequential"), "{err}");
    }

    #[test]
    fn unknown_preset_is_an_error() {
        let opts =
            PipelineBenchOptions { preset: "NOPE".into(), ..PipelineBenchOptions::default() };
        assert!(run_pipeline_bench(&opts).is_err());
        let empty = PipelineBenchOptions { thread_counts: vec![], ..Default::default() };
        assert!(run_pipeline_bench(&empty).is_err());
    }
}
