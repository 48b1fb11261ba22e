//! `SimulatedCrowd` over the wire: named simulated workers, the
//! in-process reference run, and the HTTP drive loop.
//!
//! The point of this module is the **end-to-end equivalence proof**: a
//! campaign driven entirely over HTTP by [`drive`] with a seeded
//! [`WireCrowd`] produces bit-identical resolutions, question order and
//! submission log to [`reference_outcome`] — the same worker stream fed
//! straight into a [`RempSession`] with the same online quality
//! estimator, no server anywhere. `rempctl drive --verify` and the
//! integration tests both assert it.
//!
//! [`WireCrowd`] is [`SimulatedCrowd`](remp_crowd::SimulatedCrowd) with
//! identities: qualities are drawn the same way, but each label is
//! attributed to a *named* worker (`w0`, `w1`, ...) so the server can
//! enforce per-question distinctness and estimate per-worker quality —
//! exactly what an MTurk deployment sees (worker ids, no oracle
//! qualities).

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

use remp_core::{QuestionId, Remp, RempConfig, RempError, RempOutcome, RempSession};
use remp_crowd::{Label, Verdict, WorkerQualityEstimator};
use remp_json::Json;
use remp_kb::{EntityId, Kb};

use crate::client::{ClientError, ServeClient};
use crate::engine::CrowdPolicy;
use crate::wire::SubmittedRecord;

/// Worker-pool shape for a simulated wire crowd.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct CrowdParams {
    /// Pool size.
    pub workers: usize,
    /// Lower quality bound.
    pub min_quality: f64,
    /// Upper quality bound.
    pub max_quality: f64,
    /// Distinct workers answering each question.
    pub per_question: usize,
    /// RNG seed.
    pub seed: u64,
}

impl CrowdParams {
    /// The paper-style default pool (100 workers, qualities in
    /// [0.8, 0.99], 5 answers per question).
    pub fn paper_default(seed: u64) -> CrowdParams {
        CrowdParams { workers: 100, min_quality: 0.8, max_quality: 0.99, per_question: 5, seed }
    }
}

/// A pool of named simulated workers answering by their hidden true
/// quality. Deterministic under its seed.
#[derive(Clone, Debug)]
pub struct WireCrowd {
    qualities: Vec<f64>,
    per_question: usize,
    rng: StdRng,
}

impl WireCrowd {
    /// Creates the pool.
    ///
    /// # Panics
    ///
    /// On the same degenerate inputs `SimulatedCrowd` rejects, plus
    /// `workers < per_question` (distinct workers must exist).
    pub fn new(params: &CrowdParams) -> WireCrowd {
        assert!(params.workers > 0, "a crowd needs at least one worker");
        assert!(params.per_question > 0, "each question needs at least one answer");
        assert!(
            params.workers >= params.per_question,
            "{} workers cannot give {} distinct answers per question",
            params.workers,
            params.per_question
        );
        assert!(
            (0.0..=1.0).contains(&params.min_quality)
                && (0.0..=1.0).contains(&params.max_quality)
                && params.min_quality <= params.max_quality,
            "worker qualities are probabilities; got [{}, {}]",
            params.min_quality,
            params.max_quality
        );
        let mut rng = StdRng::seed_from_u64(params.seed);
        let qualities = (0..params.workers)
            .map(|_| rng.gen_range(params.min_quality..=params.max_quality))
            .collect();
        WireCrowd { qualities, per_question: params.per_question, rng }
    }

    /// Draws the answers for one question with hidden truth `truth`:
    /// `per_question` distinct workers, each answering correctly with
    /// their hidden quality.
    pub fn answers(&mut self, truth: bool) -> Vec<(String, bool)> {
        let mut chosen: Vec<usize> = Vec::with_capacity(self.per_question);
        let mut out = Vec::with_capacity(self.per_question);
        while out.len() < self.per_question {
            let idx = self.rng.gen_range(0..self.qualities.len());
            if chosen.contains(&idx) {
                continue;
            }
            chosen.push(idx);
            let correct = self.rng.gen_bool(self.qualities[idx]);
            out.push((format!("w{idx}"), if correct { truth } else { !truth }));
        }
        out
    }
}

/// Runs a campaign **in process** — no server, no HTTP — feeding the
/// exact worker stream a [`drive`] run would feed through the wire:
/// answers in crowd order, labels carrying the online quality estimates,
/// workers re-scored against each decisive verdict.
///
/// This is the ground truth the server is measured against.
pub fn reference_outcome(
    kb1: &Kb,
    kb2: &Kb,
    config: &RempConfig,
    policy: &CrowdPolicy,
    params: &CrowdParams,
    truth: &dyn Fn(EntityId, EntityId) -> bool,
) -> Result<(RempOutcome, Vec<SubmittedRecord>), RempError> {
    assert_eq!(
        policy.per_question, params.per_question,
        "policy and crowd must agree on answers per question"
    );
    let mut crowd = WireCrowd::new(params);
    let mut estimator = WorkerQualityEstimator::new(policy.qualification, policy.quality_weight);
    let mut session: RempSession<'_> = Remp::new(config.clone()).begin(kb1, kb2)?;
    let mut log = Vec::new();
    while let Some(batch) = session.next_batch()? {
        for q in &batch.questions {
            let answers = crowd.answers(truth(q.pair.0, q.pair.1));
            let labels: Vec<Label> =
                answers.iter().map(|(w, says)| Label::new(estimator.estimate(w), *says)).collect();
            let outcome = session.submit(q.id, labels)?;
            if outcome.verdict != Verdict::Inconsistent {
                let verdict_truth = outcome.verdict == Verdict::Match;
                for (w, says) in &answers {
                    estimator.score(w, *says == verdict_truth);
                }
            }
            log.push(SubmittedRecord { question: q.id.0, pair: q.pair, verdict: outcome.verdict });
        }
    }
    Ok((session.finish(), log))
}

/// One fully labeled question, as reported by [`drive_n`].
#[derive(Clone, Debug, PartialEq)]
pub struct DrivenQuestion {
    /// The question id.
    pub question: QuestionId,
    /// Verdict the server inferred.
    pub verdict: String,
}

/// Drives a campaign over HTTP until it completes or `limit` more
/// questions have been submitted. Returns the questions submitted by
/// this call, in order.
///
/// The crowd keeps its RNG state across calls, so a partial drive, a
/// server restart and a second drive call together replay exactly the
/// stream one uninterrupted run would have produced.
pub fn drive_n(
    client: &ServeClient,
    campaign: &str,
    crowd: &mut WireCrowd,
    truth: &dyn Fn(EntityId, EntityId) -> bool,
    limit: Option<usize>,
) -> Result<Vec<DrivenQuestion>, ClientError> {
    let proto = |msg: String| ClientError::Protocol(msg);
    let status = client.get(&format!("/campaigns/{campaign}"))?;
    let per_question: usize = status.field("per_question")?;
    if per_question != crowd.per_question {
        return Err(proto(format!(
            "campaign wants {per_question} answers per question but the crowd draws {}",
            crowd.per_question
        )));
    }

    let mut driven = Vec::new();
    loop {
        if limit.is_some_and(|n| driven.len() >= n) {
            return Ok(driven);
        }
        let open = client.get(&format!("/campaigns/{campaign}/questions"))?;
        let questions: Vec<&Json> = open.field("questions")?;
        let Some(next_doc) = questions.first() else {
            let status = client.get(&format!("/campaigns/{campaign}"))?;
            if status.field("complete")? {
                return Ok(driven);
            }
            return Err(proto("campaign is not complete but has no open questions".into()));
        };
        let expected_id: &str = next_doc.field("id")?;
        let pair = (EntityId(next_doc.field("u1")?), EntityId(next_doc.field("u2")?));

        let mut verdict = None;
        for (worker, says_match) in crowd.answers(truth(pair.0, pair.1)) {
            let assignment = client.get(&format!("/campaigns/{campaign}/next?worker={worker}"))?;
            let assigned: &str = assignment
                .opt_field::<&Json>("assignment")?
                .ok_or_else(|| proto(format!("no assignment for worker {worker}")))?
                .field("id")?;
            if assigned != expected_id {
                return Err(proto(format!(
                    "server assigned {assigned} to {worker}, expected {expected_id}"
                )));
            }
            let ack = client.post(
                &format!("/campaigns/{campaign}/answers"),
                &Json::Obj(vec![
                    ("worker".into(), Json::from(worker.as_str())),
                    ("question".into(), Json::from(expected_id)),
                    ("says_match".into(), Json::from(says_match)),
                ]),
            )?;
            if let Some(submitted) = ack.opt_field::<&Json>("submitted")? {
                verdict = Some(submitted.field::<String>("verdict")?);
            }
        }
        let verdict =
            verdict.ok_or_else(|| proto(format!("{expected_id} never reached redundancy")))?;
        let question = expected_id
            .parse::<QuestionId>()
            .map_err(|e| proto(format!("bad question id on the wire: {e}")))?;
        driven.push(DrivenQuestion { question, verdict });
    }
}

/// Drives a campaign over HTTP to completion.
pub fn drive(
    client: &ServeClient,
    campaign: &str,
    crowd: &mut WireCrowd,
    truth: &dyn Fn(EntityId, EntityId) -> bool,
) -> Result<Vec<DrivenQuestion>, ClientError> {
    drive_n(client, campaign, crowd, truth, None)
}

#[cfg(test)]
mod tests {
    use super::*;
    use remp_datasets::{generate, tiny};

    #[test]
    fn wire_crowd_is_deterministic_and_distinct() {
        let params = CrowdParams { workers: 6, per_question: 4, ..CrowdParams::paper_default(9) };
        let run = |seed| {
            let mut crowd = WireCrowd::new(&CrowdParams { seed, ..params });
            (0..20).flat_map(|i| crowd.answers(i % 2 == 0)).collect::<Vec<_>>()
        };
        assert_eq!(run(9), run(9));
        assert_ne!(run(9), run(10));
        let mut crowd = WireCrowd::new(&params);
        for i in 0..50 {
            let answers = crowd.answers(i % 3 == 0);
            let mut names: Vec<&String> = answers.iter().map(|(w, _)| w).collect();
            names.sort();
            names.dedup();
            assert_eq!(names.len(), 4, "workers must be distinct per question");
        }
    }

    #[test]
    #[should_panic(expected = "distinct")]
    fn pool_smaller_than_redundancy_is_rejected() {
        let _ = WireCrowd::new(&CrowdParams {
            workers: 3,
            per_question: 5,
            ..CrowdParams::paper_default(0)
        });
    }

    #[test]
    fn reference_outcome_is_reproducible() {
        let d = generate(&tiny(1.0));
        let params = CrowdParams { per_question: 3, ..CrowdParams::paper_default(7) };
        let policy = CrowdPolicy { per_question: 3, ..CrowdPolicy::default() };
        let config = RempConfig::default();
        let run = || {
            reference_outcome(&d.kb1, &d.kb2, &config, &policy, &params, &|a, b| d.is_match(a, b))
                .unwrap()
        };
        let (o1, log1) = run();
        let (o2, log2) = run();
        assert_eq!(o1, o2);
        assert_eq!(log1, log2);
        assert!(o1.questions_asked > 0);
        assert_eq!(log1.len(), o1.questions_asked);
    }
}
