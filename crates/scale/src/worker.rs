//! Shard execution: one `.rshard` in, one [`ShardResult`] out.
//!
//! [`process_shard`] is what a `rempctl shard-worker` process runs per
//! lease — and also what [`crate::run_sharded_local`] runs in-process.
//! Both paths execute this exact function on the same shard bytes, so
//! the sharded campaign's outcome cannot depend on *where* shards run;
//! only the shard files and the merge order (shard id) matter. That is
//! the determinism contract `SHARDING.md` spells out and the
//! equivalence tests enforce.
//!
//! The crowd loop mirrors [`remp_core::RempSession::drive`] but hashes
//! a transcript as it goes: every question's external-id pair, the
//! truth bit, and each worker label fold into an FNV-1a digest in ask
//! order. Two runs with equal digests asked the same questions in the
//! same order and heard the same answers.

use std::path::Path;

use remp_core::{PreparedEr, Remp, RempOutcome};
use remp_crowd::{LabelSource, OracleCrowd, SimulatedCrowd};
use remp_ergraph::{Candidates, ComponentIndex, ErGraph, PairId};
use remp_ingest::framing::{fnv1a64_update, FNV_SEED};
use remp_json::Json;
use remp_kb::{EntityId, IdHashSet, PackedPair};
use remp_simil::SimVec;

use crate::plan::CrowdSpec;
use crate::shard::{read_shard, Shard};

/// The outcome of one shard, as reported to the coordinator.
#[derive(Clone, Debug, PartialEq)]
pub struct ShardResult {
    /// Which shard this is.
    pub shard_id: u32,
    /// Campaign the shard belongs to.
    pub campaign: String,
    /// Final matches as global external-id pairs, lexicographically
    /// sorted.
    pub matches: Vec<(String, String)>,
    /// How many of `matches` are gold pairs (merged-eval numerator).
    pub gold_matched: usize,
    /// Gold pairs present in this shard (for bookkeeping).
    pub gold_pairs: usize,
    /// Candidate pairs processed.
    pub pairs: usize,
    /// ER-graph edges the worker rebuilt.
    pub edge_count: usize,
    /// Questions asked.
    pub questions_asked: usize,
    /// Human-machine loops run.
    pub loops: usize,
    /// FNV-1a over (question ext-ids, truth, labels) in ask order.
    pub transcript_digest: u64,
    /// FNV-1a over the sorted match ext-id pairs.
    pub outcome_digest: u64,
}

impl ShardResult {
    /// Serializes the result (the worker → coordinator wire format).
    pub fn to_json(&self) -> Json {
        Json::Obj(vec![
            ("shard_id".into(), Json::from(self.shard_id)),
            ("campaign".into(), Json::from(self.campaign.as_str())),
            (
                "matches".into(),
                Json::Arr(
                    self.matches
                        .iter()
                        .map(|(a, b)| {
                            Json::Arr(vec![Json::from(a.as_str()), Json::from(b.as_str())])
                        })
                        .collect(),
                ),
            ),
            ("gold_matched".into(), Json::from(self.gold_matched)),
            ("gold_pairs".into(), Json::from(self.gold_pairs)),
            ("pairs".into(), Json::from(self.pairs)),
            ("edge_count".into(), Json::from(self.edge_count)),
            ("questions_asked".into(), Json::from(self.questions_asked)),
            ("loops".into(), Json::from(self.loops)),
            ("transcript_digest".into(), Json::from(self.transcript_digest)),
            ("outcome_digest".into(), Json::from(self.outcome_digest)),
        ])
    }

    /// Parses a result serialized by [`ShardResult::to_json`].
    pub fn from_json(doc: &Json) -> Result<ShardResult, String> {
        Ok(ShardResult {
            shard_id: doc.field("shard_id")?,
            campaign: doc.field("campaign")?,
            matches: doc.field("matches")?,
            gold_matched: doc.field("gold_matched")?,
            gold_pairs: doc.field("gold_pairs")?,
            pairs: doc.field("pairs")?,
            edge_count: doc.field("edge_count")?,
            questions_asked: doc.field("questions_asked")?,
            loops: doc.field("loops")?,
            transcript_digest: doc.field("transcript_digest")?,
            outcome_digest: doc.field("outcome_digest")?,
        })
    }
}

/// Runs one shard file end to end.
pub fn process_shard(path: &Path) -> Result<ShardResult, String> {
    let shard = read_shard(path).map_err(|e| format!("reading {}: {e}", path.display()))?;
    run_shard(&shard)
}

/// Runs an in-memory shard (the unit under test for equivalence).
pub fn run_shard(shard: &Shard) -> Result<ShardResult, String> {
    let candidates = Candidates::from_pairs(
        shard.pairs.iter().map(|&((u1, u2), prior)| ((EntityId(u1), EntityId(u2)), prior)),
    );
    let graph = ErGraph::build(&shard.kb1.kb, &shard.kb2.kb, &candidates);
    let components = ComponentIndex::build(&graph);
    let initial: Vec<PairId> =
        shard.initial.iter().map(|&i| PairId::from_index(i as usize)).collect();
    let sim_vectors: Vec<SimVec> = if shard.sim_vectors.is_empty() {
        vec![SimVec::new(Vec::new()); candidates.len()]
    } else {
        shard.sim_vectors.clone()
    };
    let edge_count = graph.num_edges();
    let prep = PreparedEr {
        candidate_count: candidates.len(),
        pre_candidates: candidates.clone(),
        candidates,
        initial,
        alignment: shard.alignment.clone(),
        sim_vectors,
        graph,
        components,
    };

    let gold_pairs: IdHashSet<PackedPair> = shard
        .gold
        .iter()
        .map(|&i| {
            let ((u1, u2), _) = shard.pairs[i as usize];
            PackedPair::from((EntityId(u1), EntityId(u2)))
        })
        .collect();
    let truth = |u1: EntityId, u2: EntityId| gold_pairs.contains(&PackedPair::from((u1, u2)));

    let mut crowd: Box<dyn LabelSource> = match shard.crowd {
        CrowdSpec::Oracle => Box::new(OracleCrowd::new()),
        CrowdSpec::Simulated { workers, min_quality, max_quality, per_question } => Box::new(
            SimulatedCrowd::new(workers, min_quality, max_quality, per_question, shard.crowd_seed),
        ),
    };

    let remp = Remp::new(shard.config.clone());
    let mut session = remp
        .begin_prepared(&shard.kb1.kb, &shard.kb2.kb, prep)
        .map_err(|e| format!("shard {}: {e}", shard.shard_id))?;

    // The drive loop, with a transcript digest folded in ask order.
    let mut transcript = FNV_SEED;
    loop {
        let batch = session.next_batch().map_err(|e| format!("shard {}: {e}", shard.shard_id))?;
        let Some(batch) = batch else { break };
        for q in &batch.questions {
            let (u1, u2) = q.pair;
            transcript = fnv1a64_update(transcript, shard.kb1.external_ids[u1.index()].as_bytes());
            transcript = fnv1a64_update(transcript, b"\t");
            transcript = fnv1a64_update(transcript, shard.kb2.external_ids[u2.index()].as_bytes());
            let t = truth(u1, u2);
            transcript = fnv1a64_update(transcript, &[t as u8]);
            let labels = crowd.label(t);
            for label in &labels {
                transcript = fnv1a64_update(transcript, &[label.says_match as u8]);
                transcript =
                    fnv1a64_update(transcript, &label.worker_quality.to_bits().to_le_bytes());
            }
            session.submit(q.id, labels).map_err(|e| format!("shard {}: {e}", shard.shard_id))?;
        }
    }

    let outcome: RempOutcome = session.finish();
    let matched_gold = outcome
        .matches
        .iter()
        .filter(|&&(u1, u2)| gold_pairs.contains(&PackedPair::from((u1, u2))))
        .count();
    let mut matches: Vec<(String, String)> = outcome
        .matches
        .iter()
        .map(|&(u1, u2)| {
            (shard.kb1.external_ids[u1.index()].clone(), shard.kb2.external_ids[u2.index()].clone())
        })
        .collect();
    matches.sort_unstable();
    let mut outcome_digest = FNV_SEED;
    for (a, b) in &matches {
        outcome_digest = fnv1a64_update(outcome_digest, a.as_bytes());
        outcome_digest = fnv1a64_update(outcome_digest, b"\t");
        outcome_digest = fnv1a64_update(outcome_digest, b.as_bytes());
        outcome_digest = fnv1a64_update(outcome_digest, b"\n");
    }

    Ok(ShardResult {
        shard_id: shard.shard_id,
        campaign: shard.campaign.clone(),
        matches,
        gold_matched: matched_gold,
        gold_pairs: shard.gold.len(),
        pairs: shard.pairs.len(),
        edge_count,
        questions_asked: outcome.questions_asked,
        loops: outcome.loops,
        transcript_digest: transcript,
        outcome_digest,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::plan::{write_campaign, CampaignManifest, PlanMode};
    use remp_core::RempConfig;
    use remp_datasets::{generate, iimb};
    use remp_ingest::LoadedKb;

    fn campaign_dir(tag: &str, mode: &PlanMode, shards: usize) -> std::path::PathBuf {
        let d = generate(&iimb(0.2));
        let dir = std::env::temp_dir().join(format!("remp-scale-worker-{tag}"));
        let _ = std::fs::remove_dir_all(&dir);
        let kb1 = LoadedKb {
            kb: d.kb1.clone(),
            external_ids: (0..d.kb1.num_entities()).map(|i| format!("a{i}")).collect(),
        };
        let kb2 = LoadedKb {
            kb: d.kb2.clone(),
            external_ids: (0..d.kb2.num_entities()).map(|i| format!("b{i}")).collect(),
        };
        write_campaign(
            &dir,
            tag,
            &kb1,
            &kb2,
            &d.gold,
            &RempConfig::default(),
            &crate::CrowdSpec::Oracle,
            11,
            mode,
            shards,
        )
        .unwrap();
        dir
    }

    #[test]
    fn shard_results_are_deterministic() {
        let dir = campaign_dir("det", &PlanMode::Full, 2);
        let manifest = CampaignManifest::load(&dir).unwrap();
        let path = &manifest.shard_paths(&dir)[0];
        let a = process_shard(path).unwrap();
        let b = process_shard(path).unwrap();
        assert_eq!(a, b, "same shard bytes, same result");
        assert!(a.pairs > 0);
    }

    #[test]
    fn shard_result_round_trips_through_json() {
        let dir = campaign_dir("json", &PlanMode::Full, 2);
        let manifest = CampaignManifest::load(&dir).unwrap();
        let r = process_shard(&manifest.shard_paths(&dir)[0]).unwrap();
        let text = r.to_json().to_string();
        let back = ShardResult::from_json(&Json::parse(&text).unwrap()).unwrap();
        assert_eq!(r, back);
    }

    #[test]
    fn simulated_crowd_is_seed_deterministic() {
        let d = generate(&iimb(0.2));
        let dir = std::env::temp_dir().join("remp-scale-worker-sim");
        let _ = std::fs::remove_dir_all(&dir);
        let kb1 = LoadedKb {
            kb: d.kb1.clone(),
            external_ids: (0..d.kb1.num_entities()).map(|i| format!("a{i}")).collect(),
        };
        let kb2 = LoadedKb {
            kb: d.kb2.clone(),
            external_ids: (0..d.kb2.num_entities()).map(|i| format!("b{i}")).collect(),
        };
        let crowd = crate::CrowdSpec::Simulated {
            workers: 30,
            min_quality: 0.85,
            max_quality: 0.99,
            per_question: 5,
        };
        write_campaign(
            &dir,
            "sim",
            &kb1,
            &kb2,
            &d.gold,
            &RempConfig::default(),
            &crowd,
            5,
            &PlanMode::Full,
            2,
        )
        .unwrap();
        let manifest = CampaignManifest::load(&dir).unwrap();
        for path in manifest.shard_paths(&dir) {
            let a = process_shard(&path).unwrap();
            let b = process_shard(&path).unwrap();
            assert_eq!(a.transcript_digest, b.transcript_digest);
            assert_eq!(a.outcome_digest, b.outcome_digest);
        }
    }

    #[test]
    fn stream_mode_shards_resolve_matches() {
        let dir = campaign_dir("stream", &PlanMode::Stream { max_block: 10_000 }, 3);
        let manifest = CampaignManifest::load(&dir).unwrap();
        let mut matched = 0usize;
        for path in manifest.shard_paths(&dir) {
            let r = process_shard(&path).unwrap();
            matched += r.gold_matched;
        }
        assert!(matched > 0, "oracle-crowd stream campaign finds gold matches");
    }
}
