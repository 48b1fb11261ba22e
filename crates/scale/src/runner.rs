//! Result merging and the in-process reference executor.
//!
//! [`merge_results`] is the single definition of "the campaign
//! outcome": results sorted by shard id, counters summed, digests
//! folded in shard order, precision/recall/F1 computed against the
//! campaign's full gold count. Both the multi-process coordinator and
//! [`run_sharded_local`] end in this function, so "bit-identical
//! merged outputs" reduces to "bit-identical per-shard results" — which
//! worker determinism guarantees.
//!
//! [`run_sharded_local`] deliberately round-trips every shard result
//! through its JSON wire format before merging. The in-process path
//! then exercises the exact representation the HTTP path ships, and
//! cannot be accidentally *more* precise than a remote worker.

use std::path::Path;

use remp_ingest::framing::{fnv1a64_update, FNV_SEED};
use remp_json::Json;

use crate::plan::CampaignManifest;
use crate::worker::{process_shard, ShardResult};

/// The merged outcome of a sharded campaign.
#[derive(Clone, Debug, PartialEq)]
pub struct MergedOutcome {
    /// Campaign name.
    pub campaign: String,
    /// Shards merged.
    pub shards: usize,
    /// Candidate pairs processed across shards.
    pub pairs_total: usize,
    /// Matches reported across shards.
    pub matches_total: usize,
    /// Matches that are gold pairs.
    pub gold_matched: usize,
    /// Gold pairs in the full dataset (recall denominator).
    pub gold_total: usize,
    /// Questions asked across shards.
    pub questions_total: usize,
    /// Human-machine loops across shards.
    pub loops_total: usize,
    /// Precision over reported matches.
    pub precision: f64,
    /// Recall against the full gold standard.
    pub recall: f64,
    /// F1 of the above.
    pub f1: f64,
    /// Per-shard outcome digests folded in shard-id order.
    pub outcome_digest: u64,
    /// Per-shard transcript digests folded in shard-id order.
    pub transcript_digest: u64,
    /// Digest over (precision, recall, f1) bits.
    pub eval_digest: u64,
}

impl MergedOutcome {
    /// Serializes the outcome (HTTP `/outcome`, CLI, bench reports).
    pub fn to_json(&self) -> Json {
        Json::Obj(vec![
            ("campaign".into(), Json::from(self.campaign.as_str())),
            ("shards".into(), Json::from(self.shards)),
            ("pairs_total".into(), Json::from(self.pairs_total)),
            ("matches_total".into(), Json::from(self.matches_total)),
            ("gold_matched".into(), Json::from(self.gold_matched)),
            ("gold_total".into(), Json::from(self.gold_total)),
            ("questions_total".into(), Json::from(self.questions_total)),
            ("loops_total".into(), Json::from(self.loops_total)),
            ("precision".into(), Json::from(self.precision)),
            ("recall".into(), Json::from(self.recall)),
            ("f1".into(), Json::from(self.f1)),
            ("outcome_digest".into(), Json::from(self.outcome_digest)),
            ("transcript_digest".into(), Json::from(self.transcript_digest)),
            ("eval_digest".into(), Json::from(self.eval_digest)),
        ])
    }

    /// Parses an outcome serialized by [`MergedOutcome::to_json`].
    pub fn from_json(doc: &Json) -> Result<MergedOutcome, String> {
        Ok(MergedOutcome {
            campaign: doc.field("campaign")?,
            shards: doc.field("shards")?,
            pairs_total: doc.field("pairs_total")?,
            matches_total: doc.field("matches_total")?,
            gold_matched: doc.field("gold_matched")?,
            gold_total: doc.field("gold_total")?,
            questions_total: doc.field("questions_total")?,
            loops_total: doc.field("loops_total")?,
            precision: doc.field("precision")?,
            recall: doc.field("recall")?,
            f1: doc.field("f1")?,
            outcome_digest: doc.field("outcome_digest")?,
            transcript_digest: doc.field("transcript_digest")?,
            eval_digest: doc.field("eval_digest")?,
        })
    }
}

/// Merges per-shard results into the campaign outcome.
///
/// # Panics
///
/// If `results` is not exactly one result per shard id `0..n` — a
/// coordinator only calls this once every shard reported.
pub fn merge_results(campaign: &str, results: &[ShardResult], gold_total: usize) -> MergedOutcome {
    let mut sorted: Vec<&ShardResult> = results.iter().collect();
    sorted.sort_by_key(|r| r.shard_id);
    for (i, r) in sorted.iter().enumerate() {
        assert_eq!(r.shard_id as usize, i, "merge needs exactly one result per shard id");
    }

    let mut out = MergedOutcome {
        campaign: campaign.to_string(),
        shards: sorted.len(),
        pairs_total: 0,
        matches_total: 0,
        gold_matched: 0,
        gold_total,
        questions_total: 0,
        loops_total: 0,
        precision: 0.0,
        recall: 0.0,
        f1: 0.0,
        outcome_digest: FNV_SEED,
        transcript_digest: FNV_SEED,
        eval_digest: FNV_SEED,
    };
    for r in &sorted {
        out.pairs_total += r.pairs;
        out.matches_total += r.matches.len();
        out.gold_matched += r.gold_matched;
        out.questions_total += r.questions_asked;
        out.loops_total += r.loops;
        out.outcome_digest = fnv1a64_update(out.outcome_digest, &r.outcome_digest.to_le_bytes());
        out.transcript_digest =
            fnv1a64_update(out.transcript_digest, &r.transcript_digest.to_le_bytes());
    }
    out.precision = if out.matches_total > 0 {
        out.gold_matched as f64 / out.matches_total as f64
    } else {
        0.0
    };
    out.recall = if gold_total > 0 { out.gold_matched as f64 / gold_total as f64 } else { 0.0 };
    out.f1 = if out.precision + out.recall > 0.0 {
        2.0 * out.precision * out.recall / (out.precision + out.recall)
    } else {
        0.0
    };
    for v in [out.precision, out.recall, out.f1] {
        out.eval_digest = fnv1a64_update(out.eval_digest, &v.to_bits().to_le_bytes());
    }
    out
}

/// Runs every shard of the campaign in `dir` sequentially in-process
/// and merges — the reference the multi-process path must equal.
pub fn run_sharded_local(dir: &Path) -> Result<MergedOutcome, String> {
    let manifest = CampaignManifest::load(dir).map_err(|e| format!("{e}"))?;
    let mut results = Vec::with_capacity(manifest.shards.len());
    for path in manifest.shard_paths(dir) {
        let result = process_shard(&path)?;
        // Round-trip through the wire format (see module docs).
        let text = result.to_json().to_string();
        let doc = Json::parse(&text).map_err(|e| format!("result round-trip: {e}"))?;
        results.push(ShardResult::from_json(&doc)?);
    }
    Ok(merge_results(&manifest.campaign, &results, manifest.gold_total))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::plan::{write_campaign, CrowdSpec, PlanMode};
    use remp_core::RempConfig;
    use remp_datasets::{generate, iimb};
    use remp_ingest::LoadedKb;

    fn make_campaign(tag: &str, shards: usize) -> std::path::PathBuf {
        let d = generate(&iimb(0.25));
        let dir = std::env::temp_dir().join(format!("remp-scale-runner-{tag}"));
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
            &CrowdSpec::Oracle,
            3,
            &PlanMode::Full,
            shards,
        )
        .unwrap();
        dir
    }

    #[test]
    fn local_run_is_deterministic_and_scores() {
        let dir = make_campaign("det", 3);
        let a = run_sharded_local(&dir).unwrap();
        let b = run_sharded_local(&dir).unwrap();
        assert_eq!(a, b);
        assert!(a.f1 > 0.5, "oracle campaign resolves most of IIMB: {a:?}");
        assert!(a.questions_total > 0);
    }

    #[test]
    fn merge_is_order_independent() {
        let dir = make_campaign("order", 4);
        let manifest = CampaignManifest::load(&dir).unwrap();
        let mut results: Vec<ShardResult> =
            manifest.shard_paths(&dir).iter().map(|p| process_shard(p).unwrap()).collect();
        let forward = merge_results("order", &results, manifest.gold_total);
        results.reverse();
        let reversed = merge_results("order", &results, manifest.gold_total);
        assert_eq!(forward, reversed, "merge sorts by shard id");
    }

    #[test]
    fn merged_outcome_round_trips_through_json() {
        let dir = make_campaign("json", 2);
        let merged = run_sharded_local(&dir).unwrap();
        let text = merged.to_json().to_string();
        let back = MergedOutcome::from_json(&Json::parse(&text).unwrap()).unwrap();
        assert_eq!(merged, back);
    }

    #[test]
    #[should_panic(expected = "one result per shard id")]
    fn merge_rejects_missing_shards() {
        let r = ShardResult {
            shard_id: 1,
            campaign: "x".into(),
            matches: Vec::new(),
            gold_matched: 0,
            gold_pairs: 0,
            pairs: 0,
            edge_count: 0,
            questions_asked: 0,
            loops: 0,
            transcript_digest: 0,
            outcome_digest: 0,
        };
        merge_results("x", &[r], 1);
    }
}
