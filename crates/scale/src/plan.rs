//! Campaign planning: candidate pairs → component groups → `.rshard`
//! files plus a `campaign.json` manifest.
//!
//! Two planning modes share one shard format:
//!
//! * **Full** — runs the classic stage 1 ([`remp_core::prepare`]) and
//!   shards its ER-graph components, carrying priors, initial seeds,
//!   attribute alignment and similarity vectors into the shards. The
//!   per-shard session is then the complete paper pipeline.
//! * **Stream** — runs [`crate::stream_candidates`] (the canopy walk)
//!   and derives components by unioning candidate pairs whose endpoints
//!   are relationally adjacent in *both* KBs (out-edges; the ER graph a
//!   worker rebuilds may add reverse orientations, which never splits a
//!   component — only merges planned here matter). No similarity
//!   vectors are computed, so shard configs drop the isolated-pair
//!   classifier. This is the out-of-core path for 10⁵–10⁶ entities.
//!
//! Components larger than the per-shard pair budget ([`shard_cap`]) are
//! cut into consecutive chunks first (the canopy approximation, without
//! which a power-law world's giant component would swallow one shard
//! whole), then greedily balanced
//! into `target_shards` groups by pair count (ties to the lowest group
//! id). The whole plan is a pure function of the candidate list, and
//! every shard is written then dropped, so planner RSS never holds two
//! shards' sub-KBs at once on top of the global KBs.

use std::collections::HashSet;
use std::path::{Path, PathBuf};

use remp_core::{prepare, RempConfig};
use remp_ergraph::AttrAlignment;
use remp_ingest::{IngestError, LoadedKb};
use remp_json::Json;
use remp_kb::{EntityId, IdHashMap, PackedPair};
use remp_simil::SimVec;

use crate::shard::{shard_file_name, write_shard, Shard};
use crate::spec::mix_many;

/// Crowd shape a campaign simulates, serialised into every shard.
#[derive(Clone, Debug, PartialEq)]
pub enum CrowdSpec {
    /// Ground-truth labels (the Fig. 5 protocol; zero label noise).
    Oracle,
    /// [`remp_crowd::SimulatedCrowd`] with these parameters; the seed
    /// is supplied per shard (`mix_many([campaign seed, shard id])`).
    Simulated {
        /// Worker-pool size.
        workers: usize,
        /// Minimum worker quality.
        min_quality: f64,
        /// Maximum worker quality.
        max_quality: f64,
        /// Labels collected per question.
        per_question: usize,
    },
}

impl CrowdSpec {
    /// Serializes the spec for manifests and shard files.
    pub fn to_json(&self) -> Json {
        match self {
            CrowdSpec::Oracle => Json::Obj(vec![("kind".into(), Json::from("oracle"))]),
            CrowdSpec::Simulated { workers, min_quality, max_quality, per_question } => {
                Json::Obj(vec![
                    ("kind".into(), Json::from("simulated")),
                    ("workers".into(), Json::from(*workers)),
                    ("min_quality".into(), Json::from(*min_quality)),
                    ("max_quality".into(), Json::from(*max_quality)),
                    ("per_question".into(), Json::from(*per_question)),
                ])
            }
        }
    }

    /// Parses a spec serialized by [`CrowdSpec::to_json`].
    pub fn from_json(doc: &Json) -> Result<CrowdSpec, String> {
        match doc.field("kind")? {
            "oracle" => Ok(CrowdSpec::Oracle),
            "simulated" => Ok(CrowdSpec::Simulated {
                workers: doc.field("workers")?,
                min_quality: doc.field("min_quality")?,
                max_quality: doc.field("max_quality")?,
                per_question: doc.field("per_question")?,
            }),
            other => Err(format!("unknown crowd kind {other:?}")),
        }
    }
}

/// How a campaign's candidate pairs are produced.
#[derive(Clone, Debug, PartialEq)]
pub enum PlanMode {
    /// Classic stage 1 (`prepare`): priors, seeds, alignment, vectors.
    Full,
    /// Streaming canopy walk with this block cap; no vectors, workers
    /// run without the isolated-pair classifier.
    Stream {
        /// Per-token block budget (`|b1|·|b2|` above it is skipped).
        max_block: usize,
    },
}

/// The planned campaign before shard files are written.
#[derive(Clone, Debug)]
pub struct ShardPlan {
    /// All candidate pairs in global entity ids, with priors.
    pub pairs: Vec<((EntityId, EntityId), f64)>,
    /// Indexes into `pairs` that are exact-label initial matches.
    pub initial: Vec<u32>,
    /// Attribute alignment (empty in stream mode).
    pub alignment: AttrAlignment,
    /// Per-pair similarity vectors (empty in stream mode).
    pub sim_vectors: Vec<SimVec>,
    /// Pair indexes per shard, balanced across components.
    pub groups: Vec<Vec<u32>>,
    /// `|M_c|` before pruning (full mode) or pairs emitted (stream).
    pub candidate_count: usize,
}

/// Plans a campaign: candidates → components → balanced shard groups.
pub fn plan_shards(
    kb1: &remp_kb::Kb,
    kb2: &remp_kb::Kb,
    config: &RempConfig,
    mode: &PlanMode,
    target_shards: usize,
) -> ShardPlan {
    assert!(target_shards > 0, "a campaign needs at least one shard");
    match mode {
        PlanMode::Full => {
            let prep = prepare(kb1, kb2, config);
            let pairs: Vec<((EntityId, EntityId), f64)> = prep
                .candidates
                .ids()
                .map(|p| (prep.candidates.pair(p), prep.candidates.prior(p)))
                .collect();
            let initial: Vec<u32> = prep.initial.iter().map(|p| p.index() as u32).collect();
            let components: Vec<Vec<u32>> = prep
                .components
                .iter()
                .map(|(_, members)| members.iter().map(|p| p.index() as u32).collect())
                .collect();
            let cap = shard_cap(pairs.len(), target_shards);
            ShardPlan {
                groups: balance(&split_components(components, cap), target_shards),
                pairs,
                initial,
                alignment: prep.alignment,
                sim_vectors: prep.sim_vectors,
                candidate_count: prep.candidate_count,
            }
        }
        PlanMode::Stream { max_block } => {
            let mut pairs: Vec<((EntityId, EntityId), f64)> = Vec::new();
            crate::stream_candidates(
                kb1,
                kb2,
                config.label_sim_threshold,
                *max_block,
                &mut |pair, sim| {
                    pairs.push((pair, sim));
                },
            );
            let initial: Vec<u32> = pairs
                .iter()
                .enumerate()
                .filter(|(_, &((u1, u2), _))| kb1.label(u1) == kb2.label(u2))
                .map(|(i, _)| i as u32)
                .collect();
            let components = relational_components(kb1, kb2, &pairs);
            let cap = shard_cap(pairs.len(), target_shards);
            ShardPlan {
                candidate_count: pairs.len(),
                pairs,
                initial,
                alignment: AttrAlignment::default(),
                sim_vectors: Vec::new(),
                groups: balance(&split_components(components, cap), target_shards),
            }
        }
    }
}

/// The hard ceiling on a single planned component's pair count.
///
/// Several pipeline stages hold per-component state that grows
/// superlinearly with component size — the inferred-set stage (Eq. 12)
/// runs a truncated Dijkstra from *every* pair of a component and
/// stores each source's reachable set, so one 10⁵-pair component costs
/// gigabytes and minutes where fifty 2·10³-pair components cost
/// megabytes and seconds. Power-law worlds grow exactly such a giant
/// relational component once candidates number in the millions;
/// presets never come close to this ceiling.
pub const MAX_COMPONENT_PAIRS: usize = 1024;

/// The component-split budget: an even split of the candidate set
/// across shards, never above [`MAX_COMPONENT_PAIRS`]. Components above
/// it are cut (by `split_components`); everything smaller stays
/// whole, so `target_shards` is honoured even when the relational graph
/// has a giant component, and no shard ever carries a component the
/// pipeline's per-component stages can't afford.
pub fn shard_cap(pairs: usize, target_shards: usize) -> usize {
    pairs.div_ceil(target_shards.max(1)).clamp(1, MAX_COMPONENT_PAIRS)
}

/// Splits any component larger than `cap` into consecutive chunks of at
/// most `cap` members. Power-law worlds at 10⁵+ entities grow one giant
/// relational component holding most candidate pairs; left whole it
/// defeats both load balance and the bounded-RSS contract (one worker
/// would hold nearly the entire campaign). Cutting drops the ER-graph
/// edges that cross the cut — the canopy approximation of Rastogi et
/// al.'s large-scale collective EM, applied along candidate-index order
/// so chunks keep the blocking stream's token locality. Components at
/// preset scale sit far below any cap and are never split.
fn split_components(components: Vec<Vec<u32>>, cap: usize) -> Vec<Vec<u32>> {
    let mut out = Vec::with_capacity(components.len());
    for c in components {
        if c.len() <= cap {
            out.push(c);
        } else {
            out.extend(c.chunks(cap).map(<[u32]>::to_vec));
        }
    }
    out
}

/// Connected components of the candidate graph under mutual relational
/// adjacency: pairs `(u1,u2)` and `(v1,v2)` join when `u1→v1` in KB1
/// and `u2→v2` in KB2 (any relationship names).
fn relational_components(
    kb1: &remp_kb::Kb,
    kb2: &remp_kb::Kb,
    pairs: &[((EntityId, EntityId), f64)],
) -> Vec<Vec<u32>> {
    let index: IdHashMap<PackedPair, u32> =
        pairs.iter().enumerate().map(|(i, &(p, _))| (PackedPair::from(p), i as u32)).collect();
    let mut uf = UnionFind::new(pairs.len());
    for (i, &((u1, u2), _)) in pairs.iter().enumerate() {
        for &(_, v1) in kb1.rels_of(u1) {
            for &(_, v2) in kb2.rels_of(u2) {
                if let Some(&q) = index.get(&PackedPair::from((v1, v2))) {
                    uf.union(i as u32, q);
                }
            }
        }
    }
    let mut roots: IdHashMap<u32, Vec<u32>> = IdHashMap::default();
    for i in 0..pairs.len() as u32 {
        roots.entry(uf.find(i)).or_default().push(i);
    }
    let mut components: Vec<Vec<u32>> = roots.into_values().collect();
    components.sort_by_key(|c| c[0]); // deterministic order by first member
    components
}

/// Greedy balanced grouping: components in order, each to the currently
/// lightest group (ties to the lowest id); empty groups are dropped.
fn balance(components: &[Vec<u32>], target: usize) -> Vec<Vec<u32>> {
    let mut groups: Vec<Vec<u32>> = vec![Vec::new(); target];
    let mut load = vec![0usize; target];
    for c in components {
        let g = (0..target).min_by_key(|&g| (load[g], g)).expect("target > 0");
        load[g] += c.len();
        groups[g].extend_from_slice(c);
    }
    groups.retain(|g| !g.is_empty());
    groups
}

/// Manifest file name inside a campaign directory.
pub const MANIFEST_FILE: &str = "campaign.json";

/// `campaign.json`: everything the coordinator (and `rempctl`) needs to
/// run, resume or audit a sharded campaign.
#[derive(Clone, Debug)]
pub struct CampaignManifest {
    /// Campaign name.
    pub campaign: String,
    /// Campaign seed (shard crowd seeds derive from it).
    pub seed: u64,
    /// Shard file names, in shard-id order, relative to the directory.
    pub shards: Vec<String>,
    /// Total gold pairs in the dataset (denominator of merged recall —
    /// gold matches that never became candidates count as misses).
    pub gold_total: usize,
    /// Candidate pairs across all shards.
    pub pairs_total: usize,
    /// `|M_c|` before pruning (equals `pairs_total` in stream mode).
    pub candidate_count: usize,
    /// Planning mode: `"full"` or `"stream"`.
    pub mode: String,
    /// Pipeline configuration shards were written with.
    pub config: RempConfig,
    /// Crowd shape shards were written with.
    pub crowd: CrowdSpec,
}

impl CampaignManifest {
    /// Serializes the manifest.
    pub fn to_json(&self) -> Json {
        Json::Obj(vec![
            ("campaign".into(), Json::from(self.campaign.as_str())),
            ("seed".into(), Json::from(self.seed)),
            (
                "shards".into(),
                Json::Arr(self.shards.iter().map(|s| Json::from(s.as_str())).collect()),
            ),
            ("gold_total".into(), Json::from(self.gold_total)),
            ("pairs_total".into(), Json::from(self.pairs_total)),
            ("candidate_count".into(), Json::from(self.candidate_count)),
            ("mode".into(), Json::from(self.mode.as_str())),
            ("config".into(), self.config.to_json()),
            ("crowd".into(), self.crowd.to_json()),
        ])
    }

    /// Parses a manifest document.
    pub fn from_json(doc: &Json) -> Result<CampaignManifest, String> {
        Ok(CampaignManifest {
            campaign: doc.field("campaign")?,
            seed: doc.field("seed")?,
            shards: doc.field("shards")?,
            gold_total: doc.field("gold_total")?,
            pairs_total: doc.field("pairs_total")?,
            candidate_count: doc.field("candidate_count")?,
            mode: doc.field("mode")?,
            config: RempConfig::from_json(doc.field("config")?)
                .map_err(|e| format!("manifest config invalid: {e}"))?,
            crowd: CrowdSpec::from_json(doc.field("crowd")?)?,
        })
    }

    /// Writes the manifest into `dir`.
    pub fn save(&self, dir: &Path) -> Result<(), IngestError> {
        let path = dir.join(MANIFEST_FILE);
        std::fs::write(&path, self.to_json().to_pretty_string())
            .map_err(|error| IngestError::Io { path, error })
    }

    /// Loads the manifest of the campaign in `dir`.
    pub fn load(dir: &Path) -> Result<CampaignManifest, IngestError> {
        let path = dir.join(MANIFEST_FILE);
        let text = std::fs::read_to_string(&path)
            .map_err(|error| IngestError::Io { path: path.clone(), error })?;
        let doc = Json::parse(&text).map_err(|e| IngestError::Syntax {
            path: path.clone(),
            line: 0,
            message: format!("manifest is not JSON: {e}"),
        })?;
        CampaignManifest::from_json(&doc).map_err(|message| IngestError::Syntax {
            path,
            line: 0,
            message,
        })
    }

    /// Absolute shard paths, in shard-id order.
    pub fn shard_paths(&self, dir: &Path) -> Vec<PathBuf> {
        self.shards.iter().map(|s| dir.join(s)).collect()
    }
}

/// Plans and writes a complete sharded campaign into `dir`: one
/// `.rshard` per non-empty group plus [`MANIFEST_FILE`]. Each shard is
/// built, written and dropped before the next — planner RSS stays at
/// the global KBs plus a single shard.
#[allow(clippy::too_many_arguments)]
pub fn write_campaign(
    dir: &Path,
    campaign: &str,
    kb1: &LoadedKb,
    kb2: &LoadedKb,
    gold: &HashSet<(EntityId, EntityId)>,
    config: &RempConfig,
    crowd: &CrowdSpec,
    seed: u64,
    mode: &PlanMode,
    target_shards: usize,
) -> Result<CampaignManifest, IngestError> {
    std::fs::create_dir_all(dir)
        .map_err(|error| IngestError::Io { path: dir.to_path_buf(), error })?;
    let plan = plan_shards(&kb1.kb, &kb2.kb, config, mode, target_shards);
    let shard_config = match mode {
        PlanMode::Full => config.clone(),
        // No similarity vectors in the shards → the random-forest
        // isolated-pair classifier has nothing to run on.
        PlanMode::Stream { .. } => config.clone().without_classifier(),
    };
    let num_shards = plan.groups.len() as u32;
    let mut shard_files = Vec::new();
    for (shard_id, group) in plan.groups.iter().enumerate() {
        let shard_id = shard_id as u32;
        let mut local_of: IdHashMap<u32, u32> = IdHashMap::default();
        for (local, &global) in group.iter().enumerate() {
            local_of.insert(global, local as u32);
        }

        let keep1 = shard_entities(&kb1.kb, group.iter().map(|&i| plan.pairs[i as usize].0 .0));
        let keep2 = shard_entities(&kb2.kb, group.iter().map(|&i| plan.pairs[i as usize].0 .1));
        let sub1 = restrict_loaded(kb1, &keep1);
        let sub2 = restrict_loaded(kb2, &keep2);
        let local1 = |u: EntityId| keep1.binary_search(&u).expect("pair endpoint kept") as u32;
        let local2 = |u: EntityId| keep2.binary_search(&u).expect("pair endpoint kept") as u32;

        let pairs: Vec<((u32, u32), f64)> = group
            .iter()
            .map(|&i| {
                let ((u1, u2), prior) = plan.pairs[i as usize];
                ((local1(u1), local2(u2)), prior)
            })
            .collect();
        let initial: Vec<u32> =
            plan.initial.iter().filter_map(|g| local_of.get(g).copied()).collect();
        let gold_local: Vec<u32> = group
            .iter()
            .enumerate()
            .filter(|(_, &i)| gold.contains(&plan.pairs[i as usize].0))
            .map(|(local, _)| local as u32)
            .collect();
        let sim_vectors: Vec<SimVec> = if plan.sim_vectors.is_empty() {
            Vec::new()
        } else {
            group.iter().map(|&i| plan.sim_vectors[i as usize].clone()).collect()
        };

        let shard = Shard {
            shard_id,
            num_shards,
            campaign: campaign.to_string(),
            crowd_seed: mix_many(&[seed, shard_id as u64]),
            config: shard_config.clone(),
            crowd: crowd.clone(),
            kb1: sub1,
            kb2: sub2,
            pairs,
            initial,
            alignment: plan.alignment.clone(),
            sim_vectors,
            gold: gold_local,
        };
        let file = shard_file_name(shard_id);
        write_shard(&shard, &dir.join(&file))?;
        shard_files.push(file);
    }

    let manifest = CampaignManifest {
        campaign: campaign.to_string(),
        seed,
        shards: shard_files,
        gold_total: gold.len(),
        pairs_total: plan.pairs.len(),
        candidate_count: plan.candidate_count,
        mode: match mode {
            PlanMode::Full => "full".into(),
            PlanMode::Stream { .. } => "stream".into(),
        },
        config: shard_config,
        crowd: crowd.clone(),
    };
    manifest.save(dir)?;
    Ok(manifest)
}

/// Sorted, deduplicated entity set for one shard side: every pair
/// endpoint plus its 1-hop relational neighbourhood (so per-shard
/// consistency estimation sees the endpoints' true value sets).
fn shard_entities(kb: &remp_kb::Kb, endpoints: impl Iterator<Item = EntityId>) -> Vec<EntityId> {
    let mut keep: Vec<EntityId> = Vec::new();
    for u in endpoints {
        keep.push(u);
        for &(_, v) in kb.rels_of(u) {
            keep.push(v);
        }
        for &(_, v) in kb.rels_into(u) {
            keep.push(v);
        }
    }
    keep.sort_unstable_by_key(|u| u.0);
    keep.dedup();
    keep
}

/// Restricts a loaded KB (with external ids) to `keep`.
fn restrict_loaded(loaded: &LoadedKb, keep: &[EntityId]) -> LoadedKb {
    LoadedKb {
        kb: loaded.kb.restrict(keep),
        external_ids: keep.iter().map(|u| loaded.external_ids[u.index()].clone()).collect(),
    }
}

struct UnionFind {
    parent: Vec<u32>,
}

impl UnionFind {
    fn new(n: usize) -> UnionFind {
        UnionFind { parent: (0..n as u32).collect() }
    }

    fn find(&mut self, x: u32) -> u32 {
        let mut r = x;
        while self.parent[r as usize] != r {
            r = self.parent[r as usize];
        }
        let mut cur = x;
        while self.parent[cur as usize] != r {
            let next = self.parent[cur as usize];
            self.parent[cur as usize] = r;
            cur = next;
        }
        r
    }

    fn union(&mut self, a: u32, b: u32) {
        let (ra, rb) = (self.find(a), self.find(b));
        if ra != rb {
            // Deterministic: smaller root wins (no rank heuristics).
            let (lo, hi) = if ra < rb { (ra, rb) } else { (rb, ra) };
            self.parent[hi as usize] = lo;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use remp_datasets::{generate, iimb};

    #[test]
    fn crowd_spec_round_trips() {
        for spec in [
            CrowdSpec::Oracle,
            CrowdSpec::Simulated {
                workers: 20,
                min_quality: 0.8,
                max_quality: 0.95,
                per_question: 5,
            },
        ] {
            assert_eq!(CrowdSpec::from_json(&spec.to_json()).unwrap(), spec);
        }
    }

    #[test]
    fn balance_spreads_components() {
        let components: Vec<Vec<u32>> =
            vec![vec![0, 1, 2], vec![3], vec![4, 5], vec![6], vec![7, 8, 9, 10]];
        let groups = balance(&components, 3);
        assert_eq!(groups.len(), 3);
        let mut all: Vec<u32> = groups.iter().flatten().copied().collect();
        all.sort_unstable();
        assert_eq!(all, (0..11).collect::<Vec<u32>>());
        let max = groups.iter().map(Vec::len).max().unwrap();
        assert!(max <= 6, "greedy balance keeps groups near even: {groups:?}");
    }

    #[test]
    fn balance_drops_empty_groups() {
        let groups = balance(&[vec![0], vec![1]], 8);
        assert_eq!(groups.len(), 2);
    }

    #[test]
    fn full_plan_partitions_the_retained_pairs() {
        let d = generate(&iimb(0.3));
        let config = RempConfig::default();
        let plan = plan_shards(&d.kb1, &d.kb2, &config, &PlanMode::Full, 4);
        let mut seen: Vec<u32> = plan.groups.iter().flatten().copied().collect();
        seen.sort_unstable();
        assert_eq!(seen.len(), plan.pairs.len(), "groups partition the pairs");
        assert_eq!(seen, (0..plan.pairs.len() as u32).collect::<Vec<u32>>());
        assert_eq!(plan.sim_vectors.len(), plan.pairs.len());
        assert!(plan.candidate_count >= plan.pairs.len());
    }

    #[test]
    fn stream_plan_has_no_vectors_and_keeps_neighbours_together() {
        let d = generate(&iimb(0.3));
        let config = RempConfig::default();
        let plan = plan_shards(&d.kb1, &d.kb2, &config, &PlanMode::Stream { max_block: 10_000 }, 4);
        assert!(plan.sim_vectors.is_empty());
        assert!(plan.alignment.is_empty());
        assert!(!plan.pairs.is_empty());
        // Components stay together up to the shard cap; a component
        // above it is cut into consecutive cap-sized chunks, each of
        // which stays together (the canopy approximation).
        let group_of: std::collections::HashMap<u32, usize> = plan
            .groups
            .iter()
            .enumerate()
            .flat_map(|(g, members)| members.iter().map(move |&i| (i, g)))
            .collect();
        let components = relational_components(&d.kb1, &d.kb2, &plan.pairs);
        let cap = shard_cap(plan.pairs.len(), 4);
        for c in &components {
            for chunk in c.chunks(cap) {
                let g = group_of[&chunk[0]];
                for &i in chunk {
                    assert_eq!(
                        group_of[&i], g,
                        "pair {i} split from its component chunk across shards"
                    );
                }
            }
        }
        assert!(
            components.iter().any(|c| c.len() > 1),
            "want at least one non-trivial component for the test to bite"
        );
    }

    #[test]
    fn written_campaign_round_trips_through_the_manifest() {
        let d = generate(&iimb(0.2));
        let dir = std::env::temp_dir().join("remp-scale-plan-campaign");
        let _ = std::fs::remove_dir_all(&dir);
        let kb1 = LoadedKb {
            kb: d.kb1.clone(),
            external_ids: (0..d.kb1.num_entities()).map(|i| format!("a{i}")).collect(),
        };
        let kb2 = LoadedKb {
            kb: d.kb2.clone(),
            external_ids: (0..d.kb2.num_entities()).map(|i| format!("b{i}")).collect(),
        };
        let manifest = write_campaign(
            &dir,
            "plan-test",
            &kb1,
            &kb2,
            &d.gold,
            &RempConfig::default(),
            &CrowdSpec::Oracle,
            7,
            &PlanMode::Full,
            3,
        )
        .unwrap();
        let loaded = CampaignManifest::load(&dir).unwrap();
        assert_eq!(loaded.campaign, manifest.campaign);
        assert_eq!(loaded.shards, manifest.shards);
        assert_eq!(loaded.gold_total, d.gold.len());
        assert_eq!(loaded.mode, "full");

        // Every shard file round-trips and pair counts add up.
        let mut total_pairs = 0usize;
        for (id, path) in loaded.shard_paths(&dir).iter().enumerate() {
            let shard = crate::read_shard(path).unwrap();
            assert_eq!(shard.shard_id, id as u32);
            assert_eq!(shard.num_shards as usize, loaded.shards.len());
            assert_eq!(shard.sim_vectors.len(), shard.pairs.len());
            shard.kb1.kb.validate().unwrap();
            shard.kb2.kb.validate().unwrap();
            total_pairs += shard.pairs.len();
        }
        assert_eq!(total_pairs, manifest.pairs_total);
    }
}
