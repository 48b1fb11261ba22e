//! The `/scale` routes: `rempd` as the coordinator of a sharded
//! campaign (see `crates/scale/SHARDING.md`).
//!
//! A *scale job* wraps one [`Coordinator`] — a pure lease state machine
//! over a campaign directory written by
//! [`remp_scale::write_campaign`]. The server contributes exactly what
//! the state machine abstracts away: a clock (the registry's injected
//! [`crate::clock::Clock`], so lease expiry is testable on virtual
//! time) and the HTTP surface `rempctl shard-worker` polls. All shard
//! *data* stays on the filesystem — workers read `.rshard` files
//! directly and ship only the small [`ShardResult`] JSON back, so the
//! coordinator's memory stays O(shards) no matter how many entities the
//! campaign covers.
//!
//! | route | body | answer |
//! |---|---|---|
//! | `POST /scale/jobs` | `{dir, lease_ms?}` | `201` job status |
//! | `GET /scale/jobs` | — | all job statuses |
//! | `GET /scale/jobs/{job}` | — | job status |
//! | `POST /scale/jobs/{job}/next` | `{worker}` | `{shard, path}` or `{shard: null, done}` |
//! | `POST /scale/jobs/{job}/heartbeat` | `{worker, shard}` | `{ok}` |
//! | `POST /scale/jobs/{job}/result` | a `ShardResult` | `{accepted, done}` |
//! | `GET /scale/jobs/{job}/outcome` | — | merged outcome, `409` until done |

use std::collections::BTreeMap;
use std::path::Path;
use std::sync::Mutex;

use remp_json::Json;
use remp_scale::{Coordinator, ShardResult, DEFAULT_LEASE_MS};

use crate::wire::ServeError;

/// The server's open scale jobs, keyed by job id (`s0`, `s1`, ...).
#[derive(Default)]
pub struct ScaleJobs {
    inner: Mutex<Inner>,
}

#[derive(Default)]
struct Inner {
    next_id: u64,
    jobs: BTreeMap<String, Coordinator>,
}

/// One job's status document.
fn job_doc(id: &str, coordinator: &Coordinator) -> Json {
    let s = coordinator.status();
    Json::Obj(vec![
        ("job".into(), Json::from(id)),
        ("campaign".into(), Json::from(coordinator.campaign())),
        ("dir".into(), Json::from(coordinator.dir().display().to_string())),
        ("pending".into(), Json::from(s.pending)),
        ("leased".into(), Json::from(s.leased)),
        ("done".into(), Json::from(s.done)),
        ("total".into(), Json::from(s.total)),
        ("complete".into(), Json::from(coordinator.done())),
    ])
}

impl ScaleJobs {
    /// Opens the campaign in `dir` as a new job. `lease_ms = None`
    /// takes [`DEFAULT_LEASE_MS`].
    pub fn create(&self, dir: &str, lease_ms: Option<u64>) -> Result<(u16, Json), ServeError> {
        let coordinator = Coordinator::open(Path::new(dir), lease_ms.unwrap_or(DEFAULT_LEASE_MS))
            .map_err(|e| ServeError::bad_request("bad_campaign", e.to_string()))?;
        let mut inner = self.inner.lock().expect("scale jobs poisoned");
        let id = format!("s{}", inner.next_id);
        inner.next_id += 1;
        let doc = job_doc(&id, &coordinator);
        inner.jobs.insert(id, coordinator);
        Ok((201, doc))
    }

    /// Status documents of every open job.
    pub fn list(&self) -> (u16, Json) {
        let inner = self.inner.lock().expect("scale jobs poisoned");
        let jobs = inner.jobs.iter().map(|(id, c)| job_doc(id, c)).collect();
        (200, Json::Obj(vec![("jobs".into(), Json::Arr(jobs))]))
    }

    /// One job's status.
    pub fn status(&self, job: &str) -> Result<(u16, Json), ServeError> {
        let inner = self.inner.lock().expect("scale jobs poisoned");
        let coordinator = get(&inner, job)?;
        Ok((200, job_doc(job, coordinator)))
    }

    /// Leases the next pending shard to `worker`. `shard` is null when
    /// nothing is pending; `done` then distinguishes "campaign
    /// finished" from "wait and poll again".
    pub fn next(&self, job: &str, worker: &str, now_ms: u64) -> Result<(u16, Json), ServeError> {
        let mut inner = self.inner.lock().expect("scale jobs poisoned");
        let coordinator = get_mut(&mut inner, job)?;
        let doc = match coordinator.next(worker, now_ms) {
            Some((shard, path)) => Json::Obj(vec![
                ("shard".into(), Json::from(u64::from(shard))),
                ("path".into(), Json::from(path.display().to_string())),
                ("done".into(), Json::from(false)),
            ]),
            None => Json::Obj(vec![
                ("shard".into(), Json::Null),
                ("done".into(), Json::from(coordinator.done())),
            ]),
        };
        Ok((200, doc))
    }

    /// Extends `worker`'s lease on `shard`; `ok: false` means the lease
    /// was lost (expired and possibly reassigned).
    pub fn heartbeat(
        &self,
        job: &str,
        worker: &str,
        shard: u32,
        now_ms: u64,
    ) -> Result<(u16, Json), ServeError> {
        let mut inner = self.inner.lock().expect("scale jobs poisoned");
        let coordinator = get_mut(&mut inner, job)?;
        let ok = coordinator.heartbeat(worker, shard, now_ms);
        Ok((200, Json::Obj(vec![("ok".into(), Json::from(ok))])))
    }

    /// Accepts a [`ShardResult`] document. Duplicates are acknowledged
    /// with `accepted: false` (accept-first — see the coordinator docs).
    pub fn result(&self, job: &str, doc: &Json) -> Result<(u16, Json), ServeError> {
        let result =
            ShardResult::from_json(doc).map_err(|e| ServeError::bad_request("bad_result", e))?;
        let mut inner = self.inner.lock().expect("scale jobs poisoned");
        let coordinator = get_mut(&mut inner, job)?;
        let accepted =
            coordinator.submit(result).map_err(|e| ServeError::bad_request("bad_result", e))?;
        Ok((
            200,
            Json::Obj(vec![
                ("accepted".into(), Json::from(accepted)),
                ("done".into(), Json::from(coordinator.done())),
            ]),
        ))
    }

    /// The merged campaign outcome; `409` while shards are outstanding.
    pub fn outcome(&self, job: &str) -> Result<(u16, Json), ServeError> {
        let inner = self.inner.lock().expect("scale jobs poisoned");
        let coordinator = get(&inner, job)?;
        match coordinator.merged() {
            Some(merged) => Ok((200, merged.to_json())),
            None => Err(ServeError::conflict(
                "not_done",
                format!("job {job:?} still has unfinished shards"),
            )),
        }
    }
}

fn get<'a>(inner: &'a Inner, job: &str) -> Result<&'a Coordinator, ServeError> {
    inner
        .jobs
        .get(job)
        .ok_or_else(|| ServeError::not_found("unknown_job", format!("no scale job {job:?}")))
}

fn get_mut<'a>(inner: &'a mut Inner, job: &str) -> Result<&'a mut Coordinator, ServeError> {
    inner
        .jobs
        .get_mut(job)
        .ok_or_else(|| ServeError::not_found("unknown_job", format!("no scale job {job:?}")))
}

#[cfg(test)]
mod tests {
    use super::*;
    use remp_core::RempConfig;
    use remp_datasets::{generate, tiny};
    use remp_ingest::LoadedKb;
    use remp_scale::{run_sharded_local, write_campaign, CrowdSpec, MergedOutcome, PlanMode};

    fn campaign_dir(tag: &str) -> std::path::PathBuf {
        let d = generate(&tiny(1.0));
        let dir = std::env::temp_dir().join(format!("remp-serve-scale-{tag}"));
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
            7,
            &PlanMode::Full,
            2,
        )
        .unwrap();
        dir
    }

    #[test]
    fn a_job_runs_to_the_same_outcome_as_the_local_runner() {
        let dir = campaign_dir("job");
        let reference = run_sharded_local(&dir).unwrap();

        let jobs = ScaleJobs::default();
        let (status, doc) = jobs.create(&dir.display().to_string(), None).unwrap();
        assert_eq!(status, 201);
        let job = doc.get("job").and_then(Json::as_str).unwrap().to_owned();
        let total: usize = doc.field("total").unwrap();
        assert!(total >= 2);

        // Outcome before completion is a conflict, not an answer.
        assert_eq!(jobs.outcome(&job).unwrap_err().status, 409);

        loop {
            let (_, next) = jobs.next(&job, "w1", 0).unwrap();
            let Some(shard) = next.get("shard").and_then(Json::as_u64) else {
                assert!(next.get("done").and_then(Json::as_bool).unwrap());
                break;
            };
            let path = next.get("path").and_then(Json::as_str).unwrap();
            assert!(jobs.heartbeat(&job, "w1", shard as u32, 1).unwrap().1.get("ok").is_some());
            let result = remp_scale::process_shard(Path::new(path)).unwrap();
            let (_, ack) = jobs.result(&job, &result.to_json()).unwrap();
            assert!(ack.get("accepted").and_then(Json::as_bool).unwrap());
            // A duplicate is acknowledged, not an error.
            let (_, dup) = jobs.result(&job, &result.to_json()).unwrap();
            assert!(!dup.get("accepted").and_then(Json::as_bool).unwrap());
        }

        let (_, outcome) = jobs.outcome(&job).unwrap();
        let merged = MergedOutcome::from_json(&outcome).unwrap();
        assert_eq!(merged, reference, "coordinator path must equal run_sharded_local");
    }

    #[test]
    fn bad_inputs_are_typed_errors() {
        let jobs = ScaleJobs::default();
        assert_eq!(jobs.create("/nonexistent/campaign", None).unwrap_err().status, 400);
        assert_eq!(jobs.status("s0").unwrap_err().status, 404);
        assert_eq!(jobs.next("s0", "w", 0).unwrap_err().status, 404);
        let dir = campaign_dir("bad");
        let (_, doc) = jobs.create(&dir.display().to_string(), Some(1000)).unwrap();
        let job = doc.get("job").and_then(Json::as_str).unwrap().to_owned();
        assert_eq!(jobs.result(&job, &Json::Obj(vec![])).unwrap_err().status, 400);
    }

    #[test]
    fn out_of_range_shard_ids_are_rejected_not_truncated() {
        let dir = campaign_dir("wide-id");
        let jobs = ScaleJobs::default();
        let (_, doc) = jobs.create(&dir.display().to_string(), None).unwrap();
        let job: String = doc.field("job").unwrap();
        let (_, next) = jobs.next(&job, "w1", 0).unwrap();
        let result =
            remp_scale::process_shard(Path::new(next.field::<&str>("path").unwrap())).unwrap();
        // 2^32 + id wraps to this shard's id under a `u32` cast; it must
        // be a 400, not an accepted result for the real shard.
        let mut wide = result.to_json();
        if let Json::Obj(members) = &mut wide {
            members[0].1 = Json::UInt((1 << 32) + u64::from(result.shard_id));
        }
        let err = jobs.result(&job, &wide).unwrap_err();
        assert_eq!((err.status, err.code), (400, "bad_result"), "{err}");
        // The shard is still open: its genuine result is the first accepted.
        let (_, ack) = jobs.result(&job, &result.to_json()).unwrap();
        assert_eq!(ack.field::<bool>("accepted"), Ok(true));
    }
}
