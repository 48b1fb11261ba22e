//! The campaign registry: one actor thread per campaign, durable state
//! files, and the request fan-in the HTTP layer talks to.
//!
//! [`RempSession`] borrows its knowledge bases, so each campaign runs on
//! a dedicated **actor thread** that owns the KBs, the session and the
//! [`CampaignEngine`] outright — no self-referential structs, no locks
//! around `&mut` session state. The HTTP handlers send typed
//! [`CampaignRequest`]s over a channel and block on the reply; the actor
//! processes them strictly in arrival order, which is also what makes
//! campaign behaviour deterministic for a deterministic client.
//!
//! Durability is two-tier. The base is one pretty-printed JSON state
//! file per campaign (`{id}.campaign.json`): the session checkpoint
//! plus the crowd-side state the session does not know about (collected
//! answers, worker records, the submission log), written at creation
//! (genesis), at every WAL compaction, and on graceful shutdown. On top
//! rides the per-campaign answer WAL (`{id}.wal`, [`crate::wal`]):
//! every accepted answer is fsynced into it *before* the 2xx reply, so
//! a `kill -9` loses nothing acknowledged. A new `rempd` process
//! pointed at the same directory resumes every campaign by loading the
//! checkpoint and replaying the WAL records past its `answer_seq` —
//! mid-batch, mid-question, even mid-record (torn tails are truncated).

use std::collections::BTreeMap;
use std::fs;
use std::path::{Path, PathBuf};
use std::sync::atomic::AtomicU64;
use std::sync::mpsc::{self, Receiver, Sender};
use std::sync::{Arc, Condvar, Mutex};
use std::thread::JoinHandle;

use remp_core::{QuestionId, Remp, RempConfig, RempSession, SessionCheckpoint};
use remp_crowd::WorkerRecord;
use remp_datasets::{generate, preset_by_name};
use remp_ingest::load_kb;
use remp_json::{FieldError, Json};
use remp_kb::Kb;

use crate::clock::{Clock, SystemClock};
use crate::engine::{CampaignEngine, CrowdPolicy};
use crate::wal::{wal_path, Wal, WalRecord};
use crate::wire::{question_json, verdict_code, ServeError, SubmittedRecord};

/// The campaign's footprint on the global metrics registry: the
/// engine-owned lease counters exposed under a `campaign` label, plus
/// four gauges the actor refreshes after every message. Dropped (all
/// series removed) when the actor stops, so a dead campaign does not
/// linger on `/metrics`.
struct CampaignObs {
    id: String,
    open: remp_obs::Gauge,
    asked: remp_obs::Gauge,
    workers: remp_obs::Gauge,
    complete: remp_obs::Gauge,
}

impl CampaignObs {
    fn register(id: &str, engine: &CampaignEngine<'_>) -> CampaignObs {
        use remp_obs::names;
        let reg = remp_obs::global();
        let labels: &[(&str, &str)] = &[("campaign", id)];
        let lc = engine.lease_counters();
        reg.register_counter(
            names::LEASES_ISSUED_TOTAL,
            "Leases granted, including re-issues.",
            labels,
            &lc.issued,
        );
        reg.register_counter(
            names::LEASES_EXPIRED_TOTAL,
            "Leases that expired unanswered.",
            labels,
            &lc.expired,
        );
        reg.register_counter(
            names::LEASES_REISSUED_TOTAL,
            "Grants that replaced an expired lease on the same question.",
            labels,
            &lc.reissued,
        );
        let gauge = |name: &str, help: &str| {
            let g = remp_obs::Gauge::new();
            reg.register_gauge(name, help, labels, &g);
            g
        };
        let obs = CampaignObs {
            id: id.to_owned(),
            open: gauge(
                names::CAMPAIGN_OPEN_QUESTIONS,
                "Questions currently open (leasable or collecting answers).",
            ),
            asked: gauge(
                names::CAMPAIGN_QUESTIONS_ASKED,
                "Questions submitted to the session so far.",
            ),
            workers: gauge(names::CAMPAIGN_WORKERS, "Workers registered with the campaign."),
            complete: gauge(names::CAMPAIGN_COMPLETE, "1 once the campaign has drained, else 0."),
        };
        obs.refresh(engine);
        obs
    }

    fn refresh(&self, engine: &CampaignEngine<'_>) {
        let (open, asked, workers, complete) = engine.gauge_snapshot();
        self.open.set(open as f64);
        self.asked.set(asked as f64);
        self.workers.set(workers as f64);
        self.complete.set(if complete { 1.0 } else { 0.0 });
    }

    fn deregister(self) {
        remp_obs::global().remove_label_value("campaign", &self.id);
    }
}

/// Wakes the server's long-poll dispatcher whenever campaign state
/// changed in a way that could let a parked `/next` succeed: an
/// accepted answer (it may complete a question and open the next
/// batch), a pause/resume, or shutdown. A bare epoch + condvar —
/// waiters record the epoch they have seen and block until it moves
/// past.
#[derive(Debug, Default)]
pub struct CampaignNotifier {
    epoch: Mutex<u64>,
    cond: Condvar,
}

impl CampaignNotifier {
    /// The current epoch; pass to [`wait_past`](Self::wait_past).
    pub fn epoch(&self) -> u64 {
        *self.epoch.lock().expect("notifier poisoned")
    }

    /// Bumps the epoch and wakes every waiter.
    pub fn notify(&self) {
        let mut epoch = self.epoch.lock().expect("notifier poisoned");
        *epoch += 1;
        drop(epoch);
        self.cond.notify_all();
    }

    /// Blocks until the epoch moves past `seen` or `timeout` elapses;
    /// returns the epoch at wake-up.
    pub fn wait_past(&self, seen: u64, timeout: std::time::Duration) -> u64 {
        let deadline = std::time::Instant::now() + timeout;
        let mut epoch = self.epoch.lock().expect("notifier poisoned");
        while *epoch <= seen {
            let left = deadline.saturating_duration_since(std::time::Instant::now());
            if left.is_zero() {
                break;
            }
            let (guard, _) = self.cond.wait_timeout(epoch, left).expect("notifier poisoned");
            epoch = guard;
        }
        *epoch
    }
}

/// Process-global WAL instruments every campaign actor reports into:
/// counters for `/metrics` plus the live on-disk byte total `/healthz`
/// shows as serving pressure.
#[derive(Clone)]
struct WalObs {
    records: remp_obs::Counter,
    bytes: remp_obs::Counter,
    live_bytes: Arc<AtomicU64>,
}

impl WalObs {
    fn new() -> WalObs {
        use remp_obs::names;
        let reg = remp_obs::global();
        WalObs {
            records: reg.counter(
                names::WAL_RECORDS_TOTAL,
                "Answer records appended to campaign write-ahead logs.",
                &[],
            ),
            bytes: reg.counter(
                names::WAL_BYTES_TOTAL,
                "Bytes appended to campaign write-ahead logs.",
                &[],
            ),
            live_bytes: Arc::new(AtomicU64::new(0)),
        }
    }
}

/// Version tag of the campaign state-file format.
pub const STATE_VERSION: u64 = 1;

/// Where a campaign's knowledge bases come from.
#[derive(Clone, Debug, PartialEq)]
pub enum CampaignSource {
    /// A named synthetic preset (deterministic: the same preset+scale
    /// regenerates the same KBs on every host).
    Preset {
        /// Preset name (e.g. `TINY`, `IIMB`).
        preset: String,
        /// World-size multiplier.
        scale: f64,
    },
    /// Two server-side KB files (`.nt`, CSV directory, or `.rkb`).
    Files {
        /// First KB path.
        kb1: PathBuf,
        /// Second KB path.
        kb2: PathBuf,
    },
}

impl CampaignSource {
    fn to_json(&self) -> Json {
        match self {
            CampaignSource::Preset { preset, scale } => Json::Obj(vec![
                ("kind".into(), Json::from("preset")),
                ("preset".into(), Json::from(preset.as_str())),
                ("scale".into(), Json::from(*scale)),
            ]),
            CampaignSource::Files { kb1, kb2 } => Json::Obj(vec![
                ("kind".into(), Json::from("files")),
                ("kb1".into(), Json::from(kb1.display().to_string())),
                ("kb2".into(), Json::from(kb2.display().to_string())),
            ]),
        }
    }

    fn from_json(doc: &Json) -> Result<CampaignSource, ServeError> {
        match doc.field("kind")? {
            "preset" => Ok(CampaignSource::Preset {
                preset: doc.field("preset")?,
                scale: doc.field("scale")?,
            }),
            "files" => Ok(CampaignSource::Files {
                kb1: PathBuf::from(doc.field::<&str>("kb1")?),
                kb2: PathBuf::from(doc.field::<&str>("kb2")?),
            }),
            kind => Err(ServeError::internal("bad_state", format!("unknown source kind {kind:?}"))),
        }
    }

    fn load(&self) -> Result<(Kb, Kb), ServeError> {
        match self {
            CampaignSource::Preset { preset, scale } => {
                let spec = preset_by_name(preset, *scale).ok_or_else(|| {
                    ServeError::bad_request("unknown_preset", format!("no preset {preset:?}"))
                })?;
                let d = generate(&spec);
                Ok((d.kb1, d.kb2))
            }
            CampaignSource::Files { kb1, kb2 } => {
                let load = |path: &Path, name: &str| {
                    load_kb(path, name).map_err(|e| {
                        ServeError::bad_request("bad_kb", format!("{}: {e}", path.display()))
                    })
                };
                Ok((load(kb1, "kb1")?.kb, load(kb2, "kb2")?.kb))
            }
        }
    }
}

/// Everything needed to (re)start a campaign actor.
#[derive(Clone, Debug)]
pub struct CampaignSpec {
    /// Operator-chosen display name.
    pub name: String,
    /// KB source.
    pub source: CampaignSource,
    /// Pipeline configuration.
    pub config: RempConfig,
    /// Crowd policy.
    pub policy: CrowdPolicy,
}

/// Saved crowd-side state restored on resume.
struct ResumeState {
    session: SessionCheckpoint,
    workers: Vec<(String, WorkerRecord)>,
    answers: Vec<(u64, String, bool)>,
    log: Vec<SubmittedRecord>,
    paused: bool,
    /// Count of accepted answers folded into this checkpoint — WAL
    /// records at or below it are already applied and skipped on
    /// replay. Absent in pre-WAL state files, which means 0.
    answer_seq: u64,
}

/// Operations the HTTP layer can ask of a campaign actor.
pub enum CampaignRequest {
    /// Lease the next question for a worker.
    Next {
        /// Requesting worker.
        worker: String,
        /// Clock reading in milliseconds.
        now_ms: u64,
    },
    /// Record one worker's answer.
    Answer {
        /// Answering worker.
        worker: String,
        /// The question being answered.
        question: QuestionId,
        /// The worker's label.
        says_match: bool,
        /// Clock reading in milliseconds.
        now_ms: u64,
    },
    /// Aggregate status.
    Status {
        /// Clock reading in milliseconds.
        now_ms: u64,
    },
    /// The open questions with progress counts.
    Questions {
        /// Clock reading in milliseconds.
        now_ms: u64,
    },
    /// Per-worker quality estimates and score records.
    Workers,
    /// The (provisional) outcome plus submission log.
    Outcome,
    /// Stop handing out or accepting work.
    Pause,
    /// Resume a paused campaign.
    Resume,
    /// Serialize the full campaign state (state-file body).
    Checkpoint,
    /// Terminate the actor thread.
    Stop,
}

struct Call {
    request: CampaignRequest,
    reply: Sender<Result<Json, ServeError>>,
}

/// Client handle to one campaign actor.
struct CampaignHandle {
    name: String,
    tx: Sender<Call>,
    join: Option<JoinHandle<()>>,
}

/// The set of live campaigns plus the durable state directory.
pub struct Registry {
    state_dir: Option<PathBuf>,
    clock: Arc<dyn Clock>,
    started: std::time::Instant,
    inner: Mutex<RegistryInner>,
    scale: crate::scale::ScaleJobs,
    notifier: Arc<CampaignNotifier>,
    wal_obs: WalObs,
}

struct RegistryInner {
    campaigns: BTreeMap<String, CampaignHandle>,
}

/// Fresh campaign ids (`c0`, `c1`, …) come from a process-global
/// counter: the metrics registry and event ring are process-global and
/// keyed by campaign id, so two registries in one process (test
/// binaries open many) must never host two live campaigns with the
/// same id.
static NEXT_CAMPAIGN_ID: std::sync::atomic::AtomicU64 = std::sync::atomic::AtomicU64::new(0);

/// Milliseconds since the Unix epoch — the default lease clock.
///
/// Kept as a free function for callers that stamp requests themselves;
/// a registry reads its own injected [`Clock`] via
/// [`Registry::now_ms`].
pub fn now_ms() -> u64 {
    SystemClock.now_ms()
}

impl Registry {
    /// Creates a registry on the wall clock; with a state directory,
    /// campaigns checkpointed by a previous process are resumed
    /// immediately.
    pub fn open(state_dir: Option<PathBuf>) -> Result<Registry, ServeError> {
        Registry::open_with_clock(state_dir, Arc::new(SystemClock))
    }

    /// [`Registry::open`] with an injected lease clock — the hook the
    /// mock-clock tests and the `remp-sim` simulator use to run lease
    /// expiry on virtual time.
    pub fn open_with_clock(
        state_dir: Option<PathBuf>,
        clock: Arc<dyn Clock>,
    ) -> Result<Registry, ServeError> {
        let registry = Registry {
            state_dir,
            clock,
            started: std::time::Instant::now(),
            inner: Mutex::new(RegistryInner { campaigns: BTreeMap::new() }),
            scale: crate::scale::ScaleJobs::default(),
            notifier: Arc::new(CampaignNotifier::default()),
            wal_obs: WalObs::new(),
        };
        if let Some(dir) = registry.state_dir.clone() {
            fs::create_dir_all(&dir).map_err(|e| {
                ServeError::internal("state_dir", format!("{}: {e}", dir.display()))
            })?;
            let mut entries: Vec<PathBuf> = fs::read_dir(&dir)
                .map_err(|e| ServeError::internal("state_dir", format!("{}: {e}", dir.display())))?
                .filter_map(|entry| entry.ok().map(|e| e.path()))
                .filter(|p| {
                    p.file_name().is_some_and(|n| n.to_string_lossy().ends_with(".campaign.json"))
                })
                .collect();
            entries.sort();
            for path in entries {
                // One unresumable file (moved KB source, truncated JSON
                // from a hard kill) must not take the healthy campaigns
                // down with it: skip it, leave it on disk for forensics,
                // and keep serving.
                if let Err(e) = registry.resume_from_file(&path) {
                    eprintln!("rempd: skipping unresumable state file {}: {e}", path.display());
                }
            }
        }
        Ok(registry)
    }

    /// The current reading of this registry's lease clock.
    pub fn now_ms(&self) -> u64 {
        self.clock.now_ms()
    }

    /// The sharded-campaign coordinators behind the `/scale` routes.
    pub fn scale_jobs(&self) -> &crate::scale::ScaleJobs {
        &self.scale
    }

    /// The long-poll notifier — campaign actors bump it on every event
    /// that could unblock a parked `/next` (accepted answer, pause
    /// flip, shutdown), and the server's dispatcher waits on it.
    pub fn notifier(&self) -> Arc<CampaignNotifier> {
        Arc::clone(&self.notifier)
    }

    /// Total on-disk bytes across the live campaigns' answer WALs —
    /// the `/healthz` serving-pressure number.
    pub fn wal_bytes(&self) -> u64 {
        self.wal_obs.live_bytes.load(std::sync::atomic::Ordering::Relaxed)
    }

    /// Wall-clock seconds since this registry was opened — the
    /// `/healthz` uptime.
    pub fn uptime_s(&self) -> f64 {
        self.started.elapsed().as_secs_f64()
    }

    /// Ids of the live campaigns, with their display names.
    pub fn list(&self) -> Vec<(String, String)> {
        let inner = self.inner.lock().expect("registry poisoned");
        inner.campaigns.iter().map(|(id, h)| (id.clone(), h.name.clone())).collect()
    }

    /// Creates a campaign and waits until its actor loaded the KBs and
    /// opened the session (so creation errors surface synchronously).
    pub fn create(&self, spec: CampaignSpec) -> Result<String, ServeError> {
        spec.policy.validate()?;
        spec.config.validate().map_err(|e| ServeError::bad_request("bad_config", e.to_string()))?;
        let id =
            format!("c{}", NEXT_CAMPAIGN_ID.fetch_add(1, std::sync::atomic::Ordering::Relaxed));
        self.spawn(id.clone(), spec, None)?;
        if let Some(dir) = self.state_dir.clone() {
            // Genesis checkpoint: a crash before the first compaction
            // needs a base for WAL replay to land on.
            if let Err(e) = self.checkpoint_one(&dir, &id) {
                eprintln!("rempd: failed to write genesis checkpoint for {id}: {e}");
            }
        }
        Ok(id)
    }

    fn resume_from_file(&self, path: &Path) -> Result<(), ServeError> {
        let text = fs::read_to_string(path)
            .map_err(|e| ServeError::internal("state_file", format!("{}: {e}", path.display())))?;
        let (id, spec, resume) = decode_state_file(&text).map_err(|e| {
            ServeError::internal("state_file", format!("{}: {}", path.display(), e.message))
        })?;
        {
            let inner = self.inner.lock().expect("registry poisoned");
            if inner.campaigns.contains_key(&id) {
                return Err(ServeError::internal(
                    "state_file",
                    format!("duplicate campaign id {id:?} in state directory"),
                ));
            }
            // Keep fresh ids clear of resumed ones.
            if let Some(n) = id.strip_prefix('c').and_then(|n| n.parse::<u64>().ok()) {
                NEXT_CAMPAIGN_ID.fetch_max(n + 1, std::sync::atomic::Ordering::Relaxed);
            }
        }
        self.spawn(id, spec, Some(resume))
    }

    fn spawn(
        &self,
        id: String,
        spec: CampaignSpec,
        resume: Option<ResumeState>,
    ) -> Result<(), ServeError> {
        let (tx, rx) = mpsc::channel::<Call>();
        let (ready_tx, ready_rx) = mpsc::channel::<Result<(), ServeError>>();
        let actor_spec = spec.clone();
        let actor_id = id.clone();
        let shared = ActorShared {
            state_dir: self.state_dir.clone(),
            notifier: Arc::clone(&self.notifier),
            wal: self.wal_obs.clone(),
        };
        let join = std::thread::Builder::new()
            .name(format!("campaign-{id}"))
            .spawn(move || campaign_actor(&actor_id, actor_spec, resume, shared, ready_tx, rx))
            .map_err(|e| ServeError::internal("spawn", e.to_string()))?;
        match ready_rx.recv() {
            Ok(Ok(())) => {
                let mut inner = self.inner.lock().expect("registry poisoned");
                inner
                    .campaigns
                    .insert(id, CampaignHandle { name: spec.name, tx, join: Some(join) });
                Ok(())
            }
            Ok(Err(e)) => {
                let _ = join.join();
                Err(e)
            }
            Err(_) => {
                let _ = join.join();
                Err(ServeError::internal("spawn", "campaign actor died during startup"))
            }
        }
    }

    /// Sends one request to a campaign actor and waits for the reply.
    pub fn call(&self, id: &str, request: CampaignRequest) -> Result<Json, ServeError> {
        let tx = {
            let inner = self.inner.lock().expect("registry poisoned");
            let handle = inner.campaigns.get(id).ok_or_else(|| {
                ServeError::not_found("unknown_campaign", format!("no campaign {id:?}"))
            })?;
            handle.tx.clone()
        };
        let (reply_tx, reply_rx) = mpsc::channel();
        tx.send(Call { request, reply: reply_tx })
            .map_err(|_| ServeError::internal("campaign_dead", format!("campaign {id} stopped")))?;
        reply_rx
            .recv()
            .map_err(|_| ServeError::internal("campaign_dead", format!("campaign {id} stopped")))?
    }

    /// Writes every campaign's state file; returns how many were saved.
    /// A no-op without a state directory.
    ///
    /// Best-effort per campaign: one failing write (full disk,
    /// permissions) does not stop the others from being saved — the
    /// error reported is the first one encountered, after every
    /// campaign has been attempted. Each file lands atomically (temp
    /// file + rename), so a crash mid-write can never leave a truncated
    /// state file behind.
    pub fn checkpoint_all(&self) -> Result<usize, ServeError> {
        let Some(dir) = self.state_dir.clone() else {
            return Ok(0);
        };
        let ids: Vec<String> = self.list().into_iter().map(|(id, _)| id).collect();
        let mut saved = 0;
        let mut first_error: Option<ServeError> = None;
        for id in ids {
            match self.checkpoint_one(&dir, &id) {
                Ok(()) => saved += 1,
                Err(e) => {
                    eprintln!("rempd: failed to checkpoint campaign {id}: {e}");
                    first_error.get_or_insert(e);
                }
            }
        }
        match first_error {
            None => Ok(saved),
            Some(e) => Err(e),
        }
    }

    fn checkpoint_one(&self, dir: &Path, id: &str) -> Result<(), ServeError> {
        let body = self.call(id, CampaignRequest::Checkpoint)?;
        write_state_file(dir, id, body)
    }

    /// Checkpoints (when durable) and stops every campaign actor.
    ///
    /// The actors are always stopped and joined, even when some
    /// checkpoints could not be written — a shutdown must not leave
    /// threads behind because a disk filled up.
    pub fn shutdown(&self) -> Result<usize, ServeError> {
        let checkpointed = self.checkpoint_all();
        let handles: Vec<CampaignHandle> = {
            let mut inner = self.inner.lock().expect("registry poisoned");
            std::mem::take(&mut inner.campaigns).into_values().collect()
        };
        for mut handle in handles {
            let (reply_tx, _reply_rx) = mpsc::channel();
            let _ = handle.tx.send(Call { request: CampaignRequest::Stop, reply: reply_tx });
            if let Some(join) = handle.join.take() {
                let _ = join.join();
            }
        }
        // Unblock any long-poll waiter still parked on a campaign.
        self.notifier.notify();
        checkpointed
    }
}

/// Atomically writes `{id}.campaign.json` (temp file + rename),
/// stamping the id into the body so the file is self-describing — the
/// actor does not know its registry id.
fn write_state_file(dir: &Path, id: &str, mut body: Json) -> Result<(), ServeError> {
    if let Json::Obj(fields) = &mut body {
        fields.insert(1, ("id".into(), Json::from(id)));
    }
    let path = dir.join(format!("{id}.campaign.json"));
    let staging = dir.join(format!(".{id}.campaign.json.tmp"));
    let io_err = |p: &Path, e: std::io::Error| {
        ServeError::internal("state_file", format!("{}: {e}", p.display()))
    };
    fs::write(&staging, body.to_pretty_string()).map_err(|e| io_err(&staging, e))?;
    fs::rename(&staging, &path).map_err(|e| io_err(&path, e))
}

// ---- the actor --------------------------------------------------------

/// Accepted answers between compactions before the actor folds the WAL
/// into a fresh checkpoint and truncates it. Keeps replay-on-restart
/// O(128 answers) per campaign regardless of campaign length.
const WAL_COMPACT_EVERY: u64 = 128;

/// Registry-owned resources every actor shares.
struct ActorShared {
    state_dir: Option<PathBuf>,
    notifier: Arc<CampaignNotifier>,
    wal: WalObs,
}

/// Per-actor durability state threaded through request handling.
struct ActorDurability {
    wal: Option<Wal>,
    /// Monotone count of accepted answers — the WAL record seq.
    answer_seq: u64,
    /// Appends since the last compaction.
    since_compact: u64,
    /// Bytes this actor last folded into the shared live-bytes total.
    reported_bytes: u64,
}

/// Reconciles this actor's WAL size into the shared live-bytes gauge.
fn sync_wal_bytes(shared: &WalObs, d: &mut ActorDurability) {
    use std::sync::atomic::Ordering;
    let now = d.wal.as_ref().map_or(0, Wal::bytes);
    match now.cmp(&d.reported_bytes) {
        std::cmp::Ordering::Greater => {
            shared.live_bytes.fetch_add(now - d.reported_bytes, Ordering::Relaxed);
        }
        std::cmp::Ordering::Less => {
            shared.live_bytes.fetch_sub(d.reported_bytes - now, Ordering::Relaxed);
        }
        std::cmp::Ordering::Equal => {}
    }
    d.reported_bytes = now;
}

/// Checkpoint-then-truncate compaction, every [`WAL_COMPACT_EVERY`]
/// accepted answers. Best-effort: a failed checkpoint write leaves the
/// WAL growing (still fully durable), never truncates unfolded records.
fn maybe_compact(
    id: &str,
    spec: &CampaignSpec,
    engine: &CampaignEngine<'_>,
    shared: &ActorShared,
    d: &mut ActorDurability,
) {
    if d.since_compact < WAL_COMPACT_EVERY {
        return;
    }
    let Some(dir) = &shared.state_dir else { return };
    if d.wal.is_none() {
        return;
    }
    match write_state_file(dir, id, encode_state(spec, engine, d.answer_seq)) {
        Ok(()) => {
            let wal = d.wal.as_mut().expect("checked above");
            if let Err(e) = wal.reset() {
                eprintln!("rempd: campaign {id}: failed to truncate compacted WAL: {e}");
            }
            d.since_compact = 0;
            sync_wal_bytes(&shared.wal, d);
        }
        Err(e) => {
            eprintln!("rempd: campaign {id}: compaction checkpoint failed, keeping WAL: {e}");
        }
    }
}

fn campaign_actor(
    id: &str,
    spec: CampaignSpec,
    resume: Option<ResumeState>,
    shared: ActorShared,
    ready: Sender<Result<(), ServeError>>,
    rx: Receiver<Call>,
) {
    // Load/own the KBs, then borrow them for the session — the entire
    // reason this runs on its own thread.
    let loaded = spec.source.load();
    let (kb1, kb2) = match loaded {
        Ok(kbs) => kbs,
        Err(e) => {
            let _ = ready.send(Err(e));
            return;
        }
    };
    let resumed = resume.is_some();
    let resume_answer_seq = resume.as_ref().map_or(0, |s| s.answer_seq);
    let engine = match resume {
        None => Remp::new(spec.config.clone())
            .begin(&kb1, &kb2)
            .map_err(|e| ServeError::bad_request("bad_config", e.to_string()))
            .map(|session| CampaignEngine::new(session, spec.policy.clone())),
        Some(state) => RempSession::resume(&kb1, &kb2, state.session)
            .map_err(|e| ServeError::internal("bad_state", e.to_string()))
            .and_then(|session| {
                CampaignEngine::resume(
                    session,
                    spec.policy.clone(),
                    state.workers,
                    state.answers,
                    state.log,
                    state.paused,
                )
            }),
    };
    let mut engine = match engine {
        Ok(engine) => engine,
        Err(e) => {
            let _ = ready.send(Err(e));
            return;
        }
    };

    // Open and replay the WAL before signalling ready, so resume errors
    // surface synchronously and no request can race the replay.
    let mut durability = ActorDurability {
        wal: None,
        answer_seq: resume_answer_seq,
        since_compact: 0,
        reported_bytes: 0,
    };
    if let Some(dir) = &shared.state_dir {
        let path = wal_path(dir, id);
        match Wal::open(&path) {
            Err(e) => {
                let _ = ready
                    .send(Err(ServeError::internal("wal", format!("{}: {e}", path.display()))));
                return;
            }
            Ok((mut wal, replay)) => {
                if let Some(dropped) = replay.truncated_tail {
                    eprintln!(
                        "rempd: campaign {id}: truncated {dropped} torn WAL byte(s) left by a crash"
                    );
                }
                if resumed {
                    let mut replayed = 0u64;
                    for record in replay.records {
                        if record.seq <= durability.answer_seq {
                            continue; // already folded into the checkpoint
                        }
                        if let Err(e) = engine.replay_answer(
                            &record.worker,
                            QuestionId(record.question),
                            record.says_match,
                            record.now_ms,
                        ) {
                            let _ = ready.send(Err(ServeError::internal(
                                "wal",
                                format!(
                                    "{}: replaying answer seq {}: {}",
                                    path.display(),
                                    record.seq,
                                    e.message
                                ),
                            )));
                            return;
                        }
                        durability.answer_seq = record.seq;
                        durability.since_compact += 1;
                        replayed += 1;
                    }
                    if replayed > 0 {
                        remp_obs::event(remp_obs::Level::Info, "campaign", Some(id), || {
                            (
                                "WAL answers replayed over checkpoint".to_owned(),
                                vec![("replayed", Json::from(replayed))],
                            )
                        });
                    }
                } else if !replay.records.is_empty() {
                    // A fresh campaign must not inherit a stale log left
                    // under the same id by an earlier process.
                    if let Err(e) = wal.reset() {
                        let _ = ready.send(Err(ServeError::internal(
                            "wal",
                            format!("{}: resetting stale WAL: {e}", path.display()),
                        )));
                        return;
                    }
                }
                durability.wal = Some(wal);
                sync_wal_bytes(&shared.wal, &mut durability);
            }
        }
    }

    if ready.send(Ok(())).is_err() {
        return;
    }
    // Observability is observation-only: registration and the per-message
    // gauge refresh never influence engine decisions.
    let obs = remp_obs::enabled().then(|| CampaignObs::register(id, &engine));
    remp_obs::event(remp_obs::Level::Info, "campaign", Some(id), || {
        (
            if resumed {
                "campaign resumed from checkpoint".to_owned()
            } else {
                "campaign started".to_owned()
            },
            vec![("name", Json::from(spec.name.as_str()))],
        )
    });

    while let Ok(Call { request, reply }) = rx.recv() {
        if matches!(request, CampaignRequest::Stop) {
            let _ = reply.send(Ok(Json::Null));
            remp_obs::event(remp_obs::Level::Info, "campaign", Some(id), || {
                ("campaign stopped".to_owned(), Vec::new())
            });
            if let Some(obs) = obs {
                obs.deregister();
            }
            durability.wal = None;
            sync_wal_bytes(&shared.wal, &mut durability);
            return;
        }
        // These can unblock a parked long-poll `/next` (or tell it to
        // fail fast); wake the dispatcher after a successful one.
        let wakes_waiters = matches!(
            request,
            CampaignRequest::Answer { .. } | CampaignRequest::Resume | CampaignRequest::Pause
        );
        let response = handle_request(id, &spec, &mut engine, request, &shared, &mut durability);
        let succeeded = response.is_ok();
        let _ = reply.send(response);
        if let Some(obs) = &obs {
            obs.refresh(&engine);
        }
        if succeeded && wakes_waiters {
            maybe_compact(id, &spec, &engine, &shared, &mut durability);
            shared.notifier.notify();
        }
    }
    durability.wal = None;
    sync_wal_bytes(&shared.wal, &mut durability);
    if let Some(obs) = obs {
        obs.deregister();
    }
}

fn handle_request(
    id: &str,
    spec: &CampaignSpec,
    engine: &mut CampaignEngine<'_>,
    request: CampaignRequest,
    shared: &ActorShared,
    durability: &mut ActorDurability,
) -> Result<Json, ServeError> {
    match request {
        CampaignRequest::Next { worker, now_ms } => {
            let assignment = engine.next_for(&worker, now_ms)?;
            let complete = engine.progress(now_ms)?.complete;
            // With nothing assignable right now, tell the caller (and
            // the long-poll dispatcher) when a lease expiry could
            // change that.
            let retry_at_ms = if assignment.is_none() && !complete {
                engine.earliest_lease_deadline()
            } else {
                None
            };
            Ok(Json::Obj(vec![
                (
                    "assignment".into(),
                    match &assignment {
                        None => Json::Null,
                        Some(a) => question_json(&a.question),
                    },
                ),
                (
                    "deadline_ms".into(),
                    assignment.as_ref().map_or(Json::Null, |a| Json::from(a.deadline_ms)),
                ),
                ("complete".into(), Json::from(complete)),
                ("retry_at_ms".into(), retry_at_ms.map_or(Json::Null, Json::from)),
            ]))
        }
        CampaignRequest::Answer { worker, question, says_match, now_ms } => {
            let ack = engine.answer(&worker, question, says_match, now_ms)?;
            // The answer is accepted: make it durable before anything
            // is acknowledged. A failed append is a 500 — the engine
            // holds the answer, but the client must not treat it as
            // safely recorded.
            durability.answer_seq += 1;
            if let Some(wal) = durability.wal.as_mut() {
                let record = WalRecord {
                    seq: durability.answer_seq,
                    question: question.0,
                    worker: worker.clone(),
                    says_match,
                    now_ms,
                };
                match wal.append(&record) {
                    Ok(appended) => {
                        shared.wal.records.inc();
                        shared.wal.bytes.add(appended);
                        durability.since_compact += 1;
                    }
                    Err(e) => {
                        let path = wal.path().display().to_string();
                        return Err(ServeError::internal(
                            "wal",
                            format!("{path}: appending answer record: {e}"),
                        ));
                    }
                }
                sync_wal_bytes(&shared.wal, durability);
            }
            if let Some(s) = &ack.submitted {
                remp_obs::event(remp_obs::Level::Info, "campaign", Some(id), || {
                    (
                        "question submitted".to_owned(),
                        vec![
                            ("question", Json::from(question.to_string())),
                            ("verdict", Json::from(verdict_code(s.verdict))),
                            ("posterior", Json::from(s.posterior)),
                            ("propagated", Json::from(s.propagated)),
                            ("batch_complete", Json::from(s.batch_complete)),
                        ],
                    )
                });
            }
            Ok(Json::Obj(vec![
                ("question".into(), Json::from(question.to_string())),
                ("collected".into(), Json::from(ack.collected)),
                ("required".into(), Json::from(ack.required)),
                (
                    "submitted".into(),
                    match ack.submitted {
                        None => Json::Null,
                        Some(s) => Json::Obj(vec![
                            ("verdict".into(), Json::from(verdict_code(s.verdict))),
                            ("posterior".into(), Json::from(s.posterior)),
                            ("propagated".into(), Json::from(s.propagated)),
                            ("batch_complete".into(), Json::from(s.batch_complete)),
                        ]),
                    },
                ),
            ]))
        }
        CampaignRequest::Status { now_ms } => {
            let p = engine.progress(now_ms)?;
            Ok(Json::Obj(vec![
                ("name".into(), Json::from(spec.name.as_str())),
                ("paused".into(), Json::from(p.paused)),
                ("complete".into(), Json::from(p.complete)),
                ("loops".into(), Json::from(p.loops)),
                ("questions_asked".into(), Json::from(p.questions_asked)),
                ("issued".into(), Json::from(p.issued)),
                ("open".into(), Json::from(p.open.len())),
                ("workers".into(), Json::from(p.workers)),
                ("per_question".into(), Json::from(engine.policy().per_question)),
                ("leases".into(), crate::engine::lease_stats_json(p.leases)),
                (
                    "worker_quality".into(),
                    crate::engine::worker_quality_json(&engine.worker_estimates()),
                ),
                ("loop_stats".into(), crate::engine::loop_stats_json(engine.loop_stats())),
            ]))
        }
        CampaignRequest::Questions { now_ms } => {
            let open = engine.open_questions(now_ms)?;
            Ok(Json::Obj(vec![(
                "questions".into(),
                Json::Arr(
                    open.into_iter()
                        .map(|(q, collected, leases)| {
                            let mut doc = question_json(&q);
                            if let Json::Obj(fields) = &mut doc {
                                fields.push(("collected".into(), Json::from(collected)));
                                fields.push(("leases".into(), Json::from(leases)));
                            }
                            doc
                        })
                        .collect(),
                ),
            )]))
        }
        CampaignRequest::Workers => {
            let workers = engine.worker_estimates();
            Ok(Json::Obj(vec![
                ("count".into(), Json::from(workers.len())),
                (
                    "workers".into(),
                    Json::Arr(
                        workers
                            .into_iter()
                            .map(|(name, estimate, r)| {
                                Json::Obj(vec![
                                    ("name".into(), Json::from(name)),
                                    ("estimate".into(), Json::from(estimate)),
                                    ("qualification".into(), Json::from(r.qualification)),
                                    ("scored".into(), Json::from(r.scored)),
                                    ("agreed".into(), Json::from(r.agreed)),
                                ])
                            })
                            .collect(),
                    ),
                ),
            ]))
        }
        CampaignRequest::Outcome => {
            let outcome = engine.outcome();
            Ok(crate::wire::outcome_json(&outcome, engine.log()))
        }
        CampaignRequest::Pause => {
            engine.pause();
            remp_obs::event(remp_obs::Level::Info, "campaign", Some(id), || {
                ("campaign paused".to_owned(), Vec::new())
            });
            Ok(Json::Obj(vec![("paused".into(), Json::from(true))]))
        }
        CampaignRequest::Resume => {
            engine.unpause();
            remp_obs::event(remp_obs::Level::Info, "campaign", Some(id), || {
                ("campaign resumed".to_owned(), Vec::new())
            });
            Ok(Json::Obj(vec![("paused".into(), Json::from(false))]))
        }
        CampaignRequest::Checkpoint => Ok(encode_state(spec, engine, durability.answer_seq)),
        CampaignRequest::Stop => unreachable!("handled by the actor loop"),
    }
}

// ---- state files ------------------------------------------------------

fn encode_state(spec: &CampaignSpec, engine: &CampaignEngine<'_>, answer_seq: u64) -> Json {
    Json::Obj(vec![
        ("version".into(), Json::UInt(STATE_VERSION)),
        ("name".into(), Json::from(spec.name.as_str())),
        ("source".into(), spec.source.to_json()),
        (
            "policy".into(),
            Json::Obj(vec![
                ("per_question".into(), Json::from(spec.policy.per_question)),
                ("qualification".into(), Json::from(spec.policy.qualification)),
                ("quality_weight".into(), Json::from(spec.policy.quality_weight)),
                ("lease_ms".into(), Json::from(spec.policy.lease_ms)),
            ]),
        ),
        ("paused".into(), Json::from(engine.paused())),
        ("answer_seq".into(), Json::UInt(answer_seq)),
        (
            "workers".into(),
            Json::Arr(
                engine
                    .worker_records()
                    .into_iter()
                    .map(|(name, r)| {
                        Json::Obj(vec![
                            ("name".into(), Json::from(name)),
                            ("qualification".into(), Json::from(r.qualification)),
                            ("scored".into(), Json::from(r.scored)),
                            ("agreed".into(), Json::from(r.agreed)),
                        ])
                    })
                    .collect(),
            ),
        ),
        (
            "answers".into(),
            Json::Arr(
                engine
                    .open_answers()
                    .into_iter()
                    .map(|(q, w, says)| {
                        Json::Arr(vec![Json::from(q), Json::from(w), Json::from(says)])
                    })
                    .collect(),
            ),
        ),
        ("log".into(), Json::Arr(engine.log().iter().map(SubmittedRecord::to_json).collect())),
        ("session".into(), engine.session_checkpoint().to_json()),
    ])
}

/// Decodes a state file written next to an `{id}.campaign.json` name.
fn decode_state_file(text: &str) -> Result<(String, CampaignSpec, ResumeState), ServeError> {
    let bad = |msg: String| ServeError::internal("state_file", msg);
    let doc = Json::parse(text).map_err(|e| bad(format!("not JSON: {e}")))?;
    let version: u64 = doc.field("version")?;
    if version != STATE_VERSION {
        return Err(bad(format!("unsupported state version {version}")));
    }
    let policy: &Json = doc.field("policy")?;
    let policy = CrowdPolicy {
        per_question: policy.field("per_question")?,
        qualification: policy.field("qualification")?,
        quality_weight: policy.field("quality_weight")?,
        lease_ms: policy.field("lease_ms")?,
    };
    policy.validate()?;
    let workers = doc
        .field::<Vec<&Json>>("workers")?
        .into_iter()
        .map(|w| {
            let record = WorkerRecord {
                qualification: w.field("qualification")?,
                scored: w.field("scored")?,
                agreed: w.field("agreed")?,
            };
            Ok((w.field("name")?, record))
        })
        .collect::<Result<Vec<_>, FieldError>>()?;
    let session =
        SessionCheckpoint::from_json(doc.field("session")?).map_err(|e| bad(e.to_string()))?;
    let spec = CampaignSpec {
        name: doc.field("name")?,
        source: CampaignSource::from_json(doc.field("source")?)?,
        config: session.config.clone(),
        policy,
    };
    let resume = ResumeState {
        session,
        workers,
        answers: doc.field("answers")?,
        log: doc.field("log")?,
        paused: doc.opt_field("paused")?.unwrap_or(false),
        // Additive: pre-WAL state files have no answer_seq, meaning no
        // WAL record is folded in yet.
        answer_seq: doc.opt_field("answer_seq")?.unwrap_or(0),
    };
    Ok((doc.field("id")?, spec, resume))
}

#[cfg(test)]
mod tests {
    use super::*;
    use remp_datasets::{generate, tiny};

    fn tiny_spec() -> CampaignSpec {
        CampaignSpec {
            name: "tiny".into(),
            source: CampaignSource::Preset { preset: "TINY".into(), scale: 1.0 },
            config: RempConfig::default(),
            policy: CrowdPolicy { per_question: 2, ..CrowdPolicy::default() },
        }
    }

    #[test]
    fn create_call_and_stop_round_trip() {
        let registry = Registry::open(None).unwrap();
        let id = registry.create(tiny_spec()).unwrap();
        assert_eq!(registry.list(), vec![(id.clone(), "tiny".to_owned())]);

        let status = registry.call(&id, CampaignRequest::Status { now_ms: 0 }).unwrap();
        assert_eq!(status.get("complete").and_then(Json::as_bool), Some(false));
        assert_eq!(status.field::<usize>("per_question"), Ok(2));

        let next =
            registry.call(&id, CampaignRequest::Next { worker: "w0".into(), now_ms: 0 }).unwrap();
        assert!(next.get("assignment").unwrap().get("id").is_some());

        // Leasing the first question forced the first propagation pass;
        // the status now reports where that time went.
        let status = registry.call(&id, CampaignRequest::Status { now_ms: 0 }).unwrap();
        let stats = status.get("loop_stats").expect("loop stats in status");
        assert_eq!(stats.field::<usize>("propagation_passes"), Ok(1));
        assert!(stats.get("last").and_then(|l| l.get("full_rebuild")).is_some());

        assert_eq!(
            registry.call("nope", CampaignRequest::Status { now_ms: 0 }).unwrap_err().status,
            404
        );
        registry.shutdown().unwrap();
    }

    #[test]
    fn bad_sources_fail_synchronously() {
        let registry = Registry::open(None).unwrap();
        let mut spec = tiny_spec();
        spec.source = CampaignSource::Preset { preset: "NOPE".into(), scale: 1.0 };
        assert_eq!(registry.create(spec).unwrap_err().code, "unknown_preset");
        let mut spec = tiny_spec();
        spec.source = CampaignSource::Files {
            kb1: PathBuf::from("/definitely/not/here.nt"),
            kb2: PathBuf::from("/definitely/not/here.nt"),
        };
        assert_eq!(registry.create(spec).unwrap_err().code, "bad_kb");
        registry.shutdown().unwrap();
    }

    #[test]
    fn state_files_survive_a_registry_restart() {
        let dir =
            std::env::temp_dir().join(format!("remp-serve-registry-test-{}", std::process::id()));
        let _ = fs::remove_dir_all(&dir);

        let d = generate(&tiny(1.0));
        let registry = Registry::open(Some(dir.clone())).unwrap();
        let id = registry.create(tiny_spec()).unwrap();
        // Take a lease and answer once so there is mid-question state.
        let next =
            registry.call(&id, CampaignRequest::Next { worker: "w0".into(), now_ms: 0 }).unwrap();
        let assignment: &Json = next.field("assignment").unwrap();
        let qid: QuestionId = assignment.field::<&str>("id").unwrap().parse().unwrap();
        let (u1, u2) = (assignment.field("u1").unwrap(), assignment.field("u2").unwrap());
        let truth = d.is_match(remp_kb::EntityId(u1), remp_kb::EntityId(u2));
        registry
            .call(
                &id,
                CampaignRequest::Answer {
                    worker: "w0".into(),
                    question: qid,
                    says_match: truth,
                    now_ms: 0,
                },
            )
            .unwrap();
        assert_eq!(registry.shutdown().unwrap(), 1);

        // A fresh registry on the same directory resumes the campaign,
        // including the half-answered question.
        let registry = Registry::open(Some(dir.clone())).unwrap();
        assert_eq!(registry.list().len(), 1, "campaign resumed from its state file");
        let err = registry
            .call(
                &id,
                CampaignRequest::Answer {
                    worker: "w0".into(),
                    question: qid,
                    says_match: truth,
                    now_ms: 0,
                },
            )
            .unwrap_err();
        assert_eq!(err.code, "duplicate_answer", "w0's pre-restart answer was restored");
        registry.shutdown().unwrap();
        fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn unresumable_state_files_are_skipped_not_fatal() {
        let dir =
            std::env::temp_dir().join(format!("remp-serve-badstate-test-{}", std::process::id()));
        let _ = fs::remove_dir_all(&dir);

        // One healthy campaign checkpointed…
        let registry = Registry::open(Some(dir.clone())).unwrap();
        let id = registry.create(tiny_spec()).unwrap();
        registry.shutdown().unwrap();
        // …plus a file truncated by a hard kill and one that is not JSON.
        fs::write(dir.join("c9.campaign.json"), "{\"version\": 1, \"id\": \"c9\"").unwrap();
        fs::write(dir.join("c8.campaign.json"), "not json at all").unwrap();

        // The healthy campaign must come back; the wrecked ones are
        // skipped (left on disk for forensics), not fatal.
        let registry = Registry::open(Some(dir.clone())).unwrap();
        assert_eq!(registry.list().len(), 1);
        assert_eq!(registry.list()[0].0, id);
        registry.shutdown().unwrap();
        fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn wal_replay_recovers_answers_the_checkpoint_never_saw() {
        let dir = std::env::temp_dir().join(format!("remp-serve-wal-test-{}", std::process::id()));
        let _ = fs::remove_dir_all(&dir);

        let d = generate(&tiny(1.0));
        let registry = Registry::open(Some(dir.clone())).unwrap();
        let id = registry.create(tiny_spec()).unwrap();
        // create() wrote the genesis checkpoint; keep a copy so we can
        // roll the checkpoint back to before the answer, like a crash
        // that never reached a compaction would.
        let state_path = dir.join(format!("{id}.campaign.json"));
        let genesis = fs::read(&state_path).unwrap();
        assert!(registry.wal_bytes() > 0, "WAL header exists on disk");

        let next =
            registry.call(&id, CampaignRequest::Next { worker: "w0".into(), now_ms: 0 }).unwrap();
        let assignment: &Json = next.field("assignment").unwrap();
        let qid: QuestionId = assignment.field::<&str>("id").unwrap().parse().unwrap();
        let (u1, u2) = (assignment.field("u1").unwrap(), assignment.field("u2").unwrap());
        let truth = d.is_match(remp_kb::EntityId(u1), remp_kb::EntityId(u2));
        registry
            .call(
                &id,
                CampaignRequest::Answer {
                    worker: "w0".into(),
                    question: qid,
                    says_match: truth,
                    now_ms: 0,
                },
            )
            .unwrap();
        let wal_after_answer = registry.wal_bytes();
        registry.shutdown().unwrap();

        // Roll the checkpoint back to genesis (answer_seq 0) and tack
        // torn garbage onto the WAL — the crash-recovery worst case.
        fs::write(&state_path, &genesis).unwrap();
        let wal_file = dir.join(format!("{id}.wal"));
        let mut wal_bytes = fs::read(&wal_file).unwrap();
        wal_bytes.extend_from_slice(&[0xDE, 0xAD, 0xBE]);
        fs::write(&wal_file, &wal_bytes).unwrap();

        let registry = Registry::open(Some(dir.clone())).unwrap();
        assert_eq!(registry.list().len(), 1, "campaign resumed");
        assert_eq!(registry.wal_bytes(), wal_after_answer, "torn tail truncated, record kept");
        let err = registry
            .call(
                &id,
                CampaignRequest::Answer {
                    worker: "w0".into(),
                    question: qid,
                    says_match: truth,
                    now_ms: 0,
                },
            )
            .unwrap_err();
        assert_eq!(err.code, "duplicate_answer", "w0's WAL-only answer was replayed");
        registry.shutdown().unwrap();
        fs::remove_dir_all(&dir).unwrap();
    }
}
