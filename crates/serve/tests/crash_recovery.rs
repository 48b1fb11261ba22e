//! Crash-durability tests: `rempd` is SIGKILLed mid-campaign — no
//! graceful shutdown, no final checkpoint — and a fresh process on the
//! same `--state-dir` must replay the answer WAL over the last
//! checkpoint and finish the campaign **bit-identical** to an
//! uninterrupted in-process run. A variant hand-writes a torn final
//! WAL record (the shape a crash mid-`write` leaves behind) and proves
//! recovery truncates it and keeps appending.

use std::io::{BufRead, BufReader, Write};
use std::path::PathBuf;
use std::process::{Child, Command, Stdio};

use remp_core::RempConfig;
use remp_datasets::{generate, tiny};
use remp_json::Json;
use remp_serve::{
    drive, drive_n, outcome_matches, reference_outcome, CrowdParams, CrowdPolicy, ServeClient,
    WireCrowd,
};

/// A `rempd` child process on a free port; the bound address is parsed
/// from its startup banner. Killed (not shut down) on drop so a failed
/// assertion never leaks a daemon.
struct Daemon {
    child: Child,
    addr: String,
}

impl Daemon {
    fn spawn(state_dir: &PathBuf) -> Daemon {
        let mut child = Command::new(env!("CARGO_BIN_EXE_rempd"))
            .args(["--addr", "127.0.0.1:0", "--state-dir"])
            .arg(state_dir)
            .args(["--threads", "2"])
            .stdout(Stdio::piped())
            .stderr(Stdio::null())
            .spawn()
            .expect("spawn rempd");
        let stdout = child.stdout.take().expect("rempd stdout");
        let mut lines = BufReader::new(stdout).lines();
        let addr = loop {
            let line = lines.next().expect("rempd exited before binding").expect("rempd stdout");
            if let Some(rest) = line.strip_prefix("rempd listening on http://") {
                break rest.trim().to_owned();
            }
        };
        // Keep draining the banner lines so the child never blocks on a
        // full pipe; rempd logs nothing per-request.
        std::thread::spawn(move || for _ in lines.map_while(Result::ok) {});
        Daemon { child, addr }
    }

    fn client(&self) -> ServeClient {
        ServeClient::new(self.addr.clone())
    }

    /// SIGKILL — the point of the test: no signal handler runs, no
    /// checkpoint is written, the WAL is all that survives.
    fn kill(mut self) {
        self.child.kill().expect("kill rempd");
        self.child.wait().expect("reap rempd");
        std::mem::forget(self);
    }
}

impl Drop for Daemon {
    fn drop(&mut self) {
        let _ = self.child.kill();
        let _ = self.child.wait();
    }
}

fn tmp_dir(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("remp-crash-{tag}-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    dir
}

fn create_campaign(client: &ServeClient, per_question: usize, name: &str) -> String {
    let created = client
        .post(
            "/campaigns",
            &Json::Obj(vec![
                ("name".into(), Json::from(name)),
                ("preset".into(), Json::from("TINY")),
                ("per_question".into(), Json::from(per_question)),
            ]),
        )
        .expect("create campaign");
    created.field("id").expect("campaign id")
}

/// Drives `partial` questions, SIGKILLs the daemon, optionally mangles
/// the WAL tail, restarts, finishes the campaign with the *same* crowd
/// RNG, and asserts the outcome bit-identical to the in-process
/// reference. Returns nothing — every guarantee is an assertion.
fn crash_and_recover(tag: &str, mangle_tail: bool) {
    let d = generate(&tiny(1.0));
    let truth = |a, b| d.is_match(a, b);
    let params = CrowdParams { per_question: 3, ..CrowdParams::paper_default(41) };
    let state_dir = tmp_dir(tag);

    // Phase 1: a real rempd process, killed -9 after four questions.
    let daemon = Daemon::spawn(&state_dir);
    let client = daemon.client();
    let id = create_campaign(&client, 3, tag);
    let mut crowd = WireCrowd::new(&params);
    let first = drive_n(&client, &id, &mut crowd, &truth, Some(4)).expect("partial drive");
    assert_eq!(first.len(), 4);
    daemon.kill();

    let wal_path = state_dir.join(format!("{id}.wal"));
    let wal_before = std::fs::metadata(&wal_path).expect("WAL exists after kill -9").len();
    assert!(wal_before > 0, "accepted answers must be in the WAL before the 2xx");

    if mangle_tail {
        // A crash mid-append leaves a frame whose length prefix promises
        // more bytes than were flushed. Recovery must truncate exactly
        // this tail and keep every complete frame before it.
        let mut wal = std::fs::OpenOptions::new().append(true).open(&wal_path).expect("open WAL");
        wal.write_all(&200u32.to_le_bytes()).expect("torn length prefix");
        wal.write_all(&[0xAB; 11]).expect("torn partial payload");
        wal.sync_all().expect("sync torn tail");
    }

    // Phase 2: a fresh process on the same state dir replays the WAL.
    let daemon = Daemon::spawn(&state_dir);
    let client = daemon.client();
    let status = client.get(&format!("/campaigns/{id}")).expect("recovered campaign status");
    assert_eq!(
        status.field::<usize>("questions_asked"),
        Ok(4),
        "WAL replay must restore every answered question"
    );
    if mangle_tail {
        let replayed = std::fs::metadata(&wal_path).expect("WAL after recovery").len();
        assert!(replayed <= wal_before, "recovery must truncate the torn tail, not keep it");
    }

    let rest = drive(&client, &id, &mut crowd, &truth).expect("drive to completion");
    assert!(!rest.is_empty(), "campaign still had open questions at the crash");
    let wire_outcome = client.get(&format!("/campaigns/{id}/outcome")).expect("outcome");
    daemon.kill();

    let policy = CrowdPolicy { per_question: 3, ..CrowdPolicy::default() };
    let (reference, log) =
        reference_outcome(&d.kb1, &d.kb2, &RempConfig::default(), &policy, &params, &truth)
            .expect("reference run");
    assert_eq!(first.len() + rest.len(), reference.questions_asked);
    outcome_matches(&wire_outcome, &reference, &log)
        .expect("campaign recovered from kill -9 must stay bit-identical to the in-process run");
    std::fs::remove_dir_all(&state_dir).unwrap();
}

#[test]
fn kill_dash_nine_mid_campaign_recovers_bit_identical() {
    crash_and_recover("kill9", false);
}

#[test]
fn torn_final_wal_record_is_truncated_and_the_campaign_still_recovers() {
    crash_and_recover("torn", true);
}
