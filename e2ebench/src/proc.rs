//! Child processes: every system under test runs in a fresh process.
//!
//! The benchmark re-executes its own binary for each campaign run (so
//! generator memory never reaches `peak_rss_mb`), starts a fresh
//! `rempd` per serve or scale run, and kills and reaps every process it
//! started, error paths included.

use std::io::{BufRead, BufReader, Read};
use std::path::{Path, PathBuf};
use std::process::{Child, Command, Stdio};

use remp_json::Json;

/// A sibling executable of this benchmark binary (`e2ebench`, `rempd`).
pub fn sibling_exe(name: &str) -> Result<PathBuf, String> {
    let me = std::env::current_exe().map_err(|e| format!("current_exe: {e}"))?;
    let path = me.with_file_name(name);
    if path.is_file() {
        Ok(path)
    } else {
        Err(format!("{} is not built next to {}", path.display(), me.display()))
    }
}

/// Runs this binary with `args` to completion and parses the last line
/// of its standard output as JSON. Standard error passes through.
pub fn run_child(args: &[String]) -> Result<Json, String> {
    let exe = std::env::current_exe().map_err(|e| format!("current_exe: {e}"))?;
    let out = Command::new(exe)
        .args(args)
        .stdin(Stdio::null())
        .stderr(Stdio::inherit())
        .output()
        .map_err(|e| format!("spawning child {args:?}: {e}"))?;
    let stdout = String::from_utf8_lossy(&out.stdout);
    if !out.status.success() {
        return Err(format!("child {args:?} failed ({}): {}", out.status, stdout.trim()));
    }
    let last = stdout.lines().last().unwrap_or("");
    Json::parse(last).map_err(|e| format!("child {args:?} printed no result line ({e}): {last:?}"))
}

/// Peak resident set size (`VmHWM`) of process `pid`, in MiB.
pub fn peak_rss_mb(pid: u32) -> Option<f64> {
    let status = std::fs::read_to_string(format!("/proc/{pid}/status")).ok()?;
    let line = status.lines().find(|l| l.starts_with("VmHWM:"))?;
    let kib: f64 = line.split_whitespace().nth(1)?.parse().ok()?;
    Some(kib / 1024.0)
}

/// A running `rempd`, killed and reaped on drop.
pub struct Rempd {
    child: Child,
    drain: Option<std::thread::JoinHandle<()>>,
    /// `host:port` it listens on.
    pub addr: String,
}

impl Rempd {
    /// Starts a fresh `rempd` on an ephemeral port, with `state_dir`
    /// (if any) and `threads` handler threads, and waits until it
    /// prints its listening address.
    pub fn start(state_dir: Option<&Path>, threads: usize) -> Result<Rempd, String> {
        let mut cmd = Command::new(sibling_exe("rempd")?);
        cmd.args(["--addr", "127.0.0.1:0", "--threads", &threads.to_string()]);
        if let Some(dir) = state_dir {
            cmd.arg("--state-dir").arg(dir);
        }
        let mut child = cmd
            .env("REMP_LOG", "error")
            .stdin(Stdio::null())
            .stdout(Stdio::piped())
            .stderr(Stdio::inherit())
            .spawn()
            .map_err(|e| format!("spawning rempd: {e}"))?;
        let stdout = child.stdout.take().expect("stdout is piped");
        let mut lines = BufReader::new(stdout);
        let mut line = String::new();
        let addr = loop {
            line.clear();
            match lines.read_line(&mut line) {
                Ok(0) | Err(_) => {
                    let _ = child.kill();
                    let _ = child.wait();
                    return Err("rempd exited before listening".into());
                }
                Ok(_) => {}
            }
            if let Some(rest) = line.trim().strip_prefix("rempd listening on http://") {
                break rest.to_owned();
            }
        };
        // Keep draining its stdout so the daemon never blocks on a full pipe.
        let drain = std::thread::spawn(move || {
            let _ = lines.read_to_end(&mut Vec::new());
        });
        Ok(Rempd { child, drain: Some(drain), addr })
    }

    /// The daemon's process id.
    pub fn pid(&self) -> u32 {
        self.child.id()
    }

    /// Peak RSS so far, in MiB.
    pub fn peak_rss_mb(&self) -> Option<f64> {
        peak_rss_mb(self.pid())
    }
}

impl Drop for Rempd {
    fn drop(&mut self) {
        let _ = self.child.kill();
        let _ = self.child.wait();
        // The pipe closed with the process, so the drain ends.
        if let Some(drain) = self.drain.take() {
            let _ = drain.join();
        }
    }
}

/// CPU time this process has used so far, in seconds, summed over all
/// its threads, exited ones included. This is the scheduler's run time
/// (`CLOCK_PROCESS_CPUTIME_ID`), which leaves out time a hypervisor
/// stole from the virtual CPUs.
pub fn process_cpu_s() -> f64 {
    #[repr(C)]
    struct Timespec {
        tv_sec: i64,
        tv_nsec: i64,
    }
    extern "C" {
        fn clock_gettime(clock: i32, ts: *mut Timespec) -> i32;
    }
    const CLOCK_PROCESS_CPUTIME_ID: i32 = 2;
    let mut ts = Timespec { tv_sec: 0, tv_nsec: 0 };
    // SAFETY: `ts` is a live, writable struct with the layout of the C
    // `struct timespec` on 64-bit Linux (two 64-bit fields), and
    // clock_gettime writes nothing but that struct.
    let rc = unsafe { clock_gettime(CLOCK_PROCESS_CPUTIME_ID, &mut ts) };
    assert_eq!(rc, 0, "clock_gettime(CLOCK_PROCESS_CPUTIME_ID) failed");
    ts.tv_sec as f64 + ts.tv_nsec as f64 * 1e-9
}

/// Wall-clock and CPU time of an interval of this process, minus the
/// stretches run through [`Interval::exclude`].
pub struct Interval {
    wall: std::time::Instant,
    cpu: f64,
    excluded_wall: f64,
    excluded_cpu: f64,
}

impl Interval {
    /// Starts measuring now.
    pub fn start() -> Interval {
        Interval {
            wall: std::time::Instant::now(),
            cpu: process_cpu_s(),
            excluded_wall: 0.0,
            excluded_cpu: 0.0,
        }
    }

    /// Runs `f` off the clock.
    pub fn exclude<T>(&mut self, f: impl FnOnce() -> T) -> T {
        let inner = Interval::start();
        let out = f();
        let (wall, cpu) = inner.read();
        self.excluded_wall += wall;
        self.excluded_cpu += cpu;
        out
    }

    /// `(wall seconds, CPU seconds)` so far, exclusions left out.
    pub fn read(&self) -> (f64, f64) {
        (
            self.wall.elapsed().as_secs_f64() - self.excluded_wall,
            process_cpu_s() - self.cpu - self.excluded_cpu,
        )
    }
}

/// CPU time process `pid` has used so far (user + system, exited
/// threads included), in seconds, at clock-tick resolution.
pub fn cpu_s_of(pid: u32) -> Option<f64> {
    // Linux reports `/proc/*/stat` times in USER_HZ ticks, 100 per second.
    const USER_HZ: f64 = 100.0;
    let stat = std::fs::read_to_string(format!("/proc/{pid}/stat")).ok()?;
    // Fields after the parenthesised command name; utime and stime are
    // fields 14 and 15 of the whole line.
    let rest = &stat[stat.rfind(')')? + 2..];
    let fields: Vec<&str> = rest.split_whitespace().collect();
    let ticks: f64 = fields.get(11)?.parse::<f64>().ok()? + fields.get(12)?.parse::<f64>().ok()?;
    Some(ticks / USER_HZ)
}
