//! Driving the shipped `tkc` binary: one-shot tools, `tkc serve`
//! instances, and the peak-RSS watch over every process started.

use std::io::{BufRead, BufReader, Read};
use std::path::{Path, PathBuf};
use std::process::{Child, Command, Stdio};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::Arc;
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

use crate::wire::Conn;

/// Largest VmHWM (kB) seen on any program process of this run.
#[derive(Debug, Clone, Default)]
pub struct Peak(Arc<AtomicU64>);

impl Peak {
    pub fn mb(&self) -> f64 {
        self.0.load(Ordering::Relaxed) as f64 / 1024.0
    }

    fn note(&self, kb: u64) {
        self.0.fetch_max(kb, Ordering::Relaxed);
    }

    /// Reads `pid`'s high-water mark once; false once it is gone.
    fn sample(&self, pid: u32) -> bool {
        let Ok(text) = std::fs::read_to_string(format!("/proc/{pid}/status")) else {
            return false;
        };
        match text.lines().find_map(|l| l.strip_prefix("VmHWM:")) {
            Some(rest) => {
                let kb = rest
                    .trim()
                    .trim_end_matches("kB")
                    .trim()
                    .parse()
                    .unwrap_or(0);
                self.note(kb);
                true
            }
            // A zombie has released its memory and lost the field.
            None => false,
        }
    }
}

/// Polls a process's VmHWM at a fixed interval until it exits.
struct Watch {
    stop: Arc<AtomicBool>,
    handle: Option<JoinHandle<()>>,
}

impl Watch {
    fn start(pid: u32, peak: &Peak, every: Duration) -> Watch {
        let stop = Arc::new(AtomicBool::new(false));
        let (flag, peak) = (Arc::clone(&stop), peak.clone());
        let handle = std::thread::spawn(move || {
            while !flag.load(Ordering::Relaxed) && peak.sample(pid) {
                std::thread::park_timeout(every);
            }
        });
        Watch {
            stop,
            handle: Some(handle),
        }
    }
}

impl Drop for Watch {
    fn drop(&mut self) {
        self.stop.store(true, Ordering::Relaxed);
        if let Some(h) = self.handle.take() {
            h.thread().unpark();
            let _ = h.join();
        }
    }
}

/// Runs `tkc <args>` to completion; returns its wall time and stdout.
/// A non-zero exit is an error.
pub fn run_tool(tkc: &Path, args: &[&str], peak: &Peak) -> Result<(Duration, String), String> {
    let start = Instant::now();
    let mut child = Command::new(tkc)
        .args(args)
        .stdin(Stdio::null())
        .stdout(Stdio::piped())
        .stderr(Stdio::piped())
        .spawn()
        .map_err(|e| format!("spawn {}: {e}", tkc.display()))?;
    let watch = Watch::start(child.id(), peak, Duration::from_millis(5));
    let mut stdout = child.stdout.take().ok_or("no stdout")?;
    let mut stderr = child.stderr.take().ok_or("no stderr")?;
    let err_reader = std::thread::spawn(move || {
        let mut s = String::new();
        let _ = stderr.read_to_string(&mut s);
        s
    });
    let mut out = String::new();
    stdout
        .read_to_string(&mut out)
        .map_err(|e| format!("tkc {}: {e}", args.join(" ")))?;
    let status = child.wait().map_err(|e| e.to_string())?;
    let elapsed = start.elapsed();
    drop(watch);
    let err = err_reader.join().unwrap_or_default();
    if !status.success() {
        return Err(format!("tkc {} failed ({status}): {err}", args.join(" ")));
    }
    Ok((elapsed, out))
}

/// A running `tkc serve`. Dropping it kills the process and reaps it.
pub struct Serve {
    child: Child,
    pub addr: String,
    watch: Option<Watch>,
    peak: Peak,
    drain: Option<JoinHandle<()>>,
}

impl Serve {
    /// Starts `tkc serve <dir>` on an ephemeral port and waits until it
    /// answers `PING`. Returns the server and the time from spawn to the
    /// first `OK pong`.
    pub fn start(tkc: &Path, dir: &Path, peak: &Peak) -> Result<(Serve, Duration), String> {
        let start = Instant::now();
        let mut child = Command::new(tkc)
            .arg("serve")
            .arg(dir)
            .args(["--addr", "127.0.0.1:0"])
            .stdin(Stdio::null())
            .stdout(Stdio::piped())
            .stderr(Stdio::inherit())
            .spawn()
            .map_err(|e| format!("spawn {}: {e}", tkc.display()))?;
        let watch = Watch::start(child.id(), peak, Duration::from_millis(100));
        let stdout = child.stdout.take().ok_or("no stdout")?;
        let mut lines = BufReader::new(stdout).lines();
        let mut addr = None;
        for line in lines.by_ref() {
            let line = line.map_err(|e| e.to_string())?;
            if let Some(a) = line.strip_prefix("tkc-engine listening on ") {
                addr = Some(a.trim().to_string());
                break;
            }
        }
        let mut serve = Serve {
            child,
            addr: String::new(),
            watch: Some(watch),
            peak: peak.clone(),
            drain: None,
        };
        serve.addr =
            addr.ok_or_else(|| format!("tkc serve {} exited before listening", dir.display()))?;
        // Keep draining stdout so the server never blocks on a full pipe.
        serve.drain = Some(std::thread::spawn(move || for _ in lines {}));
        let mut conn = Conn::connect(&serve.addr, Duration::from_secs(30))?;
        let pong = conn.request("PING").map_err(|e| format!("PING: {e}"))?;
        if pong != "OK pong" {
            return Err(format!("PING answered {pong:?}"));
        }
        Ok((serve, start.elapsed()))
    }

    /// SIGKILL, then reap.
    pub fn kill9(mut self) {
        self.reap_hard();
    }

    /// Sends `SHUTDOWN` (drain + compaction) and waits for a clean exit.
    pub fn shutdown(mut self) -> Result<(), String> {
        let mut conn = Conn::connect(&self.addr, Duration::from_secs(10))?;
        let reply = conn.request("SHUTDOWN").map_err(|e| e.to_string())?;
        if reply != "OK shutting down" {
            return Err(format!("SHUTDOWN answered {reply:?}"));
        }
        drop(conn);
        let deadline = Instant::now() + Duration::from_secs(120);
        loop {
            if let Some(status) = self.child.try_wait().map_err(|e| e.to_string())? {
                self.finish();
                return if status.success() {
                    Ok(())
                } else {
                    Err(format!("tkc serve exited with {status}"))
                };
            }
            if Instant::now() > deadline {
                return Err("tkc serve did not exit after SHUTDOWN".into());
            }
            std::thread::sleep(Duration::from_millis(10));
        }
    }

    fn reap_hard(&mut self) {
        self.peak.sample(self.child.id());
        let _ = self.child.kill();
        let _ = self.child.wait();
        self.finish();
    }

    fn finish(&mut self) {
        self.watch.take();
        if let Some(d) = self.drain.take() {
            let _ = d.join();
        }
    }
}

impl Drop for Serve {
    fn drop(&mut self) {
        if self.watch.is_some() {
            self.reap_hard();
        }
    }
}

/// Idle-class busy loops, one per core, for the length of a run.
///
/// On a virtual machine an idle core halts, and waking it again takes a
/// trip through the host scheduler whose latency depends on what other
/// tenants are doing; that noise swamped the sub-millisecond request
/// times. A `SCHED_IDLE` spinner keeps each core out of halt and yields
/// at once to any runnable program thread. Each spinner exits when its
/// stdin closes, so none can outlive the harness.
pub struct Spinners(Vec<Child>);

impl Spinners {
    /// Starts `n` spinners; starts none when `chrt` is unavailable.
    pub fn start(n: usize) -> Spinners {
        let mut kids = Vec::new();
        let Ok(exe) = std::env::current_exe() else {
            return Spinners(kids);
        };
        for _ in 0..n {
            let spawned = Command::new("chrt")
                .args(["--idle", "0"])
                .arg(&exe)
                .arg("--spin")
                .stdin(Stdio::piped())
                .stdout(Stdio::null())
                .stderr(Stdio::null())
                .spawn();
            match spawned {
                Ok(child) => kids.push(child),
                Err(_) => break,
            }
        }
        Spinners(kids)
    }

    pub fn count(&self) -> usize {
        self.0.len()
    }

    /// The `--spin` side: busy-wait until stdin reaches end of file.
    pub fn spin() {
        let done = Arc::new(AtomicBool::new(false));
        let flag = Arc::clone(&done);
        std::thread::spawn(move || {
            let _ = std::io::copy(&mut std::io::stdin(), &mut std::io::sink());
            flag.store(true, Ordering::Relaxed);
        });
        while !done.load(Ordering::Relaxed) {
            std::hint::spin_loop();
        }
    }
}

impl Drop for Spinners {
    fn drop(&mut self) {
        for child in &mut self.0 {
            drop(child.stdin.take());
            let _ = child.kill();
            let _ = child.wait();
        }
    }
}

/// A per-run scratch directory inside the checkout, removed on drop.
pub struct WorkDir(pub PathBuf);

impl WorkDir {
    pub fn create(root: &Path, label: &str) -> Result<WorkDir, String> {
        let dir = root.join(format!("{label}-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        std::fs::create_dir_all(&dir).map_err(|e| format!("{}: {e}", dir.display()))?;
        Ok(WorkDir(dir))
    }

    pub fn path(&self, name: &str) -> PathBuf {
        self.0.join(name)
    }
}

impl Drop for WorkDir {
    fn drop(&mut self) {
        let _ = std::fs::remove_dir_all(&self.0);
    }
}
