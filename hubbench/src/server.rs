//! The served hub under test: a `gitcite hub serve` child process on a
//! loopback port chosen by the OS, with its data directory inside the
//! benchmark's work directory.

use std::io::{BufRead, BufReader};
use std::path::{Path, PathBuf};
use std::process::{Child, ChildStdin, Command, Stdio};

/// Runs the server under a shell that stops it once the shell's standard
/// input closes, which happens when this process drops the pipe or
/// dies, so no server outlives the benchmark even when it is killed.
const WATCHDOG: &str = r#""$@" & echo "pid $!"; read -r _; kill "$!"; wait "$!""#;

/// A running `gitcite hub serve --bind 127.0.0.1:0 --data-dir <dir>`.
pub struct Served {
    watchdog: Child,
    /// Held open while the server should run.
    stop: Option<ChildStdin>,
    pid: u32,
    /// The address the server printed on its `listening` line.
    pub addr: String,
    /// The server's data directory.
    pub data_dir: PathBuf,
}

impl Served {
    /// Starts the server and waits for its `listening` line.
    pub fn start(gitcite: &Path, data_dir: PathBuf) -> Result<Served, String> {
        let mut watchdog = Command::new("bash")
            .args(["-c", WATCHDOG, "watchdog"])
            .arg(gitcite)
            .args(["hub", "serve", "--bind", "127.0.0.1:0", "--data-dir"])
            .arg(&data_dir)
            .stdin(Stdio::piped())
            .stdout(Stdio::piped())
            .stderr(Stdio::inherit())
            .spawn()
            .map_err(|e| format!("cannot start {}: {e}", gitcite.display()))?;
        let stop = watchdog.stdin.take();
        let stdout = watchdog.stdout.take().expect("stdout is piped");
        let mut served = Served {
            watchdog,
            stop,
            pid: 0,
            addr: String::new(),
            data_dir,
        };
        // The shell's `pid` line and the server's `listening` line
        // arrive in either order.
        for line in BufReader::new(stdout).lines() {
            let Ok(line) = line else { break };
            if let Some(pid) = line.strip_prefix("pid ") {
                served.pid = pid.trim().parse().unwrap_or(0);
            } else if let Some(addr) = line.strip_prefix("gitcite hub listening on ") {
                served.addr = addr.trim().to_owned();
            }
            if served.pid != 0 && !served.addr.is_empty() {
                return Ok(served);
            }
        }
        Err("hub did not start".into())
    }

    /// Peak resident set (`VmHWM`) of the server process, in MB.
    pub fn peak_rss_mb(&self) -> f64 {
        let status =
            std::fs::read_to_string(format!("/proc/{}/status", self.pid)).unwrap_or_default();
        status
            .lines()
            .find_map(|l| l.strip_prefix("VmHWM:"))
            .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
            .map_or(0.0, |kb| kb / 1024.0)
    }
}

impl Drop for Served {
    /// Stops the server, waits for it to exit and removes its data.
    fn drop(&mut self) {
        drop(self.stop.take());
        let _ = self.watchdog.wait();
        let _ = std::fs::remove_dir_all(&self.data_dir);
    }
}

/// Total size in MB of the regular files under `dir`.
pub fn dir_mb(dir: &Path) -> f64 {
    fn walk(dir: &Path) -> u64 {
        let Ok(entries) = std::fs::read_dir(dir) else {
            return 0;
        };
        entries
            .flatten()
            .map(|e| match e.metadata() {
                Ok(m) if m.is_dir() => walk(&e.path()),
                Ok(m) => m.len(),
                Err(_) => 0,
            })
            .sum()
    }
    walk(dir) as f64 / (1024.0 * 1024.0)
}

/// The type of the file system mounted at `dir` (`tmpfs` when `run.sh`
/// could mount one there), or `disk` when `dir` is not a mount point.
pub fn fs_type(dir: &Path) -> String {
    let Ok(dir) = dir.canonicalize() else {
        return "disk".into();
    };
    let mounts = std::fs::read_to_string("/proc/self/mountinfo").unwrap_or_default();
    // `<id> <parent> <dev> <root> <mount point> ... - <type> <source> ...`
    mounts
        .lines()
        .filter(|l| l.split(' ').nth(4).map(Path::new) == Some(dir.as_path()))
        .filter_map(|l| l.split(" - ").nth(1)?.split(' ').next())
        .next_back()
        .map_or_else(|| "disk".into(), str::to_owned)
}
