//! What the run ran on: recorded in every result so two results can be
//! told apart, and so a busy host is flagged instead of trusted.

use std::fs;
use std::process::Command;
use std::time::Duration;

use crate::json::{obj, Value};

/// Host and build facts recorded with every result.
#[derive(Debug, Clone)]
pub struct Host {
    /// CPUs of the host (the benchmark itself runs on one of them).
    pub nproc: usize,
    /// The CPU every thread of the benchmark is pinned to, or `None` if
    /// pinning failed — the result is then flagged `noisy`.
    pub pinned_cpu: Option<usize>,
    pub cpu_model: String,
    pub rustc: &'static str,
    pub git_commit: String,
    /// 1-minute load average when the process started. It still carries
    /// the previous run of a back-to-back series, so it is recorded but
    /// does not decide `noisy`.
    pub load1: f64,
    /// Cores busy with other work during the first 100 ms of the process
    /// (this process sleeps through them).
    pub busy_cores_at_start: f64,
    /// More than half the cores were busy when the run started, or the
    /// benchmark could not pin itself.
    pub noisy: bool,
}

extern "C" {
    /// glibc's `sched_setaffinity(2)` wrapper; `mask` points at
    /// `cpusetsize` bytes of CPU bits.
    fn sched_setaffinity(pid: i32, cpusetsize: usize, mask: *const u64)
        -> i32;
}

/// Pin the calling thread — and every thread it later spawns — to the
/// first CPU it is allowed on, and return that CPU.
///
/// Ranks are threads that block in `recv`. Spread over two virtual CPUs,
/// every message wakes a halted vCPU, and that wake-up dominated and
/// varied: the same Neurosys job took 0.25 s on one CPU and 0.9 to 1.3 s
/// on two, changing from minute to minute. On one CPU a job's time is the
/// CPU work it does, which is what the layers can change.
pub fn pin_to_one_cpu() -> Option<usize> {
    let cpu: usize = read("/proc/self/status")
        .lines()
        .find_map(|l| l.strip_prefix("Cpus_allowed_list:"))?
        .trim()
        .split(|c: char| !c.is_ascii_digit())
        .next()?
        .parse()
        .ok()?;
    let mut mask = [0u64; 16];
    *mask.get_mut(cpu / 64)? |= 1 << (cpu % 64);
    // SAFETY: `mask` is a live array of `size_of_val(&mask)` bytes, which
    // is all the call reads; pid 0 names the calling thread.
    let rc = unsafe {
        sched_setaffinity(0, std::mem::size_of_val(&mask), mask.as_ptr())
    };
    (rc == 0).then_some(cpu)
}

fn read(path: &str) -> String {
    fs::read_to_string(path).unwrap_or_default()
}

/// `(busy, total)` jiffies summed over all CPUs, from `/proc/stat`.
fn cpu_jiffies() -> Option<(u64, u64)> {
    let stat = read("/proc/stat");
    let fields: Vec<u64> = stat
        .lines()
        .next()?
        .split_whitespace()
        .skip(1)
        .filter_map(|f| f.parse().ok())
        .collect();
    // user nice system idle iowait irq softirq steal ...
    let total: u64 = fields.iter().take(8).sum();
    let idle = fields.get(3)? + fields.get(4)?;
    Some((total - idle, total))
}

impl Host {
    /// Probe the host and pin the benchmark to one CPU; call it before
    /// any thread is spawned. Sleeps 100 ms to sample how busy the CPUs
    /// are.
    pub fn pin_and_probe() -> Host {
        let cpuinfo = read("/proc/cpuinfo");
        let nproc = cpuinfo
            .lines()
            .filter(|l| l.starts_with("processor"))
            .count()
            .max(1);
        let pinned_cpu = pin_to_one_cpu();
        let before = cpu_jiffies();
        std::thread::sleep(Duration::from_millis(100));
        let busy_cores_at_start = match (before, cpu_jiffies()) {
            (Some((b0, t0)), Some((b1, t1))) if t1 > t0 => {
                (b1 - b0) as f64 / (t1 - t0) as f64 * nproc as f64
            }
            _ => 0.0,
        };
        let cpu_model = cpuinfo
            .lines()
            .find(|l| l.starts_with("model name"))
            .and_then(|l| l.split_once(':'))
            .map_or_else(|| "unknown".into(), |(_, m)| m.trim().to_string());
        let git_commit = Command::new("git")
            .args(["rev-parse", "HEAD"])
            .output()
            .ok()
            .filter(|o| o.status.success())
            .and_then(|o| String::from_utf8(o.stdout).ok())
            .map_or_else(|| "unknown".into(), |s| s.trim().to_string());
        let load1 = read("/proc/loadavg")
            .split_whitespace()
            .next()
            .and_then(|f| f.parse().ok())
            .unwrap_or(0.0);
        Host {
            nproc,
            pinned_cpu,
            cpu_model,
            rustc: env!("C3BENCH_RUSTC_VERSION"),
            git_commit,
            load1,
            busy_cores_at_start,
            noisy: busy_cores_at_start > nproc as f64 / 2.0
                || pinned_cpu.is_none(),
        }
    }

    pub fn to_json(&self) -> Value {
        obj(vec![
            ("nproc", self.nproc.into()),
            (
                "pinned_cpu",
                self.pinned_cpu.map_or(Value::Null, Into::into),
            ),
            ("cpu_model", self.cpu_model.as_str().into()),
            ("rustc", self.rustc.into()),
            ("git_commit", self.git_commit.as_str().into()),
            ("load1", self.load1.into()),
            ("busy_cores_at_start", self.busy_cores_at_start.into()),
            ("noisy", self.noisy.into()),
        ])
    }
}

/// Peak resident set size of this process so far (`VmHWM`), in MB.
pub fn peak_rss_mb() -> f64 {
    read("/proc/self/status")
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.split_whitespace().next()?.parse::<f64>().ok())
        .map_or(0.0, |kb| kb * 1024.0 / 1e6)
}
