//! Host-side helpers: peak memory, scratch directories and panic
//! isolation.

use crate::record::Book;
use crate::Opts;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::path::PathBuf;
use std::process::{Command, Stdio};

/// Peak resident set (`VmHWM`) of process `pid`, or of this process,
/// in MiB. `None` when `/proc` does not have it (the process has
/// exited, or the host is not Linux).
pub fn peak_rss_mib(pid: Option<u32>) -> Option<f64> {
    let path = match pid {
        Some(pid) => format!("/proc/{pid}/status"),
        None => "/proc/self/status".to_string(),
    };
    let status = std::fs::read_to_string(path).ok()?;
    let line = status.lines().find(|l| l.starts_with("VmHWM:"))?;
    let kib: f64 = line.split_whitespace().nth(1)?.parse().ok()?;
    Some(kib / 1024.0)
}

/// Where the benchmark writes: a directory next to its own binary,
/// which sits in the build directory of the checkout.
pub fn out_dir(name: &str) -> PathBuf {
    let exe = std::env::current_exe().expect("the running binary has a path");
    let dir = exe
        .parent()
        .expect("a binary lives in a directory")
        .join("gvc-benchmark-out")
        .join(name);
    std::fs::create_dir_all(&dir).unwrap_or_else(|e| panic!("create {}: {e}", dir.display()));
    dir
}

/// A fresh scratch directory for this process, removed on drop.
pub struct Scratch(pub PathBuf);

impl Scratch {
    pub fn new(tag: &str) -> Self {
        let dir = out_dir("scratch").join(format!("{tag}-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        std::fs::create_dir_all(&dir).unwrap_or_else(|e| panic!("create {}: {e}", dir.display()));
        Scratch(dir)
    }
}

impl Drop for Scratch {
    fn drop(&mut self) {
        let _ = std::fs::remove_dir_all(&self.0);
    }
}

/// Runs `f`, turning a panic into its message.
pub fn catch<T>(f: impl FnOnce() -> T) -> Result<T, String> {
    catch_unwind(AssertUnwindSafe(f)).map_err(|payload| {
        if let Some(s) = payload.downcast_ref::<&str>() {
            format!("panicked: {s}")
        } else if let Some(s) = payload.downcast_ref::<String>() {
            format!("panicked: {s}")
        } else {
            "panicked".to_string()
        }
    })
}

/// Set-up samples, taken a few at a time before and between a run's
/// passes. On this host a fresh process lands, at random, in a slow
/// or a fast class for faulting in memory, and small set-ups are
/// mostly that; the class mix also drifts over seconds. So each sample
/// is the fastest of three set-ups (of one, when a set-up takes over
/// 0.1 s and so is mostly real work), and the samples are spread over
/// the run.
#[derive(Debug, Default)]
pub struct Setup {
    pub samples: Vec<f64>,
}

impl Setup {
    /// Takes `n` samples (one for a smoke run's first call, none
    /// after), each from calls of `one`.
    pub fn take(
        &mut self,
        book: &mut Book,
        opts: &Opts,
        n: usize,
        mut one: impl FnMut() -> Result<f64, String>,
    ) {
        let n = if opts.smoke {
            usize::from(self.samples.is_empty())
        } else {
            n
        };
        for _ in 0..n {
            let mut best = f64::INFINITY;
            for _ in 0..3 {
                match one() {
                    Ok(secs) => best = best.min(secs),
                    Err(why) => return book.fail("setup", why),
                }
                if opts.smoke || best > 0.1 {
                    break;
                }
            }
            self.samples.push(best);
        }
    }
}

/// One set-up of the running in-process workload, timed in a fresh
/// process (`gvc-benchmark setup`) so it starts from a cold allocator
/// and graph memo whatever the run has done so far.
pub fn setup_process(workload: &str, opts: &Opts) -> Result<f64, String> {
    let exe = std::env::current_exe().map_err(|e| e.to_string())?;
    let mut cmd = Command::new(exe);
    cmd.args(["setup", "--workload", workload, "--seed"])
        .arg(opts.seed.to_string())
        .stdout(Stdio::piped())
        .stderr(Stdio::inherit());
    if opts.smoke {
        cmd.arg("--smoke");
    }
    let out = cmd.output().map_err(|e| e.to_string())?;
    let text = String::from_utf8_lossy(&out.stdout);
    match text.trim().parse::<f64>() {
        Ok(secs) if out.status.success() => Ok(secs),
        _ => Err(format!("set-up process exited with {}", out.status)),
    }
}
