//! Host measurements: resource usage of this process and of each child,
//! steal time, load, and the build the numbers came from.

use std::io;
use std::os::unix::process::ExitStatusExt as _;
use std::path::Path;
use std::process::{Child, Command, ExitStatus};

#[cfg(not(all(target_os = "linux", target_pointer_width = "64")))]
compile_error!("the benchmark reads Linux resource usage and /proc: it runs on 64-bit Linux only");

#[repr(C)]
struct Timeval {
    sec: i64,
    usec: i64,
}

/// `struct rusage` as 64-bit Linux lays it out.
#[repr(C)]
struct RawUsage {
    utime: Timeval,
    stime: Timeval,
    maxrss_kb: i64,
    _rest: [i64; 13],
}

extern "C" {
    fn getrusage(who: i32, usage: *mut RawUsage) -> i32;
    fn wait4(pid: i32, status: *mut i32, options: i32, usage: *mut RawUsage) -> i32;
    fn sysconf(name: i32) -> i64;
}

const RUSAGE_SELF: i32 = 0;
const SC_CLK_TCK: i32 = 2;

/// CPU time and peak resident memory of one process.
#[derive(Debug, Clone, Copy, Default)]
pub struct Usage {
    /// User plus system seconds.
    pub cpu_s: f64,
    /// Peak resident set size (`VmHWM`), in KiB.
    pub maxrss_kb: u64,
}

impl RawUsage {
    fn zeroed() -> RawUsage {
        RawUsage {
            utime: Timeval { sec: 0, usec: 0 },
            stime: Timeval { sec: 0, usec: 0 },
            maxrss_kb: 0,
            _rest: [0; 13],
        }
    }

    fn usage(&self) -> Usage {
        let secs = self.utime.sec + self.stime.sec;
        let usecs = self.utime.usec + self.stime.usec;
        Usage {
            cpu_s: secs as f64 + usecs as f64 * 1e-6,
            maxrss_kb: u64::try_from(self.maxrss_kb).unwrap_or(0),
        }
    }
}

/// This process's usage so far (all its threads).
pub fn self_usage() -> Usage {
    let mut raw = RawUsage::zeroed();
    // SAFETY: `raw` is a writable `struct rusage` of this platform's
    // layout, and RUSAGE_SELF is a valid `who`.
    let rc = unsafe { getrusage(RUSAGE_SELF, &mut raw) };
    assert_eq!(
        rc, 0,
        "getrusage(RUSAGE_SELF) fails only on invalid arguments"
    );
    raw.usage()
}

/// Lowers this process's peak resident set size to its current size
/// (Linux 4.0 and later; a no-op elsewhere).
pub fn reset_peak_rss() {
    let _ = std::fs::write("/proc/self/clear_refs", "5");
}

/// This process's peak resident set size since start or the last
/// [`reset_peak_rss`], in KiB.
pub fn peak_rss_kb() -> u64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|status| {
            let line = status.lines().find(|l| l.starts_with("VmHWM:"))?;
            line.split_whitespace().nth(1)?.parse().ok()
        })
        .unwrap_or(0)
}

/// Reaps `child` and returns its exit status with its own usage. The
/// caller must have drained the child's pipes, and must not wait on or
/// kill `child` afterwards: the process is gone.
pub fn wait_with_usage(child: &Child) -> io::Result<(ExitStatus, Usage)> {
    let pid = i32::try_from(child.id()).expect("Linux process ids fit in i32");
    let mut status = 0i32;
    let mut raw = RawUsage::zeroed();
    loop {
        // SAFETY: `status` and `raw` are writable and of the types
        // wait4 fills; `pid` is an unreaped child of this process.
        let rc = unsafe { wait4(pid, &mut status, 0, &mut raw) };
        if rc == pid {
            return Ok((ExitStatus::from_raw(status), raw.usage()));
        }
        let err = io::Error::last_os_error();
        if err.kind() != io::ErrorKind::Interrupted {
            return Err(err);
        }
    }
}

/// Seconds the hypervisor ran something else while this machine's CPUs
/// wanted to run (`steal` in `/proc/stat`, summed over CPUs).
pub fn steal_seconds() -> Option<f64> {
    let stat = std::fs::read_to_string("/proc/stat").ok()?;
    let ticks: u64 = stat
        .lines()
        .next()?
        .split_whitespace()
        .nth(8)?
        .parse()
        .ok()?;
    // SAFETY: sysconf takes no pointers and has no preconditions.
    let hz = unsafe { sysconf(SC_CLK_TCK) };
    Some(ticks as f64 / if hz > 0 { hz as f64 } else { 100.0 })
}

/// The 1-, 5- and 15-minute load averages.
pub fn loadavg() -> Option<[f64; 3]> {
    let text = std::fs::read_to_string("/proc/loadavg").ok()?;
    let mut fields = text.split_whitespace().map(str::parse::<f64>);
    Some([
        fields.next()?.ok()?,
        fields.next()?.ok()?,
        fields.next()?.ok()?,
    ])
}

/// The CPUs this process may run on.
pub fn parallelism() -> usize {
    std::thread::available_parallelism().map_or(1, std::num::NonZeroUsize::get)
}

/// The first line a command prints, or `"unknown"`.
fn first_line_of(command: &mut Command) -> String {
    command
        .output()
        .ok()
        .filter(|o| o.status.success())
        .and_then(|o| String::from_utf8(o.stdout).ok())
        .and_then(|s| s.lines().next().map(str::to_owned))
        .unwrap_or_else(|| "unknown".to_owned())
}

/// The compiler the benchmark was built with.
pub fn rustc_version() -> String {
    first_line_of(Command::new("rustc").arg("--version"))
}

/// The commit checked out in the current directory; a checkout without
/// `.git` (an exported tree) has none, and git never looks above it.
pub fn git_head() -> String {
    if !Path::new(".git").exists() {
        return "none".to_owned();
    }
    first_line_of(Command::new("git").args(["rev-parse", "HEAD"]))
}
