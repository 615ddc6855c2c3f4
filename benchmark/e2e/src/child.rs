//! Runs one child process to completion and reports what it cost the
//! host: wall time, user+system CPU time and peak resident set, the
//! last two from `wait4`'s `rusage`.

use std::ffi::OsStr;
use std::path::Path;
use std::process::{Command, Stdio};
use std::time::Instant;

/// Host cost of one finished child.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ChildCost {
    pub wall_s: f64,
    /// User plus system CPU seconds, summed over the child's threads.
    pub cpu_s: f64,
    pub peak_rss_mb: f64,
}

/// Linux `struct timeval` / `struct rusage` on 64-bit targets: two
/// timevals, then fourteen longs of which `ru_maxrss` (KiB) is the
/// first.
#[repr(C)]
#[derive(Default)]
struct Timeval {
    sec: i64,
    usec: i64,
}

#[repr(C)]
#[derive(Default)]
struct Rusage {
    utime: Timeval,
    stime: Timeval,
    maxrss_kib: i64,
    rest: [i64; 13],
}

extern "C" {
    fn wait4(pid: i32, status: *mut i32, options: i32, rusage: *mut Rusage) -> i32;
}

#[cfg(not(all(target_os = "linux", target_pointer_width = "64")))]
compile_error!("child.rs declares the 64-bit Linux layout of struct rusage");

/// Spawns `program args…` with stdout discarded and stderr inherited,
/// waits for it, and returns its cost. An exit status other than 0 is
/// an error.
pub fn run<S: AsRef<OsStr>>(program: &Path, args: &[S]) -> Result<ChildCost, String> {
    let start = Instant::now();
    let child = Command::new(program)
        .args(args)
        .stdin(Stdio::null())
        .stdout(Stdio::null())
        .spawn()
        .map_err(|e| format!("cannot start {}: {e}", program.display()))?;
    let pid = i32::try_from(child.id()).map_err(|_| "child pid does not fit a pid_t")?;
    let mut status = 0i32;
    let mut usage = Rusage::default();
    // SAFETY: `status` and `usage` are live, writable and laid out as
    // the kernel expects (see the struct comments); `pid` is a child of
    // this process that nothing else waits for — `child` is never
    // waited on through std, and dropping it does not reap.
    let reaped = unsafe { wait4(pid, &mut status, 0, &mut usage) };
    let wall_s = start.elapsed().as_secs_f64();
    if reaped != pid {
        return Err(format!(
            "wait4({pid}) failed: {}",
            std::io::Error::last_os_error()
        ));
    }
    // WIFEXITED && WEXITSTATUS == 0 is exactly a zero status word.
    if status != 0 {
        return Err(format!(
            "{} ended with wait status {status:#x} (exit code {}, signal {})",
            program.display(),
            (status >> 8) & 0xff,
            status & 0x7f
        ));
    }
    let secs = |t: &Timeval| t.sec as f64 + t.usec as f64 / 1e6;
    Ok(ChildCost {
        wall_s,
        cpu_s: secs(&usage.utime) + secs(&usage.stime),
        peak_rss_mb: usage.maxrss_kib as f64 / 1024.0,
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn reports_the_cost_of_a_finished_child() {
        let cost = run(Path::new("/bin/sh"), &["-c", "exit 0"]).unwrap();
        assert!(cost.wall_s > 0.0);
        assert!(cost.cpu_s >= 0.0);
        assert!(cost.peak_rss_mb > 0.0);
    }

    #[test]
    fn a_failing_child_is_an_error() {
        let err = run(Path::new("/bin/sh"), &["-c", "exit 3"]).unwrap_err();
        assert!(err.contains("exit code 3"), "{err}");
        assert!(run(Path::new("/nonexistent/program"), &["x"]).is_err());
    }
}
