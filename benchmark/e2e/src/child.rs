//! Child processes: spawn, wait, and read back wall-clock, peak RSS and
//! output. One thread; a child's stdout goes to a file so no reader
//! thread is needed to keep a pipe from filling.

use std::fs::File;
use std::io;
use std::path::Path;
use std::process::{Child, Command, Stdio};
use std::time::Instant;

#[cfg(not(all(target_os = "linux", target_pointer_width = "64")))]
compile_error!("bench-e2e reads a child's peak RSS with Linux's 64-bit wait4(2)");

/// Linux `struct timeval` on 64-bit targets.
#[repr(C)]
#[derive(Default)]
struct Timeval {
    sec: i64,
    usec: i64,
}

/// Linux `struct rusage` on 64-bit targets: two timevals, then fourteen
/// longs of which `ru_maxrss` (kilobytes) is the first.
#[repr(C)]
#[derive(Default)]
struct Rusage {
    utime: Timeval,
    stime: Timeval,
    maxrss: i64,
    rest: [i64; 13],
}

/// A Linux `cpu_set_t`: 1024 CPUs, one bit each.
type CpuSet = [u64; 16];

extern "C" {
    fn wait4(pid: i32, status: *mut i32, options: i32, rusage: *mut Rusage) -> i32;
    fn sched_getaffinity(pid: i32, size: usize, mask: *mut CpuSet) -> i32;
    fn sched_setaffinity(pid: i32, size: usize, mask: *const CpuSet) -> i32;
}

/// Puts this (single-threaded) process and the main thread of `child` on
/// one CPU, the lowest this process may run on.
///
/// A request/reply ping-pong between two processes on different CPUs of a
/// virtual machine measures the hypervisor's cross-CPU wake-up (54 µs a
/// round trip on the reference host, and ±10 % from run to run) instead of
/// the code path that answers (16 µs on one CPU).
pub fn share_one_cpu(child: &Child) -> io::Result<Pinned> {
    let mut set: CpuSet = [0; 16];
    let size = std::mem::size_of::<CpuSet>();
    // SAFETY: `set` is valid for writes of `size` bytes; pid 0 is the caller.
    if unsafe { sched_getaffinity(0, size, &mut set) } != 0 {
        return Err(io::Error::last_os_error());
    }
    let (word, bits) = set
        .iter()
        .enumerate()
        .find(|(_, bits)| **bits != 0)
        .ok_or_else(|| io::Error::other("empty CPU affinity mask"))?;
    let mut one: CpuSet = [0; 16];
    one[word] = 1 << bits.trailing_zeros();
    for pid in [0, child.id() as i32] {
        // SAFETY: `one` is valid for reads of `size` bytes; the pids are this
        // process and a live child of it.
        if unsafe { sched_setaffinity(pid, size, &one) } != 0 {
            return Err(io::Error::last_os_error());
        }
    }
    Ok(Pinned {
        cpus: set,
        child: child.id() as i32,
    })
}

/// Gives this process and the child their CPUs back when dropped, so that
/// threads and children started later are not confined to one.
pub struct Pinned {
    cpus: CpuSet,
    child: i32,
}

impl Drop for Pinned {
    fn drop(&mut self) {
        for pid in [0, self.child] {
            // SAFETY: the mask is valid for reads of its size; the pids are
            // this process and its child. A failure (the child may be gone)
            // leaves a process pinned, which is slower, not wrong, so it is
            // not reported from a destructor.
            unsafe { sched_setaffinity(pid, std::mem::size_of::<CpuSet>(), &self.cpus) };
        }
    }
}

/// How a child ended.
#[derive(Debug, Clone)]
pub struct Exit {
    /// Spawn → exit, seconds.
    pub wall_s: f64,
    /// Peak resident set of the child over its whole life, MB (10^6 bytes).
    pub peak_rss_mb: f64,
    /// Exit code 0.
    pub ok: bool,
}

/// Blocks until `child` exits and returns its status and peak RSS. The
/// child is reaped here; do not call `Child::wait` afterwards.
pub fn reap(child: &Child, started: Instant) -> io::Result<Exit> {
    let mut status = 0i32;
    let mut usage = Rusage::default();
    loop {
        // SAFETY: `status` and `usage` are valid for writes for the whole
        // call and `Rusage` has the layout of Linux's 64-bit `struct
        // rusage` (checked by `rusage_layout` below); the pid is a child of
        // this process that nothing else waits for.
        let r = unsafe { wait4(child.id() as i32, &mut status, 0, &mut usage) };
        if r >= 0 {
            break;
        }
        let e = io::Error::last_os_error();
        if e.kind() != io::ErrorKind::Interrupted {
            return Err(e);
        }
    }
    let exited = status & 0x7f == 0;
    Ok(Exit {
        wall_s: started.elapsed().as_secs_f64(),
        peak_rss_mb: usage.maxrss as f64 * 1024.0 / 1e6,
        ok: exited && (status >> 8) & 0xff == 0,
    })
}

/// Runs `cmd` to completion with stdout in `stdout_path` (stderr is
/// inherited, so a failing child explains itself) and returns how it
/// ended plus what it printed.
pub fn run(cmd: &mut Command, stdout_path: &Path) -> io::Result<(Exit, String)> {
    let out = File::create(stdout_path)?;
    let started = Instant::now();
    let child = cmd.stdin(Stdio::null()).stdout(out).spawn()?;
    let exit = reap(&child, started)?;
    Ok((exit, std::fs::read_to_string(stdout_path)?))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn rusage_layout() {
        assert_eq!(std::mem::size_of::<Rusage>(), 144);
        assert_eq!(std::mem::offset_of!(Rusage, maxrss), 32);
    }

    #[test]
    fn run_reports_exit_output_and_memory() {
        // Under benchmark/out/, which is ignored, not in the system temp dir.
        let dir = Path::new(env!("CARGO_MANIFEST_DIR"))
            .join(format!("../out/test-child-{}", std::process::id()));
        std::fs::create_dir_all(&dir).expect("temp dir");
        let path = dir.join("out.txt");
        let (exit, text) =
            run(Command::new("sh").args(["-c", "echo hello"]), &path).expect("sh runs");
        assert!(exit.ok && exit.wall_s > 0.0);
        assert!(
            exit.peak_rss_mb > 0.1,
            "a shell maps more than 100 kB: {}",
            exit.peak_rss_mb
        );
        assert_eq!(text, "hello\n");
        let (exit, _) = run(Command::new("sh").args(["-c", "exit 3"]), &path).expect("sh runs");
        assert!(!exit.ok);
        std::fs::remove_dir_all(&dir).expect("clean up");
    }
}
