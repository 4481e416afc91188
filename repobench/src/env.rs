//! The environment a result was measured in.

use std::time::Instant;

/// Worker threads the benchmark's adapter uses: never more than the
/// host's cores, so thread rows are not oversubscribed.
pub fn adapter_threads() -> usize {
    hpdr_core::pool::default_threads().min(2)
}

#[derive(Debug, Clone, PartialEq)]
pub struct Env {
    /// SIMD tier of the kernel dispatch table (`HPDR_FORCE_SCALAR` honoured).
    pub simd_tier: &'static str,
    pub force_scalar: bool,
    /// `std::thread::available_parallelism`.
    pub nproc: usize,
    pub adapter_threads: usize,
    /// Spawned workers of the global pool (the submitter also runs tasks).
    pub pool_workers: usize,
    /// Measured: two CPU-bound threads against one (2.0 = two real cores).
    pub effective_parallelism: f64,
    /// Commit of the checkout, or `unknown` outside a git checkout.
    pub commit: String,
}

pub fn probe() -> Env {
    Env {
        simd_tier: hpdr_kernels::kernels().tier.name(),
        force_scalar: std::env::var("HPDR_FORCE_SCALAR").is_ok_and(|v| !v.is_empty() && v != "0"),
        nproc: hpdr_core::pool::default_threads(),
        adapter_threads: adapter_threads(),
        pool_workers: hpdr_core::WorkerPool::global().workers(),
        effective_parallelism: effective_parallelism(),
        commit: commit(),
    }
}

fn spin(iters: u64) -> u64 {
    let mut x = 0x9E37_79B9_7F4A_7C15u64;
    for _ in 0..iters {
        x = std::hint::black_box(
            x.wrapping_mul(6364136223846793005)
                .wrapping_add(1442695040888963407),
        );
    }
    x
}

/// `2 × t(one thread) / t(two threads doing the same work each)`, the
/// better of three tries so a scheduler hiccup does not understate it.
fn effective_parallelism() -> f64 {
    const ITERS: u64 = 20_000_000;
    (0..3)
        .map(|_| {
            let t = Instant::now();
            spin(ITERS);
            let one = t.elapsed().as_secs_f64();
            let t = Instant::now();
            std::thread::scope(|s| {
                let a = s.spawn(|| spin(ITERS));
                spin(ITERS);
                a.join().expect("spin thread panicked");
            });
            2.0 * one / t.elapsed().as_secs_f64()
        })
        .fold(0.0, f64::max)
}

/// CPU time of the whole process (every thread), ns. Unlike the wall
/// clock, it leaves out the time a shared host's hypervisor runs other
/// guests on this guest's vCPUs (steal time), which on a busy host
/// stretches wall time by up to 2× for minutes at a time.
#[cfg(all(target_os = "linux", target_pointer_width = "64"))]
pub fn cpu_ns() -> u64 {
    #[repr(C)]
    struct Timespec {
        sec: i64,
        nsec: i64,
    }
    extern "C" {
        fn clock_gettime(clock: i32, ts: *mut Timespec) -> i32;
    }
    const CLOCK_PROCESS_CPUTIME_ID: i32 = 2;
    let mut ts = Timespec { sec: 0, nsec: 0 };
    // SAFETY: `ts` is a live, writable timespec of the layout the
    // 64-bit Linux ABI defines.
    let rc = unsafe { clock_gettime(CLOCK_PROCESS_CPUTIME_ID, &mut ts) };
    assert_eq!(rc, 0, "clock_gettime(CLOCK_PROCESS_CPUTIME_ID) failed");
    ts.sec as u64 * 1_000_000_000 + ts.nsec as u64
}

#[cfg(not(all(target_os = "linux", target_pointer_width = "64")))]
compile_error!("repobench times on the process CPU clock of 64-bit Linux");

/// A stopwatch on both clocks: wall time and process CPU time.
#[derive(Debug, Clone, Copy)]
pub struct Stopwatch {
    wall: Instant,
    cpu: u64,
}

impl Stopwatch {
    pub fn start() -> Stopwatch {
        Stopwatch {
            wall: Instant::now(),
            cpu: cpu_ns(),
        }
    }

    /// `(wall ns, cpu ns)` since `start`.
    pub fn elapsed_ns(&self) -> (u64, u64) {
        (
            self.wall.elapsed().as_nanos() as u64,
            cpu_ns().saturating_sub(self.cpu),
        )
    }
}

/// Read the checked-out commit from `.git` in the working directory
/// without starting a process.
fn commit() -> String {
    let read = |p: &str| std::fs::read_to_string(p).ok();
    let Some(head) = read(".git/HEAD") else {
        return "unknown".into();
    };
    let head = head.trim();
    let Some(reference) = head.strip_prefix("ref: ") else {
        return head.to_string();
    };
    if let Some(id) = read(&format!(".git/{reference}")) {
        return id.trim().to_string();
    }
    read(".git/packed-refs")
        .and_then(|p| {
            p.lines()
                .find(|l| l.ends_with(reference))
                .and_then(|l| l.split_whitespace().next().map(str::to_string))
        })
        .unwrap_or_else(|| "unknown".into())
}

/// Cache sizes of CPU 0 as the kernel reports them, e.g.
/// `L1d 48K, L2 2048K, L3 32768K` (`unknown` where sysfs has none).
pub fn cache_sizes() -> String {
    let dir = "/sys/devices/system/cpu/cpu0/cache";
    let read = |i: usize, f: &str| {
        std::fs::read_to_string(format!("{dir}/index{i}/{f}"))
            .ok()
            .map(|s| s.trim().to_string())
    };
    let caches: Vec<String> = (0..8)
        .filter_map(|i| {
            let kind = read(i, "type")?;
            if kind == "Instruction" {
                return None;
            }
            let tag = if kind == "Data" { "d" } else { "" };
            Some(format!("L{}{tag} {}", read(i, "level")?, read(i, "size")?))
        })
        .collect();
    if caches.is_empty() {
        "unknown".into()
    } else {
        caches.join(", ")
    }
}

/// Peak resident set size of this process in MiB (`VmHWM`).
pub fn peak_rss_mib() -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|s| {
            s.lines()
                .find_map(|l| l.strip_prefix("VmHWM:"))
                .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        })
        .map_or(0.0, |kib| kib / 1024.0)
}
