//! Process-level measurements: CPU time and peak resident set.

/// CPU time (user + system, all threads) this process has used, in
/// nanoseconds, from `CLOCK_PROCESS_CPUTIME_ID`.
pub fn cpu_ns() -> u64 {
    #[repr(C)]
    struct Timespec {
        tv_sec: i64,
        tv_nsec: i64,
    }
    extern "C" {
        fn clock_gettime(clock: i32, ts: *mut Timespec) -> i32;
    }
    const CLOCK_PROCESS_CPUTIME_ID: i32 = 2;
    let mut ts = Timespec {
        tv_sec: 0,
        tv_nsec: 0,
    };
    // SAFETY: `ts` is a valid, writable `struct timespec` (two 64-bit
    // fields on 64-bit Linux) that outlives the call.
    let rc = unsafe { clock_gettime(CLOCK_PROCESS_CPUTIME_ID, &mut ts) };
    assert_eq!(rc, 0, "clock_gettime(CLOCK_PROCESS_CPUTIME_ID) failed");
    ts.tv_sec as u64 * 1_000_000_000 + ts.tv_nsec as u64
}

/// Peak resident set of this process so far (`VmHWM`), in MiB.
pub fn peak_rss_mib() -> f64 {
    let status = std::fs::read_to_string("/proc/self/status").unwrap_or_default();
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        .map(|kib| kib / 1024.0)
        .expect("/proc/self/status reports VmHWM")
}

/// Runs `f` on a new thread confined to one CPU — the lowest the process
/// may use — so that `f` and every thread it spawns share that CPU.
/// Returns `f`'s result, or an error if the CPU mask cannot be set.
pub fn on_one_cpu<R: Send>(f: impl FnOnce() -> R + Send) -> Result<R, String> {
    /// `cpu_set_t`: 1024 bits.
    const WORDS: usize = 16;
    extern "C" {
        fn sched_getaffinity(pid: i32, size: usize, mask: *mut u64) -> i32;
        fn sched_setaffinity(pid: i32, size: usize, mask: *const u64) -> i32;
    }
    std::thread::scope(|s| {
        s.spawn(|| {
            let mut mask = [0u64; WORDS];
            let size = std::mem::size_of_val(&mask);
            // SAFETY: `mask` is a writable buffer of exactly `size` bytes;
            // pid 0 names the calling thread.
            if unsafe { sched_getaffinity(0, size, mask.as_mut_ptr()) } != 0 {
                return Err("sched_getaffinity failed".to_string());
            }
            let word = mask.iter().position(|&w| w != 0).ok_or("empty CPU mask")?;
            let mut one = [0u64; WORDS];
            one[word] = 1 << mask[word].trailing_zeros();
            // SAFETY: `one` is a readable buffer of exactly `size` bytes
            // holding one CPU the thread is already allowed to use.
            if unsafe { sched_setaffinity(0, size, one.as_ptr()) } != 0 {
                return Err("sched_setaffinity failed".to_string());
            }
            Ok(f())
        })
        .join()
        .map_err(|_| "pinned thread panicked".to_string())?
    })
}
