//! What the benchmark reads from and pins about the machine it runs on:
//! process CPU time, peak memory from `/proc`, the one CPU a measuring
//! process is confined to, the host description every record carries, the
//! `DITTO_*` environment check and the panic hook that keeps the injected
//! shard kill quiet.

use std::sync::atomic::{AtomicI64, Ordering};
use std::sync::{Mutex, OnceLock};
use std::time::Instant;

// The two things `std` has no call for, straight from the C library it
// already links: the process CPU clock and the CPU affinity mask.
#[cfg(target_os = "linux")]
#[repr(C)]
struct Timespec {
    tv_sec: std::ffi::c_long,
    tv_nsec: std::ffi::c_long,
}

#[cfg(target_os = "linux")]
const CLOCK_PROCESS_CPUTIME_ID: i32 = 2;

/// Words of glibc's `cpu_set_t` (1024 CPUs).
#[cfg(target_os = "linux")]
const CPU_SET_WORDS: usize = 16;

#[cfg(target_os = "linux")]
extern "C" {
    fn clock_gettime(clock: i32, now: *mut Timespec) -> i32;
    fn sched_getaffinity(pid: i32, cpusetsize: usize, mask: *mut u64) -> i32;
    fn sched_setaffinity(pid: i32, cpusetsize: usize, mask: *const u64) -> i32;
}

/// CPU seconds (user + system, all threads, exited ones included) this
/// process has used so far: the process CPU clock, which counts what
/// `utime + stime` of `/proc/self/stat` count, in nanoseconds instead of
/// 10 ms ticks. 0 where there is no such clock.
#[cfg(target_os = "linux")]
pub fn process_cpu_seconds() -> f64 {
    let mut now = Timespec {
        tv_sec: 0,
        tv_nsec: 0,
    };
    // SAFETY: `now` is a live, writable `timespec` as glibc lays it out on
    // Linux (two C longs).
    if unsafe { clock_gettime(CLOCK_PROCESS_CPUTIME_ID, &mut now) } != 0 {
        return 0.0;
    }
    now.tv_sec as f64 + now.tv_nsec as f64 / 1e9
}

#[cfg(not(target_os = "linux"))]
pub fn process_cpu_seconds() -> f64 {
    0.0
}

/// The process's resident-set high-water mark (`VmHWM`) in MiB. 0 where
/// `/proc` is not available.
pub fn peak_rss_mib() -> f64 {
    let Ok(status) = std::fs::read_to_string("/proc/self/status") else {
        return 0.0;
    };
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        .map_or(0.0, |kb| kb / 1024.0)
}

/// CPUs the process could run on when it started; asked once, before
/// [`pin_to_one_cpu`] narrows the answer to 1.
fn nproc() -> usize {
    static NPROC: OnceLock<usize> = OnceLock::new();
    *NPROC.get_or_init(|| std::thread::available_parallelism().map_or(1, |n| n.get()))
}

/// The CPU this process was confined to, or -1 while it is not.
static PINNED_CPU: AtomicI64 = AtomicI64::new(-1);

/// Confines the calling thread, and every thread it spawns from here on,
/// to the highest-numbered CPU it may run on (the lowest takes most
/// interrupts). Call before the first thread is spawned.
///
/// The wire workloads run a load generator, a reactor, a pump and shard
/// threads. Spread over the 2 vCPUs of the reference box their throughput
/// followed where the host had placed the two vCPUs — on one core or on
/// two — and not the code. On one CPU every workload measures the work the
/// stack does per tuple, whatever the placement.
#[cfg(target_os = "linux")]
pub fn pin_to_one_cpu() -> Result<usize, String> {
    nproc();
    let mut mask = [0u64; CPU_SET_WORDS];
    let bytes = std::mem::size_of_val(&mask);
    // SAFETY: `mask` is a live, writable buffer of exactly `bytes` bytes,
    // and pid 0 names the calling thread.
    if unsafe { sched_getaffinity(0, bytes, mask.as_mut_ptr()) } != 0 {
        return Err(format!(
            "sched_getaffinity: {}",
            std::io::Error::last_os_error()
        ));
    }
    let cpu = (0..CPU_SET_WORDS * 64)
        .rev()
        .find(|cpu| mask[cpu / 64] >> (cpu % 64) & 1 == 1)
        .ok_or("empty CPU affinity mask")?;
    let mut one = [0u64; CPU_SET_WORDS];
    one[cpu / 64] = 1 << (cpu % 64);
    // SAFETY: `one` is a live buffer of exactly `bytes` bytes that the call
    // only reads.
    if unsafe { sched_setaffinity(0, bytes, one.as_ptr()) } != 0 {
        return Err(format!(
            "sched_setaffinity: {}",
            std::io::Error::last_os_error()
        ));
    }
    PINNED_CPU.store(cpu as i64, Ordering::Relaxed);
    Ok(cpu)
}

#[cfg(not(target_os = "linux"))]
pub fn pin_to_one_cpu() -> Result<usize, String> {
    Err("CPU affinity is only set on Linux".to_owned())
}

/// The `host` block of a record.
pub fn host_json() -> String {
    let nproc = nproc();
    let pinned = PINNED_CPU.load(Ordering::Relaxed);
    format!(
        "{{\"nproc\": {nproc}, \"os\": \"{}\", \"arch\": \"{}\", \"single_vcpu\": {}, \"pinned_cpu\": {}}}",
        std::env::consts::OS,
        std::env::consts::ARCH,
        nproc == 1,
        if pinned < 0 {
            "null".to_owned()
        } else {
            pinned.to_string()
        }
    )
}

/// Refuses to measure under any `DITTO_*` override from the `ditto_obs`
/// catalog: a number taken with `DITTO_FAST_FORWARD` or `DITTO_WIRE_BACKEND`
/// set is not comparable with one taken without.
pub fn check_environment_pinned() -> Result<(), String> {
    let active = ditto_obs::env::active();
    if active.is_empty() {
        return Ok(());
    }
    let set: Vec<String> = active
        .iter()
        .map(|(knob, value)| format!("{}={value}", knob.name))
        .collect();
    Err(format!(
        "refusing to measure with environment overrides set: {}",
        set.join(" ")
    ))
}

static LAST_INJECTED_KILL: Mutex<Option<Instant>> = Mutex::new(None);

/// When the panic hook last swallowed an injected shard kill — the one
/// place the instant a leader dies is visible from outside the stack.
pub fn last_injected_kill() -> Option<Instant> {
    *LAST_INJECTED_KILL.lock().unwrap_or_else(|e| e.into_inner())
}

/// The text of a panic payload (`panic!` yields a `String` or a `&str`).
pub fn panic_message(payload: &(dyn std::any::Any + Send)) -> &str {
    payload
        .downcast_ref::<String>()
        .map(String::as_str)
        .or_else(|| payload.downcast_ref::<&str>().copied())
        .unwrap_or("panic with a non-text payload")
}

pub fn is_injected_kill(message: &str) -> bool {
    message.starts_with("DITTO_KILL_SHARD") && message.ends_with("(fault injection)")
}

/// Installs a panic hook that drops exactly the serve layer's fault
/// injection message (`wire_paced_ha` kills a leader in every repetition)
/// and passes every other panic to the default hook, loud as ever.
pub fn install_panic_hook() {
    let default = std::panic::take_hook();
    std::panic::set_hook(Box::new(move |info| {
        if is_injected_kill(panic_message(info.payload())) {
            *LAST_INJECTED_KILL.lock().unwrap_or_else(|e| e.into_inner()) = Some(Instant::now());
            return;
        }
        default(info);
    }));
}
