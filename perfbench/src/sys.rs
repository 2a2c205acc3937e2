//! Host facts: CPU time and peak memory from `getrusage`, environment
//! isolation, and provenance.

/// `struct timeval` on 64-bit Linux.
#[repr(C)]
#[derive(Default)]
struct Timeval {
    tv_sec: i64,
    tv_usec: i64,
}

/// `struct rusage` on 64-bit Linux: two timevals, then fourteen longs.
#[repr(C)]
#[derive(Default)]
struct Rusage {
    ru_utime: Timeval,
    ru_stime: Timeval,
    rest: [i64; 14],
}

extern "C" {
    fn getrusage(who: i32, usage: *mut Rusage) -> i32;
}

const RUSAGE_SELF: i32 = 0;
const RUSAGE_CHILDREN: i32 = -1;

fn usage(who: i32) -> Rusage {
    let mut u = Rusage::default();
    // SAFETY: `u` is a live, writable `Rusage` whose layout matches the C
    // `struct rusage` on 64-bit Linux (two `timeval`s then fourteen
    // `long`s), and `who` is one of the two constants the call accepts.
    let rc = unsafe { getrusage(who, &mut u) };
    assert_eq!(rc, 0, "getrusage({who}) failed");
    u
}

fn secs(t: &Timeval) -> f64 {
    t.tv_sec as f64 + t.tv_usec as f64 * 1e-6
}

/// User + system CPU seconds of this process plus every child it has
/// waited for (worker processes are reaped when their pool drops).
pub fn cpu_s() -> f64 {
    let me = usage(RUSAGE_SELF);
    let kids = usage(RUSAGE_CHILDREN);
    secs(&me.ru_utime) + secs(&me.ru_stime) + secs(&kids.ru_utime) + secs(&kids.ru_stime)
}

/// Peak resident set size of this process so far, MB: `VmHWM`, which
/// starts afresh at `exec` (unlike `ru_maxrss`, which would report the
/// launcher's peak when it was larger). 0 where `/proc` is unavailable.
pub fn peak_rss_mb() -> f64 {
    let status = std::fs::read_to_string("/proc/self/status").unwrap_or_default();
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        .map_or(0.0, |kb| kb / 1024.0)
}

/// Hardware threads the OS makes available to this process.
pub fn hardware_threads() -> usize {
    std::thread::available_parallelism().map_or(1, |n| n.get())
}

/// Names of set variables that would silently change a workload: every
/// `NSX_*` (backend, faults, hedging, noise, force kernel, ...) and
/// `REPRO_*` knob.
pub fn forbidden_env() -> Vec<String> {
    let mut v: Vec<String> = std::env::vars_os()
        .filter_map(|(k, _)| k.into_string().ok())
        .filter(|k| k.starts_with("NSX_") || k.starts_with("REPRO_"))
        .collect();
    v.sort();
    v
}

/// The commit the working directory is checked out at, read from `.git`
/// without running git; `"unknown"` outside a git checkout.
pub fn git_revision() -> String {
    let read = |p: &str| {
        std::fs::read_to_string(p)
            .ok()
            .map(|s| s.trim().to_string())
    };
    let Some(head) = read(".git/HEAD") else {
        return "unknown".into();
    };
    let Some(r) = head.strip_prefix("ref: ") else {
        return head;
    };
    if let Some(rev) = read(&format!(".git/{r}")) {
        return rev;
    }
    read(".git/packed-refs")
        .and_then(|packed| {
            packed
                .lines()
                .find(|l| l.ends_with(r))
                .and_then(|l| l.split_whitespace().next().map(str::to_string))
        })
        .unwrap_or_else(|| "unknown".into())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn cpu_time_advances_with_work() {
        let t0 = cpu_s();
        let mut x = 0u64;
        for i in 0..20_000_000u64 {
            x = std::hint::black_box(x.wrapping_mul(31).wrapping_add(i));
        }
        std::hint::black_box(x);
        assert!(cpu_s() > t0);
        assert!(peak_rss_mb() > 0.0);
    }
}
