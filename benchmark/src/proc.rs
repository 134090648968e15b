//! Process accounting (CPU time, peak memory) and the machine fingerprint.
//! Linux only: everything here reads `/proc` or the POSIX process clock.

use std::process::Command;

#[repr(C)]
struct Timespec {
    tv_sec: i64,
    tv_nsec: i64,
}

extern "C" {
    fn clock_gettime(clock_id: i32, ts: *mut Timespec) -> i32;
}

const CLOCK_PROCESS_CPUTIME_ID: i32 = 2;

/// CPU time this process (all threads) has used, milliseconds.
pub fn self_cpu_ms() -> f64 {
    let mut ts = Timespec { tv_sec: 0, tv_nsec: 0 };
    // SAFETY: `ts` is a valid, exclusively borrowed `timespec` with the
    // 64-bit Linux layout (two `i64`s), which is all `clock_gettime`
    // writes; the clock id is a constant the kernel defines.
    let rc = unsafe { clock_gettime(CLOCK_PROCESS_CPUTIME_ID, &mut ts) };
    assert_eq!(rc, 0, "CLOCK_PROCESS_CPUTIME_ID is always readable on Linux");
    ts.tv_sec as f64 * 1e3 + ts.tv_nsec as f64 / 1e6
}

/// Kernel clock ticks per second for `/proc/<pid>/stat` (`USER_HZ`, 100 on
/// every Linux ABI).
const USER_HZ: f64 = 100.0;

/// utime + stime of `/proc/<pid>/stat`, milliseconds; 0 for a process that
/// has gone.
pub fn pid_cpu_ms(pid: u32) -> f64 {
    std::fs::read_to_string(format!("/proc/{pid}/stat"))
        .ok()
        .and_then(|s| stat_cpu_ticks(&s))
        .map_or(0.0, |ticks| ticks as f64 * 1e3 / USER_HZ)
}

/// Fields 14 and 15 of a `stat` line. The command name (field 2) may hold
/// spaces and parentheses, so fields are counted from the last `)`.
fn stat_cpu_ticks(stat: &str) -> Option<u64> {
    let rest = &stat[stat.rfind(')')? + 1..];
    let mut fields = rest.split_ascii_whitespace().skip(11);
    let utime: u64 = fields.next()?.parse().ok()?;
    let stime: u64 = fields.next()?.parse().ok()?;
    Some(utime + stime)
}

/// `VmHWM` (peak resident set) of a process, MiB; 0 for a process that has
/// gone.
pub fn peak_rss_mb(pid: Option<u32>) -> f64 {
    let path = match pid {
        Some(pid) => format!("/proc/{pid}/status"),
        None => "/proc/self/status".to_string(),
    };
    std::fs::read_to_string(path).ok().and_then(|s| status_kb(&s, "VmHWM:")).unwrap_or(0.0) / 1024.0
}

fn status_kb(status: &str, key: &str) -> Option<f64> {
    status.lines().find_map(|l| l.strip_prefix(key))?.split_ascii_whitespace().next()?.parse().ok()
}

/// Where a result was recorded. Results from different fingerprints are
/// not comparable; `compare` says so.
#[derive(Debug, Clone, PartialEq)]
pub struct Fingerprint {
    pub cpu_model: String,
    pub nproc: usize,
    pub rustc: String,
    pub commit: String,
    pub profile: String,
}

fn command_line(program: &str, args: &[&str]) -> Option<String> {
    let out = Command::new(program).args(args).output().ok()?;
    out.status.success().then(|| String::from_utf8_lossy(&out.stdout).trim().to_string())
}

impl Fingerprint {
    pub fn capture() -> Self {
        let cpu_model = std::fs::read_to_string("/proc/cpuinfo")
            .ok()
            .and_then(|s| {
                s.lines()
                    .find(|l| l.starts_with("model name"))
                    .and_then(|l| l.split(':').nth(1))
                    .map(|m| m.trim().to_string())
            })
            .unwrap_or_else(|| "unknown".into());
        Fingerprint {
            cpu_model,
            nproc: std::thread::available_parallelism().map_or(1, usize::from),
            rustc: command_line("rustc", &["-V"]).unwrap_or_else(|| "unknown".into()),
            // a benchmark checkout need not be a git repository
            commit: command_line("git", &["rev-parse", "--short", "HEAD"])
                .filter(|c| !c.is_empty())
                .unwrap_or_else(|| "unknown".into()),
            profile: "release; RenderProfile::tiny (8-level grid, 48 samples)".into(),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn stat_fields_are_counted_after_the_command_name() {
        let line = "42 (a b) c) S 1 42 42 0 -1 4194304 100 0 0 0 37 5 0 0 20 0 3 0 100 1 1";
        assert_eq!(stat_cpu_ticks(line), Some(42));
        assert_eq!(stat_cpu_ticks("garbage"), None);
    }

    #[test]
    fn status_values_parse_in_kb() {
        let status = "Name:\tx\nVmPeak:\t  900 kB\nVmHWM:\t   2048 kB\n";
        assert_eq!(status_kb(status, "VmHWM:"), Some(2048.0));
        assert_eq!(status_kb(status, "VmRSS:"), None);
    }

    #[test]
    fn own_process_is_measurable() {
        let before = self_cpu_ms();
        let mut x = 0u64;
        for i in 0..5_000_000u64 {
            x = std::hint::black_box(x.wrapping_add(i));
        }
        assert!(self_cpu_ms() > before);
        assert!(pid_cpu_ms(std::process::id()) >= 0.0);
        assert!(peak_rss_mb(None) > 0.0);
        assert_eq!(pid_cpu_ms(u32::MAX), 0.0);
    }
}
