//! `/proc` readers: CPU time and resident memory of one process.
//! Parsing is split from reading so the parsers are unit-testable.

/// Kernel clock ticks per second. `_SC_CLK_TCK` is 100 on every Linux
/// configuration this benchmark runs on; there is no libc here to ask.
const TICKS_PER_SECOND: f64 = 100.0;

/// `utime + stime` of a `/proc/<pid>/stat` line, in seconds. The
/// command name (field 2) may hold spaces and parentheses, so fields
/// are counted from the *last* `)`.
pub fn parse_stat_cpu_seconds(stat: &str) -> Option<f64> {
    let after_comm = &stat[stat.rfind(')')? + 1..];
    // after_comm starts at field 3 (state); utime/stime are fields 14/15.
    let mut fields = after_comm.split_ascii_whitespace().skip(11);
    let utime: u64 = fields.next()?.parse().ok()?;
    let stime: u64 = fields.next()?.parse().ok()?;
    Some((utime + stime) as f64 / TICKS_PER_SECOND)
}

/// A `kB` field of `/proc/<pid>/status` (e.g. `VmHWM`, `VmRSS`), in MiB.
pub fn parse_status_mib(status: &str, key: &str) -> Option<f64> {
    let line = status
        .lines()
        .find(|l| l.strip_prefix(key).is_some_and(|r| r.starts_with(':')))?;
    let kb: u64 = line.split_ascii_whitespace().nth(1)?.parse().ok()?;
    Some(kb as f64 / 1024.0)
}

/// Which process to inspect: this one or a child.
#[derive(Clone, Copy, Debug)]
pub enum Pid {
    Own,
    Of(u32),
}

impl Pid {
    fn dir(self) -> String {
        match self {
            Pid::Own => "/proc/self".into(),
            Pid::Of(pid) => format!("/proc/{pid}"),
        }
    }

    /// CPU seconds (user + system) consumed so far.
    pub fn cpu_seconds(self) -> Option<f64> {
        parse_stat_cpu_seconds(&std::fs::read_to_string(format!("{}/stat", self.dir())).ok()?)
    }

    /// Peak resident set size (`VmHWM`), MiB.
    pub fn peak_rss_mib(self) -> Option<f64> {
        self.status_mib("VmHWM")
    }

    /// Current resident set size (`VmRSS`), MiB.
    pub fn rss_mib(self) -> Option<f64> {
        self.status_mib("VmRSS")
    }

    fn status_mib(self, key: &str) -> Option<f64> {
        parse_status_mib(
            &std::fs::read_to_string(format!("{}/status", self.dir())).ok()?,
            key,
        )
    }
}

#[cfg(target_env = "gnu")]
extern "C" {
    /// glibc: gives the free pages of the heap back to the kernel.
    fn malloc_trim(pad: usize) -> i32;
}

/// Starts this process's `VmHWM` afresh: hands the heap's free pages
/// back to the kernel — glibc otherwise keeps what set-up freed, and
/// that would be the floor of every later peak — then resets the mark
/// to the current resident size by writing `5` to
/// `/proc/self/clear_refs`. Returns whether the kernel accepted that.
pub fn reset_own_peak_rss() -> bool {
    #[cfg(target_env = "gnu")]
    // SAFETY: takes no pointer; glibc documents it as thread-safe.
    unsafe {
        malloc_trim(0);
    }
    std::fs::write("/proc/self/clear_refs", "5").is_ok()
}

/// CPU seconds of the calling process, sampled so that the 10 ms tick
/// of `/proc/self/stat` averages out over many short intervals.
pub fn own_cpu_seconds() -> f64 {
    Pid::Own.cpu_seconds().unwrap_or(0.0)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn stat_parser_survives_hostile_command_names() {
        let line = "4242 (bench) mark (x)) S 1 4242 4242 0 -1 4194560 900 0 0 0 \
                    1234 66 0 0 20 0 3 0 100 1000000 250 18446744073709551615";
        assert_eq!(parse_stat_cpu_seconds(line), Some(13.0));
        assert_eq!(parse_stat_cpu_seconds("garbage"), None);
        assert_eq!(parse_stat_cpu_seconds("1 (x) S 1 2"), None);
    }

    #[test]
    fn status_parser_reads_kb_fields_as_mib() {
        let status = "Name:\tbenchmark\nVmPeak:\t  999999 kB\nVmHWM:\t  204800 kB\n\
                      VmRSS:\t    1536 kB\nThreads:\t3\n";
        assert_eq!(parse_status_mib(status, "VmHWM"), Some(200.0));
        assert_eq!(parse_status_mib(status, "VmRSS"), Some(1.5));
        assert_eq!(parse_status_mib(status, "VmSwap"), None);
        // A key that is only a prefix of another key must not match it.
        assert_eq!(parse_status_mib(status, "Vm"), None);
    }

    #[test]
    fn peak_reset_forgets_memory_already_freed() {
        // 256 MiB touched and freed: far above malloc's mmap threshold,
        // so the pages go back to the kernel and only VmHWM remembers.
        drop(std::hint::black_box(vec![1u8; 256 << 20]));
        let peak = Pid::Own.peak_rss_mib().expect("VmHWM");
        assert!(peak >= 256.0);
        assert!(reset_own_peak_rss());
        let after = Pid::Own.peak_rss_mib().expect("VmHWM");
        assert!(after < peak - 128.0, "{after} MiB after the reset");
    }

    #[test]
    fn own_process_is_readable() {
        assert!(Pid::Own.peak_rss_mib().is_some_and(|m| m > 0.0));
        assert!(Pid::Own.rss_mib().is_some_and(|m| m > 0.0));
        assert!(Pid::Own.cpu_seconds().is_some());
    }
}
