//! The few operating-system facts the benchmark needs: CPU pinning,
//! process resource usage, and peak resident memory. std already links
//! libc, so the three calls are declared here rather than pulling in a
//! crate; everything degrades to "not available" off Linux.

/// Process-wide resource usage, from `getrusage(RUSAGE_SELF)`.
#[derive(Debug, Clone, Copy, Default)]
pub struct Rusage {
    pub user_s: f64,
    pub sys_s: f64,
    pub voluntary_switches: u64,
    pub involuntary_switches: u64,
}

impl Rusage {
    /// Usage accumulated since `earlier`.
    pub fn since(&self, earlier: &Rusage) -> Rusage {
        Rusage {
            user_s: self.user_s - earlier.user_s,
            sys_s: self.sys_s - earlier.sys_s,
            voluntary_switches: self.voluntary_switches - earlier.voluntary_switches,
            involuntary_switches: self.involuntary_switches - earlier.involuntary_switches,
        }
    }

    /// Kernel share of the CPU time used (0 when none was used).
    pub fn sys_share(&self) -> f64 {
        let total = self.user_s + self.sys_s;
        if total > 0.0 {
            self.sys_s / total
        } else {
            0.0
        }
    }
}

#[cfg(target_os = "linux")]
mod imp {
    use super::Rusage;

    /// One 64-bit word covers every machine this runs on; a wider
    /// affinity set just means CPUs 64+ are never chosen.
    type CpuMask = u64;

    extern "C" {
        fn sched_getaffinity(pid: i32, cpusetsize: usize, mask: *mut CpuMask) -> i32;
        fn sched_setaffinity(pid: i32, cpusetsize: usize, mask: *const CpuMask) -> i32;
        fn getrusage(who: i32, usage: *mut [i64; 18]) -> i32;
    }

    pub fn allowed_cpus() -> Vec<u32> {
        let mut mask: CpuMask = 0;
        // SAFETY: `mask` is a live, writable 8-byte buffer and its size is
        // passed alongside; pid 0 names the calling thread.
        let rc = unsafe { sched_getaffinity(0, std::mem::size_of::<CpuMask>(), &mut mask) };
        if rc != 0 {
            return Vec::new();
        }
        (0..CpuMask::BITS).filter(|c| mask >> c & 1 == 1).collect()
    }

    pub fn set_affinity(cpus: &[u32]) -> Result<(), String> {
        let mask: CpuMask = cpus.iter().fold(0, |m, c| m | 1 << c);
        // SAFETY: `mask` is a live 8-byte buffer and its size is passed
        // alongside; pid 0 names the calling thread, whose affinity every
        // thread spawned afterwards inherits.
        let rc = unsafe { sched_setaffinity(0, std::mem::size_of::<CpuMask>(), &mask) };
        if rc == 0 {
            Ok(())
        } else {
            Err(format!(
                "sched_setaffinity refused: {}",
                std::io::Error::last_os_error()
            ))
        }
    }

    pub fn rusage() -> Rusage {
        // struct rusage on 64-bit Linux: two timevals (sec, usec) then
        // fourteen longs; ru_nvcsw and ru_nivcsw are the last two.
        let mut raw = [0i64; 18];
        // SAFETY: `raw` is a live, writable buffer of exactly
        // sizeof(struct rusage) bytes; 0 is RUSAGE_SELF.
        let rc = unsafe { getrusage(0, &mut raw) };
        if rc != 0 {
            return Rusage::default();
        }
        Rusage {
            user_s: raw[0] as f64 + raw[1] as f64 / 1e6,
            sys_s: raw[2] as f64 + raw[3] as f64 / 1e6,
            voluntary_switches: raw[16] as u64,
            involuntary_switches: raw[17] as u64,
        }
    }
}

#[cfg(not(target_os = "linux"))]
mod imp {
    use super::Rusage;

    pub fn allowed_cpus() -> Vec<u32> {
        Vec::new()
    }

    pub fn set_affinity(_cpus: &[u32]) -> Result<(), String> {
        Err("CPU pinning is only implemented for Linux".to_string())
    }

    pub fn rusage() -> Rusage {
        Rusage::default()
    }
}

pub use imp::{allowed_cpus, rusage, set_affinity};

/// Peak resident set size (`VmHWM`) in MB; 0 where /proc is absent.
pub fn peak_rss_mb() -> f64 {
    let status = std::fs::read_to_string("/proc/self/status").unwrap_or_default();
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|rest| rest.split_whitespace().next()?.parse::<f64>().ok())
        .map_or(0.0, |kb| kb / 1024.0)
}
