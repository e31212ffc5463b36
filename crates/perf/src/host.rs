//! Host fingerprint, peak memory and CPU steering, with the standard
//! library and the C library it links.

use std::process::Command;
use std::time::Instant;

/// What a reader needs to know to compare two runs' numbers.
#[derive(Debug, Clone)]
pub struct Host {
    /// Hardware threads available to this process.
    pub nproc: usize,
    /// Kernel path the dispatching tensor kernels take (`simd`/`scalar`).
    pub kernel_path: &'static str,
    /// `target-cpu` named in the workspace's `.cargo/config.toml`.
    pub target_cpu: String,
    /// `rustc --version` of the toolchain on the path.
    pub rustc: String,
}

impl Host {
    /// Probes the running host.
    pub fn probe() -> Self {
        let config = concat!(env!("CARGO_MANIFEST_DIR"), "/../../.cargo/config.toml");
        let target_cpu = std::fs::read_to_string(config)
            .ok()
            .and_then(|text| {
                let at = text.find("target-cpu=")? + "target-cpu=".len();
                let rest = &text[at..];
                let end = rest.find(|c: char| c == '"' || c.is_whitespace())?;
                Some(rest[..end].to_string())
            })
            .unwrap_or_else(|| "default".to_string());
        let rustc = Command::new("rustc")
            .arg("--version")
            .output()
            .ok()
            .and_then(|o| String::from_utf8(o.stdout).ok())
            .map_or_else(|| "unknown".to_string(), |s| s.trim().to_string());
        Self {
            nproc: std::thread::available_parallelism().map_or(1, |n| n.get()),
            kernel_path: flowgnn_tensor::simd::kernel_path(),
            target_cpu,
            rustc,
        }
    }

    /// The fingerprint as a JSON object.
    pub fn to_json(&self) -> String {
        format!(
            "{{\"nproc\": {}, \"kernel_path\": \"{}\", \"target_cpu\": \"{}\", \"rustc\": \"{}\"}}",
            self.nproc,
            self.kernel_path,
            self.target_cpu,
            self.rustc.replace('"', "'")
        )
    }
}

/// Steers the calling thread to the fastest of the CPUs it may run on.
///
/// On a shared host each vCPU slows down on its own, by 1.2 to 1.5×, while
/// the physical core under it is busy with another tenant, in spells of
/// seconds; the other vCPU is often fast meanwhile (measured on a shared
/// 2-vCPU Xeon VM by timing a fixed loop on each vCPU in turn). Before
/// each timed pass a workload times [`probe_loop`] on every allowed CPU
/// and pins itself to the fastest, so the pass runs on a quiet core
/// whenever there is one. Threads spawned while pinned inherit the pin.
#[derive(Debug)]
pub struct CpuSteer {
    cpus: Vec<usize>,
}

/// Timings of [`probe_loop`] per CPU; the fastest counts.
const PROBE_REPS: usize = 3;

impl CpuSteer {
    /// The CPUs this process may run on; steering is off where they
    /// cannot be read or there is only one.
    pub fn new() -> Self {
        let cpus = affinity::allowed();
        Self {
            cpus: if cpus.len() > 1 { cpus } else { Vec::new() },
        }
    }

    /// Pins the calling thread to the CPU that runs [`probe_loop`]
    /// fastest right now, and returns its probe time in seconds (`None`
    /// with steering off).
    pub fn pin_fastest(&self) -> Option<f64> {
        let timed = self
            .cpus
            .iter()
            .filter(|&&cpu| affinity::pin(&[cpu]))
            .map(|&cpu| {
                let secs = (0..PROBE_REPS)
                    .map(|_| {
                        let t = Instant::now();
                        std::hint::black_box(probe_loop());
                        t.elapsed().as_secs_f64()
                    })
                    .fold(f64::INFINITY, f64::min);
                (secs, cpu)
            });
        let (secs, fastest) = timed.min_by(|a, b| a.0.total_cmp(&b.0))?;
        affinity::pin(&[fastest]).then_some(secs)
    }
}

/// A fixed loop of about 0.4 ms on the reference host: data-dependent
/// loads from a 64 KiB table and branches, the mix the cycle engine runs.
pub fn probe_loop() -> u64 {
    const WORDS: usize = 1 << 14;
    let mut table = [0u32; WORDS];
    let mut x = 0x9E37_79B9u32;
    for slot in table.iter_mut() {
        x ^= x << 13;
        x ^= x >> 17;
        x ^= x << 5;
        *slot = x;
    }
    let (mut i, mut acc) = (0usize, 0u64);
    for _ in 0..WORDS * 4 {
        let v = std::hint::black_box(table[i]);
        acc = if v & 1 == 0 {
            acc.wrapping_add(u64::from(v))
        } else {
            acc.rotate_left(5) ^ u64::from(v)
        };
        i = (v as usize ^ (acc as usize)) % WORDS;
    }
    acc
}

/// Thread CPU affinity through the C library's `sched_{get,set}affinity`.
#[cfg(target_os = "linux")]
mod affinity {
    /// `cpu_set_t` of glibc and musl: 1024 bits.
    type CpuSet = [u64; 16];
    const MAX_CPUS: usize = 1024;

    extern "C" {
        fn sched_getaffinity(pid: i32, size: usize, mask: *mut CpuSet) -> i32;
        fn sched_setaffinity(pid: i32, size: usize, mask: *const CpuSet) -> i32;
    }

    /// The CPUs the calling thread may run on, empty if unreadable.
    pub fn allowed() -> Vec<usize> {
        let mut set: CpuSet = [0; 16];
        // SAFETY: `set` is a live, writable buffer of exactly the size
        // passed; pid 0 names the calling thread.
        let rc = unsafe { sched_getaffinity(0, std::mem::size_of::<CpuSet>(), &mut set) };
        if rc != 0 {
            return Vec::new();
        }
        (0..MAX_CPUS)
            .filter(|&c| set[c / 64] >> (c % 64) & 1 == 1)
            .collect()
    }

    /// Lets the calling thread run only on `cpus` (each below 1024);
    /// false on failure.
    pub fn pin(cpus: &[usize]) -> bool {
        let mut set: CpuSet = [0; 16];
        for &cpu in cpus {
            if cpu >= MAX_CPUS {
                return false;
            }
            set[cpu / 64] |= 1 << (cpu % 64);
        }
        // SAFETY: the kernel reads exactly the size passed from `set`,
        // a live buffer of that size; pid 0 names the calling thread.
        unsafe { sched_setaffinity(0, std::mem::size_of::<CpuSet>(), &set) == 0 }
    }
}

/// Elsewhere the thread stays where the scheduler puts it.
#[cfg(not(target_os = "linux"))]
mod affinity {
    pub fn allowed() -> Vec<usize> {
        Vec::new()
    }

    pub fn pin(_cpus: &[usize]) -> bool {
        false
    }
}

/// Peak resident set of this process in MB (`VmHWM`), or `None` where
/// `/proc/self/status` does not exist.
pub fn peak_rss_mb() -> Option<f64> {
    let status = std::fs::read_to_string("/proc/self/status").ok()?;
    let line = status.lines().find(|l| l.starts_with("VmHWM:"))?;
    let kb: f64 = line.split_whitespace().nth(1)?.parse().ok()?;
    Some(kb / 1024.0)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fingerprint_names_every_field() {
        let j = Host::probe().to_json();
        for key in ["nproc", "kernel_path", "target_cpu", "rustc"] {
            assert!(j.contains(key), "{key} missing from {j}");
        }
    }

    #[test]
    fn steering_pins_to_one_allowed_cpu() {
        let allowed = affinity::allowed();
        let probe_s = CpuSteer::new().pin_fastest();
        if cfg!(target_os = "linux") && allowed.len() > 1 {
            assert!(probe_s.expect("steering on") > 0.0);
            let pinned = affinity::allowed();
            assert_eq!(pinned.len(), 1);
            assert!(allowed.contains(&pinned[0]));
            assert!(affinity::pin(&allowed), "unpin");
        } else {
            assert_eq!(probe_s, None);
        }
    }

    #[test]
    fn peak_rss_is_positive_on_linux() {
        if cfg!(target_os = "linux") {
            assert!(peak_rss_mb().expect("VmHWM readable") > 0.0);
        }
    }
}
