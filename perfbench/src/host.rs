//! Host-side diagnostics: phase probes, peak resident memory, stray
//! environment.

use std::hint::black_box;
use std::time::Instant;

/// Iterations of the ALU probe (a dependent multiply/rotate chain, ~10 ms).
const ALU_ITERS: u64 = 4_000_000;
/// Bytes touched by the memory probe: large enough to miss every cache.
const MEM_BYTES: usize = 32 << 20;
/// One touch per cache line.
const LINE_WORDS: usize = 64 / std::mem::size_of::<u64>();

/// Time of a fixed ALU-only loop, in ms. It moves only with CPU frequency
/// and time slicing, so a slow host phase that leaves it flat points at
/// memory contention.
pub fn alu_probe_ms() -> f64 {
    let start = Instant::now();
    let mut x = black_box(0x9E37_79B9_7F4A_7C15u64);
    for i in 0..ALU_ITERS {
        x = (x ^ i).rotate_left(17).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    }
    black_box(x);
    start.elapsed().as_secs_f64() * 1e3
}

/// A buffer for the memory probe, allocated and paged in once.
#[derive(Debug)]
pub struct MemProbe {
    buf: Vec<u64>,
}

impl MemProbe {
    /// Allocates and touches the probe buffer: all [`MEM_BYTES`] of it
    /// stay resident until the process ends.
    pub fn new() -> Self {
        MemProbe {
            buf: vec![1; MEM_BYTES / std::mem::size_of::<u64>()],
        }
    }

    /// Time of one read-modify-write pass over every cache line of the
    /// buffer, in ms: a memory-bandwidth probe.
    pub fn run_ms(&mut self) -> f64 {
        let start = Instant::now();
        for word in self.buf.iter_mut().step_by(LINE_WORDS) {
            *word = word.wrapping_add(1);
        }
        black_box(&mut self.buf);
        start.elapsed().as_secs_f64() * 1e3
    }
}

/// Peak resident set size of this process in MiB (`VmHWM`), less the
/// memory probe's buffer, which is resident from start to end and is not
/// the program's. `None` where the platform does not report it. With
/// worker threads it moves from run to run with the allocator's arena
/// use, so it is a diagnostic; `peak_heap_mb` is the gated memory figure.
pub fn peak_rss_mib() -> Option<f64> {
    let status = std::fs::read_to_string("/proc/self/status").ok()?;
    let line = status.lines().find(|l| l.starts_with("VmHWM:"))?;
    let kib: f64 = line.split_whitespace().nth(1)?.parse().ok()?;
    Some((kib * 1024.0 - MEM_BYTES as f64) / f64::from(1 << 20))
}

/// Names of the `AIKIDO_*` variables set in the environment. The benchmark
/// builds its configuration explicitly and never reads them.
pub fn aikido_env_vars() -> Vec<String> {
    let mut names: Vec<String> = std::env::vars_os()
        .filter_map(|(k, _)| k.into_string().ok())
        .filter(|k| k.starts_with("AIKIDO_"))
        .collect();
    names.sort();
    names
}
