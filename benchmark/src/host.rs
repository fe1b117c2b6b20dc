//! The `host` pseudo-layer: machine fingerprint, noise sentinels and the
//! frozen reference kernel that host-time metrics are normalised by.

use std::time::Instant;

/// What the result files record about the machine a run was taken on.
#[derive(Clone, Debug)]
pub struct Fingerprint {
    /// `std::thread::available_parallelism`.
    pub nproc: usize,
    /// First `model name` line of `/proc/cpuinfo`.
    pub cpu_model: String,
    /// One-minute load average when the run started.
    pub loadavg: f64,
    /// `BENCH_GIT_COMMIT` as exported by `run.sh` (the acceptance
    /// checkout is not a git repository, so this may be `unknown`).
    pub git_commit: String,
    /// Build profile of the benchmark binary.
    pub profile: &'static str,
}

/// Reads the fingerprint of this machine.
pub fn fingerprint() -> Fingerprint {
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
        nproc: nproc(),
        cpu_model,
        loadavg: loadavg(),
        git_commit: std::env::var("BENCH_GIT_COMMIT").unwrap_or_else(|_| "unknown".into()),
        profile: if cfg!(debug_assertions) {
            "debug"
        } else {
            "release"
        },
    }
}

/// Usable hardware threads.
pub fn nproc() -> usize {
    std::thread::available_parallelism().map_or(1, |n| n.get())
}

/// Driver threads, connections and sweep workers: never more than the
/// machine has, never more than two.
pub fn driver_threads() -> usize {
    nproc().min(2)
}

/// One-minute load average (0 where `/proc` is missing).
pub fn loadavg() -> f64 {
    std::fs::read_to_string("/proc/loadavg")
        .ok()
        .and_then(|s| s.split_whitespace().next().and_then(|f| f.parse().ok()))
        .unwrap_or(0.0)
}

/// Peak resident set of this process in MB (`VmHWM`).
pub fn peak_rss_mb() -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|s| {
            s.lines()
                .find(|l| l.starts_with("VmHWM:"))
                .and_then(|l| l.split_whitespace().nth(1))
                .and_then(|kb| kb.parse::<f64>().ok())
        })
        .map_or(0.0, |kb| kb / 1024.0)
}

/// The benchmark's own generator, not `tptrace::rng`: the reference
/// kernel's address stream must not move when a crate changes.
fn xorshift(s: &mut u64) -> u64 {
    *s ^= *s << 13;
    *s ^= *s >> 7;
    *s ^= *s << 17;
    *s
}

/// DRAM-latency sentinel: ns per hop of a dependent pointer chase over
/// a 32 MiB single-cycle permutation. The buffer lives only for the
/// call, so it never sits in a workload's resident set.
pub fn calib_ns_per_hop() -> f64 {
    const SLOTS: usize = 8 << 20;
    const HOPS: usize = 200_000;
    let mut next: Vec<u32> = (0..SLOTS as u32).collect();
    let mut s = 0x9E37_79B9_7F4A_7C15u64;
    // Sattolo's shuffle: one cycle through every slot.
    for i in (1..SLOTS).rev() {
        let j = (xorshift(&mut s) % i as u64) as usize;
        next.swap(i, j);
    }
    let mut p = 0u32;
    let t = Instant::now();
    for _ in 0..HOPS {
        p = next[p as usize];
    }
    let ns = t.elapsed().as_nanos() as f64;
    std::hint::black_box(p);
    ns / HOPS as f64
}

/// ns per reference op on the host class the nominal second is defined
/// on (2-vCPU Xeon @ 2.1 GHz guest, quiet). A `*_per_ref_s` metric
/// equals the raw per-second rate whenever the reference kernel runs at
/// exactly this speed.
pub const REF_NOMINAL_NS_PER_OP: f64 = 65.0;

/// Reference ops per sample (a sample is taken after every timed cell).
pub const REF_OPS_PER_SAMPLE: usize = 100_000;

#[derive(Clone, Copy, Default)]
struct Way {
    tag: u64,
    lru: u32,
    dirty: u32,
}

/// The frozen reference kernel.
///
/// Shared-host noise here is common-mode: every simulator cell slows
/// and speeds together as neighbours come and go, by far more than any
/// bound a regression gate could use. The kernel is a small fixed
/// stand-in for the simulator's own instruction mix — a streamed
/// address array driving two set-associative tag arrays with LRU
/// victim scans and an open-addressed side table — sampled right next
/// to every timed cell. Host-time end-to-end metrics are reported per
/// *reference second*: the time this kernel needs for
/// `1e9 / REF_NOMINAL_NS_PER_OP` ops. The kernel is benchmark code, so
/// no change that claims a gain may touch it.
pub struct RefKernel {
    addrs: Vec<u64>,
    l2: Vec<Way>,
    llc: Vec<Way>,
    table: Vec<(u64, u32)>,
    pos: usize,
    tick: u32,
    sink: u64,
}

const L2_SETS: usize = 1024;
const L2_WAYS: usize = 8;
const LLC_SETS: usize = 2048;
const LLC_WAYS: usize = 16;
const TABLE_SLOTS: usize = 1 << 16;

impl Default for RefKernel {
    fn default() -> Self {
        // Fixed stream: half revisits a 64 Ki-line irregular working
        // set in a stable order, a quarter streams, a quarter stays in
        // a 2 Ki-line hot set.
        let mut s = 0x2545_F491_4F6C_DD1Du64;
        let irregular: Vec<u64> = (0..1 << 16).map(|_| xorshift(&mut s) % (1 << 22)).collect();
        let mut addrs = Vec::with_capacity(1 << 18);
        let mut stream = 1u64 << 24;
        for i in 0..1usize << 18 {
            let line = match i % 4 {
                0 | 2 => irregular[(i / 2) % irregular.len()],
                1 => {
                    stream += 1;
                    stream
                }
                _ => (1 << 23) + xorshift(&mut s) % 2048,
            };
            addrs.push(line << 6);
        }
        RefKernel {
            addrs,
            l2: vec![Way::default(); L2_SETS * L2_WAYS],
            llc: vec![Way::default(); LLC_SETS * LLC_WAYS],
            table: vec![(0, 0); TABLE_SLOTS],
            pos: 0,
            tick: 0,
            sink: 0,
        }
    }
}

/// Looks `line` up in one set; on a miss the LRU way is replaced.
/// Returns whether it hit and the evicted tag.
fn touch(set: &mut [Way], line: u64, tick: u32, write: bool) -> (bool, u64) {
    let mut victim = 0;
    let mut oldest = u32::MAX;
    for (i, w) in set.iter_mut().enumerate() {
        if w.tag == line {
            w.lru = tick;
            w.dirty |= write as u32;
            return (true, 0);
        }
        if w.lru < oldest {
            oldest = w.lru;
            victim = i;
        }
    }
    let evicted = set[victim].tag;
    set[victim] = Way {
        tag: line,
        lru: tick,
        dirty: write as u32,
    };
    (false, evicted)
}

impl RefKernel {
    fn op(&mut self, addr: u64) {
        self.tick = self.tick.wrapping_add(1);
        let line = (addr >> 6) | 1 << 40;
        let write = addr & 0x40 != 0;
        let s2 = (line as usize % L2_SETS) * L2_WAYS;
        let (hit, _) = touch(&mut self.l2[s2..s2 + L2_WAYS], line, self.tick, write);
        if hit {
            self.sink += 1;
            return;
        }
        let s3 = (line as usize % LLC_SETS) * LLC_WAYS;
        let (hit, evicted) = touch(&mut self.llc[s3..s3 + LLC_WAYS], line, self.tick, write);
        if hit {
            self.sink += 2;
            return;
        }
        // Miss everywhere: track the fill in the side table and drop
        // the evicted line's entry (Fibonacci hash, linear probe).
        for key in [line, evicted] {
            let mut slot = (key.wrapping_mul(0x9E37_79B9_7F4A_7C15) >> 48) as usize;
            for _ in 0..8 {
                let e = &mut self.table[slot];
                if e.0 == key || e.0 == 0 {
                    *e = if key == line {
                        (key, self.tick)
                    } else {
                        (0, 0)
                    };
                    break;
                }
                slot = (slot + 1) % TABLE_SLOTS;
            }
        }
        self.sink += 3;
    }

    /// Runs one sample of [`REF_OPS_PER_SAMPLE`] ops and returns ns per
    /// op.
    pub fn sample(&mut self) -> f64 {
        let t = Instant::now();
        for _ in 0..REF_OPS_PER_SAMPLE {
            let addr = self.addrs[self.pos];
            self.pos = (self.pos + 1) % self.addrs.len();
            self.op(addr);
        }
        let ns = t.elapsed().as_nanos() as f64;
        std::hint::black_box(self.sink);
        ns / REF_OPS_PER_SAMPLE as f64
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn reference_kernel_does_the_same_work_every_time() {
        let mut a = RefKernel::default();
        let mut b = RefKernel::default();
        assert!(a.sample() > 0.0);
        b.sample();
        assert_eq!(a.sink, b.sink);
        assert_eq!(a.pos, b.pos);
        // All three paths (L2 hit, LLC hit, fill) are exercised.
        assert!(a.sink > REF_OPS_PER_SAMPLE as u64);
        assert!(a.sink < 3 * REF_OPS_PER_SAMPLE as u64);
    }

    #[test]
    fn fingerprint_reads_this_machine() {
        let f = fingerprint();
        assert!(f.nproc >= 1);
        assert!(driver_threads() >= 1 && driver_threads() <= 2);
        assert!(peak_rss_mb() > 0.0);
    }
}
