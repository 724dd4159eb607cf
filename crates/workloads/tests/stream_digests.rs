//! Pins every generated block-execution stream byte for byte.
//!
//! Each case hashes every thread's stream — block id, every operation and
//! the precomputed [`aikido_workloads::BlockMeta`] — with FNV-1a over a
//! fixed little-endian encoding, and compares the digest with a recorded
//! value. Any change to trace generation that moves a single draw, address,
//! access kind or run boundary fails here and names the workload whose
//! stream moved; a deliberate change to the streams must re-record the table
//! (and will move every downstream report golden with it).

use aikido_types::{AccessKind, AddrMode, Operation, SyncOp};
use aikido_workloads::{racy_workload, BlockExec, Workload, WorkloadSpec, PARSEC_BENCHMARKS};

/// FNV-1a, 64-bit.
struct Fnv(u64);

impl Fnv {
    fn new() -> Self {
        Fnv(0xcbf2_9ce4_8422_2325)
    }

    fn bytes(&mut self, bytes: &[u8]) {
        for &b in bytes {
            self.0 ^= u64::from(b);
            self.0 = self.0.wrapping_mul(0x0000_0100_0000_01b3);
        }
    }

    fn u64(&mut self, v: u64) {
        self.bytes(&v.to_le_bytes());
    }
}

fn kind_tag(kind: AccessKind) -> u64 {
    match kind {
        AccessKind::Read => 0,
        AccessKind::Write => 1,
    }
}

fn hash_op(h: &mut Fnv, op: &Operation) {
    match op {
        Operation::Mem(m) => {
            h.u64(1);
            h.u64(u64::from(m.instr.block().raw()));
            h.u64(u64::from(m.instr.index()));
            h.u64(m.addr.raw());
            h.u64(kind_tag(m.kind));
            h.u64(u64::from(m.size));
            h.u64(match m.mode {
                AddrMode::Direct => 0,
                AddrMode::Indirect => 1,
            });
        }
        Operation::Compute { count } => {
            h.u64(2);
            h.u64(u64::from(*count));
        }
        Operation::Sync(sync) => {
            h.u64(3);
            let (tag, arg) = match sync {
                SyncOp::Acquire(l) => (0, l.raw()),
                SyncOp::Release(l) => (1, l.raw()),
                SyncOp::Fork(t) => (2, u64::from(t.raw())),
                SyncOp::Join(t) => (3, u64::from(t.raw())),
                SyncOp::Barrier(n) => (4, u64::from(*n)),
            };
            h.u64(tag);
            h.u64(arg);
        }
        Operation::Map {
            base,
            pages,
            writable,
        } => {
            h.u64(4);
            h.u64(base.raw());
            h.u64(*pages);
            h.u64(u64::from(*writable));
        }
        Operation::Exit => h.u64(5),
    }
}

fn hash_exec(h: &mut Fnv, exec: &BlockExec) {
    h.u64(u64::from(exec.block.raw()));
    h.u64(exec.ops.len() as u64);
    for op in &exec.ops {
        hash_op(h, op);
    }
    let meta = &exec.meta;
    h.u64(u64::from(meta.plain));
    h.u64(u64::from(meta.mem_ops));
    h.u64(u64::from(meta.compute_ops));
    h.u64(meta.runs.len() as u64);
    for run in &meta.runs {
        h.u64(u64::from(run.start));
        h.u64(u64::from(run.len));
        h.u64(run.page.raw());
        h.u64(kind_tag(run.kind));
    }
}

/// Digest of every thread's stream, pulled through one reused shell the way
/// the simulator's scheduler pulls it.
fn stream_digest(spec: &WorkloadSpec) -> u64 {
    let workload = Workload::generate(spec);
    let mut h = Fnv::new();
    let mut exec = BlockExec::default();
    for thread in workload.threads() {
        h.u64(u64::from(thread.raw()));
        let mut trace = workload.thread_trace(thread);
        let mut blocks = 0u64;
        while trace.next_into(&mut exec) {
            hash_exec(&mut h, &exec);
            blocks += 1;
        }
        h.u64(blocks);
    }
    h.0
}

/// Locks, critical sections longer than the access budget divides into, and
/// a barrier every few blocks: barriers fall due inside critical sections
/// and must wait for the release.
fn barrier_heavy() -> WorkloadSpec {
    WorkloadSpec {
        name: "barrier-heavy".to_string(),
        threads: 4,
        mem_accesses_per_thread: 3_001,
        instrumented_exec_fraction: 0.6,
        shared_within_instrumented: 0.8,
        locked_shared_fraction: 0.9,
        critical_section_blocks: 6,
        barrier_every: 3,
        ..WorkloadSpec::default()
    }
}

fn cases() -> Vec<WorkloadSpec> {
    let mut specs: Vec<WorkloadSpec> = PARSEC_BENCHMARKS
        .iter()
        .map(|name| WorkloadSpec::parsec(name).unwrap().scaled(0.05))
        .collect();
    specs.push(racy_workload(4));
    specs.push(barrier_heavy());
    specs
}

/// Digests recorded from the generator; one per entry of [`cases`].
const PINNED: [(&str, u64); 12] = [
    ("freqmine", 0x5d3144bb31343455),
    ("blackscholes", 0x7c156c101df7f818),
    ("bodytrack", 0xa2d3e5374f57f76c),
    ("raytrace", 0xd4eb9afca35ff992),
    ("swaptions", 0x7eb4b1e95e464f7c),
    ("fluidanimate", 0xb33576e45fd97662),
    ("vips", 0x919cd96b33b9a408),
    ("x264", 0xc1517ea3745ef93a),
    ("canneal", 0xa3c9730d0c756a8b),
    ("streamcluster", 0x328778c9ad7c04f3),
    ("racy", 0xbb761cf0ca330a1d),
    ("barrier-heavy", 0xe02e89949be76705),
];

#[test]
fn every_stream_matches_its_recorded_digest() {
    let specs = cases();
    assert_eq!(specs.len(), PINNED.len());
    let moved: Vec<String> = specs
        .iter()
        .zip(PINNED)
        .filter_map(|(spec, (name, pinned))| {
            assert_eq!(spec.name, name, "case order");
            let digest = stream_digest(spec);
            (digest != pinned).then(|| format!("{name}: {digest:#018x} (pinned {pinned:#018x})"))
        })
        .collect();
    assert!(moved.is_empty(), "streams moved:\n{}", moved.join("\n"));
}
