//! Per-thread trace generation.

use rand::distributions::{Bernoulli, Distribution, Uniform};
use rand::rngs::SmallRng;
use rand::SeedableRng;

use aikido_types::{AccessKind, Addr, BlockId, LockId, Operation, SyncOp, ThreadId, Vpn};

use crate::workload::Workload;

/// A maximal run of consecutive memory operations within one [`BlockExec`]
/// that share their target page and access kind — the unit the simulator's
/// batched block kernels process with one page-state read and one
/// inline-check probe instead of one per access.
#[derive(Copy, Clone, Debug, PartialEq, Eq)]
pub struct MemRun {
    /// Index of the run's first operation in [`BlockExec::ops`].
    pub start: u16,
    /// Number of consecutive memory operations in the run.
    pub len: u16,
    /// Page every access of the run targets.
    pub page: Vpn,
    /// Kind (read or write) of every access in the run.
    pub kind: AccessKind,
}

/// Per-operation metadata precomputed when a [`BlockExec`] is generated, so
/// the simulator's hot loop never has to re-derive it per access.
///
/// `plain == false` is always safe: consumers must fall back to decoding
/// [`BlockExec::ops`] directly (which is what happens for hand-built
/// executions that never call [`BlockMeta::rebuild`]).
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct BlockMeta {
    /// True when the operation list contains only memory operations and
    /// single-instruction compute operations, **and** `runs`/`mem_ops`/
    /// `compute_ops` faithfully describe it. Kernels may then skip the
    /// per-operation decode entirely.
    pub plain: bool,
    /// Maximal `(page, kind)` runs over the memory operations, in order.
    /// Complete only when `plain` is true.
    pub runs: Vec<MemRun>,
    /// Number of memory operations (valid only when `plain` is true).
    pub mem_ops: u32,
    /// Number of compute operations, each representing exactly one dynamic
    /// instruction (valid only when `plain` is true).
    pub compute_ops: u32,
}

impl BlockMeta {
    /// Recomputes the metadata from `ops`, reusing the `runs` allocation.
    pub fn rebuild(&mut self, ops: &[Operation]) {
        self.runs.clear();
        self.mem_ops = 0;
        self.compute_ops = 0;
        self.plain = ops.len() <= usize::from(u16::MAX);
        for (i, op) in ops.iter().enumerate() {
            match op {
                Operation::Mem(m) => {
                    self.mem_ops += 1;
                    let page = m.addr.page();
                    match self.runs.last_mut() {
                        Some(run)
                            if run.page == page
                                && run.kind == m.kind
                                && usize::from(run.start) + usize::from(run.len) == i =>
                        {
                            run.len += 1;
                        }
                        _ => self.runs.push(MemRun {
                            start: i as u16,
                            len: 1,
                            page,
                            kind: m.kind,
                        }),
                    }
                }
                Operation::Compute { count: 1 } => self.compute_ops += 1,
                _ => self.plain = false,
            }
        }
    }
}

/// One dynamic execution of a static basic block: the block id plus one
/// [`Operation`] per static instruction (aligned by index).
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct BlockExec {
    /// The static block being executed.
    pub block: BlockId,
    /// One operation per static instruction of the block.
    pub ops: Vec<Operation>,
    /// Precomputed decode of `ops` (see [`BlockMeta`]); generated traces fill
    /// this in, hand-built executions may leave it defaulted.
    pub meta: BlockMeta,
}

impl BlockExec {
    /// Number of memory accesses in this execution.
    pub fn mem_accesses(&self) -> usize {
        self.ops.iter().filter(|o| o.is_mem()).count()
    }

    /// Total dynamic instructions represented.
    pub fn instruction_count(&self) -> u64 {
        self.ops.iter().map(Operation::instruction_count).sum()
    }
}

/// Where a thread's generator stands. Every state emits at most one
/// execution per pull, so generation never runs ahead of the consumer.
#[derive(Copy, Clone, Debug, PartialEq, Eq)]
enum Phase {
    Init,
    Fork,
    Work,
    /// Inside a critical section on `lock`: `emitted` body blocks (each
    /// addressing the lock's slice at `slice_base`) are out; the release
    /// follows the last one.
    Critical {
        lock: LockId,
        slice_base: Addr,
        emitted: u32,
    },
    Join,
    Exit,
    Done,
}

/// Everything the per-block generation loop would otherwise recompute from
/// the spec and layout on every call, hoisted to trace construction: layout
/// areas, spec constants, and precomputed RNG samplers. Every sampler draws
/// exactly one `next_u64` and yields the exact value the corresponding
/// `gen_bool`/`gen_range` call would have produced, so hoisting changes no
/// trace byte (pinned by the vendored rand's bit-compatibility tests and by
/// `tests/report_regression.rs` downstream).
#[derive(Debug)]
struct GenParams {
    block_mem_instrs: u64,
    barrier_every: u64,
    /// Body blocks per critical section (at least one).
    critical_section_blocks: u32,
    private_base: Addr,
    rm_base: Addr,
    rm_len: u64,
    racy_base: Addr,
    racy_len: u64,
    /// Probability that a work decision picks a shared-touching episode,
    /// corrected for critical-section amortisation (see `work_into`).
    choice: Bernoulli,
    locked: Bernoulli,
    read: Bernoulli,
    shared_within: Bernoulli,
    racy: Bernoulli,
    half: Bernoulli,
    private_block: Uniform<usize>,
    shared_block: Uniform<usize>,
    lock: Uniform<u32>,
    private_slot: Uniform<u64>,
    slice_slot: Uniform<u64>,
    rm_slot: Uniform<u64>,
    /// Present only for workloads with racy pairs and a racy area.
    racy_pair: Option<Uniform<u32>>,
}

impl GenParams {
    fn new(workload: &Workload, thread: ThreadId) -> Self {
        let spec = workload.spec();
        let layout = workload.layout();
        let (rm_base, rm_len) = layout.read_mostly_area();
        let (racy_base, racy_len) = layout.racy_area();
        let private_base = layout.private_base(thread);
        let private_len = layout.private_pages() * aikido_types::PAGE_SIZE;
        let (_, slice_len) = layout.lock_slice(0);
        // The per-decision probability corrected for the spec's access-level
        // fraction: a locked episode emits `critical_section_blocks` shared
        // blocks while a private/unlocked choice emits one.
        let f = spec.instrumented_exec_fraction;
        let weight = spec.locked_shared_fraction * spec.critical_section_blocks.max(1) as f64
            + (1.0 - spec.locked_shared_fraction);
        let choice_prob = if f <= 0.0 {
            0.0
        } else {
            (f / (weight - weight * f + f)).clamp(0.0, 1.0)
        };
        GenParams {
            block_mem_instrs: spec.block_mem_instrs as u64,
            barrier_every: spec.barrier_every,
            critical_section_blocks: spec.critical_section_blocks.max(1),
            private_base,
            rm_base,
            rm_len,
            racy_base,
            racy_len,
            choice: Bernoulli::new(choice_prob),
            locked: Bernoulli::new(spec.locked_shared_fraction),
            read: Bernoulli::new(spec.read_fraction),
            shared_within: Bernoulli::new(spec.shared_within_instrumented),
            racy: Bernoulli::new(0.02),
            half: Bernoulli::new(0.5),
            private_block: Uniform::new(0, workload.block_sets().private_blocks.len()),
            shared_block: Uniform::new(0, workload.block_sets().shared_blocks.len()),
            lock: Uniform::new(0, spec.locks),
            private_slot: Uniform::new(0, private_len / 8),
            slice_slot: Uniform::new(0, slice_len / 8),
            rm_slot: Uniform::new(0, rm_len / 8),
            racy_pair: (spec.racy_pairs > 0 && racy_len > 0)
                .then(|| Uniform::new(0, spec.racy_pairs)),
        }
    }

    /// A private access: a uniformly chosen slot of the thread's own pages.
    fn private_access(&self, rng: &mut SmallRng) -> (Addr, AccessKind) {
        let addr = self.private_base.offset(self.private_slot.sample(rng) * 8);
        (addr, self.read_or_write(rng))
    }

    fn read_or_write(&self, rng: &mut SmallRng) -> AccessKind {
        if self.read.sample(rng) {
            AccessKind::Read
        } else {
            AccessKind::Write
        }
    }
}

/// Writes a one-operation synchronisation execution into `out`. Sync
/// executions never reach the batched work-block kernels (the scheduler
/// classifies them first), so `plain` stays false.
fn fill_sync(out: &mut BlockExec, block: BlockId, op: Operation) {
    out.block = block;
    out.ops.clear();
    out.ops.push(op);
    out.meta.plain = false;
    out.meta.runs.clear();
    out.meta.mem_ops = 0;
    out.meta.compute_ops = 0;
}

/// Writes an execution of work block `block` into `out`; `pick` chooses the
/// address and access kind for each memory instruction.
///
/// The block's operation skeleton is precomputed once per workload
/// ([`crate::workload::BlockTemplate`]): this copies it wholesale and
/// patches only each memory op's address and kind, building the per-op run
/// metadata in the same pass.
fn fill_work<F>(
    out: &mut BlockExec,
    workload: &Workload,
    block: BlockId,
    rng: &mut SmallRng,
    mut pick: F,
) where
    F: FnMut(&mut SmallRng) -> (Addr, AccessKind),
{
    let tmpl = workload.template(block);
    out.block = block;
    out.ops.clear();
    out.ops.extend_from_slice(&tmpl.ops);
    let meta = &mut out.meta;
    meta.plain = tmpl.plain;
    meta.mem_ops = tmpl.mem_ops;
    meta.compute_ops = tmpl.compute_ops;
    meta.runs.clear();
    for (i, op) in out.ops.iter_mut().enumerate() {
        if let Operation::Mem(m) = op {
            let (addr, kind) = pick(rng);
            m.addr = addr;
            m.kind = kind;
            if meta.plain {
                let page = addr.page();
                match meta.runs.last_mut() {
                    Some(run)
                        if run.page == page
                            && run.kind == kind
                            && usize::from(run.start) + usize::from(run.len) == i =>
                    {
                        run.len += 1;
                    }
                    _ => meta.runs.push(MemRun {
                        start: i as u16,
                        len: 1,
                        page,
                        kind,
                    }),
                }
            }
        }
    }
}

/// A deterministic generator of one thread's block executions.
///
/// Generation is pull-based: each call to [`ThreadTrace::next_into`] draws
/// exactly the random numbers of the one execution it writes, in the order
/// the executions appear. A critical section's body blocks are therefore
/// drawn one per pull after its acquire, which is the same order as drawing
/// them all up front, because nothing else draws in between.
#[derive(Debug)]
pub struct ThreadTrace<'a> {
    workload: &'a Workload,
    thread: ThreadId,
    rng: SmallRng,
    gen: GenParams,
    phase: Phase,
    remaining_accesses: u64,
    init_remaining: u64,
    init_cursor: u64,
    fork_next: u32,
    join_next: u32,
    work_blocks_emitted: u64,
    barrier_counter: u32,
    /// Barriers that became due and are not yet emitted. A barrier falling
    /// due inside a critical section waits for the release, so no thread
    /// ever blocks on a barrier while holding a lock.
    barriers_due: u32,
    /// True until the thread's first unlocked shared block, whose first
    /// shared access (if any) goes to the racy area: every thread of a racy
    /// workload touches it at least once.
    force_racy: bool,
}

impl<'a> ThreadTrace<'a> {
    pub(crate) fn new(workload: &'a Workload, thread: ThreadId) -> Self {
        let spec = workload.spec();
        let seed = spec.seed ^ (thread.raw() as u64).wrapping_mul(0x9E37_79B9_7F4A_7C15);
        let is_main = thread == ThreadId::MAIN;
        let gen = GenParams::new(workload, thread);
        let init_writes = if is_main {
            (gen.rm_len / 64).min((spec.mem_accesses_per_thread / 10).max(64))
        } else {
            0
        };
        ThreadTrace {
            workload,
            thread,
            rng: SmallRng::seed_from_u64(seed),
            gen,
            phase: if is_main { Phase::Init } else { Phase::Work },
            remaining_accesses: spec.mem_accesses_per_thread,
            init_remaining: init_writes,
            init_cursor: 0,
            fork_next: 1,
            join_next: 1,
            work_blocks_emitted: 0,
            barrier_counter: 0,
            barriers_due: 0,
            force_racy: spec.racy_pairs > 0,
        }
    }

    /// Writes the next execution into `out`, overwriting every field and
    /// reusing its buffers; returns `false` (leaving `out` untouched) when
    /// the trace is exhausted. This is the allocation-free interface the
    /// simulator's scheduler uses.
    pub fn next_into(&mut self, out: &mut BlockExec) -> bool {
        let sets = self.workload.block_sets();
        loop {
            match self.phase {
                Phase::Init => {
                    if self.init_remaining > 0 {
                        self.init_into(out);
                        return true;
                    }
                    self.phase = Phase::Fork;
                }
                Phase::Fork => {
                    if self.fork_next < self.workload.spec().threads {
                        let child = ThreadId::new(self.fork_next);
                        self.fork_next += 1;
                        fill_sync(out, sets.fork_block, Operation::Sync(SyncOp::Fork(child)));
                        return true;
                    }
                    self.phase = Phase::Work;
                }
                Phase::Work => {
                    if self.barriers_due > 0 {
                        self.barriers_due -= 1;
                        let barrier = SyncOp::Barrier(self.barrier_counter);
                        self.barrier_counter += 1;
                        fill_sync(out, sets.barrier_block, Operation::Sync(barrier));
                        return true;
                    }
                    if self.remaining_accesses > 0 {
                        self.work_into(out);
                        return true;
                    }
                    self.phase = if self.thread == ThreadId::MAIN {
                        Phase::Join
                    } else {
                        Phase::Exit
                    };
                }
                Phase::Critical {
                    lock,
                    slice_base,
                    emitted,
                } => {
                    // A critical section amortises one acquire/release pair
                    // over several shared block executions, but never
                    // overruns the thread's access budget (which would
                    // desynchronise barrier cadences across threads).
                    if emitted < self.gen.critical_section_blocks
                        && (emitted == 0 || self.remaining_accesses > 0)
                    {
                        self.critical_body_into(out, slice_base);
                        self.phase = Phase::Critical {
                            lock,
                            slice_base,
                            emitted: emitted + 1,
                        };
                    } else {
                        fill_sync(
                            out,
                            sets.release_block,
                            Operation::Sync(SyncOp::Release(lock)),
                        );
                        self.phase = Phase::Work;
                    }
                    return true;
                }
                Phase::Join => {
                    if self.join_next < self.workload.spec().threads {
                        let child = ThreadId::new(self.join_next);
                        self.join_next += 1;
                        fill_sync(out, sets.join_block, Operation::Sync(SyncOp::Join(child)));
                        return true;
                    }
                    self.phase = Phase::Exit;
                }
                Phase::Exit => {
                    self.phase = Phase::Done;
                    fill_sync(out, sets.exit_block, Operation::Exit);
                    return true;
                }
                Phase::Done => return false,
            }
        }
    }

    /// Fills `batch` with up to `target` executions, reusing the shells
    /// already in `batch` and truncating it to the number actually produced.
    /// Returns `false` once the trace is exhausted (the batch may still hold
    /// a final partial run).
    ///
    /// This is the bulk interface the parallel epoch scheduler's producer
    /// workers use: each epoch a worker refills one batch per guest thread it
    /// owns, off the critical commit path.
    pub fn fill_batch(&mut self, batch: &mut Vec<BlockExec>, target: usize) -> bool {
        batch.truncate(target);
        let mut produced = 0;
        while produced < target {
            if produced == batch.len() {
                batch.push(BlockExec::default());
            }
            if !self.next_into(&mut batch[produced]) {
                batch.truncate(produced);
                return false;
            }
            produced += 1;
        }
        batch.truncate(produced);
        true
    }

    /// The main thread's pre-fork writes of the read-mostly area.
    fn init_into(&mut self, out: &mut BlockExec) {
        let sets = self.workload.block_sets();
        let block = sets.init_blocks[(self.init_cursor as usize) % sets.init_blocks.len()];
        let (rm_base, rm_len) = (self.gen.rm_base, self.gen.rm_len);
        let cursor = &mut self.init_cursor;
        fill_work(out, self.workload, block, &mut self.rng, |_rng| {
            let addr = rm_base.offset((*cursor * 64) % rm_len.max(64));
            *cursor += 1;
            (addr, AccessKind::Write)
        });
        self.init_remaining = self
            .init_remaining
            .saturating_sub(self.gen.block_mem_instrs);
    }

    /// One work decision: a private block, an unlocked shared block, or the
    /// acquire opening a critical section whose bodies and release follow on
    /// the next pulls.
    fn work_into(&mut self, out: &mut BlockExec) {
        // A locked episode emits `critical_section_blocks` shared blocks while
        // a private/unlocked choice emits one, so the per-decision probability
        // is corrected for the spec's *access-level* fraction — precomputed in
        // [`GenParams::new`].
        let sets = self.workload.block_sets();
        let gen = &self.gen;
        let rng = &mut self.rng;
        if !gen.choice.sample(rng) {
            let block = sets.private_blocks[gen.private_block.sample(rng)];
            fill_work(out, self.workload, block, rng, |rng| {
                gen.private_access(rng)
            });
        } else if gen.locked.sample(rng) {
            // The critical section charges its own body blocks.
            let lock_index = gen.lock.sample(rng);
            let lock = LockId::new(lock_index as u64 + 1);
            let (slice_base, _) = self.workload.layout().lock_slice(lock_index);
            fill_sync(
                out,
                sets.acquire_block,
                Operation::Sync(SyncOp::Acquire(lock)),
            );
            self.phase = Phase::Critical {
                lock,
                slice_base,
                emitted: 0,
            };
            return;
        } else {
            self.unlocked_shared_into(out);
        }
        self.charge_work_block();
    }

    /// A critical-section body: accesses within the held lock's slice.
    fn critical_body_into(&mut self, out: &mut BlockExec, slice_base: Addr) {
        let gen = &self.gen;
        let rng = &mut self.rng;
        let block = self.workload.block_sets().shared_blocks[gen.shared_block.sample(rng)];
        fill_work(out, self.workload, block, rng, |rng| {
            if gen.shared_within.sample(rng) {
                let addr = slice_base.offset(gen.slice_slot.sample(rng) * 8);
                (addr, gen.read_or_write(rng))
            } else {
                gen.private_access(rng)
            }
        });
        self.charge_work_block();
    }

    /// An unsynchronised shared block execution: reads of read-mostly data
    /// (race-free because it was written before the fork) plus, for racy
    /// workloads, occasional unprotected accesses to the racy area.
    fn unlocked_shared_into(&mut self, out: &mut BlockExec) {
        let gen = &self.gen;
        let rng = &mut self.rng;
        let block = self.workload.block_sets().shared_blocks[gen.shared_block.sample(rng)];
        let mut force_racy = std::mem::take(&mut self.force_racy);
        fill_work(out, self.workload, block, rng, |rng| {
            if !gen.shared_within.sample(rng) {
                return gen.private_access(rng);
            }
            match gen.racy_pair {
                Some(racy_pair) if force_racy || gen.racy.sample(rng) => {
                    force_racy = false;
                    let pair = racy_pair.sample(rng) as u64;
                    let addr = gen.racy_base.offset((pair * 64) % gen.racy_len.max(64));
                    let kind = if gen.half.sample(rng) {
                        AccessKind::Write
                    } else {
                        AccessKind::Read
                    };
                    (addr, kind)
                }
                _ => (
                    gen.rm_base.offset(gen.rm_slot.sample(rng) * 8),
                    AccessKind::Read,
                ),
            }
        });
    }

    /// Accounts one work block against the thread's access budget and barrier
    /// cadence. Barriers are only recorded as *due* here; the `Work` phase
    /// emits them, one per pull, before its next decision.
    fn charge_work_block(&mut self) {
        self.remaining_accesses = self
            .remaining_accesses
            .saturating_sub(self.gen.block_mem_instrs);
        self.work_blocks_emitted += 1;
        if self.gen.barrier_every > 0
            && self
                .work_blocks_emitted
                .is_multiple_of(self.gen.barrier_every)
        {
            self.barriers_due += 1;
        }
    }
}

// The parallel epoch scheduler ships each thread's trace to a producer
// worker; this keeps the compiler honest that the move stays legal (a trace
// is plain data plus a shared reference to the immutable workload).
const _: fn() = || {
    fn assert_send<T: Send>() {}
    assert_send::<ThreadTrace<'static>>();
};

impl Iterator for ThreadTrace<'_> {
    type Item = BlockExec;

    fn next(&mut self) -> Option<BlockExec> {
        let mut exec = BlockExec::default();
        self.next_into(&mut exec).then_some(exec)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{Workload, WorkloadSpec};
    use aikido_types::MemRef;

    fn small_spec() -> WorkloadSpec {
        WorkloadSpec {
            mem_accesses_per_thread: 2_000,
            threads: 4,
            ..WorkloadSpec::default()
        }
    }

    fn trace_of(spec: &WorkloadSpec, thread: u32) -> Vec<BlockExec> {
        let w = Workload::generate(spec);
        w.thread_trace(ThreadId::new(thread)).collect()
    }

    /// Shells that disagree with every generated execution in every field:
    /// a foreign block id, stale runs and counts, both values of `plain`,
    /// and (in the second) more operations than any generated block has.
    fn dirty_shells() -> [BlockExec; 2] {
        let foreign = BlockId::new(u32::MAX);
        let mem = Operation::Mem(MemRef::new(
            aikido_types::InstrId::new(foreign, 0),
            Addr::new(0xdead_0000),
            AccessKind::Write,
            aikido_types::AddrMode::Indirect,
        ));
        let stale = MemRun {
            start: 3,
            len: 9,
            page: Vpn::new(7),
            kind: AccessKind::Write,
        };
        [
            BlockExec {
                block: foreign,
                ops: vec![
                    Operation::Sync(SyncOp::Acquire(LockId::new(42))),
                    Operation::Compute { count: 3 },
                ],
                meta: BlockMeta {
                    plain: false,
                    runs: vec![stale; 3],
                    mem_ops: 5,
                    compute_ops: 6,
                },
            },
            BlockExec {
                block: foreign,
                ops: vec![mem; 64],
                meta: BlockMeta {
                    plain: true,
                    runs: vec![stale; 40],
                    mem_ops: 64,
                    compute_ops: 11,
                },
            },
        ]
    }

    /// `next_into` and `fill_batch` overwrite every field of the shells they
    /// are handed: fed nothing but dirty shells, both reproduce the iterator
    /// stream, on the main thread (init, fork, join) and a worker, with
    /// locks, barriers and races.
    #[test]
    fn fill_batch_reproduces_the_iterator_stream() {
        let dirty = dirty_shells();
        let specs = [
            small_spec(),
            WorkloadSpec::parsec("fluidanimate").unwrap().scaled(0.05),
            WorkloadSpec::parsec("canneal").unwrap().scaled(0.05),
        ];
        for spec in &specs {
            let w = Workload::generate(spec);
            for thread in [ThreadId::MAIN, ThreadId::new(1)] {
                let sequential: Vec<BlockExec> = w.thread_trace(thread).collect();
                let context = format!("{} {thread}", spec.name);

                let mut pulled = Vec::new();
                let mut trace = w.thread_trace(thread);
                for shell in dirty.iter().cycle() {
                    let mut out = shell.clone();
                    if !trace.next_into(&mut out) {
                        assert_eq!(&out, shell, "{context}: exhaustion leaves the shell");
                        break;
                    }
                    pulled.push(out);
                }
                assert_eq!(pulled, sequential, "{context}: next_into");

                let mut batched = Vec::new();
                let mut trace = w.thread_trace(thread);
                let mut batch = Vec::new();
                loop {
                    batch.clear();
                    batch.extend(dirty.iter().cycle().take(9).cloned());
                    let more = trace.fill_batch(&mut batch, 7);
                    batched.append(&mut batch);
                    if !more {
                        break;
                    }
                }
                assert_eq!(batched, sequential, "{context}: fill_batch");
                // Exhausted traces keep reporting exhaustion with empty batches.
                batch.extend(dirty.iter().cloned());
                assert!(!trace.fill_batch(&mut batch, 7));
                assert!(batch.is_empty());
            }
        }
    }

    #[test]
    fn block_meta_faithfully_describes_generated_work_blocks() {
        let spec = small_spec();
        let w = Workload::generate(&spec);
        let mut work_blocks = 0;
        for exec in w.thread_trace(ThreadId::new(1)) {
            if exec.ops.len() == 1 && !exec.ops[0].is_mem() {
                assert!(!exec.meta.plain, "sync executions are never plain");
                continue;
            }
            work_blocks += 1;
            assert!(exec.meta.plain);
            assert_eq!(exec.meta.mem_ops as usize, exec.mem_accesses());
            assert_eq!(
                exec.meta.compute_ops as usize,
                exec.ops.len() - exec.mem_accesses()
            );
            // Runs tile the memory ops exactly, in order, with uniform
            // (page, kind) and maximal length.
            let mut covered = vec![false; exec.ops.len()];
            for (r, run) in exec.meta.runs.iter().enumerate() {
                assert!(run.len >= 1);
                for i in run.start..run.start + run.len {
                    let m = exec.ops[usize::from(i)]
                        .as_mem()
                        .expect("run covers mem op");
                    assert_eq!(m.addr.page(), run.page);
                    assert_eq!(m.kind, run.kind);
                    covered[usize::from(i)] = true;
                }
                if r > 0 {
                    let prev = exec.meta.runs[r - 1];
                    let adjacent =
                        usize::from(prev.start) + usize::from(prev.len) == usize::from(run.start);
                    assert!(
                        !adjacent || prev.page != run.page || prev.kind != run.kind,
                        "adjacent runs with equal keys must have been merged"
                    );
                }
            }
            for (i, op) in exec.ops.iter().enumerate() {
                assert_eq!(covered[i], op.is_mem(), "op {i} coverage");
            }
            // The fused single-pass construction must agree with the
            // reference rebuild.
            let mut reference = BlockMeta::default();
            reference.rebuild(&exec.ops);
            assert_eq!(exec.meta, reference);
        }
        assert!(work_blocks > 0);
    }

    #[test]
    fn block_meta_rebuild_flags_non_plain_operation_lists() {
        let mut meta = BlockMeta::default();
        meta.rebuild(&[
            Operation::Compute { count: 2 },
            Operation::Mem(MemRef::new(
                aikido_types::InstrId::new(BlockId::new(0), 1),
                Addr::new(0x1000),
                AccessKind::Read,
                aikido_types::AddrMode::Direct,
            )),
        ]);
        assert!(!meta.plain, "multi-instruction compute ops are not plain");
        assert_eq!(meta.runs.len(), 1);
        meta.rebuild(&[Operation::Exit]);
        assert!(!meta.plain);
        assert!(meta.runs.is_empty());
    }

    #[test]
    fn main_thread_forks_every_worker_and_joins_them() {
        let spec = small_spec();
        let trace = trace_of(&spec, 0);
        let forks: Vec<_> = trace
            .iter()
            .flat_map(|b| &b.ops)
            .filter_map(|op| match op {
                Operation::Sync(SyncOp::Fork(t)) => Some(*t),
                _ => None,
            })
            .collect();
        let joins: Vec<_> = trace
            .iter()
            .flat_map(|b| &b.ops)
            .filter_map(|op| match op {
                Operation::Sync(SyncOp::Join(t)) => Some(*t),
                _ => None,
            })
            .collect();
        assert_eq!(
            forks,
            vec![ThreadId::new(1), ThreadId::new(2), ThreadId::new(3)]
        );
        assert_eq!(joins, forks);
    }

    #[test]
    fn workers_do_not_fork_or_join() {
        let spec = small_spec();
        let trace = trace_of(&spec, 2);
        assert!(!trace.iter().flat_map(|b| &b.ops).any(|op| matches!(
            op,
            Operation::Sync(SyncOp::Fork(_)) | Operation::Sync(SyncOp::Join(_))
        )));
    }

    #[test]
    fn acquire_and_release_are_balanced_and_well_nested() {
        let spec = small_spec();
        for thread in 0..spec.threads {
            let trace = trace_of(&spec, thread);
            let mut held: Option<LockId> = None;
            let mut acquires = 0;
            for op in trace.iter().flat_map(|b| &b.ops) {
                match op {
                    Operation::Sync(SyncOp::Acquire(l)) => {
                        assert!(held.is_none(), "nested acquire in generated trace");
                        held = Some(*l);
                        acquires += 1;
                    }
                    Operation::Sync(SyncOp::Release(l)) => {
                        assert_eq!(held, Some(*l), "release of a lock not held");
                        held = None;
                    }
                    _ => {}
                }
            }
            assert!(held.is_none(), "trace ends while holding a lock");
            if thread > 0 {
                assert!(acquires > 0, "worker {thread} never used a lock");
            }
        }
    }

    #[test]
    fn per_thread_access_budget_is_respected() {
        let spec = small_spec();
        let trace = trace_of(&spec, 1);
        let accesses: usize = trace.iter().map(BlockExec::mem_accesses).sum();
        let budget = spec.mem_accesses_per_thread as usize;
        assert!(
            accesses >= budget,
            "must perform at least the requested accesses"
        );
        assert!(
            accesses <= budget + spec.block_mem_instrs as usize,
            "must not overshoot by more than one block"
        );
    }

    #[test]
    fn shared_fraction_roughly_matches_spec() {
        let spec = WorkloadSpec {
            mem_accesses_per_thread: 20_000,
            instrumented_exec_fraction: 0.3,
            shared_within_instrumented: 0.9,
            ..WorkloadSpec::default()
        };
        let w = Workload::generate(&spec);
        let layout = w.layout();
        let shared_base = layout.shared_base().raw();
        let shared_end = shared_base + layout.shared_bytes();
        let mut total = 0u64;
        let mut shared = 0u64;
        for exec in w.thread_trace(ThreadId::new(1)) {
            for op in &exec.ops {
                if let Operation::Mem(m) = op {
                    total += 1;
                    if m.addr.raw() >= shared_base && m.addr.raw() < shared_end {
                        shared += 1;
                    }
                }
            }
        }
        let measured = shared as f64 / total as f64;
        let expected = spec.expected_shared_access_fraction();
        assert!(
            (measured - expected).abs() < 0.05,
            "measured {measured:.3}, expected {expected:.3}"
        );
    }

    #[test]
    fn locked_accesses_stay_inside_the_held_locks_slice() {
        let spec = small_spec();
        let w = Workload::generate(&spec);
        let layout = w.layout();
        for thread in 0..spec.threads {
            let mut held: Option<u32> = None;
            for exec in w.thread_trace(ThreadId::new(thread)) {
                for op in &exec.ops {
                    match op {
                        Operation::Sync(SyncOp::Acquire(l)) => held = Some((l.raw() - 1) as u32),
                        Operation::Sync(SyncOp::Release(_)) => held = None,
                        Operation::Mem(m) => {
                            let (lk_base, lk_len) = layout.locked_area();
                            let in_locked_area = m.addr.raw() >= lk_base.raw()
                                && m.addr.raw() < lk_base.raw() + lk_len;
                            if in_locked_area {
                                let lock =
                                    held.expect("locked-area access outside critical section");
                                let (sbase, slen) = layout.lock_slice(lock);
                                assert!(
                                    m.addr.raw() >= sbase.raw()
                                        && m.addr.raw() < sbase.raw() + slen,
                                    "access outside the held lock's slice"
                                );
                            }
                        }
                        _ => {}
                    }
                }
            }
        }
    }

    #[test]
    fn barriers_are_emitted_at_the_same_cadence_on_every_thread() {
        let mut spec = small_spec();
        spec.barrier_every = 20;
        let w = Workload::generate(&spec);
        let barrier_count = |t: u32| {
            w.thread_trace(ThreadId::new(t))
                .flat_map(|b| b.ops)
                .filter(|op| matches!(op, Operation::Sync(SyncOp::Barrier(_))))
                .count()
        };
        let counts: Vec<_> = (0..spec.threads).map(barrier_count).collect();
        assert!(counts[0] > 0);
        assert!(counts.iter().all(|&c| c == counts[0]), "{counts:?}");
    }

    #[test]
    fn racy_workloads_touch_the_racy_area_from_multiple_threads() {
        let mut spec = small_spec();
        spec.racy_pairs = 1;
        let w = Workload::generate(&spec);
        let (racy_base, racy_len) = w.layout().racy_area();
        assert!(racy_len > 0);
        let mut threads_touching = 0;
        for t in 0..spec.threads {
            let touches = w
                .thread_trace(ThreadId::new(t))
                .flat_map(|b| b.ops)
                .any(|op| match op {
                    Operation::Mem(m) => {
                        m.addr.raw() >= racy_base.raw() && m.addr.raw() < racy_base.raw() + racy_len
                    }
                    _ => false,
                });
            if touches {
                threads_touching += 1;
            }
        }
        assert!(
            threads_touching >= 2,
            "need at least two threads for a race"
        );
    }

    #[test]
    fn read_mostly_area_is_only_written_before_the_fork() {
        let spec = small_spec();
        let w = Workload::generate(&spec);
        let (rm_base, rm_len) = w.layout().read_mostly_area();
        for t in 0..spec.threads {
            let mut forked = t != 0; // workers run entirely after the fork
            for exec in w.thread_trace(ThreadId::new(t)) {
                for op in &exec.ops {
                    match op {
                        Operation::Sync(SyncOp::Fork(_)) => forked = true,
                        Operation::Mem(m)
                            if forked
                                && m.addr.raw() >= rm_base.raw()
                                && m.addr.raw() < rm_base.raw() + rm_len =>
                        {
                            assert_eq!(
                                m.kind,
                                AccessKind::Read,
                                "read-mostly data written after fork would be a race"
                            );
                        }
                        _ => {}
                    }
                }
            }
        }
    }
}
