//! Record-and-replay attribution of FastTrack time.
//!
//! Timing each analysis callback would perturb the measurement: FastTrack
//! receives about one access per callback, so per-callback timers roughly
//! double full-mode run time. Instead, a [`Recorder`] forwards every callback
//! of one simulated run to a real [`FastTrack`] and records the event stream
//! together with the costs, reports and statistics it produced. [`replay`]
//! then drives a fresh detector through the same stream under a single timer,
//! and [`verify`] checks that the replay reproduced every recorded cost,
//! report and statistic; a replay that does not is void.

use std::time::{Duration, Instant};

use aikido_fasttrack::{FastTrack, FastTrackStats, SpillStats};
use aikido_types::{
    AccessContext, AccessKind, AnalysisReport, LockId, SharedDataAnalysis, ThreadId, Vpn,
};

/// One analysis callback. Access slices and barrier participants are ranges
/// into the recording's flat `accesses` and `threads` vectors.
#[derive(Clone, Copy, Debug)]
enum Event {
    Access(AccessContext),
    Batch {
        start: usize,
        len: usize,
    },
    Run {
        page: Vpn,
        kind: AccessKind,
        start: usize,
        len: usize,
    },
    Acquire(ThreadId, LockId),
    Release(ThreadId, LockId),
    Fork(ThreadId, ThreadId),
    Join(ThreadId, ThreadId),
    Barrier {
        start: usize,
        len: usize,
        id: u32,
    },
    ThreadExit(ThreadId),
}

/// A [`SharedDataAnalysis`] that forwards to a [`FastTrack`] and records
/// every callback it receives.
#[derive(Debug)]
pub struct Recorder {
    inner: FastTrack,
    events: Vec<Event>,
    accesses: Vec<AccessContext>,
    threads: Vec<ThreadId>,
    costs: Vec<u64>,
}

/// A recorded analysis event stream and what the detector produced from it.
#[derive(Debug)]
pub struct Recording {
    events: Vec<Event>,
    accesses: Vec<AccessContext>,
    threads: Vec<ThreadId>,
    /// Per-access costs, in delivery order, as the simulator received them.
    pub costs: Vec<u64>,
    /// Reports at the end of the recorded run.
    pub reports: Vec<AnalysisReport>,
    /// Statistics at the end of the recorded run.
    pub stats: FastTrackStats,
    /// Spill-plane statistics at the end of the recorded run.
    pub spill_stats: SpillStats,
}

impl Recording {
    /// Access callbacks received (scalar, batch and run entry points).
    pub fn access_calls(&self) -> usize {
        self.events
            .iter()
            .filter(|e| {
                matches!(
                    e,
                    Event::Access(_) | Event::Batch { .. } | Event::Run { .. }
                )
            })
            .count()
    }
}

impl Recorder {
    /// Wraps `inner`, which should be configured exactly like the detector
    /// the simulator would build for itself.
    pub fn new(inner: FastTrack) -> Self {
        Recorder {
            inner,
            events: Vec::new(),
            accesses: Vec::new(),
            threads: Vec::new(),
            costs: Vec::new(),
        }
    }

    /// The statistics of the wrapped detector.
    pub fn stats(&self) -> &FastTrackStats {
        self.inner.stats()
    }

    /// Ends recording.
    pub fn finish(self) -> Recording {
        Recording {
            reports: self.inner.reports(),
            stats: *self.inner.stats(),
            spill_stats: self.inner.spill_stats(),
            events: self.events,
            accesses: self.accesses,
            threads: self.threads,
            costs: self.costs,
        }
    }

    fn push_run(&mut self, run: &[AccessContext]) -> (usize, usize) {
        let start = self.accesses.len();
        self.accesses.extend_from_slice(run);
        (start, run.len())
    }
}

impl SharedDataAnalysis for Recorder {
    fn name(&self) -> &'static str {
        self.inner.name()
    }

    fn on_access(&mut self, cx: AccessContext) {
        self.inner.on_access(cx);
        self.events.push(Event::Access(cx));
        self.costs.push(self.inner.last_access_cost_cycles());
    }

    fn on_access_batch(&mut self, run: &[AccessContext], costs: &mut Vec<u64>) {
        self.inner.on_access_batch(run, costs);
        let (start, len) = self.push_run(run);
        self.events.push(Event::Batch { start, len });
        self.costs.extend_from_slice(costs);
    }

    fn on_access_run(
        &mut self,
        page: Vpn,
        kind: AccessKind,
        run: &[AccessContext],
        costs: &mut Vec<u64>,
    ) {
        self.inner.on_access_run(page, kind, run, costs);
        let (start, len) = self.push_run(run);
        self.events.push(Event::Run {
            page,
            kind,
            start,
            len,
        });
        self.costs.extend_from_slice(costs);
    }

    fn on_acquire(&mut self, thread: ThreadId, lock: LockId) {
        self.inner.on_acquire(thread, lock);
        self.events.push(Event::Acquire(thread, lock));
    }

    fn on_release(&mut self, thread: ThreadId, lock: LockId) {
        self.inner.on_release(thread, lock);
        self.events.push(Event::Release(thread, lock));
    }

    fn on_fork(&mut self, parent: ThreadId, child: ThreadId) {
        self.inner.on_fork(parent, child);
        self.events.push(Event::Fork(parent, child));
    }

    fn on_join(&mut self, parent: ThreadId, child: ThreadId) {
        self.inner.on_join(parent, child);
        self.events.push(Event::Join(parent, child));
    }

    fn on_barrier(&mut self, threads: &[ThreadId], id: u32) {
        self.inner.on_barrier(threads, id);
        let start = self.threads.len();
        self.threads.extend_from_slice(threads);
        self.events.push(Event::Barrier {
            start,
            len: threads.len(),
            id,
        });
    }

    fn on_thread_exit(&mut self, thread: ThreadId) {
        self.inner.on_thread_exit(thread);
        self.events.push(Event::ThreadExit(thread));
    }

    fn reports(&self) -> Vec<AnalysisReport> {
        self.inner.reports()
    }

    fn access_cost_cycles(&self) -> u64 {
        self.inner.access_cost_cycles()
    }

    fn last_access_cost_cycles(&self) -> u64 {
        self.inner.last_access_cost_cycles()
    }

    fn sync_cost_cycles(&self) -> u64 {
        self.inner.sync_cost_cycles()
    }
}

/// The detector after a replay, the costs it produced and the replay's time.
#[derive(Debug)]
pub struct Replayed {
    /// The detector in its end state.
    pub detector: FastTrack,
    /// Per-access costs, in delivery order.
    pub costs: Vec<u64>,
    /// Host time of the whole replay.
    pub elapsed: Duration,
}

/// Drives `detector` (fresh, configured like the recorded one) through the
/// recorded stream under one timer.
pub fn replay(rec: &Recording, mut detector: FastTrack) -> Replayed {
    let mut costs = Vec::with_capacity(rec.costs.len());
    let mut run_costs = Vec::new();
    let start = Instant::now();
    for event in &rec.events {
        match *event {
            Event::Access(cx) => {
                detector.on_access(cx);
                costs.push(detector.last_access_cost_cycles());
            }
            Event::Batch { start, len } => {
                detector.on_access_batch(&rec.accesses[start..start + len], &mut run_costs);
                costs.extend_from_slice(&run_costs);
            }
            Event::Run {
                page,
                kind,
                start,
                len,
            } => {
                detector.on_access_run(
                    page,
                    kind,
                    &rec.accesses[start..start + len],
                    &mut run_costs,
                );
                costs.extend_from_slice(&run_costs);
            }
            Event::Acquire(t, l) => detector.on_acquire(t, l),
            Event::Release(t, l) => detector.on_release(t, l),
            Event::Fork(p, c) => detector.on_fork(p, c),
            Event::Join(p, c) => detector.on_join(p, c),
            Event::Barrier { start, len, id } => {
                detector.on_barrier(&rec.threads[start..start + len], id)
            }
            Event::ThreadExit(t) => detector.on_thread_exit(t),
        }
    }
    let elapsed = start.elapsed();
    Replayed {
        detector,
        costs,
        elapsed,
    }
}

/// Checks that a replay reproduced every recorded cost, report and
/// statistic; the error names the first field that differs.
pub fn verify(rec: &Recording, replayed: &Replayed) -> Result<(), String> {
    if replayed.costs != rec.costs {
        return Err("replayed per-access costs differ from the recorded ones".into());
    }
    if replayed.detector.reports() != rec.reports {
        return Err("replayed reports differ from the recorded ones".into());
    }
    if *replayed.detector.stats() != rec.stats {
        return Err("replayed FastTrackStats differ from the recorded ones".into());
    }
    if replayed.detector.spill_stats() != rec.spill_stats {
        return Err("replayed SpillStats differ from the recorded ones".into());
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use aikido_sim::{Mode, SimConfig, Simulator};
    use aikido_workloads::{Workload, WorkloadSpec};

    fn record_and_replay(preset: &str, mode: Mode) {
        let spec = WorkloadSpec::parsec(preset).unwrap().scaled(0.02);
        let workload = Workload::generate(&spec);
        let sim = Simulator::from_config(SimConfig::default()).unwrap();
        let reference = sim.try_run(&workload, mode).unwrap();
        let fresh = || FastTrack::new().with_packed_words(sim.config().packed_words);

        let mut recorder = Recorder::new(fresh());
        let mut recorded = sim
            .try_run_with_analysis(&workload, mode, &mut recorder)
            .unwrap();
        recorded.fasttrack = Some(*recorder.stats());
        assert_eq!(recorded, reference, "recording must not change the run");

        let rec = recorder.finish();
        assert!(rec.access_calls() > 0);
        assert_eq!(rec.stats, reference.fasttrack.unwrap());
        assert_eq!(rec.reports, reference.races);
        assert_eq!(rec.costs.len() as u64, rec.stats.reads + rec.stats.writes);
        let replayed = replay(&rec, fresh());
        assert_eq!(verify(&rec, &replayed), Ok(()));

        // A replay whose costs differ from the recording is caught.
        let mut skewed = replay(&rec, fresh());
        skewed.costs.push(0);
        assert!(verify(&rec, &skewed).is_err());
    }

    #[test]
    fn replay_reproduces_full_mode() {
        record_and_replay("fluidanimate", Mode::FullInstrumentation);
        record_and_replay("blackscholes", Mode::FullInstrumentation);
    }

    #[test]
    fn replay_reproduces_aikido_mode() {
        record_and_replay("fluidanimate", Mode::Aikido);
        record_and_replay("vips", Mode::Aikido);
    }
}
