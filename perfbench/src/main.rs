//! The repository benchmark: simulated accesses per host second in each
//! execution mode, measured as interleaved closed-loop rounds, with a
//! separate traced pass that attributes time to the layers.
//!
//! ```text
//! cargo run --release --offline --manifest-path perfbench/Cargo.toml -- \
//!     --workload lowshare --seed 0 --seconds 55 --trace 0
//! ```
//!
//! One process runs one simulation at a time. Every round runs each preset
//! of the workload once in every mode (and, on `parallel2w`, at every worker
//! count), in an order rotated from round to round, so slow host phases land
//! on every mode alike. Every report is checked against an untimed warm-up
//! reference. Each simulated run starts with empty modelled caches (code
//! cache, inline TLB, shadow memory): the paper's cold-start semantics.
//!
//! With `--trace 0` the last stdout line carries the end-to-end metrics; with
//! `--trace 1` it carries the per-layer metrics of a traced pass, and the
//! spans are written to `perfbench/out/`. See `perfbench/README.md`.

mod heap;
mod host;
mod record;
mod spans;
mod stats;

use std::fmt::Write as _;
use std::hint::black_box;
use std::process::ExitCode;
use std::time::{Duration, Instant};

use aikido_fasttrack::FastTrack;
use aikido_sim::{Mode, RunReport, ShardOccupancy, SimConfig, Simulator};
use aikido_staticcheck::{CoverageStats, StaticReport};
use aikido_workloads::{BlockExec, Workload, WorkloadSpec};

use record::{Recorder, Recording};
use spans::Tracer;

#[global_allocator]
static ALLOC: heap::Counting = heap::Counting;

const USAGE: &str =
    "usage: perfbench --workload <lowshare|highshare|parallel2w> [--seed N] [--seconds S] [--trace 0|1]";

/// One benchmark workload: two PARSEC presets at scale 1.0, the worker
/// count of the gated throughput, and the number of rounds it is taken from.
#[derive(Debug)]
struct WorkloadDef {
    name: &'static str,
    presets: [&'static str; 2],
    /// Untraced runs run every worker count from 1 up to this one; the
    /// `_maps` metrics are the figures at this count.
    workers: usize,
    /// The `_maps` metrics take the fastest runs of the first this many
    /// untraced rounds, so faster and slower code are judged on the same
    /// number of samples. It is about the round count a 55-second run
    /// reaches on a contended 2-vCPU host, so the fastest runs are drawn
    /// from the whole measuring time; the loop runs on until it is met.
    gated_rounds: usize,
}

/// The sharing spectrum of the paper's Fig. 6. `lowshare` is the low end,
/// where the generator and uninstrumented dispatch carry the time;
/// `highshare` the high end, where faults, shadow translation and FastTrack
/// do; `parallel2w` runs a local-analysis and an escalation-heavy preset on
/// the two-worker epoch engine with sharded analysis. `BENCHMARK.json`
/// gates `lowshare` and `highshare`: on a 2-vCPU host a 2-worker run (two
/// producers and a commit thread) measures the scheduler, and two workloads
/// leave each run 55 seconds. Traced runs of every workload also run at
/// [`TRACED_WORKERS`], so the epoch engine's layer metrics stay measured.
const WORKLOADS: [WorkloadDef; 3] = [
    WorkloadDef {
        name: "lowshare",
        presets: ["raytrace", "blackscholes"],
        workers: 1,
        gated_rounds: 128,
    },
    WorkloadDef {
        name: "highshare",
        presets: ["vips", "fluidanimate"],
        workers: 1,
        gated_rounds: 160,
    },
    WorkloadDef {
        name: "parallel2w",
        presets: ["raytrace", "fluidanimate"],
        workers: 2,
        gated_rounds: 24,
    },
];

/// Traced runs run every worker count up to this one, interleaved, for the
/// `sim.epoch.*` and `sim.shard_plane.*` layer metrics.
const TRACED_WORKERS: usize = 2;

const MODES: [Mode; 3] = [Mode::Native, Mode::FullInstrumentation, Mode::Aikido];
const ANALYSED: [Mode; 2] = [Mode::FullInstrumentation, Mode::Aikido];

/// Complete set-ups per process: one before the first round, the others
/// spread evenly over the measuring time. `setup_s` adds up the fastest
/// instance of each of their phases.
const SETUP_REPEATS: usize = 16;

/// Back-to-back repetitions of each phase before the first simulation in
/// one set-up; the phase counts its fastest. The first repetition starts
/// with caches the rounds have filled, and on a shared host how long that
/// cold start takes moves with how contended the caches are.
const PHASE_REPEATS: usize = 8;

/// The measuring loop stops at `--seconds` plus this share of it even if
/// the gated rounds are not complete, so a run always ends in time.
const MAX_OVERRUN_EIGHTHS: u32 = 1;

/// Multiplier that spreads `--seed` over the 64-bit seed space (the golden
/// ratio constant of SplitMix64).
const SEED_SPREAD: u64 = 0x9E37_79B9_7F4A_7C15;

/// The generator seed of a preset under benchmark seed `seed`: seed 0 keeps
/// the preset's calibrated seed, any other seed moves every preset to a
/// different, still preset-specific stream.
fn derive_seed(preset_seed: u64, seed: u64) -> u64 {
    preset_seed ^ seed.wrapping_mul(SEED_SPREAD)
}

/// The scale-1.0 spec of `preset` under benchmark seed `seed`.
fn preset_spec(preset: &str, seed: u64) -> WorkloadSpec {
    let spec = WorkloadSpec::parsec(preset).expect("benchmark presets are PARSEC presets");
    let derived = derive_seed(spec.seed, seed);
    spec.with_seed(derived)
}

/// The pinned simulator configuration: defaults, at `workers` workers.
/// Built explicitly, so no `AIKIDO_*` variable can change it.
fn pinned_config(workers: usize) -> SimConfig {
    SimConfig {
        workers,
        ..SimConfig::default()
    }
}

#[derive(Debug)]
struct Args {
    workload: &'static WorkloadDef,
    seed: u64,
    seconds: u64,
    trace: bool,
}

fn parse_args(mut it: impl Iterator<Item = String>) -> Result<Args, String> {
    let (mut workload, mut seed, mut seconds, mut trace) = (None, 0, 55, false);
    while let Some(flag) = it.next() {
        let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        let bad = |what: &str| format!("{flag}: {what}, got {value:?}");
        match flag.as_str() {
            "--workload" => {
                workload = Some(
                    WORKLOADS
                        .iter()
                        .find(|w| w.name == value)
                        .ok_or_else(|| bad("unknown workload"))?,
                )
            }
            "--seed" => seed = value.parse().map_err(|_| bad("expected an integer"))?,
            "--seconds" => {
                seconds = value
                    .parse()
                    .ok()
                    .filter(|&s| s >= 1)
                    .ok_or_else(|| bad("expected a whole number ≥ 1"))?
            }
            "--trace" => {
                trace = match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(bad("expected 0 or 1")),
                }
            }
            _ => return Err(format!("unknown argument {flag}")),
        }
    }
    Ok(Args {
        workload: workload.ok_or("--workload is required")?,
        seed,
        seconds,
        trace,
    })
}

/// Runs attempted and failed. A run fails when it returns a `SimError` or
/// when its output differs from its reference.
#[derive(Debug, Default)]
struct Tally {
    attempted: u64,
    failed: u64,
}

impl Tally {
    fn check(&mut self, ok: bool, what: impl FnOnce() -> String) {
        self.attempted += 1;
        if !ok {
            self.failed += 1;
            eprintln!("check failed: {}", what());
        }
    }
}

/// One generated preset of the workload.
#[derive(Debug)]
struct Preset {
    name: &'static str,
    workload: Workload,
    coverage: CoverageStats,
    generate_ms: f64,
    static_ms: f64,
}

impl Preset {
    /// The preset generated again. Timed runs each get a fresh workload
    /// (the simulator holds only its configuration), so no work done in a
    /// warm-up can carry over into them: work moved out of the runs lands
    /// in the set-up phases `setup_s` times.
    fn fresh(&self) -> Workload {
        Workload::generate(self.workload.spec())
    }
}

/// One timed simulation of a round: a preset in a mode at a worker count.
#[derive(Clone, Copy, Debug)]
struct Cell {
    preset: usize,
    mode: Mode,
    workers: usize,
}

impl Cell {
    fn label(&self) -> String {
        format!("run.{}.w{}", self.mode.label(), self.workers)
    }
}

/// Everything set up before the first timed round.
#[derive(Debug)]
struct Prepared {
    presets: Vec<Preset>,
    /// Simulators indexed by `workers - 1`.
    sims: Vec<Simulator>,
    /// Host time of building the simulators.
    build_ms: f64,
    cells: Vec<Cell>,
    /// The warm-up report of each cell: the reference every timed run of
    /// the cell must reproduce.
    references: Vec<RunReport>,
    /// Host time of each cell's warm-up.
    warmup_ms: Vec<f64>,
    occupancy: Vec<Option<ShardOccupancy>>,
}

impl Prepared {
    fn sim(&self, workers: usize) -> &Simulator {
        &self.sims[workers - 1]
    }

    /// The highest worker count the cells run at.
    fn top_workers(&self) -> usize {
        self.sims.len()
    }

    fn cell_index(&self, preset: usize, mode: Mode, workers: usize) -> usize {
        self.cells
            .iter()
            .position(|c| c.preset == preset && c.mode == mode && c.workers == workers)
            .expect("every preset runs every mode at every worker count")
    }

    fn reference(&self, preset: usize, mode: Mode, workers: usize) -> &RunReport {
        &self.references[self.cell_index(preset, mode, workers)]
    }

    /// Simulated accesses of one round in one mode (all presets).
    fn accesses(&self) -> u64 {
        (0..self.presets.len())
            .map(|p| self.reference(p, Mode::Native, 1).counts.mem_accesses)
            .sum()
    }

    /// Sum over presets of a per-report quantity in `mode` at one worker.
    fn sum(&self, mode: Mode, f: impl Fn(&RunReport) -> f64) -> f64 {
        (0..self.presets.len())
            .map(|p| f(self.reference(p, mode, 1)))
            .sum()
    }
}

/// Host times of one complete set-up.
#[derive(Debug)]
struct SetupTimes {
    /// The phases before the first simulation, in the same order in every
    /// set-up: generate and static check per preset, then simulator
    /// construction.
    phase_ms: Vec<f64>,
    /// The warm-up runs, all cells together.
    warmup_ms: f64,
    /// `Workload::generate`, summed over presets.
    generate_ms: f64,
    /// `StaticReport::for_workload`, summed over presets.
    static_ms: f64,
    /// Peak of the live heap bytes the set-up added.
    peak_heap_mib: f64,
}

/// Generates the presets, runs the static check, builds the simulators and
/// runs one untimed warm-up per cell. `None` when a warm-up failed.
/// Every worker count from 1 up to `top` gets its own simulator and cells.
fn setup(
    def: &WorkloadDef,
    top: usize,
    seed: u64,
    tracer: &mut Tracer,
    tally: &mut Tally,
) -> Option<Prepared> {
    tracer.enter("setup", "");
    let mut presets = Vec::new();
    for name in def.presets {
        let spec = preset_spec(name, seed);
        let (workload, gen) = fastest_phase(tracer, "workloads.generate", name, || {
            Workload::generate(&spec)
        });
        let (report, st) = fastest_phase(tracer, "staticcheck.for_workload", name, || {
            StaticReport::for_workload(&workload)
        });
        presets.push(Preset {
            name,
            coverage: report.coverage,
            workload,
            generate_ms: ms(gen),
            static_ms: ms(st),
        });
    }
    let worker_counts: Vec<usize> = (1..=top).collect();
    let (sims, build) = fastest_phase(tracer, "sim.from_config", "", || {
        worker_counts
            .iter()
            .map(|&w| Simulator::from_config(pinned_config(w)).expect("the pinned config is valid"))
            .collect::<Vec<_>>()
    });
    let mut cells = Vec::new();
    for preset in 0..presets.len() {
        for mode in MODES {
            for &workers in &worker_counts {
                cells.push(Cell {
                    preset,
                    mode,
                    workers,
                });
            }
        }
    }
    let mut prepared = Prepared {
        presets,
        sims,
        build_ms: ms(build),
        cells,
        references: Vec::new(),
        warmup_ms: Vec::new(),
        occupancy: Vec::new(),
    };
    for cell in prepared.cells.clone() {
        let preset = &prepared.presets[cell.preset];
        let sim = prepared.sim(cell.workers);
        let (result, d) = tracer.span(
            &format!("warmup.{}", &cell.label()[4..]),
            preset.name,
            || sim.try_run_with_occupancy(&preset.workload, cell.mode),
        );
        match result {
            Ok((report, occupancy)) => {
                tally.check(true, String::new);
                prepared.warmup_ms.push(ms(d));
                prepared.references.push(report);
                prepared.occupancy.push(occupancy);
            }
            Err(err) => {
                tally.check(false, || format!("{} {}: {err}", preset.name, cell.label()));
                tracer.exit();
                return None;
            }
        }
    }
    for (i, cell) in prepared.cells.iter().enumerate() {
        let sequential = prepared.reference(cell.preset, cell.mode, 1);
        if cell.workers > 1 {
            tally.check(prepared.references[i] == *sequential, || {
                format!(
                    "{} {}: report differs from the 1-worker report",
                    prepared.presets[cell.preset].name,
                    cell.label()
                )
            });
        }
    }
    tracer.exit();
    Some(prepared)
}

/// Runs `f` [`PHASE_REPEATS`] times inside one span and returns the last
/// result with the fastest repetition's time. Earlier results are dropped
/// outside the timer.
fn fastest_phase<T>(
    tracer: &mut Tracer,
    name: &str,
    preset: &str,
    mut f: impl FnMut() -> T,
) -> (T, Duration) {
    tracer.enter(name, preset);
    let mut last = None;
    let mut fastest = Duration::MAX;
    for _ in 0..PHASE_REPEATS {
        let start = Instant::now();
        let out = f();
        fastest = fastest.min(start.elapsed());
        last = Some(out);
    }
    tracer.exit();
    (last.expect("PHASE_REPEATS is at least 1"), fastest)
}

/// Runs one complete set-up, timing it and counting the heap it uses.
fn timed_setup(
    def: &WorkloadDef,
    top: usize,
    seed: u64,
    tracer: &mut Tracer,
    tally: &mut Tally,
) -> Option<(Prepared, SetupTimes)> {
    heap::arm();
    let p = setup(def, top, seed, tracer, tally);
    let peak_heap_mib = heap::disarm();
    let p = p?;
    let phase_ms: Vec<f64> = p
        .presets
        .iter()
        .flat_map(|s| [s.generate_ms, s.static_ms])
        .chain([p.build_ms])
        .collect();
    let times = SetupTimes {
        phase_ms,
        warmup_ms: p.warmup_ms.iter().sum(),
        peak_heap_mib,
        generate_ms: p.presets.iter().map(|s| s.generate_ms).sum(),
        static_ms: p.presets.iter().map(|s| s.static_ms).sum(),
    };
    Some((p, times))
}

fn ms(d: Duration) -> f64 {
    d.as_secs_f64() * 1e3
}

/// Simulated accesses per host second, in millions.
fn maps(accesses: u64, round_ms: f64) -> f64 {
    accesses as f64 / (round_ms / 1e3) / 1e6
}

fn ratio(num: f64, den: f64) -> f64 {
    if den == 0.0 {
        0.0
    } else {
        num / den
    }
}

/// Per-round measurements of untraced rounds.
#[derive(Debug, Default)]
struct RoundLog {
    /// Host time of each cell, one entry per round, indexed by cell.
    cell_ms: Vec<Vec<f64>>,
    /// Round time outside the simulations (checks and bookkeeping).
    harness_ms: Vec<f64>,
    alu_ms: Vec<f64>,
    mem_ms: Vec<f64>,
}

impl RoundLog {
    fn new(cells: usize) -> Self {
        RoundLog {
            cell_ms: vec![Vec::new(); cells],
            ..RoundLog::default()
        }
    }

    fn rounds(&self) -> usize {
        self.harness_ms.len()
    }

    /// Per-round time of `mode` at `workers`: the sum over presets.
    fn mode_ms(&self, p: &Prepared, mode: Mode, workers: usize) -> Vec<f64> {
        let idx: Vec<usize> = (0..p.presets.len())
            .map(|preset| p.cell_index(preset, mode, workers))
            .collect();
        (0..self.rounds())
            .map(|r| idx.iter().map(|&i| self.cell_ms[i][r]).sum())
            .collect()
    }
}

/// The host time of a round made of the fastest run of every preset: the
/// sum over presets of the fastest run of `mode` at `workers` among the
/// first `rounds` rounds.
fn fastest_mode_ms(
    cell_ms: &[Vec<f64>],
    rounds: usize,
    p: &Prepared,
    mode: Mode,
    workers: usize,
) -> f64 {
    (0..p.presets.len())
        .map(|preset| {
            let runs = &cell_ms[p.cell_index(preset, mode, workers)];
            fastest_or_zero(&runs[..rounds.min(runs.len())])
        })
        .sum()
}

/// One untraced round: the host probes, then every cell once, starting at
/// a cell that moves by one each round.
fn untraced_round(
    p: &Prepared,
    round: usize,
    probe: &mut host::MemProbe,
    log: &mut RoundLog,
    tally: &mut Tally,
) {
    log.alu_ms.push(host::alu_probe_ms());
    log.mem_ms.push(probe.run_ms());
    let n = p.cells.len();
    let start = Instant::now();
    let mut in_runs = 0.0;
    for k in 0..n {
        let i = (k + round) % n;
        let cell = p.cells[i];
        let preset = &p.presets[cell.preset];
        let workload = preset.fresh();
        let t = Instant::now();
        let result = p.sim(cell.workers).try_run(&workload, cell.mode);
        let elapsed = ms(t.elapsed());
        in_runs += elapsed;
        log.cell_ms[i].push(elapsed);
        check_report(tally, preset.name, &cell, result, &p.references[i]);
    }
    log.harness_ms.push(ms(start.elapsed()) - in_runs);
}

fn check_report(
    tally: &mut Tally,
    preset: &str,
    cell: &Cell,
    result: Result<RunReport, aikido_sim::SimError>,
    reference: &RunReport,
) {
    let failure = match result {
        Ok(report) if report == *reference => None,
        Ok(_) => Some("report differs from its warm-up reference".to_string()),
        Err(err) => Some(err.to_string()),
    };
    tally.check(failure.is_none(), || {
        format!("{preset} {}: {}", cell.label(), failure.unwrap_or_default())
    });
}

/// Drains every thread's trace with no simulation; returns blocks produced.
fn drain(workload: &Workload) -> u64 {
    let mut blocks = 0;
    let mut exec = BlockExec::default();
    for thread in workload.threads() {
        let mut trace = workload.thread_trace(thread);
        while trace.next_into(&mut exec) {
            blocks += 1;
        }
    }
    black_box(&exec);
    blocks
}

fn fresh_fasttrack(sim: &Simulator) -> FastTrack {
    FastTrack::new().with_packed_words(sim.config().packed_words)
}

/// Records the FastTrack event stream of each preset in each analysed mode,
/// checking that recording leaves the run's report unchanged.
fn record_streams(p: &Prepared, tracer: &mut Tracer, tally: &mut Tally) -> Vec<[Recording; 2]> {
    let sim = p.sim(1);
    tracer.enter("record", "");
    let out = p
        .presets
        .iter()
        .enumerate()
        .map(|(pi, preset)| {
            ANALYSED.map(|mode| {
                let mut recorder = Recorder::new(fresh_fasttrack(sim));
                let (result, _) =
                    tracer.span(&format!("record.{}", mode.label()), preset.name, || {
                        sim.try_run_with_analysis(&preset.workload, mode, &mut recorder)
                    });
                let same = result.is_ok_and(|mut report| {
                    report.fasttrack.get_or_insert(*recorder.stats());
                    report == *p.reference(pi, mode, 1)
                });
                tally.check(same, || {
                    format!(
                        "{} record.{}: report differs from the plain run",
                        preset.name,
                        mode.label()
                    )
                });
                recorder.finish()
            })
        })
        .collect();
    tracer.exit();
    out
}

/// Per-round measurements of traced rounds.
#[derive(Debug)]
struct TracedLog {
    /// Drain time, indexed by preset, one entry per round.
    drain_ms: Vec<Vec<f64>>,
    /// Replay time per analysed mode (`ANALYSED` order), indexed by preset.
    replay_ms: [Vec<Vec<f64>>; 2],
    cell_ms: Vec<Vec<f64>>,
    blocks: u64,
}

impl TracedLog {
    fn new(p: &Prepared) -> Self {
        let per_preset = vec![Vec::new(); p.presets.len()];
        TracedLog {
            drain_ms: per_preset.clone(),
            replay_ms: [per_preset.clone(), per_preset],
            cell_ms: vec![Vec::new(); p.cells.len()],
            blocks: 0,
        }
    }
}

/// One traced round: per preset, the trace drain, every cell, and a replay
/// of each recorded stream, each inside its own span.
fn traced_round(
    p: &Prepared,
    recordings: &[[Recording; 2]],
    tracer: &mut Tracer,
    log: &mut TracedLog,
    tally: &mut Tally,
) {
    tracer.enter("round", "");
    let mut blocks = 0;
    for (pi, preset) in p.presets.iter().enumerate() {
        tracer.enter("preset", preset.name);
        let workload = preset.fresh();
        let (b, d) = tracer.span("workloads.drain", preset.name, || drain(&workload));
        log.drain_ms[pi].push(ms(d));
        blocks += b;
        for (i, cell) in p.cells.iter().enumerate().filter(|(_, c)| c.preset == pi) {
            let sim = p.sim(cell.workers);
            let workload = preset.fresh();
            let (result, d) = tracer.span(&cell.label(), preset.name, || {
                sim.try_run(&workload, cell.mode)
            });
            log.cell_ms[i].push(ms(d));
            check_report(tally, preset.name, cell, result, &p.references[i]);
        }
        for (m, mode) in ANALYSED.iter().enumerate() {
            let rec = &recordings[pi][m];
            let fresh = fresh_fasttrack(p.sim(1));
            let (replayed, _) = tracer.span(
                &format!("fasttrack.replay.{}", mode.label()),
                preset.name,
                || record::replay(rec, fresh),
            );
            log.replay_ms[m][pi].push(ms(replayed.elapsed));
            let verdict = record::verify(rec, &replayed);
            tally.check(verdict.is_ok(), || {
                format!(
                    "{} replay.{}: {}",
                    preset.name,
                    mode.label(),
                    verdict.unwrap_err()
                )
            });
        }
        tracer.exit();
    }
    tracer.exit();
    log.blocks = blocks;
}

/// A named metric value with its unit.
type Metric = (&'static str, f64, &'static str);

fn median_or_zero(values: &[f64]) -> f64 {
    stats::median(values).unwrap_or(0.0)
}

fn fastest_or_zero(values: &[f64]) -> f64 {
    values.iter().copied().reduce(f64::min).unwrap_or(0.0)
}

/// Prints one mode's fastest-run throughput and its round-time summary.
fn print_mode_summary(label: &str, fastest: f64, rounds: &[f64], accesses: u64) {
    let s = stats::summarize(rounds).expect("at least one round ran");
    let tail = s.tail.map_or(
        "no tail percentile (< 20 rounds)".to_string(),
        |(pct, v)| format!("p{pct} {v:.2} ms"),
    );
    println!(
        "  {label:<12} fastest runs {fastest:.2} ms ({:.3} M accesses/s); rounds: median {:.2} ms ({:.3} M/s), {tail}, n={}",
        maps(accesses, fastest),
        s.median,
        maps(accesses, s.median),
        s.n,
    );
}

fn end_to_end(
    def: &WorkloadDef,
    p: &Prepared,
    log: &RoundLog,
    setups: &[SetupTimes],
    tally: &Tally,
) -> Vec<Metric> {
    let accesses = p.accesses();
    println!(
        "timed rounds: {} ({} accesses per mode per round); fastest runs of the first {} rounds",
        log.rounds(),
        accesses,
        def.gated_rounds
    );
    let mut mode_maps = [0.0; 3];
    for workers in 1..=def.workers {
        for (m, mode) in MODES.iter().enumerate() {
            let label = format!("{}.w{workers}", mode.label());
            let fastest = fastest_mode_ms(&log.cell_ms, def.gated_rounds, p, *mode, workers);
            print_mode_summary(&label, fastest, &log.mode_ms(p, *mode, workers), accesses);
            if workers == def.workers {
                mode_maps[m] = maps(accesses, fastest);
            }
        }
    }
    print_host_probes(log);
    let failed_frac = ratio(tally.failed as f64, tally.attempted as f64);
    println!(
        "failed_frac = {failed_frac} ({} of {} runs)",
        tally.failed, tally.attempted
    );
    // Full mode's fastest runs follow how contended the host's caches are
    // for minutes at a time, so `full_maps` is a per-layer figure.
    vec![
        ("aikido_maps", mode_maps[2], "M/s"),
        ("native_maps", mode_maps[0], "M/s"),
        ("setup_s", fastest_setup_s(setups), "s"),
        ("peak_heap_mb", peak_heap_mib(setups), "MiB"),
        ("ok_frac", 1.0 - failed_frac, "fraction"),
    ]
}

/// `setup_s`: the sum over the phases before the first simulation of each
/// phase's fastest instance among the set-ups, in seconds.
fn fastest_setup_s(setups: &[SetupTimes]) -> f64 {
    let phases = setups.first().map_or(0, |s| s.phase_ms.len());
    let fastest_ms: f64 = (0..phases)
        .map(|i| fastest_or_zero(&setups.iter().map(|s| s.phase_ms[i]).collect::<Vec<_>>()))
        .sum();
    fastest_ms / 1e3
}

/// `peak_heap_mb`: the highest heap peak of the set-ups.
fn peak_heap_mib(setups: &[SetupTimes]) -> f64 {
    setups.iter().map(|s| s.peak_heap_mib).fold(0.0, f64::max)
}

fn print_host_probes(log: &RoundLog) {
    for (name, v) in [("host.alu_ms", &log.alu_ms), ("host.mem_ms", &log.mem_ms)] {
        let s = stats::sorted(v);
        println!(
            "  {name:<12} median {:.2} ms, min {:.2}, max {:.2} (not gated)",
            median_or_zero(v),
            s.first().copied().unwrap_or(0.0),
            s.last().copied().unwrap_or(0.0)
        );
    }
    if let Some(rss) = host::peak_rss_mib() {
        println!("  host.peak_rss_mb {rss:.2} MiB (not gated)");
    }
}

fn per_layer(
    p: &Prepared,
    setups: &[SetupTimes],
    untraced: &RoundLog,
    traced: &TracedLog,
    recordings: &[[Recording; 2]],
) -> Vec<Metric> {
    let top = p.top_workers();
    let t = |mode, workers| fastest_mode_ms(&untraced.cell_ms, usize::MAX, p, mode, workers);
    let (native, full, aikido) = (
        t(Mode::Native, 1),
        t(Mode::FullInstrumentation, 1),
        t(Mode::Aikido, 1),
    );
    let sum_fastest =
        |per_preset: &[Vec<f64>]| -> f64 { per_preset.iter().map(|v| fastest_or_zero(v)).sum() };
    let drain = sum_fastest(&traced.drain_ms);
    let ft_full = sum_fastest(&traced.replay_ms[0]);
    let ft_aikido = sum_fastest(&traced.replay_ms[1]);
    let dispatch = native - drain;
    let full_extra = full - native - ft_full;
    let aikido_extra = aikido - native - ft_aikido;

    let mut untraced_sum = 0.0;
    let mut traced_sum = 0.0;
    let mut scaling = [0.0; 3];
    // Time the epoch engine at the top worker count adds to a mode's
    // 1-worker runs (or saves, when negative); 0 at one worker.
    let mut epoch_extra = [0.0; 3];
    for (m, mode) in MODES.iter().enumerate() {
        for workers in 1..=top {
            untraced_sum += t(*mode, workers);
            traced_sum += fastest_mode_ms(&traced.cell_ms, usize::MAX, p, *mode, workers);
        }
        if top > 1 {
            epoch_extra[m] = t(*mode, top) - t(*mode, 1);
            let one = untraced.mode_ms(p, *mode, 1);
            let two = untraced.mode_ms(p, *mode, top);
            let per_round: Vec<f64> = one.iter().zip(&two).map(|(a, b)| ratio(*a, *b)).collect();
            scaling[m] = median_or_zero(&per_round);
        }
    }

    let aik = |f: &dyn Fn(&RunReport) -> f64| p.sum(Mode::Aikido, f);
    let cc_dispatches = aik(&|r| r.code_cache.dispatches as f64);
    let ft = |f: &dyn Fn(&aikido_fasttrack::FastTrackStats) -> f64| -> f64 {
        recordings.iter().map(|r| f(&r[1].stats)).sum()
    };
    let ft_accesses = ft(&|s| (s.reads + s.writes) as f64);
    let aikido_calls: f64 = recordings.iter().map(|r| r[1].access_calls() as f64).sum();
    let spill = |f: &dyn Fn(&aikido_fasttrack::SpillStats) -> u64| -> f64 {
        recordings.iter().map(|r| f(&r[1].spill_stats) as f64).sum()
    };
    let occupancy = |mode: Mode| -> (f64, f64) {
        if top == 1 {
            return (0.0, 0.0);
        }
        let (mut local, mut escalated) = (0u64, 0u64);
        for pi in 0..p.presets.len() {
            if let Some(o) = &p.occupancy[p.cell_index(pi, mode, top)] {
                local += o.total() - o.escalated;
                escalated += o.escalated;
            }
        }
        (
            ratio(local as f64, (local + escalated) as f64),
            escalated as f64,
        )
    };
    let (local_full, esc_full) = occupancy(Mode::FullInstrumentation);
    let (local_aikido, esc_aikido) = occupancy(Mode::Aikido);
    let setup_fastest = |f: &dyn Fn(&SetupTimes) -> f64| -> f64 {
        fastest_or_zero(&setups.iter().map(f).collect::<Vec<_>>())
    };
    let proven: usize = p.presets.iter().map(|s| s.coverage.proven_private).sum();
    let work: usize = p.presets.iter().map(|s| s.coverage.work_blocks).sum();

    println!("layer split of the fastest 1-worker runs, summed over presets (ms):");
    println!("  native {native:.2} = workloads.drain {drain:.2} + sim.dispatch {dispatch:.2}");
    println!(
        "  full   {full:.2} = native {native:.2} + fasttrack.full {ft_full:.2} + sim.full_extra {full_extra:.2}"
    );
    println!(
        "  aikido {aikido:.2} = native {native:.2} + fasttrack.aikido {ft_aikido:.2} + sim.aikido_extra {aikido_extra:.2}"
    );
    if top > 1 {
        let w = top;
        println!("layer split of the fastest {w}-worker runs: the 1-worker split + sim.epoch.<mode>_extra (ms):");
        println!(
            "  native.w{w} {:.2} = workloads.drain {drain:.2} + sim.dispatch {dispatch:.2} + sim.epoch.native_extra {:.2}",
            native + epoch_extra[0],
            epoch_extra[0]
        );
        println!(
            "  full.w{w}   {:.2} = workloads.drain {drain:.2} + sim.dispatch {dispatch:.2} + fasttrack.full {ft_full:.2} + sim.full_extra {full_extra:.2} + sim.epoch.full_extra {:.2}",
            full + epoch_extra[1],
            epoch_extra[1]
        );
        println!(
            "  aikido.w{w} {:.2} = workloads.drain {drain:.2} + sim.dispatch {dispatch:.2} + fasttrack.aikido {ft_aikido:.2} + sim.aikido_extra {aikido_extra:.2} + sim.epoch.aikido_extra {:.2}",
            aikido + epoch_extra[2],
            epoch_extra[2]
        );
    }
    println!(
        "  rounds: {} untraced, {} traced",
        untraced.rounds(),
        traced.drain_ms.first().map_or(0, Vec::len)
    );
    print_host_probes(untraced);

    vec![
        ("full_maps", maps(p.accesses(), full), "M/s"),
        ("workloads.drain_ms", drain, "ms"),
        ("workloads.blocks", traced.blocks as f64, "count"),
        (
            "workloads.generate_ms",
            setup_fastest(&|s| s.generate_ms),
            "ms",
        ),
        ("staticcheck.ms", setup_fastest(&|s| s.static_ms), "ms"),
        (
            "staticcheck.proven_private_frac",
            ratio(proven as f64, work as f64),
            "fraction",
        ),
        ("sim.dispatch_ms", dispatch, "ms"),
        ("sim.full_extra_ms", full_extra, "ms"),
        ("sim.aikido_extra_ms", aikido_extra, "ms"),
        ("dbi.dispatches", cc_dispatches, "count"),
        (
            "dbi.linked_frac",
            ratio(
                aik(&|r| r.code_cache.linked_dispatches as f64),
                cc_dispatches,
            ),
            "fraction",
        ),
        (
            "dbi.blocks_flushed",
            aik(&|r| r.code_cache.blocks_flushed as f64),
            "count",
        ),
        ("fasttrack.full_ms", ft_full, "ms"),
        ("fasttrack.aikido_ms", ft_aikido, "ms"),
        ("fasttrack.accesses_aikido", ft_accesses, "count"),
        (
            "fasttrack.accesses_per_call",
            ratio(ft_accesses, aikido_calls),
            "count",
        ),
        (
            "fasttrack.same_epoch_frac",
            ratio(
                ft(&|s| (s.read_same_epoch + s.write_same_epoch) as f64),
                ft_accesses,
            ),
            "fraction",
        ),
        (
            "fasttrack.read_share_promotions",
            ft(&|s| s.read_share_promotions as f64),
            "count",
        ),
        ("fasttrack.spills", spill(&|s| s.spills), "count"),
        (
            "fasttrack.boxed_overflows",
            spill(&|s| s.boxed_overflows),
            "count",
        ),
        ("vm.exits", aik(&|r| r.vm.vm_exits as f64), "count"),
        (
            "vm.shadow_misses",
            aik(&|r| r.vm.shadow_misses as f64),
            "count",
        ),
        (
            "sharing.shared_page_faults",
            aik(&|r| r.sharing.shared_page_faults as f64),
            "count",
        ),
        (
            "sharing.shared_transitions",
            aik(&|r| r.sharing.shared_transitions as f64),
            "count",
        ),
        ("sim.epoch.scaling_native", scaling[0], "x"),
        ("sim.epoch.scaling_full", scaling[1], "x"),
        ("sim.epoch.scaling_aikido", scaling[2], "x"),
        ("sim.epoch.native_extra_ms", epoch_extra[0], "ms"),
        ("sim.epoch.full_extra_ms", epoch_extra[1], "ms"),
        ("sim.epoch.aikido_extra_ms", epoch_extra[2], "ms"),
        ("sim.shard_plane.local_frac_full", local_full, "fraction"),
        (
            "sim.shard_plane.local_frac_aikido",
            local_aikido,
            "fraction",
        ),
        ("sim.shard_plane.escalated_full", esc_full, "count"),
        ("sim.shard_plane.escalated_aikido", esc_aikido, "count"),
        (
            "sim.cycles.native",
            p.sum(Mode::Native, |r| r.cycles as f64),
            "cycles",
        ),
        (
            "sim.cycles.full",
            p.sum(Mode::FullInstrumentation, |r| r.cycles as f64),
            "cycles",
        ),
        ("sim.cycles.aikido", aik(&|r| r.cycles as f64), "cycles"),
        (
            "sim.instrumented_frac",
            ratio(
                aik(&|r| r.counts.instrumented_accesses as f64),
                aik(&|r| r.counts.mem_accesses as f64),
            ),
            "fraction",
        ),
        (
            "trace.overhead_frac",
            ratio(traced_sum - untraced_sum, untraced_sum),
            "fraction",
        ),
        (
            "unattributed_ms",
            median_or_zero(&untraced.harness_ms),
            "ms",
        ),
        ("host.alu_ms", median_or_zero(&untraced.alu_ms), "ms"),
        ("host.mem_ms", median_or_zero(&untraced.mem_ms), "ms"),
        (
            "host.peak_rss_mb",
            host::peak_rss_mib().unwrap_or(0.0),
            "MiB",
        ),
    ]
}

/// The result line: one JSON object, the last line of stdout.
fn result_json(tally: &Tally, metrics: &[Metric]) -> String {
    let mut out = format!(
        "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{",
        tally.failed == 0,
        tally.attempted,
        tally.failed
    );
    for (i, (name, value, unit)) in metrics.iter().enumerate() {
        let value = if value.is_finite() { *value } else { 0.0 };
        let sep = if i == 0 { "" } else { ", " };
        let _ = write!(
            out,
            "{sep}\"{name}\": {{\"value\": {value}, \"unit\": \"{unit}\"}}"
        );
    }
    out.push_str("}}");
    out
}

/// Writes the spans with the pinned configuration at the top worker count.
fn write_spans(args: &Args, top: usize, tracer: &Tracer) -> std::io::Result<std::path::PathBuf> {
    let dir = std::path::Path::new(env!("CARGO_MANIFEST_DIR")).join("out");
    std::fs::create_dir_all(&dir)?;
    let path = dir.join(format!(
        "spans-{}-seed{}.json",
        args.workload.name, args.seed
    ));
    let config = serde_json::to_string(&pinned_config(top)).expect("SimConfig serialises");
    let doc = format!(
        "{{\"workload\":\"{}\",\"seed\":{},\"config\":{config},\"spans\":{}}}\n",
        args.workload.name,
        args.seed,
        tracer.to_json()
    );
    std::fs::write(&path, doc)?;
    Ok(path)
}

fn main() -> ExitCode {
    let args = match parse_args(std::env::args().skip(1)) {
        Ok(args) => args,
        Err(err) => {
            eprintln!("error: {err}\n{USAGE}");
            return ExitCode::from(2);
        }
    };
    for name in host::aikido_env_vars() {
        eprintln!("warning: ignoring {name}: the benchmark pins its own SimConfig");
    }
    let def = args.workload;
    let top = if args.trace {
        def.workers.max(TRACED_WORKERS)
    } else {
        def.workers
    };
    let cores = std::thread::available_parallelism().map_or(0, |n| n.get());
    println!(
        "perfbench workload={} presets={} seed={} seconds={} trace={} host_cpus={cores}",
        def.name,
        def.presets.join("+"),
        args.seed,
        args.seconds,
        u8::from(args.trace)
    );
    for workers in 1..=top {
        println!(
            "config.w{workers}: {}",
            serde_json::to_string(&pinned_config(workers)).expect("SimConfig serialises")
        );
    }

    let mut probe = host::MemProbe::new();
    let mut tracer = Tracer::default();
    let mut tally = Tally::default();

    let Some((p, first_setup)) = timed_setup(def, top, args.seed, &mut tracer, &mut tally) else {
        println!("{}", result_json(&tally, &[]));
        return ExitCode::FAILURE;
    };
    for preset in &p.presets {
        println!(
            "preset {}: seed {:#x}, {} accesses, {} threads",
            preset.name,
            preset.workload.spec().seed,
            preset.workload.spec().total_mem_accesses(),
            preset.workload.spec().threads
        );
    }
    let mut setups = vec![first_setup];
    let recordings = args
        .trace
        .then(|| record_streams(&p, &mut tracer, &mut tally));
    let mut untraced = RoundLog::new(p.cells.len());
    let mut traced = TracedLog::new(&p);

    // Measure for the budget and until the gated rounds are complete. The
    // repeated set-ups run between rounds at evenly spaced times; each must
    // reproduce the first set-up's reference reports.
    let budget = Duration::from_secs(args.seconds);
    let start = Instant::now();
    let mut round = 0;
    loop {
        let elapsed = start.elapsed();
        // Traced runs take per-layer figures from every round, so only
        // untraced runs wait for the gated rounds.
        let gated = args.trace || round >= def.gated_rounds;
        let done = elapsed >= budget && gated && setups.len() == SETUP_REPEATS;
        if done || elapsed >= budget + budget * MAX_OVERRUN_EIGHTHS / 8 {
            break;
        }
        untraced_round(&p, round, &mut probe, &mut untraced, &mut tally);
        if let Some(recordings) = &recordings {
            traced_round(&p, recordings, &mut tracer, &mut traced, &mut tally);
        }
        round += 1;
        let due = budget * setups.len() as u32 / SETUP_REPEATS as u32;
        if setups.len() < SETUP_REPEATS && start.elapsed() >= due {
            let Some((again, times)) = timed_setup(def, top, args.seed, &mut tracer, &mut tally)
            else {
                println!("{}", result_json(&tally, &[]));
                return ExitCode::FAILURE;
            };
            tally.check(again.references == p.references, || {
                "a repeated set-up produced different reference reports".into()
            });
            setups.push(times);
        }
    }
    if !args.trace && round < def.gated_rounds {
        eprintln!(
            "warning: only {round} of {} gated rounds ran within --seconds + {MAX_OVERRUN_EIGHTHS}/8",
            def.gated_rounds
        );
    }
    let whole_ms: Vec<f64> = setups.iter().map(|s| s.phase_ms.iter().sum()).collect();
    let warmup_ms: Vec<f64> = setups.iter().map(|s| s.warmup_ms).collect();
    println!(
        "setup: {:.3} ms from the fastest phases of {} set-ups spread over the run (whole: fastest {:.3} ms, median {:.3} ms); warm-ups (not in setup_s): fastest {:.1} ms, median {:.1} ms; heap peak {:.3} MiB",
        fastest_setup_s(&setups) * 1e3,
        setups.len(),
        fastest_or_zero(&whole_ms),
        median_or_zero(&whole_ms),
        fastest_or_zero(&warmup_ms),
        median_or_zero(&warmup_ms),
        peak_heap_mib(&setups)
    );

    let metrics = match &recordings {
        Some(recordings) => {
            let metrics = per_layer(&p, &setups, &untraced, &traced, recordings);
            match write_spans(&args, top, &tracer) {
                Ok(path) => println!(
                    "spans: {} written to {}",
                    tracer.spans().len(),
                    path.display()
                ),
                Err(err) => eprintln!("warning: spans not written: {err}"),
            }
            metrics
        }
        None => end_to_end(def, &p, &untraced, &setups, &tally),
    };
    for (name, value, unit) in &metrics {
        println!("  {name} = {value} {unit}");
    }
    println!("{}", result_json(&tally, &metrics));
    if tally.failed == 0 {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn seed_zero_keeps_the_calibrated_preset_seeds() {
        for def in &WORKLOADS {
            for preset in def.presets {
                let calibrated = WorkloadSpec::parsec(preset).unwrap();
                assert_eq!(preset_spec(preset, 0), calibrated);
            }
        }
    }

    #[test]
    fn other_seeds_move_every_preset_to_a_distinct_stream() {
        let a = preset_spec("raytrace", 1);
        let b = preset_spec("raytrace", 2);
        let c = preset_spec("vips", 1);
        let calibrated = WorkloadSpec::parsec("raytrace").unwrap();
        assert_ne!(a.seed, calibrated.seed);
        assert_ne!(a.seed, b.seed);
        assert_ne!(a.seed, c.seed);
        assert_eq!(
            a,
            preset_spec("raytrace", 1),
            "derivation is a pure function"
        );
        // Only the seed moves: the workload's shape is the preset's.
        assert_eq!(a.clone().with_seed(calibrated.seed), calibrated);
    }

    #[test]
    fn fastest_phase_repeats_in_one_span_and_keeps_the_last_result() {
        let mut tracer = Tracer::default();
        let mut calls = 0;
        let (last, fastest) = fastest_phase(&mut tracer, "phase", "p", || {
            calls += 1;
            calls
        });
        assert_eq!((calls, last), (PHASE_REPEATS, PHASE_REPEATS));
        let spans = tracer.spans();
        assert_eq!(spans.len(), 1);
        assert!(fastest.as_nanos() as u64 <= spans[0].duration_ns() / PHASE_REPEATS as u64);
    }

    #[test]
    fn arguments_parse_and_reject_bad_values() {
        let parse = |s: &str| parse_args(s.split_whitespace().map(String::from));
        let args = parse("--workload highshare --seed 7 --seconds 3 --trace 1").unwrap();
        assert_eq!(
            (args.workload.name, args.seed, args.seconds, args.trace),
            ("highshare", 7, 3, true)
        );
        assert!(parse("--seed 1").is_err());
        assert!(parse("--workload nope").is_err());
        assert!(parse("--workload lowshare --trace 2").is_err());
        assert!(parse("--workload lowshare --seconds 0").is_err());
        assert!(parse("--workload lowshare --seed").is_err());
    }

    #[test]
    fn result_line_has_the_contract_keys() {
        let tally = Tally {
            attempted: 4,
            failed: 1,
        };
        let line = result_json(&tally, &[("a_ms", 1.5, "ms"), ("b", f64::NAN, "count")]);
        let v = serde_json::from_str(&line).unwrap();
        assert_eq!(v.get("correct").and_then(|c| c.as_bool()), Some(false));
        assert_eq!(v.get("attempted").and_then(|c| c.as_f64()), Some(4.0));
        let metrics = v.get("metrics").unwrap();
        assert_eq!(
            metrics
                .get("a_ms")
                .and_then(|m| m.get("value"))
                .and_then(|x| x.as_f64()),
            Some(1.5)
        );
        assert_eq!(
            metrics
                .get("b")
                .and_then(|m| m.get("unit"))
                .and_then(|x| x.as_str()),
            Some("count")
        );
    }
}
