//! The offline `grid` workload: generate → preprocess → 5-fold subject
//! CV → report, over {MLP, proposed CNN} × {200, 300, 400} ms.

use crate::inputs::{experiment_config, GridInputs};
use crate::stats::fnv1a64;
use prefall_core::experiment::{CellResult, Experiment, ExperimentConfig, ExperimentReport};
use prefall_core::models::ModelKind;
use prefall_imu::dataset::DatasetConfig;
use prefall_telemetry::NoopRecorder;
use std::time::Instant;

/// Report digests recorded from the 1-thread reference leg, by seed
/// (seed 1 is the default seed). A seed listed here is checked against
/// its digest; any other seed runs the 1-thread leg after the timed
/// reps and compares cells.
pub const RECORDED_DIGESTS: &[(u64, u64)] = &[(1, 0x63b4_c1ba_e6c8_60a7)];

/// Nominal seconds of one grid rep; the rep count is fixed from the
/// run's seconds with it, so every run of a setting has the same count.
const NOMINAL_REP_S: f64 = 3.0;

/// Grid reps per run never fall below this, so every run has a median.
pub const MIN_REPS: usize = 3;

/// Grid reps for a run of `seconds` measured seconds.
pub fn reps(seconds: f64) -> usize {
    ((seconds / NOMINAL_REP_S).round() as usize).max(MIN_REPS)
}

/// Worker threads: one per hardware thread.
pub fn threads() -> usize {
    std::thread::available_parallelism()
        .map(|n| n.get())
        .unwrap_or(1)
}

/// Bit-faithful digest of a report's cells. Float `Debug` output
/// round-trips exactly, so equal digests mean equal bits.
pub fn digest(cells: &[CellResult]) -> u64 {
    fnv1a64(format!("{cells:?}").as_bytes())
}

/// Runs the grid once; returns the report and its wall seconds
/// (dataset generation through the complete report).
pub fn run_once(config: &ExperimentConfig) -> (ExperimentReport, f64) {
    let (report, wall, _) = run_timed(config);
    (report, wall)
}

/// Runs the grid once; returns the report, its wall seconds and the
/// CPU seconds all of the process's threads spent on it.
pub fn run_timed(config: &ExperimentConfig) -> (ExperimentReport, f64, f64) {
    let cpu0 = crate::wire::process_cpu_ns();
    let t0 = Instant::now();
    let report = Experiment::new(config.clone())
        .run_recorded(&NoopRecorder)
        .expect("grid runs");
    let wall = t0.elapsed().as_secs_f64();
    let cpu = crate::wire::process_cpu_ns().saturating_sub(cpu0) as f64 / 1e9;
    (report, wall, cpu)
}

/// Grid set-up: starts the scheduler's workers and warms the training
/// and inference kernels on a tiny fixed grid (its data never depends
/// on the run's seed). Returns the seconds it took.
pub fn setup() -> f64 {
    let t0 = Instant::now();
    let mut warm = experiment_config(&GridInputs::from_seed(0), threads());
    warm.dataset = DatasetConfig {
        kfall_subjects: 2,
        self_collected_subjects: 2,
        trials_per_task: 1,
        duration_scale: 0.3,
        seed: 0,
    };
    warm.windows_ms = vec![200.0, 400.0];
    warm.models = vec![ModelKind::Mlp, ModelKind::ProposedCnn];
    warm.cv.folds = 2;
    warm.cv.epochs = 1;
    let (report, _) = run_once(&warm);
    assert_eq!(report.cells.len(), 4);
    t0.elapsed().as_secs_f64()
}

/// What the timed grid reps produced.
pub struct GridRun {
    pub walls_s: Vec<f64>,
    /// CPU seconds of each rep, all threads.
    pub cpus_s: Vec<f64>,
    /// Probes before the first rep and after each.
    pub probe: crate::probe::Probe,
    pub cells: usize,
    /// Segments the grid cross-validates: each cell's held-out segments,
    /// summed. The dataset's size varies with the seed; this is the work
    /// a rep does in proportion to it.
    pub segments: usize,
    pub digest: u64,
    /// Reps whose cells differ from the reference.
    pub mismatched: u64,
    /// How the reference was obtained.
    pub reference: &'static str,
}

/// Runs the grid [`reps`] times at one thread per hardware thread, then
/// checks every rep's cells against the reference.
pub fn run(seed: u64, seconds: f64) -> GridRun {
    let config = experiment_config(&GridInputs::from_seed(seed), threads());
    let mut walls_s = Vec::new();
    let mut cpus_s = Vec::new();
    let mut digests = Vec::new();
    let mut first: Option<ExperimentReport> = None;
    let mut probe = crate::probe::Probe::new(threads());
    probe.run();
    for _ in 0..reps(seconds) {
        let (report, wall, cpu) = run_timed(&config);
        probe.run();
        walls_s.push(wall);
        cpus_s.push(cpu);
        digests.push(digest(&report.cells));
        first.get_or_insert(report);
    }
    let first = first.expect("at least one rep");
    let (want, reference) = match RECORDED_DIGESTS.iter().find(|(s, _)| *s == seed) {
        Some(&(_, d)) => (d, "recorded digest"),
        None => {
            let mut serial = config.clone();
            serial.threads = Some(1);
            let (report, _) = run_once(&serial);
            (digest(&report.cells), "1-thread leg")
        }
    };
    GridRun {
        mismatched: digests.iter().filter(|&&d| d != want).count() as u64,
        walls_s,
        cpus_s,
        probe,
        cells: first.cells.len(),
        segments: first
            .cells
            .iter()
            .map(|c| c.cv.all_predictions().len())
            .sum(),
        digest: digests[0],
        reference,
    }
}
