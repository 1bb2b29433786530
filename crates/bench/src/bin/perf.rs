//! Performance baseline for the parallel/fused/cached fast path.
//!
//! Runs the same (model × window) experiment grid twice:
//!
//! * **leg A — seed-equivalent serial**: naive reference kernels
//!   ([`set_reference_kernels`]`(true)`), preprocessing cache disabled
//!   (`PREFALL_PREPROC_CACHE=0`), one worker thread. This is the code
//!   path the repo shipped before the fast path existed.
//! * **leg B — optimised**: blocked/fused kernels, segment cache on,
//!   `PREFALL_PERF_THREADS` workers (falls back to `PREFALL_THREADS`,
//!   then 4 — the CI matrix drives this leg at 1/2/4 threads).
//!
//! The two reports must be **bit-identical** (the fast path's core
//! guarantee; the binary exits non-zero if any cell differs), so the
//! wall-clock ratio is a pure like-for-like speedup. It is recorded as
//! the `perf.speedup` gauge, which `benchdiff` gates against the
//! committed baseline in `ci/perf_baseline.json` (shrink beyond
//! `--speedup-pct` fails CI). On a single-core runner the parallel leg
//! cannot beat serial on threads alone — the measured win comes from
//! the kernels and the cache, and grows with available cores.
//!
//! Steady-state streaming inference is measured separately per window
//! length into `detector.infer_w{200,300,400}_seconds` histograms
//! (p50/p95/p99 latency-gated by benchdiff's `*_seconds` rule).
//!
//! ```text
//! cargo run --release -p prefall-bench --bin perf
//! PREFALL_EPOCHS=8 PREFALL_KFALL=6 cargo run --release -p prefall-bench --bin perf
//! ```
//!
//! Output: `bench-out/BENCH_perf.json` (kept separate from `BENCH_telemetry.json`
//! so both gates diff against their own baselines).

use prefall_bench::telemetry_out;
use prefall_core::detector::{DetectorConfig, GuardConfig, StreamingDetector};
use prefall_core::experiment::{Experiment, ExperimentConfig, ExperimentReport};
use prefall_core::models::ModelKind;
use prefall_core::pipeline::PipelineConfig;
use prefall_dsp::segment::Overlap;
use prefall_dsp::stats::Normalizer;
use prefall_nn::kernels::set_reference_kernels;
use prefall_telemetry::{Histogram, JsonValue, NoopRecorder, Recorder, TelemetryEnv, Value};
use std::time::Instant;

/// The output file; never clobbers `BENCH_telemetry.json`.
const BENCH_PERF_PATH: &str = "BENCH_perf.json";

/// Classified windows to time per window length — comfortably above
/// benchdiff's `--min-count` default of 20.
const INFER_WINDOWS: usize = 64;

/// A grid small enough for CI but wide enough to exercise parallel
/// cells, parallel folds and cache sharing (same windows across two
/// models ⇒ every cell after the first six is a cache hit).
fn grid_config() -> ExperimentConfig {
    let mut config = ExperimentConfig::fast();
    config.dataset.kfall_subjects = 4;
    config.dataset.self_collected_subjects = 4;
    config.windows_ms = vec![200.0, 300.0, 400.0];
    config.models = vec![ModelKind::Mlp, ModelKind::ProposedCnn];
    config.cv.epochs = 4;
    config.with_env_overrides()
}

/// Streams synthetic samples through a fresh detector at `window_ms`
/// and returns the wall time of each of the [`INFER_WINDOWS`] pushes
/// that completed a hop (segment assembly + normalise + inference).
/// With `reference` set, the naive seed kernels are forced for the
/// duration: the detector's one workspace interpreter then runs every
/// layer through its reference kernel, with no fused peephole and no
/// packed weights.
fn measure_infer(window_ms: f64, reference: bool) -> Vec<f64> {
    let det_cfg = DetectorConfig {
        pipeline: PipelineConfig::paper(window_ms, Overlap::Half),
        threshold: 1.1, // never trigger: measure pure inference
        consecutive: 1,
        guard: GuardConfig::default(),
    };
    let window = det_cfg.pipeline.segmentation.window();
    let net = ModelKind::ProposedCnn
        .build(window, 9, 1)
        .expect("model builds");
    let mut det = StreamingDetector::new(net, Normalizer::identity(9), det_cfg).expect("detector");
    set_reference_kernels(reference);
    // Warm up: fill the window and classify at least once so the
    // workspace and segment scratch are sized.
    let mut classified = 0usize;
    for _ in 0..2 * window {
        if det
            .push_sample([0.01, -0.02, 1.0], [0.0, 0.1, 0.0])
            .is_some()
        {
            classified += 1;
        }
    }
    assert!(classified > 0, "warm-up must classify at least once");
    let mut samples = Vec::with_capacity(INFER_WINDOWS);
    while samples.len() < INFER_WINDOWS {
        let t0 = Instant::now();
        let p = det.push_sample([0.01, -0.02, 1.0], [0.0, 0.1, 0.0]);
        let elapsed = t0.elapsed().as_secs_f64();
        if p.is_some() {
            samples.push(elapsed);
        }
    }
    set_reference_kernels(false);
    samples
}

fn median(samples: &[f64]) -> f64 {
    let mut v = samples.to_vec();
    v.sort_by(f64::total_cmp);
    v[v.len() / 2]
}

fn run_leg(
    config: &ExperimentConfig,
    threads: usize,
    rec: &dyn Recorder,
) -> Result<(ExperimentReport, f64), String> {
    let mut cfg = config.clone();
    cfg.threads = Some(threads);
    let start = Instant::now();
    let report = Experiment::new(cfg)
        .run_recorded(rec)
        .map_err(|e| format!("experiment failed: {e}"))?;
    Ok((report, start.elapsed().as_secs_f64()))
}

fn real_main() -> Result<(), String> {
    let quiet = TelemetryEnv::from_env().quiet;
    let say = |line: String| {
        if !quiet {
            println!("{line}");
        }
    };
    let (registry, rec) = telemetry_out::bench_recorder();
    let config = grid_config();
    let threads: usize = std::env::var("PREFALL_PERF_THREADS")
        .or_else(|_| std::env::var("PREFALL_THREADS"))
        .ok()
        .and_then(|v| v.parse().ok())
        .unwrap_or(4);
    // The env var is consumed: nested CV/train pools resolve
    // `PREFALL_THREADS` ahead of the inherited map budget, so leaving
    // it set would silently parallelise leg A's inner loops and
    // corrupt the serial baseline.
    std::env::remove_var("PREFALL_THREADS");
    rec.event(
        "bench.phase",
        &[
            ("bench", Value::from("perf")),
            ("phase", Value::from("serial")),
            ("threads", Value::from(threads)),
        ],
    );

    // Leg A: the seed-equivalent serial path. Reference kernels, no
    // cache, one worker. Telemetry routes to the no-op recorder so the
    // dumped snapshot describes only the optimised leg.
    set_reference_kernels(true);
    std::env::set_var("PREFALL_PREPROC_CACHE", "0");
    let serial = run_leg(&config, 1, &NoopRecorder);
    set_reference_kernels(false);
    std::env::remove_var("PREFALL_PREPROC_CACHE");
    let (report_a, serial_wall_s) = serial?;

    // Leg B: blocked/fused kernels, segment cache, worker pool.
    rec.event(
        "bench.phase",
        &[
            ("bench", Value::from("perf")),
            ("phase", Value::from("parallel")),
        ],
    );
    let (report_b, parallel_wall_s) = run_leg(&config, threads, rec.as_ref())?;

    // The contract that makes the ratio meaningful: same bits out.
    if report_a.cells != report_b.cells {
        return Err(
            "FAST PATH DIVERGED — optimised run produced different cells \
             than the reference serial run; refusing to report a speedup"
                .to_string(),
        );
    }

    let speedup = serial_wall_s / parallel_wall_s;
    registry.gauge_set("perf.speedup", speedup);
    registry.gauge_set("perf.threads", threads as f64);
    registry.gauge_set("perf.grid_cells", report_b.cells.len() as f64);

    // Steady-state streaming inference per window length: fill the
    // ring, then time only the pushes that complete a hop (those run
    // the full segment-assembly + normalise + inference path). Each
    // window is measured twice — optimised (fused workspace kernels)
    // and reference (the allocating seed path) — and the per-window
    // median ratio is the kernel speedup, which unlike the grid wall
    // ratio does not depend on how many cores the runner has.
    rec.event(
        "bench.phase",
        &[
            ("bench", Value::from("perf")),
            ("phase", Value::from("stream")),
        ],
    );
    let fine = Histogram::log_bounds(1e-8, 1.0, 10);
    let mut infer_speedup_product = 1.0f64;
    for &window_ms in &[200.0, 300.0, 400.0] {
        let name = format!("detector.infer_w{}_seconds", window_ms as u32);
        registry.register_histogram(&name, fine.clone());
        let fused = measure_infer(window_ms, false);
        let reference = measure_infer(window_ms, true);
        for &s in &fused {
            registry.observe(&name, s);
        }
        let ratio = median(&reference) / median(&fused);
        registry.gauge_set(&format!("perf.infer_speedup_w{}", window_ms as u32), ratio);
        infer_speedup_product *= ratio;
    }
    let infer_speedup = infer_speedup_product.cbrt();
    registry.gauge_set("perf.infer_speedup", infer_speedup);

    let snap = registry.snapshot();
    say("=== perf: fast path vs seed-equivalent serial ===".to_string());
    say(format!(
        "grid         : {} cells ({} models × {} windows), {} folds, {} epochs",
        report_b.cells.len(),
        config.models.len(),
        config.windows_ms.len(),
        config.cv.folds,
        config.cv.epochs
    ));
    say(format!(
        "serial wall  : {serial_wall_s:8.2} s  (reference kernels, no cache, 1 thread)"
    ));
    say(format!(
        "parallel wall: {parallel_wall_s:8.2} s  (fused kernels, cache, {threads} threads)"
    ));
    say(format!(
        "speedup      : {speedup:8.2}×  (bit-identical cells — verified)"
    ));
    say(format!("infer speedup: {infer_speedup:8.2}×  (fused workspace path vs reference, median of medians)"));
    for &window_ms in &[200.0, 300.0, 400.0] {
        let name = format!("detector.infer_w{}_seconds", window_ms as u32);
        let ratio = snap
            .gauges
            .get(&format!("perf.infer_speedup_w{}", window_ms as u32))
            .copied()
            .unwrap_or(f64::NAN);
        if let Some(h) = snap.histograms.get(&name) {
            say(format!(
                "infer {window_ms:3.0} ms : {} windows, p50 {:7.1} µs  p95 {:7.1} µs  p99 {:7.1} µs  ({ratio:.2}× vs reference)",
                h.count,
                h.p50 * 1e6,
                h.p95 * 1e6,
                h.p99 * 1e6
            ));
        }
    }
    for key in ["cache.hits", "cache.misses", "par.maps", "par.tasks"] {
        if let Some(v) = snap.counters.get(key) {
            say(format!("{key:<13}: {v}"));
        }
    }

    telemetry_out::dump_to(
        BENCH_PERF_PATH,
        "perf",
        &snap,
        vec![
            ("serial_wall_s".to_string(), JsonValue::F64(serial_wall_s)),
            (
                "parallel_wall_s".to_string(),
                JsonValue::F64(parallel_wall_s),
            ),
            ("threads".to_string(), JsonValue::U64(threads as u64)),
            (
                "grid_cells".to_string(),
                JsonValue::U64(report_b.cells.len() as u64),
            ),
        ],
    );
    Ok(())
}

fn main() {
    // All telemetry sinks (JSONL recorders flush on drop) live inside
    // real_main, so an error path still flushes before the exit code.
    if let Err(e) = real_main() {
        eprintln!("perf: {e}");
        std::process::exit(1);
    }
}
