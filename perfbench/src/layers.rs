//! The traced run (`--trace 1`): times the calls into each layer's
//! public functions from outside the program.
//!
//! Every traced run reports the same per-layer table (the offline
//! layers from one decomposed grid, the online layers from in-process
//! replays plus a short TCP leg and a short churn leg), then the
//! workload's own `reconcile.unaccounted_ratio` and the tracing
//! overhead `overhead.grid_ms`. The TCP legs carry no tracing (their
//! layers are timed in the in-process replays), so the only traced
//! end-to-end figure is the grid wall.

use crate::grid;
use crate::inputs::{
    bundle, experiment_config, fleet_config, GridInputs, SampleSource, MODEL_SEED,
};
use crate::online::{self, Leg, CHURN_WEARERS, LADDER};
use crate::stats::{median, Summary};
use crate::{say, Outcome, Workload};
use prefall_core::cv::{run_cv_with_segments, subject_folds};
use prefall_core::experiment::{CellResult, Experiment, ExperimentConfig};
use prefall_core::models::ModelKind;
use prefall_core::pipeline::{Pipeline, PipelineConfig};
use prefall_core::session::SessionCheckpoint;
use prefall_drift::Fingerprint;
use prefall_dsp::segment::Segmentation;
use prefall_fleet::{Fleet, IngestBatch};
use prefall_imu::dataset::Dataset;
use prefall_nn::loss::WeightedBce;
use prefall_nn::optim::OptimizerKind;
use prefall_nn::train::{train, DataRef, TrainConfig};
use prefall_nn::workspace::Workspace;
use prefall_par::Pool;
use prefall_telemetry::{NoopRecorder, Registry};
use std::time::{Duration, Instant};

/// Steady batches per wearer in the short online legs.
const SHORT_STEADY: u64 = 8;

/// Churn cycles in the short churn leg.
const SHORT_CYCLES: u64 = 3;

/// Seconds a closure took, with its result.
fn timed<T>(f: impl FnOnce() -> T) -> (T, f64) {
    let t0 = Instant::now();
    let v = f();
    (v, t0.elapsed().as_secs_f64())
}

/// Microseconds, median over `values` seconds.
fn median_us(values: &[f64]) -> f64 {
    median(values) * 1e6
}

pub fn traced(workload: Workload, seed: u64) -> Outcome {
    let mut out = Outcome::default();
    let offline = offline_layers(seed, &mut out);
    let src = SampleSource::from_seed(seed);
    let micro = online_micro(&src, &mut out);

    // Short online legs: they give the transport share, the generator
    // lag, and the churn counters.
    let tcp = online::stream_rung(&src, LADDER[0], SHORT_STEADY, true);
    let churn = online::churn(&src, CHURN_WEARERS, SHORT_CYCLES);
    for leg in [&tcp, &churn] {
        out.attempted += leg.attempted;
        out.failed += leg.failed;
        out.mismatched += leg.mismatched;
    }
    let wire_us = median(&tcp.wire_ms) * 1e3;
    out.metric(
        "server.overhead_us",
        wire_us - (micro.decode_us + micro.ingest_us + micro.encode_us),
        "us",
    );
    out.metric(
        "fleet.queue_depth_hw",
        tcp.stats.queue_depth_hw as f64,
        "count",
    );
    out.metric("gen.lag_p99_ms", Summary::at(&tcp.lag_ms, 9_900), "ms");
    out.metric("gen.connections", tcp.connections as f64, "count");
    out.metric("gen.threads", 2.0 * tcp.connections as f64, "count");
    out.metric(
        "fleet.resume_ratio",
        churn.stats.resumed as f64 / churn.returns.max(1) as f64,
        "ratio",
    );
    out.metric(
        "fleet.sessions_created",
        churn.stats.sessions_created as f64,
        "count",
    );
    out.metric("fleet.duplicates", churn.stats.duplicates as f64, "count");

    // The share of the workload's p50 its blocking-path stages leave
    // uncovered. The grid's stages cover the decomposed grid, whose
    // excess over `Experiment::run` is the tracing overhead.
    let (p50_ms, covered_ms) = match workload {
        Workload::Grid => (offline.traced_s * 1e3, offline.covered_s * 1e3),
        Workload::Stream => (median(&tcp.latency_ms), micro.path_ms(&tcp)),
        Workload::Churn => (median(&churn.latency_ms), micro.path_ms(&churn)),
    };
    say("p50_ms", p50_ms, "ms", "the figure reconciled");
    out.metric(
        "reconcile.unaccounted_ratio",
        1.0 - covered_ms / p50_ms,
        "ratio",
    );
    out.metric(
        "overhead.grid_ms",
        (offline.traced_s - offline.untraced_s) * 1e3,
        "ms",
    );
    for (name, value, unit) in &out.metrics {
        say(name, *value, unit, "");
    }
    out
}

/// What the offline layer pass leaves for the grid's reconciliation and
/// tracing overhead.
struct Offline {
    /// Wall seconds of `Experiment::run` and of the decomposed grid.
    untraced_s: f64,
    traced_s: f64,
    /// Seconds of the decomposed grid's stages on its blocking path:
    /// generate, then the segmenting map, then the cell map.
    covered_s: f64,
}

/// The offline layers: one grid decomposed into its public calls with
/// the same cell-level parallelism as `Experiment::run` (cells mapped
/// over the pool), that grid untraced for comparison, a training probe
/// on one fold, and one grid run under the program's own counters
/// (segment cache, scheduler).
fn offline_layers(seed: u64, out: &mut Outcome) -> Offline {
    let threads = grid::threads();
    let config = experiment_config(&GridInputs::from_seed(seed), threads);
    let (untraced, untraced_s) = grid::run_once(&config);
    let pool = Pool::with_override(config.threads);
    let t0 = Instant::now();
    let (dataset, gen_s) = timed(|| Dataset::generate(&config.dataset).expect("dataset generates"));
    let pipelines: Vec<Pipeline> = config
        .windows_ms
        .iter()
        .map(|&w| pipeline_for(&config, w))
        .collect();
    let (segments, segment_span_s) =
        timed(|| pool.map(&pipelines, |_, p| timed(|| p.segment_set(dataset.trials()))));
    // Model-major, as the report orders its cells.
    let plan: Vec<(ModelKind, usize)> = config
        .models
        .iter()
        .flat_map(|&m| (0..config.windows_ms.len()).map(move |wi| (m, wi)))
        .collect();
    let (results, cell_span_s) = timed(|| {
        pool.map(&plan, |_, &(model, wi)| {
            timed(|| {
                run_cv_with_segments(
                    &dataset,
                    &pipelines[wi],
                    &segments[wi].0,
                    model,
                    &config.cv,
                    &NoopRecorder,
                )
                .expect("cell runs")
            })
        })
    });
    let mut cell_s = [0.0f64; 2];
    let cells: Vec<CellResult> = plan
        .iter()
        .zip(results)
        .map(|(&(model, wi), (cv, s))| {
            cell_s[usize::from(model == ModelKind::ProposedCnn)] += s;
            CellResult {
                model,
                window_ms: config.windows_ms[wi],
                metrics: cv.mean,
                cv,
            }
        })
        .collect();
    let traced_s = t0.elapsed().as_secs_f64();
    let segment_s: f64 = segments.iter().map(|(_, s)| s).sum();
    let digest = grid::digest(&cells);
    out.attempted += 2 * cells.len() as u64;
    if grid::digest(&untraced.cells) != digest {
        // The decomposed calls must reproduce the program's own grid.
        out.mismatched += 1;
        out.failed += 1;
    }
    out.metric("imu.generate_s", gen_s, "s");
    out.metric("pipeline.segment_set_s", segment_s, "s");
    out.metric("cv.cell_s.mlp", cell_s[0], "s");
    out.metric("cv.cell_s.cnn", cell_s[1], "s");

    // Training throughput on the first fold's training set (400 ms).
    let pipeline = pipeline_for(&config, 400.0);
    let mut full = pipeline.segment_set(dataset.trials());
    let split = subject_folds(
        &dataset.subject_ids(),
        config.cv.folds,
        config.cv.val_subjects,
        config.cv.seed,
    )
    .expect("folds")
    .remove(0);
    let norm = pipeline.fit_normalizer(&full);
    pipeline.normalize(&mut full, &norm);
    let set = full.filter_subjects(&split.train);
    let mut net = ModelKind::ProposedCnn
        .build(set.window, set.channels, config.cv.seed)
        .expect("model builds");
    let tc = TrainConfig {
        epochs: config.cv.epochs,
        batch_size: config.cv.batch_size,
        learning_rate: config.cv.learning_rate,
        optimizer: OptimizerKind::Adam,
        patience: None,
        seed: config.cv.seed,
    };
    let loss = WeightedBce::balanced(set.positives(), set.len() - set.positives());
    let (report, s) =
        timed(|| train(&mut net, DataRef::new(&set.x, &set.y), None, loss, &tc).expect("trains"));
    out.metric(
        "nn.train_samples_per_s",
        (set.len() * report.epochs_run) as f64 / s,
        "1/s",
    );

    // One grid under the program's own counters.
    let registry = Registry::new();
    let idle0 = Pool::new(1).stats().idle_nanos;
    let (report, s) = timed(|| {
        Experiment::new(config.clone())
            .run_recorded(&registry)
            .expect("grid runs")
    });
    let idle = Pool::new(1).stats().idle_nanos - idle0;
    let snap = registry.snapshot();
    let counter = |k: &str| snap.counters.get(k).copied().unwrap_or(0) as f64;
    let (hits, misses) = (counter("cache.hits"), counter("cache.misses"));
    out.metric("cache.hit_ratio", hits / (hits + misses).max(1.0), "ratio");
    out.metric(
        "par.idle_ratio",
        idle as f64 / (threads as f64 * s * 1e9),
        "ratio",
    );
    out.metric("par.tasks_stolen", counter("par.tasks_stolen"), "count");
    out.attempted += report.cells.len() as u64;
    if grid::digest(&report.cells) != digest {
        out.mismatched += 1;
        out.failed += 1;
    }
    Offline {
        untraced_s,
        traced_s,
        covered_s: gen_s + segment_span_s + cell_span_s,
    }
}

/// The pipeline an experiment cell builds for `window_ms`.
fn pipeline_for(config: &ExperimentConfig, window_ms: f64) -> Pipeline {
    Pipeline::new(PipelineConfig {
        segmentation: Segmentation::from_millis(
            window_ms,
            prefall_imu::SAMPLE_RATE_HZ,
            config.overlap,
        )
        .expect("segmentation"),
        ..PipelineConfig::paper_400ms()
    })
    .expect("pipeline")
}

/// Medians of the in-process online layers, in microseconds.
struct Micro {
    decode_us: f64,
    ingest_us: f64,
    encode_us: f64,
}

impl Micro {
    /// Milliseconds of an online leg's blocking path that the layers
    /// cover: generator lag, server decode, ingest and reply encode,
    /// and the client's reply parse. The rest is transport and HTTP.
    fn path_ms(&self, leg: &Leg) -> f64 {
        median(&leg.lag_ms)
            + median(&leg.parse_ms)
            + (self.decode_us + self.ingest_us + self.encode_us) / 1e3
    }
}

/// The online layers, timed in process on the lowest rung's batches.
fn online_micro(src: &SampleSource, out: &mut Outcome) -> Micro {
    let wearers = LADDER[0];
    let fleet = Fleet::new(bundle(), fleet_config(wearers, false));
    let mut sends = online::stream_schedule(wearers, SHORT_STEADY);
    sends.sort_by_key(|s| s.due);
    let (mut decode, mut ingest, mut encode) = (Vec::new(), Vec::new(), Vec::new());
    let mut probs: Vec<Vec<u32>> = vec![Vec::new(); wearers];
    for send in &sends {
        let bytes = src.batch(send.wearer, send.seq).to_bytes();
        let (batch, s) = timed(|| IngestBatch::from_bytes(&bytes).expect("decodes"));
        decode.push(s);
        let (reply, s) = timed(|| fleet.ingest_one(&batch));
        if send.kind == crate::wire::Kind::Steady {
            ingest.push(s);
        }
        let (_, s) = timed(|| reply.to_json().to_string());
        encode.push(s);
        probs[send.wearer as usize].extend_from_slice(&reply.probs_bits);
    }
    let ticks = sends.iter().filter(|s| s.wearer == 0).count() as u64 * crate::inputs::BATCH_LEN;
    for (w, got) in probs.iter().enumerate() {
        out.attempted += 1;
        if src.serial_probs(w as u64, ticks) != *got {
            out.mismatched += 1;
            out.failed += 1;
        }
    }
    let micro = Micro {
        decode_us: median_us(&decode),
        ingest_us: median_us(&ingest),
        encode_us: median_us(&encode),
    };
    out.metric("protocol.decode_us", micro.decode_us, "us");
    out.metric("protocol.reply_encode_us", micro.encode_us, "us");
    out.metric("fleet.ingest_one_us", micro.ingest_us, "us");

    // One session: pushes with and without a completed window, and a
    // checkpoint/restore round trip every batch.
    let bundle = bundle();
    let mut session = bundle.new_session();
    let mut spare = bundle.new_session();
    let (mut push, mut push_window, mut ckpt, mut restore) =
        (Vec::new(), Vec::new(), Vec::new(), Vec::new());
    let mut scratch = Vec::new();
    for tick in 0..20_000u64 {
        let (a, g) = src.sample((tick / 2_000) % wearers as u64, tick);
        scratch.clear();
        let (_, s) = timed(|| session.push_at(&bundle, tick, a, g, &mut scratch));
        if scratch.is_empty() {
            &mut push
        } else {
            &mut push_window
        }
        .push(s);
        if tick >= 100 && tick % 20 == 0 {
            let (bytes, s) = timed(|| session.checkpoint().to_bytes());
            ckpt.push(s);
            let (r, s) =
                timed(|| SessionCheckpoint::from_bytes(&bytes).and_then(|ck| spare.restore(&ck)));
            restore.push(s);
            out.attempted += 1;
            if r.is_err() || spare.checkpoint().to_bytes() != bytes {
                out.mismatched += 1;
                out.failed += 1;
            }
        }
    }
    out.metric("session.push_us", median_us(&push), "us");
    out.metric("session.push_window_us", median_us(&push_window), "us");
    out.metric("session.checkpoint_us", median_us(&ckpt), "us");
    out.metric("session.restore_us", median_us(&restore), "us");

    // The served network alone, on real windows, with a warm workspace.
    let window = crate::inputs::detector_config()
        .pipeline
        .segmentation
        .window();
    let mut net = ModelKind::ProposedCnn
        .build(window, 9, MODEL_SEED)
        .expect("model builds");
    net.prepare_inference();
    let mut ws = Workspace::new();
    let inputs: Vec<Vec<f32>> = (0..64u64)
        .map(|w| {
            (0..window as u64)
                .flat_map(|t| {
                    let (a, g) = src.sample(w, t);
                    [a[0], a[1], a[2], g[0], g[1], g[2], 0.0, 0.0, 0.0]
                })
                .collect()
        })
        .collect();
    let _ = net.infer_scalar(&inputs[0], &mut ws);
    let infer: Vec<f64> = (0..4_000)
        .map(|i| timed(|| net.infer_scalar(&inputs[i % inputs.len()], &mut ws)).1)
        .collect();
    out.metric("nn.infer_us", median_us(&infer), "us");
    out.metric("nn.infer_macs", net.macs() as f64, "count");
    out.metric(
        "nn.infer_bytes",
        4.0 * (net.param_count() + net.input_len() + net.output_len()) as f64,
        "bytes",
    );

    // The drift sketch every ingested sample goes through.
    let mut fp = Fingerprint::new();
    let blocks: Vec<f64> = (0..11u64)
        .map(|b| {
            let samples: Vec<_> = (0..10_000u64).map(|t| src.sample(b, t)).collect();
            let (_, s) = timed(|| {
                for &(a, g) in &samples {
                    fp.observe_sample(a, g);
                }
            });
            s / samples.len() as f64
        })
        .collect();
    out.metric("drift.observe_sample_ns", median(&blocks) * 1e9, "ns");

    // The supervisor's sweep over the churn population, parking every
    // session; from the second round on each batch first resumes.
    let churn_fleet = Fleet::new(bundle, fleet_config(CHURN_WEARERS, true));
    let mut reap = Vec::new();
    for round in 0..7u64 {
        for w in 0..CHURN_WEARERS as u64 {
            churn_fleet.ingest_one(&src.batch(w, round * crate::inputs::BATCH_LEN));
        }
        let (parked, s) = timed(|| churn_fleet.reap_idle(Duration::ZERO));
        out.attempted += 1;
        if parked != CHURN_WEARERS {
            out.mismatched += 1;
            out.failed += 1;
        }
        reap.push(s * 1e3);
    }
    out.metric("fleet.reap_ms", median(&reap), "ms");
    micro
}
