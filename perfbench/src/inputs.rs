//! What a run feeds the program, and how the program is configured.
//!
//! The split is the benchmark's seed rule: `--seed` reaches only the
//! input generator ([`GridInputs::from_seed`], [`SampleSource::from_seed`]).
//! Everything the program itself is configured with — the experiment
//! grid, model seed, detector, fleet sizing — is a constant of the
//! workload and takes no seed, so two seeds run the same program on
//! different data.

use prefall_core::cv::CvConfig;
use prefall_core::detector::{DetectorConfig, GuardConfig, StreamingDetector};
use prefall_core::experiment::ExperimentConfig;
use prefall_core::models::ModelKind;
use prefall_core::pipeline::PipelineConfig;
use prefall_core::session::ModelBundle;
use prefall_dsp::segment::Overlap;
use prefall_dsp::stats::Normalizer;
use prefall_fleet::{BatchSample, FleetConfig, IngestBatch};
use prefall_imu::channel::Channel;
use prefall_imu::dataset::{Dataset, DatasetConfig};
use std::time::Duration;

/// Samples per uplinked batch: one hop of the 400 ms / 50 % window at
/// 100 Hz, so every steady batch completes exactly one window.
pub const BATCH_LEN: u64 = 20;

/// Batch cadence of one wearer (20 samples at 100 Hz).
pub const BATCH_PERIOD: Duration = Duration::from_millis(200);

/// Seed of the served network's weight initialisation (program config).
pub const MODEL_SEED: u64 = 1;

/// Grid workload inputs: the synthetic dataset to generate.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct GridInputs {
    pub dataset: DatasetConfig,
}

impl GridInputs {
    pub fn from_seed(seed: u64) -> Self {
        GridInputs {
            dataset: DatasetConfig {
                kfall_subjects: 5,
                self_collected_subjects: 5,
                trials_per_task: 1,
                duration_scale: 0.3,
                seed,
            },
        }
    }
}

/// The Table III grid the `grid` workload runs: {MLP, proposed CNN} ×
/// {200, 300, 400} ms, 5-fold subject CV, on `threads` threads.
pub fn experiment_config(inputs: &GridInputs, threads: usize) -> ExperimentConfig {
    ExperimentConfig {
        dataset: inputs.dataset,
        windows_ms: vec![200.0, 300.0, 400.0],
        overlap: Overlap::Half,
        models: vec![ModelKind::Mlp, ModelKind::ProposedCnn],
        cv: CvConfig {
            folds: 5,
            val_subjects: 1,
            augment_factor: 1,
            ..CvConfig::paper_scaled(1)
        },
        threads: Some(threads),
    }
}

/// The detector every fleet session runs: the paper's 400 ms / 50 %
/// window.
pub fn detector_config() -> DetectorConfig {
    DetectorConfig {
        pipeline: PipelineConfig::paper(400.0, Overlap::Half),
        threshold: 0.5,
        consecutive: 3,
        guard: GuardConfig::default(),
    }
}

fn network() -> prefall_nn::network::Network {
    let cfg = detector_config();
    ModelKind::ProposedCnn
        .build(cfg.pipeline.segmentation.window(), 9, MODEL_SEED)
        .expect("the proposed CNN builds")
}

/// The served model: the proposed CNN at 400 ms with fixed weights.
/// Inference cost does not depend on the weight values, so the bundle
/// is not trained; the identity normaliser keeps it seed-free.
pub fn bundle() -> ModelBundle {
    ModelBundle::new(network(), Normalizer::identity(9), detector_config()).expect("bundle")
}

/// A single-stream detector with the same model, for serial replay.
pub fn serial_detector() -> StreamingDetector {
    StreamingDetector::new(network(), Normalizer::identity(9), detector_config()).expect("detector")
}

/// Fleet sizing for the online workloads. Shedding and rejection stay
/// at their defaults: with at most one connection per generator thread
/// the in-flight pressure never reaches them. Session capacity leaves
/// room for the top ladder rung with uneven shard hashing; churn parks
/// sessions idle for longer than `idle_timeout`.
pub fn fleet_config(max_wearers: usize, churn: bool) -> FleetConfig {
    let base = FleetConfig {
        max_sessions: (4 * max_wearers).max(1024),
        max_parked: (4 * max_wearers).max(1024),
        ..FleetConfig::default()
    };
    if churn {
        FleetConfig {
            idle_timeout: Duration::from_millis(400),
            supervise_interval: Duration::from_millis(100),
            ..base
        }
    } else {
        base
    }
}

/// IMU samples for the online workloads: the raw accelerometer and
/// gyroscope channels of generated trials (ADLs and falls), laid end to
/// end. Each wearer streams this tape from its own seeded offset.
#[derive(Debug, Clone)]
pub struct SampleSource {
    seed: u64,
    tape: Vec<([f32; 3], [f32; 3])>,
}

impl SampleSource {
    pub fn from_seed(seed: u64) -> Self {
        let dataset = Dataset::generate(&DatasetConfig {
            kfall_subjects: 2,
            self_collected_subjects: 2,
            trials_per_task: 1,
            duration_scale: 0.5,
            seed,
        })
        .expect("dataset generates");
        let mut tape = Vec::new();
        for trial in dataset.trials() {
            let ch = |c| trial.channel(c);
            let (ax, ay, az) = (
                ch(Channel::AccelX),
                ch(Channel::AccelY),
                ch(Channel::AccelZ),
            );
            let (gx, gy, gz) = (ch(Channel::GyroX), ch(Channel::GyroY), ch(Channel::GyroZ));
            for i in 0..trial.len() {
                tape.push(([ax[i], ay[i], az[i]], [gx[i], gy[i], gz[i]]));
            }
        }
        SampleSource { seed, tape }
    }

    /// Wearer `wearer`'s sample at grid tick `tick`.
    pub fn sample(&self, wearer: u64, tick: u64) -> ([f32; 3], [f32; 3]) {
        let len = self.tape.len() as u64;
        let offset = splitmix64(self.seed ^ wearer.wrapping_mul(0x9E37_79B9_7F4A_7C15)) % len;
        self.tape[((offset + tick % len) % len) as usize]
    }

    /// The batch of `BATCH_LEN` samples starting at tick `seq`.
    pub fn batch(&self, wearer: u64, seq: u64) -> IngestBatch {
        IngestBatch {
            wearer,
            seq,
            samples: (seq..seq + BATCH_LEN)
                .map(|t| {
                    let (accel, gyro) = self.sample(wearer, t);
                    BatchSample::Sample { accel, gyro }
                })
                .collect(),
        }
    }

    /// Serial single-stream replay of a wearer's first `ticks` samples:
    /// the window probabilities as bits, in emission order.
    pub fn serial_probs(&self, wearer: u64, ticks: u64) -> Vec<u32> {
        let mut det = serial_detector();
        (0..ticks)
            .filter_map(|t| {
                let (a, g) = self.sample(wearer, t);
                det.push_sample(a, g).map(f32::to_bits)
            })
            .collect()
    }
}

/// SplitMix64 finaliser: spreads wearer offsets over the tape.
fn splitmix64(x: u64) -> u64 {
    let mut z = x.wrapping_add(0x9E37_79B9_7F4A_7C15);
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn seed_changes_only_the_generated_dataset_of_the_grid() {
        let a = experiment_config(&GridInputs::from_seed(1), 2);
        let b = experiment_config(&GridInputs::from_seed(2), 2);
        assert_ne!(a.dataset.seed, b.dataset.seed);
        // Everything the program is configured with is seed-free:
        // training seed, CV protocol, models, windows, threads.
        let mut b_same_data = b.clone();
        b_same_data.dataset.seed = a.dataset.seed;
        assert_eq!(a, b_same_data);
        assert_eq!(a.cv.seed, CvConfig::paper_scaled(1).seed);
    }

    #[test]
    fn seed_reaches_the_online_samples_not_the_served_program() {
        let a = SampleSource::from_seed(1);
        let b = SampleSource::from_seed(2);
        let differs = (0..8u64).any(|w| a.sample(w, 0) != b.sample(w, 0));
        assert!(differs, "another seed must give other samples");
        // The same seed gives the same inputs.
        assert_eq!(a.batch(3, 40), SampleSource::from_seed(1).batch(3, 40));
        // The served program takes no seed at all; its pieces are
        // constants of the workload.
        assert_eq!(fleet_config(64, true), fleet_config(64, true));
        assert_eq!(detector_config().threshold, 0.5);
        let (x, y) = (bundle(), bundle());
        assert_eq!(format!("{:?}", x.engine()), format!("{:?}", y.engine()));
    }

    #[test]
    fn batches_are_one_window_hop_of_real_trial_samples() {
        let src = SampleSource::from_seed(7);
        let batch = src.batch(5, 0);
        assert_eq!(batch.samples.len() as u64, BATCH_LEN);
        assert_eq!(
            BATCH_LEN as usize,
            detector_config().pipeline.segmentation.hop()
        );
        // Real motion: the samples are not a constant signal.
        let first = src.sample(5, 0);
        assert!((1..BATCH_LEN).any(|t| src.sample(5, t) != first));
        assert!(src.tape.len() > 10_000);
    }
}
