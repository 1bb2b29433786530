//! `prefall-replay`: record, inspect and deterministically re-run
//! incident dumps from the flight recorder.
//!
//! ```text
//! prefall-replay record-golden <path>   # record the canonical incident fixture
//! prefall-replay verify <path>          # re-encode and replay a dump; exit 0 iff bit-exact
//! prefall-replay show <path>            # print the forensics document (JSON)
//! prefall-replay selfcheck              # record in memory and verify (no file)
//! ```
//!
//! `verify` is the CI gate: it first requires that encoding the
//! decoded dump reproduces the file byte for byte (so an encoder
//! regression cannot pass), then rebuilds the detector from the model
//! bundle embedded in the dump, re-feeds the recorded raw input
//! stream, and compares every replayed window score to the recorded
//! one with [`f32::to_bits`] — any divergence exits non-zero.
//!
//! The recording recipe is fully seeded (dataset seed 7, weight-init
//! seed 7, the robustness acceptance fault plan), so `record-golden`
//! reproduces the committed `ci/golden_incident.pfbb` byte for byte on
//! the machine class that recorded it.

use prefall_blackbox::{armed_detector_from_bundle, replay, FlightConfig, IncidentDump};
use prefall_core::detector::{DetectorConfig, GuardConfig};
use prefall_core::models::ModelKind;
use prefall_core::persist::DetectorBundle;
use prefall_dsp::stats::Normalizer;
use prefall_faults::{run_on_faulted_trial, FaultPlan};
use prefall_imu::dataset::Dataset;
use prefall_telemetry::NoopRecorder;
use std::process::ExitCode;

const SEED: u64 = 7;

fn bundle_blob() -> Vec<u8> {
    let cfg = DetectorConfig::paper_400ms();
    let w = cfg.pipeline.segmentation.window();
    let mut bundle = DetectorBundle {
        model: ModelKind::ProposedCnn,
        window: w,
        channels: 9,
        init_seed: SEED,
        pipeline: cfg.pipeline,
        normalizer: Normalizer::identity(9),
        network: ModelKind::ProposedCnn
            .build(w, 9, SEED)
            .expect("seeded build"),
    };
    bundle.to_bytes()
}

/// Streams seeded fall trials through a seeded detector under the
/// robustness acceptance fault plan until the flight recorder takes
/// its first incident — fully deterministic end to end.
fn record() -> IncidentDump {
    let blob = bundle_blob();
    let cfg = FlightConfig {
        ring_samples: 20_000,
        ring_windows: 2_000,
        max_incidents: 8,
    };
    let (mut det, flight) = armed_detector_from_bundle(&blob, 0.5, 1, GuardConfig::default(), cfg)
        .expect("seeded bundle is valid");
    let plan = FaultPlan::dropout_nan(SEED, 0.05, 0.01, 5);
    let dataset = Dataset::combined_scaled(2, 2, SEED).expect("seeded dataset");
    for trial in dataset.trials().iter().filter(|t| t.is_fall()) {
        run_on_faulted_trial(&mut det, trial, &plan, &NoopRecorder);
        if let Some(dump) = flight.latest() {
            return dump;
        }
    }
    unreachable!("every fall trial ends in a trigger or missed-fall incident")
}

fn verify(dump: &IncidentDump) -> ExitCode {
    match replay(dump) {
        Ok(report) if report.bit_exact && report.trigger_match => {
            println!(
                "replay OK: {} ({}) — {} samples, {} windows, bit-exact",
                dump.id,
                dump.kind.name(),
                report.samples_fed,
                report.windows_compared
            );
            ExitCode::SUCCESS
        }
        Ok(report) => {
            eprintln!(
                "replay DIVERGED: {} — bit_exact={} trigger_match={} divergence={:?}",
                dump.id, report.bit_exact, report.trigger_match, report.divergence
            );
            ExitCode::from(2)
        }
        Err(e) => {
            eprintln!("replay failed: {e}");
            ExitCode::from(2)
        }
    }
}

fn load(path: &str) -> Result<(IncidentDump, Vec<u8>), String> {
    let bytes = std::fs::read(path).map_err(|e| format!("read {path}: {e}"))?;
    let dump = IncidentDump::from_bytes(&bytes).map_err(|e| format!("parse {path}: {e}"))?;
    Ok((dump, bytes))
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    match args.iter().map(String::as_str).collect::<Vec<_>>()[..] {
        ["record-golden", path] => {
            let dump = record();
            if let Err(e) = std::fs::write(path, dump.to_bytes()) {
                eprintln!("write {path}: {e}");
                return ExitCode::FAILURE;
            }
            println!(
                "recorded {}: {} ({}) — {} samples, {} windows, truncated={}",
                path,
                dump.id,
                dump.kind.name(),
                dump.samples.len(),
                dump.windows.len(),
                dump.truncated
            );
            verify(&dump)
        }
        ["verify", path] => {
            match load(path) {
                Ok((dump, bytes)) if dump.to_bytes() != bytes => {
                    eprintln!("re-encode DIVERGED: {path} decodes, but encoding it again gives other bytes");
                    ExitCode::from(2)
                }
                Ok((dump, _)) => verify(&dump),
                Err(e) => {
                    eprintln!("{e}");
                    ExitCode::FAILURE
                }
            }
        }
        ["show", path] => match load(path) {
            Ok((dump, _)) => {
                println!("{}", dump.to_json(false));
                ExitCode::SUCCESS
            }
            Err(e) => {
                eprintln!("{e}");
                ExitCode::FAILURE
            }
        },
        ["selfcheck"] | [] => {
            let dump = record();
            let decoded = match IncidentDump::from_bytes(&dump.to_bytes()) {
                Ok(d) => d,
                Err(e) => {
                    eprintln!("round trip failed: {e}");
                    return ExitCode::from(2);
                }
            };
            verify(&decoded)
        }
        _ => {
            eprintln!(
                "usage: prefall-replay [record-golden <path> | verify <path> | show <path> | selfcheck]"
            );
            ExitCode::FAILURE
        }
    }
}
