//! The six binary formats (PFIB, PFSC, PFNN, PFDB, PFDF, PFBB), decoded
//! and re-encoded through one table.
//!
//! * Known-answer pins: FNV-1a of the encoding of one fixed value per
//!   format, so an encoder change that moves a single byte fails here.
//! * The committed golden files re-encode to their own bytes.
//! * Every decoder of untrusted bytes returns `Err` — never panics,
//!   never aborts on an allocation — on truncation at every offset, on
//!   trailing bytes, and on every field that sizes or shapes the
//!   payload inflated to its type's max; single-byte flips at a seeded
//!   sample of offsets must not panic.

use prefall::blackbox::{IncidentDump, IncidentKind, SampleRecord, TrialMeta, WindowRecord};
use prefall::core::detector::{DetectorConfig, GuardConfig, GuardStatus};
use prefall::core::models::ModelKind;
use prefall::core::persist::DetectorBundle;
use prefall::core::pipeline::PipelineConfig;
use prefall::core::session::{ModelBundle, SessionCheckpoint};
use prefall::drift::Fingerprint;
use prefall::dsp::segment::Overlap;
use prefall::dsp::stats::Normalizer;
use prefall::fleet::{BatchSample, IngestBatch};
use prefall::nn::network::{BranchStat, Network};
use prefall::nn::serialize::{load_weights, save_weights};
use prefall::telemetry::codec::fnv1a64;

fn pfib_value() -> IngestBatch {
    IngestBatch {
        wearer: 42,
        seq: 1700,
        samples: vec![
            BatchSample::Sample {
                accel: [0.01, -0.02, 1.0],
                gyro: [0.5, -0.25, 0.125],
            },
            BatchSample::Missing,
            BatchSample::Sample {
                accel: [f32::NAN, f32::MIN_POSITIVE, -1.0],
                gyro: [360.0, f32::NEG_INFINITY, 0.0],
            },
        ],
    }
}

fn pfnn_value() -> Network {
    Network::builder(vec![6])
        .dense(4)
        .unwrap()
        .relu()
        .dense(1)
        .unwrap()
        .build(1)
}

/// A small but real bundle: a 2-sample-window MLP keeps the blob at a
/// few kilobytes, so truncating it at every offset stays cheap.
fn pfdb_value() -> DetectorBundle {
    let pipeline = PipelineConfig::paper(20.0, Overlap::Half);
    let window = pipeline.segmentation.window();
    DetectorBundle {
        model: ModelKind::Mlp,
        window,
        channels: 9,
        init_seed: 5,
        pipeline,
        normalizer: Normalizer::identity(9),
        network: ModelKind::Mlp.build(window, 9, 5).unwrap(),
    }
}

fn pfsc_value() -> SessionCheckpoint {
    let cfg = DetectorConfig {
        pipeline: PipelineConfig::paper(100.0, Overlap::Half),
        threshold: 0.5,
        consecutive: 1,
        guard: GuardConfig::default(),
    };
    let w = cfg.pipeline.segmentation.window();
    let net = ModelKind::Mlp.build(w, 9, 5).unwrap();
    let bundle = ModelBundle::new(net, Normalizer::identity(9), cfg).unwrap();
    let mut s = bundle.new_session();
    for i in 0..37u32 {
        let t = i as f32 * 0.07;
        let accel = [0.05 * t.sin(), 0.04 * t.cos(), 1.0];
        let gyro = [0.2 * t.sin(), -0.1, 0.1 * t.cos()];
        let _ = s.push_sample(&bundle, accel, gyro);
    }
    s.checkpoint()
}

fn pfdf_value() -> Fingerprint {
    let mut fp = Fingerprint::new();
    for i in 0..50 {
        let t = f64::from(i) * 0.1;
        fp.observe_sample(
            [t.sin() as f32, 0.5, 1.0 + t.cos() as f32],
            [0.1, -2.0 * t.sin() as f32, 40.0],
        );
        if i % 5 == 0 {
            fp.observe_score((0.2 + 0.1 * t.sin()) as f32);
            fp.observe_shares(&[0.5, 0.3, 0.2]);
        }
    }
    fp
}

fn pfbb_value(model_blob: Vec<u8>) -> IncidentDump {
    let stat = |l2| BranchStat {
        output_len: 4,
        l2,
        mean_abs: 0.5,
        peak: 1.0,
    };
    IncidentDump {
        id: "inc-1".to_string(),
        kind: IncidentKind::Trigger,
        reason: "trigger decision went true".to_string(),
        created_at_sample: 321,
        truncated: false,
        trial: Some(TrialMeta {
            subject: 3,
            task: 20,
            trial_index: 1,
            is_fall: true,
            impact: Some(300),
        }),
        triggered_at: Some(280),
        lead_time_ms: Some(200.0),
        threshold: 0.5,
        consecutive: 1,
        guard_config: GuardConfig::default(),
        guard: GuardStatus {
            samples: 321,
            nonfinite: 6,
            ..GuardStatus::default()
        },
        model_blob,
        samples: vec![
            SampleRecord {
                flags: 0,
                accel: [0.0, 0.0, 1.0],
                gyro: [0.0; 3],
            },
            SampleRecord {
                flags: SampleRecord::MISSING | SampleRecord::STALE,
                accel: [f32::NAN, 0.5, -0.5],
                gyro: [f32::INFINITY, 0.0, 0.0],
            },
        ],
        windows: vec![
            WindowRecord {
                at_sample: 2,
                score: 0.75,
                flags: WindowRecord::ARMED | WindowRecord::DECISION,
                n_branch: 2,
                branches: [stat(1.5), stat(0.5), stat(0.0), stat(0.0)],
            },
            WindowRecord {
                at_sample: 3,
                score: 0.25,
                ..WindowRecord::default()
            },
        ],
    }
}

/// Recorded from the encoders as they stood before the shared codec
/// replaced the per-format byte code; any layout change moves them.
#[test]
fn encodings_match_known_answers() {
    let pfdb = pfdb_value().to_bytes();
    let pins = [
        ("PFIB", pfib_value().to_bytes(), 0x80fc_0f99_e101_1b08),
        ("PFSC", pfsc_value().to_bytes(), 0xb6c9_0831_7342_9c70),
        (
            "PFNN",
            save_weights(&mut pfnn_value()),
            0xe71d_acb9_d3d7_4918,
        ),
        ("PFDB", pfdb.clone(), 0x4fbc_6f76_1c1b_0b89),
        ("PFDF", pfdf_value().to_bytes(), 0xdafc_ee27_1393_63f0),
        ("PFBB", pfbb_value(pfdb).to_bytes(), 0x1d25_5a73_3e75_7cf0),
    ];
    for (name, bytes, want) in pins {
        assert_eq!(fnv1a64(&bytes), want, "{name} encoding changed");
    }
}

#[test]
fn golden_files_re_encode_to_their_own_bytes() {
    let pfbb = include_bytes!("../ci/golden_incident.pfbb");
    let dump = IncidentDump::from_bytes(pfbb).expect("golden incident decodes");
    assert!(
        dump.to_bytes() == pfbb,
        "PFBB re-encoding differs from ci/golden_incident.pfbb"
    );
    let pfdf = include_bytes!("../ci/drift_reference.pfdf");
    let fp = Fingerprint::from_bytes(pfdf).expect("drift reference decodes");
    assert!(
        fp.to_bytes() == pfdf,
        "PFDF re-encoding differs from ci/drift_reference.pfdf"
    );
}

/// One format under test: a valid encoding, its decoder, and where its
/// payload-sizing fields sit.
struct Format {
    name: &'static str,
    bytes: Vec<u8>,
    decodes: fn(&[u8]) -> bool,
    /// Ends in an FNV-1a trailer: mutations are re-sealed as well, so
    /// they reach the field checks behind the checksum.
    checksummed: bool,
    /// `(offset, width, current value)` of every length, count or shape
    /// field; the value double-checks the offset.
    fields: Vec<(usize, usize, u64)>,
}

fn field(bytes: &[u8], at: usize, width: usize) -> u64 {
    let mut v = [0u8; 8];
    v[..width].copy_from_slice(&bytes[at..at + width]);
    u64::from_le_bytes(v)
}

/// Replaces the FNV-1a trailer with the checksum of the new body.
fn reseal(mut body: Vec<u8>) -> Vec<u8> {
    let sum = fnv1a64(&body);
    body.extend_from_slice(&sum.to_le_bytes());
    body
}

/// The length fields of a PFNN blob starting at `base`.
fn weight_fields(bytes: &[u8], base: usize) -> Vec<(usize, usize, u64)> {
    let n_blocks = field(bytes, base + 8, 4);
    let mut fields = vec![(base + 8, 4, n_blocks)];
    let mut at = base + 12;
    for _ in 0..n_blocks {
        let name_len = field(bytes, at, 4);
        fields.push((at, 4, name_len));
        at += 4 + name_len as usize;
        let len = field(bytes, at, 4);
        fields.push((at, 4, len));
        at += 4 + 4 * len as usize;
    }
    fields
}

fn formats() -> Vec<Format> {
    let pfib = pfib_value().to_bytes();

    let pfsc = pfsc_value().to_bytes();
    // Ten window rows of nine f32 channels, then nine two-section
    // filter cascades.
    let filters = 28 + 10 * 36;
    let pfsc_fields = vec![(24, 4, 10), (filters, 2, 9), (filters + 2, 2, 2)];

    let pfnn = save_weights(&mut pfnn_value());
    let pfnn_fields = weight_fields(&pfnn, 0);

    let pfdb = pfdb_value().to_bytes();
    let n = field(&pfdb, 62, 4) as usize;
    let wlen_at = 66 + 8 * n;
    let mut pfdb_fields = vec![
        (9, 4, 2),                                       // window
        (13, 4, 9),                                      // channels
        (37, 4, 2),                                      // segmentation window
        (62, 4, 9),                                      // normalizer channels
        (wlen_at, 4, (pfdb.len() - wlen_at - 4) as u64), // weight-blob length
    ];
    pfdb_fields.extend(weight_fields(&pfdb, wlen_at + 4));

    let pfdf = pfdf_value().to_bytes();
    let mut pfdf_fields = vec![(6, 2, 6), (8, 2, 3), (10, 2, 32)];
    const SKETCH: usize = 8 + 8 + 16 + 16 + 8 + 8 + 32 * 8;
    // Observation counts: 50 samples on six input axes, then 10 scores
    // and 10 share vectors.
    let counts = [50, 50, 50, 50, 50, 50, 10, 10, 10, 10];
    pfdf_fields.extend((0..10).map(|i| (12 + i * SKETCH, 8, counts[i])));

    let pfbb = pfbb_value(pfdb.clone()).to_bytes();
    let blob = pfdb.len();
    let pfbb_fields = vec![
        (9, 2, 5),             // id
        (16, 2, 26),           // reason
        (243, 4, blob as u64), // model blob
        (247 + blob, 4, 2),    // samples
        (301 + blob, 4, 2),    // windows
        (318 + blob, 1, 2),    // first window's branches
        (364 + blob, 1, 0),    // second window's branches
    ];

    vec![
        Format {
            name: "PFIB",
            bytes: pfib,
            decodes: |b| IngestBatch::from_bytes(b).is_ok(),
            checksummed: false,
            fields: vec![(22, 2, 3)],
        },
        Format {
            name: "PFSC",
            bytes: pfsc,
            decodes: |b| SessionCheckpoint::from_bytes(b).is_ok(),
            checksummed: true,
            fields: pfsc_fields,
        },
        Format {
            name: "PFNN",
            bytes: pfnn,
            decodes: |b| load_weights(&mut pfnn_value(), b).is_ok(),
            checksummed: false,
            fields: pfnn_fields,
        },
        Format {
            name: "PFDB",
            bytes: pfdb,
            decodes: |b| DetectorBundle::from_bytes(b).is_ok(),
            checksummed: false,
            fields: pfdb_fields,
        },
        Format {
            name: "PFDF",
            bytes: pfdf,
            decodes: |b| Fingerprint::from_bytes(b).is_ok(),
            checksummed: true,
            fields: pfdf_fields,
        },
        Format {
            name: "PFBB",
            bytes: pfbb,
            decodes: |b| IncidentDump::from_bytes(b).is_ok(),
            checksummed: false,
            fields: pfbb_fields,
        },
    ]
}

#[test]
fn every_decoder_refuses_malformed_bytes() {
    for f in formats() {
        let name = f.name;
        assert!((f.decodes)(&f.bytes), "{name}: valid encoding refused");
        let body = if f.checksummed {
            &f.bytes[..f.bytes.len() - 8]
        } else {
            &f.bytes[..]
        };

        for cut in 0..f.bytes.len() {
            assert!(!(f.decodes)(&f.bytes[..cut]), "{name}: truncated at {cut}");
        }
        if f.checksummed {
            for cut in 0..body.len() {
                let sealed = reseal(body[..cut].to_vec());
                assert!(!(f.decodes)(&sealed), "{name}: re-sealed cut at {cut}");
            }
        }

        let mut long = body.to_vec();
        long.push(0);
        let long = if f.checksummed { reseal(long) } else { long };
        assert!(!(f.decodes)(&long), "{name}: trailing byte accepted");

        for &(at, width, value) in &f.fields {
            assert_eq!(field(&f.bytes, at, width), value, "{name}: field at {at}");
            let mut inflated = body.to_vec();
            inflated[at..at + width].fill(0xFF);
            let inflated = if f.checksummed {
                reseal(inflated)
            } else {
                inflated
            };
            assert!(!(f.decodes)(&inflated), "{name}: field at {at} inflated");
        }
    }
}

#[test]
fn single_byte_flips_never_panic() {
    let mut state = 0x9E37_79B9_7F4A_7C15u64;
    let mut next = move || {
        state ^= state << 13;
        state ^= state >> 7;
        state ^= state << 17;
        state
    };
    for f in formats() {
        let body = if f.checksummed {
            &f.bytes[..f.bytes.len() - 8]
        } else {
            &f.bytes[..]
        };
        for _ in 0..256 {
            let mut flipped = body.to_vec();
            let at = next() as usize % flipped.len();
            flipped[at] ^= (next() % 255 + 1) as u8;
            let flipped = if f.checksummed {
                reseal(flipped)
            } else {
                flipped
            };
            // Ok or Err are both fine; reaching the next line is the test.
            let _ = (f.decodes)(&flipped);
        }
    }
}
