//! The real-time streaming detector and the airbag trigger controller.
//!
//! This is the deployment-side counterpart of the training pipeline: raw
//! accelerometer/gyroscope samples stream in at 100 Hz; the detector
//! runs the on-edge preprocessing (complementary-filter fusion, causal
//! Butterworth low-pass) sample by sample, and every hop it classifies
//! the trailing window. A positive classification triggers the airbag,
//! which needs 150 ms to reach full extension.
//!
//! # Hardened ingest and degraded modes
//!
//! Real IMUs misbehave: samples drop, axes freeze, values saturate or
//! go NaN after a bus glitch. When [`GuardConfig::enabled`] is set (the
//! default), every sample first passes through a [`SampleGuard`] stage
//! that
//!
//! * rejects non-finite values and clamps out-of-range ones to the
//!   configured physical limits, substituting the last good sample;
//! * fills short gaps (via [`StreamingDetector::push_missing`]) by
//!   holding the last good sample, and flushes the window after gaps
//!   too long to bridge;
//! * runs a stuck/stale watchdog that flags a frozen axis or a
//!   flat-lined sensor;
//! * switches the detector into explicit degraded modes
//!   ([`DetectorMode`]): a degraded sensor's channels are masked to the
//!   normalised zero point before inference (e.g. accel-only operation
//!   when the gyro is out) instead of feeding the network garbage.
//!
//! Every intervention is counted in [`GuardStatus`] and mirrored to the
//! telemetry [`Recorder`] under `guard.*` counters.
//!
//! # Degraded-trigger policy
//!
//! A window classified while any degraded mode is active may only fire
//! the airbag when the accelerometer branch independently confirms the
//! event: the accel channel must itself be healthy, the detector must
//! not be stale from an unbridged gap, and the accel magnitude must
//! have left the 1 g rest band within the last
//! [`GuardConfig::accel_confirm_window`] samples. Inflating the airbag
//! is irreversible and disruptive, so a probability computed from
//! masked or interpolated data is never trusted on its own —
//! [`StreamingDetector::trigger_decision`] encodes this policy and
//! [`AirbagController::step_with_detector`] applies it.
//!
//! # Fleet split
//!
//! [`StreamingDetector`] is the one-wearer face of a two-part core: an
//! immutable [`ModelBundle`] (weights, normaliser, configuration)
//! driving a poolable [`Session`] (guard, filters, window, scratch). A
//! fleet server shares one bundle across thousands of sessions, and
//! every window of either scores through the same `&ModelBundle` call —
//! see [`crate::session`].

use crate::pipeline::{Pipeline, PipelineConfig};
use crate::session::{ModelBundle, Session, SessionCheckpoint, TickOutcome};
use crate::tap::DetectorTap;
use crate::CoreError;
use prefall_dsp::stats::Normalizer;
use prefall_imu::channel::Channel;
use prefall_imu::trial::Trial;
use prefall_imu::{AIRBAG_INFLATION_SAMPLES, SAMPLE_PERIOD_MS};
use prefall_nn::network::{BranchStat, Network};
use prefall_nn::quant::QuantizedNetwork;
use prefall_nn::workspace::Workspace;
use prefall_telemetry::{NoopRecorder, Recorder, Value};
use std::sync::Arc;

/// Upper bounds (ms) for the `detector.lead_time_ms` histogram: 25 ms
/// bins from 0 to 1 s, bracketing the 150 ms airbag-inflation budget.
pub fn lead_time_bounds_ms() -> Vec<f64> {
    (1..=40).map(|i| f64::from(i) * 25.0).collect()
}

/// Streaming detector configuration.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct DetectorConfig {
    /// Preprocessing configuration (window, overlap, filter).
    pub pipeline: PipelineConfig,
    /// Decision threshold on the sigmoid output.
    pub threshold: f32,
    /// Number of consecutive positive windows required to trigger
    /// (1 = trigger on the first positive window).
    pub consecutive: usize,
    /// Ingest hardening configuration (see the module docs).
    pub guard: GuardConfig,
}

impl DetectorConfig {
    /// The paper's deployed configuration: 400 ms windows, 50 % overlap,
    /// trigger on the first positive window, hardened ingest on.
    pub fn paper_400ms() -> Self {
        Self {
            pipeline: PipelineConfig::paper_400ms(),
            threshold: 0.5,
            consecutive: 1,
            guard: GuardConfig::default(),
        }
    }
}

/// Configuration of the [`SampleGuard`] ingest-hardening stage.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct GuardConfig {
    /// Master switch. Disabled reproduces the naive ingest exactly:
    /// non-finite values reach the filters and NaN propagates to the
    /// output probability.
    pub enabled: bool,
    /// Physical accelerometer range in g; readings clamp to ±limit.
    /// Default 16 g (the wide range of typical wearable IMUs).
    pub accel_limit_g: f32,
    /// Physical gyroscope range in rad/s; readings clamp to ±limit.
    /// Default ≈ 34.9 rad/s (2000 °/s).
    pub gyro_limit_rads: f32,
    /// Longest gap (in samples) bridged by holding the last good
    /// sample. Longer gaps flush the window and mark the detector
    /// stale until real data resumes. Default 10 (100 ms).
    pub max_gap_fill: usize,
    /// Identical consecutive readings on an axis before the watchdog
    /// calls it stuck. Default 25 (250 ms — real sensors jitter every
    /// sample).
    pub stuck_window: usize,
    /// Debounce for value-level faults: a sensor enters its degraded
    /// mode once its recent fault pressure reaches this level, and
    /// leaves it again after roughly twice as many clean samples.
    /// Default 5.
    pub fault_debounce: u32,
    /// How recently (in samples) the accel magnitude must have left the
    /// rest band for [`StreamingDetector::accel_confirms`] to hold.
    /// Default 40 (400 ms, one paper window).
    pub accel_confirm_window: usize,
    /// Half-width of the accel rest band around 1 g. Default 0.35 g.
    pub accel_confirm_dev_g: f32,
}

impl Default for GuardConfig {
    fn default() -> Self {
        Self {
            enabled: true,
            accel_limit_g: 16.0,
            gyro_limit_rads: 34.9,
            max_gap_fill: 10,
            stuck_window: 25,
            fault_debounce: 5,
            accel_confirm_window: 40,
            accel_confirm_dev_g: 0.35,
        }
    }
}

impl GuardConfig {
    /// The guard switched off: the legacy, unhardened ingest path.
    pub fn disabled() -> Self {
        Self {
            enabled: false,
            ..Self::default()
        }
    }
}

/// Which degraded modes are currently active.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct DetectorMode {
    /// Accelerometer channels are masked (stuck or persistently
    /// faulty accel).
    pub accel_degraded: bool,
    /// Gyroscope channels are masked and fusion runs accel-only.
    pub gyro_degraded: bool,
    /// An unbridged sample gap invalidated the window; cleared when
    /// real data resumes.
    pub stale: bool,
}

impl DetectorMode {
    /// `true` when any degraded mode is active.
    pub fn is_degraded(&self) -> bool {
        self.accel_degraded || self.gyro_degraded || self.stale
    }
}

/// Cumulative [`SampleGuard`] intervention counters.
///
/// Counters survive [`StreamingDetector::reset`] (they describe the
/// deployment, not one trial); [`StreamingDetector::set_guard`] starts
/// them over.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct GuardStatus {
    /// Grid ticks seen (delivered + missing).
    pub samples: u64,
    /// Non-finite axis readings replaced by the last good value.
    pub nonfinite: u64,
    /// Out-of-range axis readings clamped to the physical limit.
    pub clamped: u64,
    /// Missing ticks bridged by holding the last good sample.
    pub gaps_filled: u64,
    /// Missing ticks beyond [`GuardConfig::max_gap_fill`] (window lost).
    pub gap_lost: u64,
    /// Stuck-axis watchdog activations (transitions into stuck).
    pub stuck_events: u64,
    /// Samples ingested while any degraded mode was active.
    pub degraded_samples: u64,
    /// Windows classified while any degraded mode was active.
    pub degraded_windows: u64,
    /// Window flushes forced by unbridgeable gaps.
    pub window_flushes: u64,
    /// Armed triggers vetoed by the degraded-trigger policy.
    pub suppressed_triggers: u64,
    /// Segments the engine refused (non-finite in or out), scored 0.
    pub engine_rejects: u64,
    /// Windows classified through the guarded path.
    pub windows: u64,
    /// Ticks delivered behind the grid (duplicate or reordered
    /// batches) and dropped by [`Session::push_at`]. Counted, not a
    /// fault: re-delivery is normal transport behaviour, and dropping
    /// the stale tick is the correct (idempotent) response — so this
    /// deliberately does not feed [`GuardStatus::faults`] or the
    /// `/healthz` fault-rate budget.
    ///
    /// [`Session::push_at`]: crate::session::Session::push_at
    pub ts_regression: u64,
}

impl GuardStatus {
    /// Total faulty inputs handled: non-finite + clamped + filled +
    /// lost + stuck events.
    pub fn faults(&self) -> u64 {
        self.nonfinite + self.clamped + self.gaps_filled + self.gap_lost + self.stuck_events
    }

    /// Faults per ingested grid tick (0 when nothing was ingested).
    pub fn fault_rate(&self) -> f64 {
        if self.samples == 0 {
            0.0
        } else {
            self.faults() as f64 / self.samples as f64
        }
    }
}

/// Neutral rest reading used before any good sample has arrived.
const REST_SAMPLE: ([f32; 3], [f32; 3]) = ([0.0, 0.0, 1.0], [0.0, 0.0, 0.0]);

/// The ingest-hardening stage: validates, clamps and gap-fills raw
/// samples, runs the stuck watchdog, and tracks the degraded modes.
///
/// Owned by [`StreamingDetector`]; its streaming state resets with the
/// detector while its [`GuardStatus`] counters accumulate across
/// trials. Uses only fixed-size state — no allocation on the sample
/// path.
#[derive(Debug, Clone)]
pub struct SampleGuard {
    pub(crate) cfg: GuardConfig,
    pub(crate) last_good: Option<([f32; 3], [f32; 3])>,
    pub(crate) gap_run: usize,
    pub(crate) pending_flush: bool,
    pub(crate) axis_last: [f32; 6],
    pub(crate) axis_run: [u32; 6],
    pub(crate) bad_run: [u32; 2],
    pub(crate) stuck: [bool; 2],
    pub(crate) anomaly_age: u32,
    pub(crate) mode: DetectorMode,
    pub(crate) status: GuardStatus,
    /// The next expected 100 Hz grid tick for explicitly-sequenced
    /// ingest ([`crate::session::Session::push_at`]); the implicit
    /// push paths keep it in step so a stream can switch to sequenced
    /// delivery at any point.
    pub(crate) next_tick: u64,
}

impl SampleGuard {
    pub(crate) fn new(cfg: GuardConfig) -> Self {
        Self {
            cfg,
            last_good: None,
            gap_run: 0,
            pending_flush: false,
            axis_last: [f32::NAN; 6],
            axis_run: [0; 6],
            bad_run: [0; 2],
            stuck: [false; 2],
            anomaly_age: u32::MAX,
            mode: DetectorMode::default(),
            status: GuardStatus::default(),
            next_tick: 0,
        }
    }

    /// Clears per-stream state; cumulative counters survive.
    pub(crate) fn reset_stream(&mut self) {
        self.last_good = None;
        self.gap_run = 0;
        self.pending_flush = false;
        self.axis_last = [f32::NAN; 6];
        self.axis_run = [0; 6];
        self.bad_run = [0; 2];
        self.stuck = [false; 2];
        self.anomaly_age = u32::MAX;
        self.mode = DetectorMode::default();
        self.next_tick = 0;
    }

    /// The sample used to bridge a gap.
    pub(crate) fn fill_value(&self) -> ([f32; 3], [f32; 3]) {
        self.last_good.unwrap_or(REST_SAMPLE)
    }

    /// Validates one delivered sample, returning the cleaned values.
    pub(crate) fn sanitize(&mut self, accel: [f32; 3], gyro: [f32; 3]) -> ([f32; 3], [f32; 3]) {
        self.status.samples += 1;
        self.gap_run = 0;
        let (fill_a, fill_g) = self.fill_value();
        let mut clean = [accel[0], accel[1], accel[2], gyro[0], gyro[1], gyro[2]];
        let fill = [
            fill_a[0], fill_a[1], fill_a[2], fill_g[0], fill_g[1], fill_g[2],
        ];
        let mut bad = [false; 2];
        for (k, v) in clean.iter_mut().enumerate() {
            let s = k / 3;
            let limit = if s == 0 {
                self.cfg.accel_limit_g
            } else {
                self.cfg.gyro_limit_rads
            };
            if !v.is_finite() {
                self.status.nonfinite += 1;
                bad[s] = true;
                *v = fill[k];
            } else if v.abs() > limit {
                self.status.clamped += 1;
                bad[s] = true;
                *v = v.clamp(-limit, limit);
            }
        }

        // Stuck watchdog on the cleaned values: an axis repeating the
        // exact same reading is electrically suspicious (real sensors
        // jitter in the low bits every sample).
        for (k, &v) in clean.iter().enumerate() {
            if v == self.axis_last[k] {
                self.axis_run[k] = self.axis_run[k].saturating_add(1);
            } else {
                self.axis_run[k] = 0;
                self.axis_last[k] = v;
            }
        }
        let w = self.cfg.stuck_window as u32;
        for s in 0..2 {
            let runs = &self.axis_run[s * 3..s * 3 + 3];
            let min = *runs.iter().min().expect("3 axes");
            let max = *runs.iter().max().expect("3 axes");
            // Dead: the whole sensor flat-lines. Frozen: one axis stops
            // while its siblings keep moving.
            let stuck_now = min >= w || (max >= w && min < w / 2);
            if stuck_now && !self.stuck[s] {
                self.status.stuck_events += 1;
            }
            self.stuck[s] = stuck_now;
        }

        // Debounced value-fault pressure per sensor.
        for (s, &was_bad) in bad.iter().enumerate() {
            if was_bad {
                self.bad_run[s] = (self.bad_run[s] + 2).min(2 * self.cfg.fault_debounce);
            } else {
                self.bad_run[s] = self.bad_run[s].saturating_sub(1);
            }
        }

        self.mode.accel_degraded = self.stuck[0] || self.bad_run[0] >= self.cfg.fault_debounce;
        self.mode.gyro_degraded = self.stuck[1] || self.bad_run[1] >= self.cfg.fault_debounce;

        // Accel-confirmation age: has the magnitude left the 1 g rest
        // band recently?
        let a = [clean[0], clean[1], clean[2]];
        let norm = (a[0] * a[0] + a[1] * a[1] + a[2] * a[2]).sqrt();
        if (norm - 1.0).abs() > self.cfg.accel_confirm_dev_g {
            self.anomaly_age = 0;
        } else {
            self.anomaly_age = self.anomaly_age.saturating_add(1);
        }

        let out = (a, [clean[3], clean[4], clean[5]]);
        self.last_good = Some(out);
        if self.mode.is_degraded() {
            self.status.degraded_samples += 1;
        }
        out
    }
}

/// Emits the change in each `guard.*` counter between two
/// [`GuardStatus`] snapshots. Static names, no allocation.
pub(crate) fn emit_guard_deltas(rec: &dyn Recorder, before: &GuardStatus, after: &GuardStatus) {
    let pairs: [(&'static str, u64, u64); 13] = [
        ("guard.samples", before.samples, after.samples),
        ("guard.nonfinite", before.nonfinite, after.nonfinite),
        ("guard.clamped", before.clamped, after.clamped),
        ("guard.gaps_filled", before.gaps_filled, after.gaps_filled),
        ("guard.gap_lost", before.gap_lost, after.gap_lost),
        (
            "guard.stuck_events",
            before.stuck_events,
            after.stuck_events,
        ),
        (
            "guard.degraded_samples",
            before.degraded_samples,
            after.degraded_samples,
        ),
        (
            "guard.degraded_windows",
            before.degraded_windows,
            after.degraded_windows,
        ),
        (
            "guard.window_flushes",
            before.window_flushes,
            after.window_flushes,
        ),
        (
            "guard.suppressed_triggers",
            before.suppressed_triggers,
            after.suppressed_triggers,
        ),
        (
            "guard.engine_rejects",
            before.engine_rejects,
            after.engine_rejects,
        ),
        (
            "guard.ts_regression",
            before.ts_regression,
            after.ts_regression,
        ),
        ("guard.faults", before.faults(), after.faults()),
    ];
    for (name, b, a) in pairs {
        if a > b {
            rec.counter_add(name, a - b);
        }
    }
}

/// The inference engine a detector runs: the float training network or
/// the int8 model actually deployed on the microcontroller.
///
/// An engine scores windows only inside a [`ModelBundle`], through
/// `&self`: one engine serves one wearer's [`StreamingDetector`] and a
/// fleet of [`Session`]s alike, by the same call. Float engines run the
/// allocation-free workspace interpreter, so the bundle refuses at
/// construction any network that interpreter cannot run.
#[derive(Debug)]
pub enum Engine {
    /// Float inference (development/evaluation).
    Float(Network),
    /// int8 inference — what the STM32 firmware executes.
    Quantized(QuantizedNetwork),
}

impl Engine {
    /// Flattened input length expected by the engine.
    pub fn input_len(&self) -> usize {
        match self {
            Engine::Float(n) => n.input_len(),
            Engine::Quantized(q) => q.input_len(),
        }
    }

    /// Sigmoid probability for one preprocessed segment. Float engines
    /// run the workspace interpreter (packed kernels, or the naive ones
    /// under [`prefall_nn::kernels::set_reference_kernels`]); quantized
    /// engines run the int8 model. With `trace`, the per-branch
    /// activations of the modality split land in it (cleared first;
    /// left empty for quantized engines and split-less models). The
    /// score is bit-identical with and without tracing — incident
    /// replay relies on this.
    ///
    /// No input validation, and worse than NaN-in/NaN-out: the ReLU
    /// and max-pool layers use `f32::max`, which maps NaN to the other
    /// operand, so a corrupted segment is silently *laundered* into a
    /// finite but meaningless score. Only the input can reveal the
    /// corruption, so the guarded session checks the segment first.
    pub(crate) fn score(
        &self,
        segment: &[f32],
        ws: &mut Workspace,
        trace: Option<&mut Vec<BranchStat>>,
    ) -> f32 {
        let logit = match self {
            Engine::Quantized(q) => {
                if let Some(t) = trace {
                    t.clear();
                }
                return q.predict_proba(segment);
            }
            Engine::Float(n) => match trace {
                Some(t) => n.infer_scalar_traced(segment, ws, t),
                None => n.infer_scalar(segment, ws),
            },
        };
        // `ModelBundle::new` refuses networks the interpreter cannot
        // run, so `None` does not occur; NaN would be the honest score.
        logit.map_or(f32::NAN, prefall_nn::loss::sigmoid)
    }
}

impl From<Network> for Engine {
    fn from(mut n: Network) -> Self {
        // Weights are settled once a network becomes a detector engine:
        // build the interleaved conv/dense packs now so the streaming
        // workspace path classifies with zero per-window allocations.
        n.prepare_inference();
        Engine::Float(n)
    }
}

impl From<QuantizedNetwork> for Engine {
    fn from(q: QuantizedNetwork) -> Self {
        Engine::Quantized(q)
    }
}

/// A streaming pre-impact fall detector wrapping a trained network.
///
/// Internally this is a [`ModelBundle`] (the immutable model half)
/// driving a single [`Session`] (the per-stream half): every push is
/// `session.push_*(&bundle, …)`, the very call a fleet makes for each
/// of its wearers, so the two cannot disagree.
/// [`StreamingDetector::into_parts`] releases the halves for fleet use.
#[derive(Debug)]
pub struct StreamingDetector {
    bundle: ModelBundle,
    session: Session,
}

impl StreamingDetector {
    /// Creates a detector from a trained network (or a quantized model
    /// via [`Engine`]'s `From` impls) and its fitted normaliser.
    ///
    /// # Errors
    ///
    /// Returns [`CoreError::InvalidConfig`] when the engine input does
    /// not match the configured window, the network is one the
    /// streaming interpreter cannot run (the recurrent baselines), or
    /// the filter design fails.
    pub fn new(
        engine: impl Into<Engine>,
        normalizer: Normalizer,
        config: DetectorConfig,
    ) -> Result<Self, CoreError> {
        let bundle = ModelBundle::new(engine, normalizer, config)?;
        let session = bundle.new_session();
        Ok(Self { bundle, session })
    }

    /// Reassembles a detector from a bundle and one of its sessions
    /// (the inverse of [`StreamingDetector::into_parts`]).
    pub fn from_parts(bundle: ModelBundle, session: Session) -> Self {
        Self { bundle, session }
    }

    /// Releases the model/session halves for fleet use: share the
    /// [`ModelBundle`] behind an `Arc` and pool [`Session`]s against it.
    pub fn into_parts(self) -> (ModelBundle, Session) {
        (self.bundle, self.session)
    }

    /// The shared model half.
    pub fn bundle(&self) -> &ModelBundle {
        &self.bundle
    }

    /// The per-stream session half.
    pub fn session(&self) -> &Session {
        &self.session
    }

    /// The configuration.
    pub fn config(&self) -> &DetectorConfig {
        self.bundle.config()
    }

    /// Installs a telemetry recorder. Every [`StreamingDetector::push_sample`]
    /// lands in the `detector.push_sample_seconds` histogram, each
    /// classified window in `detector.infer_seconds` plus the
    /// `detector.windows` counter. The default is the shared no-op
    /// recorder, which never reads the clock.
    pub fn set_recorder(&mut self, rec: Arc<dyn Recorder>) {
        self.session.set_recorder(rec);
    }

    /// Installs a [`DetectorTap`]: a per-sample observer that sees
    /// every ingest event (raw values, guard state, classified windows
    /// with per-branch attribution). While a tap is installed, every
    /// window also records its branch statistics; the scores stay
    /// bit-identical. Replaces any previous tap.
    pub fn set_tap(&mut self, tap: Box<dyn DetectorTap>) {
        self.session.set_tap(tap);
    }

    /// Removes and returns the installed tap, if any.
    pub fn take_tap(&mut self) -> Option<Box<dyn DetectorTap>> {
        self.session.take_tap()
    }

    /// Whether a [`DetectorTap`] is currently installed.
    pub fn has_tap(&self) -> bool {
        self.session.has_tap()
    }

    /// Resets all streaming state (filters, fusion, window, guard
    /// stream state). Cumulative [`GuardStatus`] counters survive —
    /// they describe the deployment, not one trial.
    pub fn reset(&mut self) {
        self.session.reset();
    }

    /// Replaces the guard configuration, resetting all guard state
    /// *including* the cumulative [`GuardStatus`] counters. Lets one
    /// detector be compared with the guard on and off without
    /// rebuilding the engine or re-running training.
    pub fn set_guard(&mut self, cfg: GuardConfig) {
        self.bundle.config.guard = cfg;
        self.session.set_guard(cfg);
    }

    /// The currently active degraded modes.
    pub fn mode(&self) -> DetectorMode {
        self.session.mode()
    }

    /// Cumulative guard intervention counters.
    pub fn guard_status(&self) -> GuardStatus {
        self.session.guard_status()
    }

    /// Whether the accelerometer branch currently confirms a fall-like
    /// event: accel magnitude left the 1 g rest band within the last
    /// [`GuardConfig::accel_confirm_window`] samples.
    pub fn accel_confirms(&self) -> bool {
        self.session.accel_confirms()
    }

    /// Captures the complete per-stream state (see
    /// [`Session::checkpoint`](crate::session::Session::checkpoint)).
    pub fn checkpoint(&self) -> SessionCheckpoint {
        self.session.checkpoint()
    }

    /// Restores state captured by [`StreamingDetector::checkpoint`]
    /// (see [`Session::restore`](crate::session::Session::restore)).
    ///
    /// # Errors
    ///
    /// Returns [`CoreError::InvalidConfig`] when the checkpoint's
    /// shape does not fit this detector's configuration.
    pub fn restore(&mut self, ck: &SessionCheckpoint) -> Result<(), CoreError> {
        self.session.restore(ck)
    }

    /// Feeds one raw 100 Hz sample (accelerometer in g, gyroscope in
    /// rad/s). Returns the window probability when a full hop completed,
    /// `None` otherwise.
    ///
    /// With [`GuardConfig::enabled`] (the default) the sample passes
    /// through the [`SampleGuard`] first and the returned probability
    /// is always finite and computed from validated data. With the
    /// guard disabled this is the naive ingest: a single NaN axis
    /// reading permanently poisons the Butterworth and fusion state,
    /// after which every window is NaN and the network's `max`-based
    /// layers launder it into a constant garbage score — the detector
    /// goes silently blind.
    pub fn push_sample(&mut self, accel: [f32; 3], gyro: [f32; 3]) -> Option<f32> {
        self.session.push_sample(&self.bundle, accel, gyro)
    }

    /// Ingests a sample at an explicit 100 Hz grid tick, tolerating
    /// duplicate, reordered and gap delivery (see
    /// [`Session::push_at`](crate::session::Session::push_at)). Window
    /// probabilities are appended to `out` in emission order.
    pub fn push_at(
        &mut self,
        tick: u64,
        accel: [f32; 3],
        gyro: [f32; 3],
        out: &mut Vec<f32>,
    ) -> TickOutcome {
        self.session.push_at(&self.bundle, tick, accel, gyro, out)
    }

    /// Reports a missing grid tick (the sensor bus delivered nothing at
    /// this 100 Hz slot). Returns a probability if bridging the gap
    /// completed a hop.
    ///
    /// Gaps up to [`GuardConfig::max_gap_fill`] ticks are bridged by
    /// re-ingesting the last good sample (counted as `gaps_filled`);
    /// longer gaps mark the detector stale, flush the window when real
    /// data resumes, and are counted as `gap_lost`.
    ///
    /// With the guard disabled this is a no-op returning `None`: the
    /// naive detector simply never learns a tick passed, so its window
    /// silently loses grid alignment — the failure mode the guard
    /// exists to prevent.
    pub fn push_missing(&mut self) -> Option<f32> {
        self.session.push_missing(&self.bundle)
    }

    /// Whether the trigger condition (N consecutive positive windows) is
    /// currently met. This is the raw arming state; it deliberately
    /// ignores degraded modes — see
    /// [`StreamingDetector::trigger_decision`] for the policy-aware
    /// check.
    pub fn trigger_armed(&self) -> bool {
        self.session.trigger_armed()
    }

    /// The policy-aware trigger: armed *and* permitted by the
    /// degraded-trigger policy (module docs). While degraded, a trigger
    /// requires a healthy, non-stale accelerometer whose magnitude
    /// recently confirmed a dynamic event; a probability computed from
    /// masked or gap-filled data never fires the airbag on its own.
    pub fn trigger_decision(&self) -> bool {
        self.session.trigger_decision()
    }

    /// Notifies an installed [`DetectorTap`] that a trial finished
    /// streaming. [`run_on_trial`] and the faulted-trial runner call
    /// this automatically; call it yourself when driving the detector
    /// sample-by-sample and the tap needs trial boundaries (e.g. the
    /// flight recorder classifying a missed fall).
    pub fn notify_trial_end(&mut self, trial: &Trial, outcome: &TrialOutcome) {
        self.session.notify_trial_end(trial, outcome);
    }
}

/// Airbag state.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum AirbagState {
    /// Waiting for a trigger.
    Idle,
    /// Gas generator fired; counting down the 150 ms inflation.
    Inflating {
        /// Sample index at which the trigger fired.
        triggered_at: usize,
    },
    /// Fully inflated.
    Inflated {
        /// Sample index at which the trigger fired.
        triggered_at: usize,
        /// Sample index at which full extension was reached.
        full_at: usize,
    },
}

/// The wearable airbag model: fires once, takes 150 ms to inflate.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct AirbagController {
    state: AirbagState,
}

impl Default for AirbagController {
    fn default() -> Self {
        Self::new()
    }
}

impl AirbagController {
    /// A fresh, idle airbag.
    pub fn new() -> Self {
        Self {
            state: AirbagState::Idle,
        }
    }

    /// Current state.
    pub fn state(&self) -> AirbagState {
        self.state
    }

    /// Advances time to sample `now`, firing from the detector's
    /// policy-aware [`StreamingDetector::trigger_decision`].
    ///
    /// This is the deployment-correct coupling: under a degraded
    /// detector the airbag never fires from a degraded-mode probability
    /// unless the accelerometer branch confirms (see the
    /// degraded-trigger policy in the module docs). Calling
    /// [`AirbagController::step`] with a raw
    /// [`StreamingDetector::trigger_armed`] bypasses that policy and is
    /// only appropriate when the ingest is known clean.
    pub fn step_with_detector(&mut self, now: usize, detector: &StreamingDetector) -> AirbagState {
        self.step(now, detector.trigger_decision())
    }

    /// Advances time to sample `now`, firing if `trigger` is set.
    /// Returns the new state.
    ///
    /// `trigger` is trusted blindly — pair it with
    /// [`StreamingDetector::trigger_decision`] (or use
    /// [`AirbagController::step_with_detector`]) so degraded-mode
    /// probabilities cannot fire the irreversible gas generator.
    pub fn step(&mut self, now: usize, trigger: bool) -> AirbagState {
        self.state = match self.state {
            AirbagState::Idle if trigger => AirbagState::Inflating { triggered_at: now },
            AirbagState::Inflating { triggered_at }
                if now >= triggered_at + AIRBAG_INFLATION_SAMPLES =>
            {
                AirbagState::Inflated {
                    triggered_at,
                    full_at: triggered_at + AIRBAG_INFLATION_SAMPLES,
                }
            }
            s => s,
        };
        self.state
    }

    /// Whether the wearer is protected at the given impact sample (the
    /// bag reached full extension in time).
    pub fn protects_at(&self, impact: usize) -> bool {
        match self.state {
            AirbagState::Inflated { full_at, .. } => full_at <= impact,
            AirbagState::Inflating { triggered_at } => {
                triggered_at + AIRBAG_INFLATION_SAMPLES <= impact
            }
            AirbagState::Idle => false,
        }
    }
}

/// Outcome of streaming one trial through a detector + airbag.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct TrialOutcome {
    /// Sample index where the detector fired, if it did.
    pub triggered_at: Option<usize>,
    /// The trial's impact index, if it is a fall.
    pub impact: Option<usize>,
    /// Milliseconds between trigger and impact (negative = after
    /// impact), when both exist.
    pub lead_time_ms: Option<f64>,
    /// For falls: did the airbag reach full extension before impact?
    pub protected: Option<bool>,
    /// For ADLs: did the detector fire at all (false activation)?
    pub false_activation: bool,
    /// Highest window probability emitted during the trial — the
    /// event-level confidence score the calibration monitor bins.
    pub peak_prob: Option<f32>,
}

/// Streams a trial sample-by-sample through the detector and airbag.
pub fn run_on_trial(detector: &mut StreamingDetector, trial: &Trial) -> TrialOutcome {
    run_on_trial_recorded(detector, trial, &NoopRecorder)
}

/// [`run_on_trial`] with outcome telemetry: the lead time before impact
/// lands in the `detector.lead_time_ms` histogram (register
/// [`lead_time_bounds_ms`] for 25 ms bins), plus the `detector.trials`
/// / `detector.triggered` / `detector.protected` /
/// `detector.false_activations` counters and a `detector.trigger`
/// event per firing. Per-sample latency telemetry is separate — it goes
/// through the recorder installed with
/// [`StreamingDetector::set_recorder`].
pub fn run_on_trial_recorded(
    detector: &mut StreamingDetector,
    trial: &Trial,
    rec: &dyn Recorder,
) -> TrialOutcome {
    let outcome = stream_trial(detector, trial);
    if rec.enabled() {
        rec.counter_add("detector.trials", 1);
        if outcome.triggered_at.is_some() {
            rec.counter_add("detector.triggered", 1);
        }
        if outcome.protected == Some(true) {
            rec.counter_add("detector.protected", 1);
        }
        if outcome.false_activation {
            rec.counter_add("detector.false_activations", 1);
        }
        if let Some(lt) = outcome.lead_time_ms {
            rec.observe("detector.lead_time_ms", lt);
        }
        if let Some(t) = outcome.triggered_at {
            rec.event(
                "detector.trigger",
                &[
                    ("at_sample", Value::from(t)),
                    ("is_fall", Value::from(trial.is_fall())),
                    (
                        "lead_time_ms",
                        Value::from(outcome.lead_time_ms.unwrap_or(f64::NAN)),
                    ),
                ],
            );
        }
    }
    outcome
}

fn stream_trial(detector: &mut StreamingDetector, trial: &Trial) -> TrialOutcome {
    detector.reset();
    let mut airbag = AirbagController::new();
    let mut triggered_at = None;
    let mut peak_prob: Option<f32> = None;

    let ax = trial.channel(Channel::AccelX);
    let ay = trial.channel(Channel::AccelY);
    let az = trial.channel(Channel::AccelZ);
    let gx = trial.channel(Channel::GyroX);
    let gy = trial.channel(Channel::GyroY);
    let gz = trial.channel(Channel::GyroZ);

    for i in 0..trial.len() {
        if let Some(p) = detector.push_sample([ax[i], ay[i], az[i]], [gx[i], gy[i], gz[i]]) {
            peak_prob = Some(peak_prob.map_or(p, |q| q.max(p)));
        }
        let fire = detector.trigger_decision() && triggered_at.is_none();
        if fire {
            triggered_at = Some(i);
        }
        airbag.step(i, fire);
    }

    let impact = trial.impact();
    let lead_time_ms = match (triggered_at, impact) {
        (Some(t), Some(im)) => Some((im as f64 - t as f64) * SAMPLE_PERIOD_MS),
        _ => None,
    };
    let protected = impact.map(|im| airbag.protects_at(im));
    let outcome = TrialOutcome {
        triggered_at,
        impact,
        lead_time_ms,
        protected,
        false_activation: !trial.is_fall() && triggered_at.is_some(),
        peak_prob,
    };
    detector.notify_trial_end(trial, &outcome);
    outcome
}

/// [`run_on_trial_recorded`] plus the online model-quality audit: the
/// trial lands in the [`QualityMonitor`]'s per-activity confusion
/// counters, calibration bins and lead-time tracking, and the derived
/// gauges are re-published so a live `/metrics` scrape stays fresh.
///
/// [`QualityMonitor`]: crate::monitor::QualityMonitor
pub fn run_on_trial_monitored(
    detector: &mut StreamingDetector,
    trial: &Trial,
    rec: &dyn Recorder,
    monitor: &mut crate::monitor::QualityMonitor,
) -> TrialOutcome {
    let outcome = run_on_trial_recorded(detector, trial, rec);
    monitor.record_trial(trial, &outcome, rec);
    monitor.record_guard(detector.guard_status());
    monitor.publish(rec);
    outcome
}

/// Convenience: builds a streaming detector from a pipeline + training
/// artifacts produced by [`crate::cv::train_on_sets`].
pub fn detector_from_parts(
    pipeline: &Pipeline,
    net: Network,
    normalizer: Normalizer,
    threshold: f32,
) -> Result<StreamingDetector, CoreError> {
    StreamingDetector::new(
        net,
        normalizer,
        DetectorConfig {
            pipeline: *pipeline.config(),
            threshold,
            consecutive: 1,
            guard: GuardConfig::default(),
        },
    )
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::models::ModelKind;
    use prefall_dsp::segment::Overlap;

    fn dummy_detector(window_ms: f64) -> StreamingDetector {
        let cfg = DetectorConfig {
            pipeline: PipelineConfig::paper(window_ms, Overlap::Half),
            threshold: 0.5,
            consecutive: 1,
            guard: GuardConfig::default(),
        };
        let w = cfg.pipeline.segmentation.window();
        let net = ModelKind::ProposedCnn.build(w, 9, 1).unwrap();
        StreamingDetector::new(net, Normalizer::identity(9), cfg).unwrap()
    }

    #[test]
    fn emits_probability_every_hop() {
        let mut d = dummy_detector(200.0); // window 20, hop 10
        let mut emissions = Vec::new();
        for i in 0..60 {
            let p = d.push_sample([0.0, 0.0, 1.0], [0.0, 0.0, 0.0]);
            if p.is_some() {
                emissions.push(i);
            }
        }
        // First at sample index 19 (window filled), then every 10.
        assert_eq!(emissions, vec![19, 29, 39, 49, 59]);
    }

    #[test]
    fn rejects_mismatched_network() {
        let cfg = DetectorConfig::paper_400ms(); // window 40
        let net = ModelKind::ProposedCnn.build(20, 9, 1).unwrap();
        assert!(StreamingDetector::new(net, Normalizer::identity(9), cfg).is_err());
    }

    #[test]
    fn reset_restores_cadence() {
        let mut d = dummy_detector(200.0);
        for _ in 0..25 {
            let _ = d.push_sample([0.0, 0.0, 1.0], [0.0, 0.0, 0.0]);
        }
        d.reset();
        let mut first = None;
        for i in 0..30 {
            if d.push_sample([0.0, 0.0, 1.0], [0.0, 0.0, 0.0]).is_some() {
                first = Some(i);
                break;
            }
        }
        assert_eq!(first, Some(19));
    }

    #[test]
    fn quantized_engine_streams_like_float() {
        use prefall_nn::quant::QuantizedNetwork;
        let cfg = DetectorConfig {
            pipeline: PipelineConfig::paper(200.0, Overlap::Half),
            threshold: 0.5,
            consecutive: 1,
            guard: GuardConfig::default(),
        };
        let w = cfg.pipeline.segmentation.window();
        let mut net = ModelKind::ProposedCnn.build(w, 9, 7).unwrap();
        // Calibrate on plausible filtered/normalised ranges.
        let calib: Vec<Vec<f32>> = (0..32)
            .map(|k| {
                (0..w * 9)
                    .map(|i| (((i + 7 * k) as f32) * 0.13).sin() * 2.0)
                    .collect()
            })
            .collect();
        let qnet = QuantizedNetwork::from_network(&mut net, &calib).unwrap();

        let mut float_d = StreamingDetector::new(net, Normalizer::identity(9), cfg).unwrap();
        let mut quant_d = StreamingDetector::new(qnet, Normalizer::identity(9), cfg).unwrap();

        let mut max_dev = 0.0f32;
        for i in 0..120 {
            let t = i as f32 / 100.0;
            let a = [
                0.1 * (6.0 * t).sin(),
                0.1 * (5.0 * t).cos(),
                1.0 + 0.2 * (7.0 * t).sin(),
            ];
            let g = [0.3 * (4.0 * t).sin(), 0.2 * (3.0 * t).cos(), 0.0];
            let pf = float_d.push_sample(a, g);
            let pq = quant_d.push_sample(a, g);
            assert_eq!(pf.is_some(), pq.is_some(), "emission cadence matches");
            if let (Some(f), Some(q)) = (pf, pq) {
                max_dev = max_dev.max((f - q).abs());
            }
        }
        assert!(max_dev < 0.12, "float/int8 streaming deviation {max_dev}");
    }

    #[test]
    fn consecutive_requirement_delays_arming() {
        let cfg = DetectorConfig {
            pipeline: PipelineConfig::paper(200.0, Overlap::Half),
            threshold: 0.0, // every window counts as positive
            consecutive: 3,
            guard: GuardConfig::default(),
        };
        let w = cfg.pipeline.segmentation.window();
        let net = ModelKind::ProposedCnn.build(w, 9, 1).unwrap();
        let mut d = StreamingDetector::new(net, Normalizer::identity(9), cfg).unwrap();
        let mut armed_at = None;
        for i in 0..60 {
            let _ = d.push_sample([0.0, 0.0, 1.0], [0.0, 0.0, 0.0]);
            if d.trigger_armed() && armed_at.is_none() {
                armed_at = Some(i);
            }
        }
        // Windows complete at 19, 29, 39 → third positive arms at 39.
        assert_eq!(armed_at, Some(39));
    }

    #[test]
    fn airbag_inflates_after_150ms() {
        let mut bag = AirbagController::new();
        assert_eq!(bag.state(), AirbagState::Idle);
        bag.step(100, true);
        assert!(matches!(
            bag.state(),
            AirbagState::Inflating { triggered_at: 100 }
        ));
        bag.step(110, false);
        assert!(matches!(bag.state(), AirbagState::Inflating { .. }));
        bag.step(115, false);
        assert!(matches!(
            bag.state(),
            AirbagState::Inflated {
                triggered_at: 100,
                full_at: 115
            }
        ));
    }

    #[test]
    fn protection_requires_full_inflation_before_impact() {
        let mut bag = AirbagController::new();
        bag.step(100, true);
        bag.step(120, false);
        assert!(bag.protects_at(115), "exactly at full extension");
        assert!(bag.protects_at(130));
        assert!(!bag.protects_at(110), "impact during inflation");
        assert!(
            !AirbagController::new().protects_at(1000),
            "never triggered"
        );
    }

    #[test]
    fn airbag_fires_only_once() {
        let mut bag = AirbagController::new();
        bag.step(50, true);
        bag.step(60, true); // second trigger ignored
        bag.step(70, false);
        assert!(matches!(
            bag.state(),
            AirbagState::Inflated {
                triggered_at: 50,
                ..
            }
        ));
    }

    /// A lightly varying, physically plausible sample: ~1 g accel with
    /// jitter so the stuck watchdog stays quiet.
    fn wiggle(i: usize) -> ([f32; 3], [f32; 3]) {
        let t = i as f32 * 0.07;
        (
            [
                0.05 * t.sin(),
                0.04 * (1.3 * t).cos(),
                1.0 + 0.06 * (0.9 * t).sin(),
            ],
            [
                0.2 * (1.1 * t).sin(),
                0.15 * (0.7 * t).cos(),
                0.1 * (1.7 * t).sin(),
            ],
        )
    }

    #[test]
    fn guard_keeps_probabilities_finite_under_nan_burst() {
        let mut d = dummy_detector(200.0);
        for i in 0..120 {
            let (a, g) = wiggle(i);
            let (a, g) = if (40..48).contains(&i) {
                ([f32::NAN; 3], [f32::INFINITY, f32::NAN, f32::NEG_INFINITY])
            } else {
                (a, g)
            };
            if let Some(p) = d.push_sample(a, g) {
                assert!(p.is_finite(), "non-finite prob at sample {i}");
            }
        }
        let s = d.guard_status();
        assert!(
            s.nonfinite >= 8 * 6,
            "counted {} nonfinite axes",
            s.nonfinite
        );
        assert!(s.faults() > 0);
        assert!(s.fault_rate() > 0.0);
    }

    #[test]
    fn unguarded_path_goes_silently_blind_after_nan_burst() {
        // The naive ingest's failure is worse than emitting NaN: the
        // burst poisons the IIR filter state for good, every later
        // window is all-NaN, and the network's `max`-based layers
        // launder that into one constant, input-independent score.
        let run = |guarded: bool| -> Vec<f32> {
            let mut d = dummy_detector(200.0);
            if !guarded {
                d.set_guard(GuardConfig::disabled());
            }
            let mut probs = Vec::new();
            for i in 0..240 {
                let (a, g) = if (40..48).contains(&i) {
                    ([f32::NAN; 3], [f32::NAN; 3])
                } else if i >= 120 {
                    // Violent, varied motion the detector must see.
                    let t = i as f32 * 0.31;
                    (
                        [4.0 * t.sin(), 3.0 * t.cos(), 5.0 * (0.7 * t).sin()],
                        [8.0 * t.cos(), 6.0 * t.sin(), 7.0 * (1.3 * t).cos()],
                    )
                } else {
                    wiggle(i)
                };
                if let Some(p) = d.push_sample(a, g) {
                    if i >= 120 {
                        probs.push(p);
                    }
                }
            }
            probs
        };
        let blind = run(false);
        let hardened = run(true);
        assert!(
            blind.windows(2).all(|w| w[0] == w[1]),
            "unguarded detector should be frozen at one garbage score: {blind:?}"
        );
        assert!(
            hardened.windows(2).any(|w| w[0] != w[1]),
            "guarded detector should still respond to motion: {hardened:?}"
        );
        assert!(hardened.iter().all(|p| p.is_finite()));
    }

    #[test]
    fn guard_clamps_out_of_range_values() {
        let mut d = dummy_detector(200.0);
        for i in 0..60 {
            let (mut a, g) = wiggle(i);
            if i == 30 {
                a[0] = 500.0; // far beyond 16 g
            }
            let _ = d.push_sample(a, g);
        }
        assert_eq!(d.guard_status().clamped, 1);
    }

    #[test]
    fn short_gaps_are_bridged_and_keep_cadence() {
        let mut d = dummy_detector(200.0); // window 20, hop 10
        let mut emissions = Vec::new();
        for i in 0..60 {
            let p = if (25..30).contains(&i) {
                d.push_missing()
            } else {
                let (a, g) = wiggle(i);
                d.push_sample(a, g)
            };
            if p.is_some() {
                emissions.push(i);
            }
        }
        assert_eq!(emissions, vec![19, 29, 39, 49, 59], "cadence preserved");
        let s = d.guard_status();
        assert_eq!(s.gaps_filled, 5);
        assert_eq!(s.gap_lost, 0);
        assert_eq!(s.window_flushes, 0);
    }

    #[test]
    fn long_gaps_flush_the_window_and_go_stale() {
        let mut d = dummy_detector(200.0);
        for i in 0..30 {
            let (a, g) = wiggle(i);
            let _ = d.push_sample(a, g);
        }
        for _ in 0..15 {
            // 15 > max_gap_fill (10): bridging gives up part-way.
            assert!(d.push_missing().is_none() || d.guard_status().gap_lost == 0);
        }
        assert!(d.mode().stale, "detector stale after unbridgeable gap");
        let s = d.guard_status();
        assert_eq!(s.gaps_filled, 10);
        assert_eq!(s.gap_lost, 5);
        // Real data resumes: the mixed window flushes, mode recovers.
        let (a, g) = wiggle(45);
        let _ = d.push_sample(a, g);
        assert!(!d.mode().stale);
        assert_eq!(d.guard_status().window_flushes, 1);
    }

    #[test]
    fn gyro_outage_enters_degraded_mode_and_recovers() {
        let mut d = dummy_detector(200.0);
        for i in 0..200 {
            let (a, mut g) = wiggle(i);
            if (50..120).contains(&i) {
                g = [0.25; 3]; // gyro flat-lines at a frozen value
            }
            let _ = d.push_sample(a, g);
            if i == 119 {
                assert!(d.mode().gyro_degraded, "frozen gyro not flagged");
                assert!(!d.mode().accel_degraded);
            }
        }
        assert!(!d.mode().gyro_degraded, "mode should clear on recovery");
        assert!(d.guard_status().stuck_events >= 1);
        assert!(d.guard_status().degraded_windows >= 1);
    }

    #[test]
    fn degraded_trigger_needs_accel_confirmation() {
        // threshold 0 ⇒ every window arms the detector.
        let cfg = DetectorConfig {
            pipeline: PipelineConfig::paper(200.0, Overlap::Half),
            threshold: 0.0,
            consecutive: 1,
            guard: GuardConfig::default(),
        };
        let w = cfg.pipeline.segmentation.window();
        let net = ModelKind::ProposedCnn.build(w, 9, 1).unwrap();
        let mut d = StreamingDetector::new(net, Normalizer::identity(9), cfg).unwrap();

        // Quiet wearer, dead gyro: armed but vetoed.
        for i in 0..120 {
            let (a, _) = wiggle(i);
            let _ = d.push_sample(a, [0.5; 3]);
        }
        assert!(d.mode().gyro_degraded);
        assert!(d.trigger_armed());
        assert!(!d.accel_confirms(), "wearer at rest");
        assert!(!d.trigger_decision(), "degraded + unconfirmed must veto");
        assert!(d.guard_status().suppressed_triggers > 0);
        let mut bag = AirbagController::new();
        bag.step_with_detector(120, &d);
        assert_eq!(bag.state(), AirbagState::Idle);

        // A real dynamic event on the accel branch lifts the veto.
        for i in 120..140 {
            let t = i as f32 * 0.3;
            let _ = d.push_sample([2.5 * t.sin(), 1.5 * t.cos(), 3.0], [0.5; 3]);
        }
        assert!(d.mode().gyro_degraded, "gyro still dead");
        assert!(d.accel_confirms());
        assert!(d.trigger_decision(), "accel-confirmed trigger allowed");
        bag.step_with_detector(140, &d);
        assert!(matches!(bag.state(), AirbagState::Inflating { .. }));
    }

    #[test]
    fn reset_keeps_cumulative_guard_counters_but_clears_mode() {
        let mut d = dummy_detector(200.0);
        for _ in 0..40 {
            let _ = d.push_sample([f32::NAN; 3], [0.0, 0.1, 0.2]);
        }
        assert!(d.mode().accel_degraded);
        let faults = d.guard_status().faults();
        assert!(faults > 0);
        d.reset();
        assert!(!d.mode().is_degraded(), "mode clears with the stream");
        assert_eq!(d.guard_status().faults(), faults, "counters survive");
        d.set_guard(GuardConfig::default());
        assert_eq!(d.guard_status().faults(), 0, "set_guard starts over");
    }
}
