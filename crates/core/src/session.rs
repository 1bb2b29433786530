//! The detector split for fleet serving: a shared immutable
//! [`ModelBundle`] and a compact, poolable [`Session`].
//!
//! A [`StreamingDetector`](crate::detector::StreamingDetector) owns one
//! of each and serves exactly one wearer. A fleet server instead builds
//! one `ModelBundle` (engine weights, normaliser, configuration, filter
//! prototype — everything immutable and identical across wearers),
//! wraps it in an `Arc`, and pools thousands of `Session`s against it:
//! each session is only the per-stream state (ingest guard, IIR filter
//! delay lines, fusion attitude, sliding window, nn scratch
//! [`Workspace`], optional tap). Sessions are `Send`, reset cleanly for
//! recycling without releasing their buffers, and checkpoint/restore
//! bit-exactly so a reconnecting wearer resumes with a warm window. A
//! [`SessionCheckpoint`] travels as the checksummed `PFSC` byte format,
//! written and read through [`prefall_telemetry::codec`].
//!
//! # One scoring path
//!
//! Every window scores through `&ModelBundle`: a session borrows the
//! bundle immutably and runs the engine's allocation-free workspace
//! interpreter on its own scratch [`Workspace`]. A
//! [`StreamingDetector`](crate::detector::StreamingDetector) is one
//! bundle driving one session through the same calls, so one wearer
//! and a fleet of thousands score the same bits by construction.
//! [`ModelBundle::new`] refuses, with [`CoreError::InvalidConfig`], a
//! network the interpreter cannot run — the LSTM and ConvLSTM2D
//! baselines of Table III, which cross-validation evaluates offline —
//! so no window is ever scored by another route.
//!
//! # Tick grid and out-of-order delivery
//!
//! [`Session::push_at`] ingests a sample at an explicit 100 Hz grid
//! tick. Ticks already consumed are dropped and counted
//! (`guard.ts_regression`) — duplicate and reordered batches become
//! idempotent re-deliveries instead of silently corrupting the
//! gap-bridging math. Ticks ahead of the grid bridge the gap through
//! the existing [`SampleGuard`] exactly as [`Session::push_missing`]
//! would, with gaps beyond
//! [`GuardConfig::max_gap_fill`](crate::detector::GuardConfig::max_gap_fill)
//! collapsed into one accounting step (same counters, no per-tick tap
//! callbacks) so a reconnect after minutes costs O(1), not O(gap).

use crate::detector::{
    emit_guard_deltas, DetectorConfig, DetectorMode, Engine, GuardConfig, GuardStatus, SampleGuard,
    TrialOutcome,
};
use crate::tap::{DetectorTap, SampleTapCtx, WindowTap};
use crate::CoreError;
use prefall_dsp::biquad::SosFilter;
use prefall_dsp::butterworth::Butterworth;
use prefall_dsp::fusion::{ComplementaryFilter, EulerAngles};
use prefall_dsp::stats::Normalizer;
use prefall_imu::channel::NUM_CHANNELS;
use prefall_imu::trial::{Trial, FUSION_ALPHA};
use prefall_imu::SAMPLE_RATE_HZ;
use prefall_nn::network::BranchStat;
use prefall_nn::workspace::Workspace;
use prefall_telemetry::codec::{Reader, Writer};
use prefall_telemetry::{Recorder, Span};
use std::collections::VecDeque;
use std::sync::Arc;

/// The immutable, shareable half of a streaming detector: engine
/// weights, fitted normaliser, configuration and the designed filter
/// prototype. One bundle serves any number of [`Session`]s — wrap it
/// in an `Arc` and every session created from it classifies against
/// the same weights without copying them.
#[derive(Debug)]
pub struct ModelBundle {
    pub(crate) engine: Engine,
    pub(crate) normalizer: Normalizer,
    pub(crate) config: DetectorConfig,
    filter_proto: SosFilter,
}

impl ModelBundle {
    /// Builds a bundle from a trained engine and its fitted normaliser.
    ///
    /// # Errors
    ///
    /// Returns [`CoreError::InvalidConfig`] when the engine input does
    /// not match the configured window, the network is one the
    /// workspace interpreter cannot run (LSTM, ConvLSTM2D, multi-output
    /// heads), or the filter design fails.
    pub fn new(
        engine: impl Into<Engine>,
        normalizer: Normalizer,
        config: DetectorConfig,
    ) -> Result<Self, CoreError> {
        let engine = engine.into();
        let window = config.pipeline.segmentation.window();
        if engine.input_len() != window * NUM_CHANNELS {
            return Err(CoreError::InvalidConfig {
                reason: format!(
                    "engine expects {} inputs, window provides {}",
                    engine.input_len(),
                    window * NUM_CHANNELS
                ),
            });
        }
        let design = Butterworth::lowpass(
            config.pipeline.filter_order,
            config.pipeline.filter_cutoff_hz,
            SAMPLE_RATE_HZ,
        )?;
        // The workspace interpreter is the only scoring path: refuse a
        // network it cannot run now rather than score every window NaN.
        if let Engine::Float(n) = &engine {
            let probe = vec![0.0f32; n.input_len()];
            if n.infer_scalar(&probe, &mut Workspace::new()).is_none() {
                return Err(CoreError::InvalidConfig {
                    reason: "the streaming interpreter cannot run this network \
                             (recurrent and multi-output models evaluate offline only)"
                        .into(),
                });
            }
        }
        Ok(Self {
            engine,
            normalizer,
            config,
            filter_proto: design.to_filter(),
        })
    }

    /// The detector configuration every session created from this
    /// bundle starts with.
    pub fn config(&self) -> &DetectorConfig {
        &self.config
    }

    /// The inference engine every session scores through.
    pub fn engine(&self) -> &Engine {
        &self.engine
    }

    /// The fitted per-channel normaliser.
    pub fn normalizer(&self) -> &Normalizer {
        &self.normalizer
    }

    /// Creates a fresh, cold session against this bundle.
    pub fn new_session(&self) -> Session {
        let window = self.config.pipeline.segmentation.window();
        Session {
            window_len: window,
            hop: self.config.pipeline.segmentation.hop(),
            threshold: self.config.threshold,
            consecutive: self.config.consecutive,
            filters: (0..NUM_CHANNELS)
                .map(|_| self.filter_proto.clone())
                .collect(),
            fusion: ComplementaryFilter::new(SAMPLE_RATE_HZ, FUSION_ALPHA),
            window: VecDeque::with_capacity(window),
            samples_seen: 0,
            positives_in_a_row: 0,
            guard: SampleGuard::new(self.config.guard),
            rec: prefall_telemetry::noop(),
            tap: None,
            last_trace: Vec::new(),
            published_mode: None,
            ws: Workspace::new(),
            scratch_seg: Vec::with_capacity(window * NUM_CHANNELS),
        }
    }
}

/// What happened to one tick pushed via [`Session::push_at`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct TickOutcome {
    /// Windows classified by this push (delivered sample plus any
    /// gap-bridged fills), appended to the caller's output in order.
    pub windows: usize,
    /// Window boundaries crossed while load-shedding (cadence
    /// advanced, inference skipped).
    pub shed_windows: usize,
    /// The tick was behind the grid (duplicate or reordered delivery):
    /// dropped and counted in `guard.ts_regression`.
    pub regressed: bool,
}

/// The compact, poolable per-wearer half of a streaming detector.
///
/// Holds every piece of state that differs between wearers — ingest
/// guard, filter delay lines, fusion attitude, sliding window, arming
/// run, nn scratch — and nothing that doesn't. All pushes borrow the
/// model from a [`ModelBundle`]; one bundle in an `Arc` serves every
/// session in a fleet.
///
/// [`Session::reset`] clears streaming state without releasing buffer
/// capacity, so recycling a session through a pool allocates nothing
/// in steady state.
#[derive(Debug)]
pub struct Session {
    window_len: usize,
    hop: usize,
    threshold: f32,
    consecutive: usize,
    filters: Vec<SosFilter>,
    fusion: ComplementaryFilter,
    window: VecDeque<[f32; NUM_CHANNELS]>,
    samples_seen: usize,
    positives_in_a_row: usize,
    guard: SampleGuard,
    rec: Arc<dyn Recorder>,
    tap: Option<Box<dyn DetectorTap>>,
    last_trace: Vec<BranchStat>,
    published_mode: Option<DetectorMode>,
    ws: Workspace,
    scratch_seg: Vec<f32>,
}

impl Session {
    /// Installs a telemetry recorder (see
    /// [`StreamingDetector::set_recorder`](crate::detector::StreamingDetector::set_recorder)).
    pub fn set_recorder(&mut self, rec: Arc<dyn Recorder>) {
        self.rec = rec;
    }

    /// Installs a [`DetectorTap`], replacing any previous one.
    pub fn set_tap(&mut self, tap: Box<dyn DetectorTap>) {
        self.tap = Some(tap);
    }

    /// Removes and returns the installed tap, if any.
    pub fn take_tap(&mut self) -> Option<Box<dyn DetectorTap>> {
        self.tap.take()
    }

    /// Whether a [`DetectorTap`] is currently installed.
    pub fn has_tap(&self) -> bool {
        self.tap.is_some()
    }

    /// Resets all streaming state (filters, fusion, window, guard
    /// stream state, tick grid). Cumulative [`GuardStatus`] counters
    /// survive. No buffer is released: a reset session re-streams
    /// without allocating.
    pub fn reset(&mut self) {
        for f in &mut self.filters {
            f.reset();
        }
        self.fusion.reset();
        self.window.clear();
        self.samples_seen = 0;
        self.positives_in_a_row = 0;
        self.guard.reset_stream();
        self.published_mode = None;
        if let Some(mut tap) = self.tap.take() {
            tap.on_stream_reset();
            self.tap = Some(tap);
        }
    }

    /// Replaces the guard configuration, resetting all guard state
    /// including the cumulative counters.
    pub fn set_guard(&mut self, cfg: GuardConfig) {
        self.guard = SampleGuard::new(cfg);
    }

    /// The currently active degraded modes.
    pub fn mode(&self) -> DetectorMode {
        self.guard.mode
    }

    /// Cumulative guard intervention counters.
    pub fn guard_status(&self) -> GuardStatus {
        self.guard.status
    }

    /// Whether the accelerometer branch currently confirms a fall-like
    /// event (magnitude left the 1 g rest band recently).
    pub fn accel_confirms(&self) -> bool {
        self.guard.anomaly_age as usize <= self.guard.cfg.accel_confirm_window
    }

    /// Whether the trigger condition (N consecutive positive windows)
    /// is currently met, ignoring degraded modes.
    pub fn trigger_armed(&self) -> bool {
        self.positives_in_a_row >= self.consecutive
    }

    /// The policy-aware trigger: armed *and* permitted by the
    /// degraded-trigger policy.
    pub fn trigger_decision(&self) -> bool {
        self.trigger_armed() && self.guard_allows_trigger()
    }

    /// The load-shed trigger decision: with inference shed, this is
    /// the degraded-trigger policy standing alone — a healthy,
    /// non-stale accelerometer whose magnitude recently confirmed a
    /// dynamic event. A fleet under overload degrades to this
    /// accel-confirmed-trigger-only mode instead of dropping the
    /// wearer silently.
    pub fn shed_trigger(&self) -> bool {
        let m = self.guard.mode;
        !m.accel_degraded && !m.stale && self.accel_confirms()
    }

    /// Grid ticks consumed so far (next expected tick for
    /// [`Session::push_at`]).
    pub fn next_tick(&self) -> u64 {
        self.guard.next_tick
    }

    /// Total samples folded into the sliding window (survives
    /// checkpoint/restore; used to verify a warm resume).
    pub fn samples_seen(&self) -> usize {
        self.samples_seen
    }

    /// Notifies an installed [`DetectorTap`] that a trial finished.
    pub fn notify_trial_end(&mut self, trial: &Trial, outcome: &TrialOutcome) {
        if let Some(mut tap) = self.tap.take() {
            tap.on_trial_end(trial, outcome);
            self.tap = Some(tap);
        }
    }

    /// Feeds one raw sample, scoring against `bundle` (see
    /// [`StreamingDetector::push_sample`](crate::detector::StreamingDetector::push_sample)).
    pub fn push_sample(
        &mut self,
        bundle: &ModelBundle,
        accel: [f32; 3],
        gyro: [f32; 3],
    ) -> Option<f32> {
        self.push_tick(bundle, accel, gyro, true).0
    }

    /// Reports a missing grid tick, scoring against `bundle` (see
    /// [`StreamingDetector::push_missing`](crate::detector::StreamingDetector::push_missing)).
    pub fn push_missing(&mut self, bundle: &ModelBundle) -> Option<f32> {
        if !self.guard.cfg.enabled {
            // The naive path never learns a tick passed — but a tap
            // still records the event so a replay stays faithful.
            let (accel, gyro) = self.guard.fill_value();
            self.tap_after(accel, gyro, true, None);
            return None;
        }
        self.push_missing_tick(bundle, true).0
    }

    /// Ingests a sample at an explicit grid tick, tolerating
    /// duplicate, reordered and gap delivery (module docs). Window
    /// probabilities — from the delivered sample and any gap-bridging
    /// fills — are appended to `out` in emission order.
    pub fn push_at(
        &mut self,
        bundle: &ModelBundle,
        tick: u64,
        accel: [f32; 3],
        gyro: [f32; 3],
        out: &mut Vec<f32>,
    ) -> TickOutcome {
        self.ingest_at(bundle, tick, accel, gyro, Some(out), true)
    }

    /// [`Session::push_at`] under load shedding: guard, filters,
    /// window and cadence advance exactly as normal, but window
    /// boundaries skip inference (counted in
    /// [`TickOutcome::shed_windows`]); pair with
    /// [`Session::shed_trigger`] for the degraded trigger decision.
    pub fn push_at_shed(
        &mut self,
        bundle: &ModelBundle,
        tick: u64,
        accel: [f32; 3],
        gyro: [f32; 3],
    ) -> TickOutcome {
        self.ingest_at(bundle, tick, accel, gyro, None, false)
    }

    /// Captures the complete per-stream state for crash-safe resume.
    pub fn checkpoint(&self) -> SessionCheckpoint {
        let mut filters = Vec::with_capacity(self.filters.len());
        for f in &self.filters {
            let mut state = Vec::with_capacity(f.num_sections());
            f.export_state(&mut state);
            filters.push(state);
        }
        let (fusion_angles, fusion_init) = self.fusion.state();
        SessionCheckpoint {
            samples_seen: self.samples_seen as u64,
            positives_in_a_row: self.positives_in_a_row as u64,
            window: self.window.iter().copied().collect(),
            filters,
            fusion_angles,
            fusion_init,
            guard: GuardSnapshot::capture(&self.guard),
        }
    }

    /// Restores state captured by [`Session::checkpoint`]: the next
    /// push continues bit-identically to the session that was
    /// checkpointed. The guard *configuration* is not part of a
    /// checkpoint — the session keeps its own.
    ///
    /// # Errors
    ///
    /// Returns [`CoreError::InvalidConfig`] when the checkpoint's
    /// shape (filter sections, window rows) does not fit this
    /// session's configuration; the session is left unchanged.
    pub fn restore(&mut self, ck: &SessionCheckpoint) -> Result<(), CoreError> {
        if ck.filters.len() != self.filters.len() {
            return Err(CoreError::InvalidConfig {
                reason: format!(
                    "checkpoint has {} filter channels, session has {}",
                    ck.filters.len(),
                    self.filters.len()
                ),
            });
        }
        for (f, state) in self.filters.iter().zip(&ck.filters) {
            if state.len() != f.num_sections() {
                return Err(CoreError::InvalidConfig {
                    reason: format!(
                        "checkpoint has {} filter sections, session has {}",
                        state.len(),
                        f.num_sections()
                    ),
                });
            }
        }
        if ck.window.len() > self.window_len {
            return Err(CoreError::InvalidConfig {
                reason: format!(
                    "checkpoint window has {} rows, session window holds {}",
                    ck.window.len(),
                    self.window_len
                ),
            });
        }
        for (f, state) in self.filters.iter_mut().zip(&ck.filters) {
            let ok = f.restore_state(state);
            debug_assert!(ok, "shape checked above");
        }
        self.fusion.restore(ck.fusion_angles, ck.fusion_init);
        self.window.clear();
        self.window.extend(ck.window.iter().copied());
        self.samples_seen = ck.samples_seen as usize;
        self.positives_in_a_row = ck.positives_in_a_row as usize;
        ck.guard.restore_into(&mut self.guard);
        self.published_mode = None;
        self.last_trace.clear();
        Ok(())
    }

    /// One delivered tick: guard (or raw) ingest, then the tap.
    /// Returns `(probability, shed_boundary)`.
    fn push_tick(
        &mut self,
        bundle: &ModelBundle,
        accel: [f32; 3],
        gyro: [f32; 3],
        infer: bool,
    ) -> (Option<f32>, bool) {
        let (prob, shed) = if self.guard.cfg.enabled {
            self.guard.next_tick = self.guard.next_tick.wrapping_add(1);
            self.push_guarded(bundle, accel, gyro, false, infer)
        } else {
            self.push_raw(bundle, accel, gyro, infer)
        };
        self.tap_after(accel, gyro, false, prob);
        (prob, shed)
    }

    /// One missing tick on the guarded path. Returns
    /// `(probability, shed_boundary)`.
    fn push_missing_tick(&mut self, bundle: &ModelBundle, infer: bool) -> (Option<f32>, bool) {
        let before = self.guard.status;
        self.guard.status.samples += 1;
        self.guard.next_tick = self.guard.next_tick.wrapping_add(1);
        self.guard.gap_run += 1;
        let bridged = self.guard.gap_run <= self.guard.cfg.max_gap_fill;
        if bridged {
            self.guard.status.gaps_filled += 1;
            if self.guard.mode.is_degraded() {
                self.guard.status.degraded_samples += 1;
            }
        } else {
            self.guard.status.gap_lost += 1;
            self.guard.mode.stale = true;
            self.guard.pending_flush = true;
        }
        if self.rec.enabled() {
            let rec = Arc::clone(&self.rec);
            // Emit only this method's own increments; the guarded push
            // below emits its own deltas.
            emit_guard_deltas(rec.as_ref(), &before, &self.guard.status);
            self.publish_mode(rec.as_ref());
        }
        let (accel, gyro) = self.guard.fill_value();
        let (prob, shed) = if bridged {
            self.push_guarded(bundle, accel, gyro, true, infer)
        } else {
            (None, false)
        };
        self.tap_after(accel, gyro, true, prob);
        (prob, shed)
    }

    /// [`Session::push_at`] and [`Session::push_at_shed`]: `out`
    /// collects the window scores, `infer` off sheds inference.
    fn ingest_at(
        &mut self,
        bundle: &ModelBundle,
        tick: u64,
        accel: [f32; 3],
        gyro: [f32; 3],
        mut out: Option<&mut Vec<f32>>,
        infer: bool,
    ) -> TickOutcome {
        let mut res = TickOutcome::default();
        let mut collect = |res: &mut TickOutcome, prob: Option<f32>, shed: bool| {
            if let Some(p) = prob {
                res.windows += 1;
                if let Some(out) = out.as_deref_mut() {
                    out.push(p);
                }
            }
            if shed {
                res.shed_windows += 1;
            }
        };
        if !self.guard.cfg.enabled {
            // The naive path has no grid: ingest in arrival order.
            let (prob, shed) = self.push_tick(bundle, accel, gyro, infer);
            collect(&mut res, prob, shed);
            return res;
        }
        let expected = self.guard.next_tick;
        if tick < expected {
            let before = self.guard.status;
            self.guard.status.ts_regression += 1;
            if self.rec.enabled() {
                let rec = Arc::clone(&self.rec);
                emit_guard_deltas(rec.as_ref(), &before, &self.guard.status);
            }
            res.regressed = true;
            return res;
        }
        if tick > expected {
            // A delivery gap: bridge through the guard exactly as a
            // run of `push_missing` calls would, with the unbridgeable
            // remainder collapsed into one accounting step.
            let mut remaining = tick - expected;
            let max_fill = self.guard.cfg.max_gap_fill as u64;
            while remaining > 0 && (self.guard.gap_run as u64) < max_fill {
                let (prob, shed) = self.push_missing_tick(bundle, infer);
                collect(&mut res, prob, shed);
                remaining -= 1;
            }
            if remaining > 0 {
                let before = self.guard.status;
                self.guard.status.samples += remaining;
                self.guard.status.gap_lost += remaining;
                self.guard.gap_run = self
                    .guard
                    .gap_run
                    .saturating_add(usize::try_from(remaining).unwrap_or(usize::MAX));
                self.guard.mode.stale = true;
                self.guard.pending_flush = true;
                self.guard.next_tick = tick;
                if self.rec.enabled() {
                    let rec = Arc::clone(&self.rec);
                    emit_guard_deltas(rec.as_ref(), &before, &self.guard.status);
                    self.publish_mode(rec.as_ref());
                }
            }
        }
        let (prob, shed) = self.push_tick(bundle, accel, gyro, infer);
        collect(&mut res, prob, shed);
        res
    }

    /// Invokes the installed tap (if any) for one completed ingest
    /// event. Take/put-back keeps the borrow checker happy without an
    /// allocation, and lets the tap live outside the session's own
    /// mutable state.
    fn tap_after(&mut self, accel: [f32; 3], gyro: [f32; 3], missing: bool, prob: Option<f32>) {
        let Some(mut tap) = self.tap.take() else {
            return;
        };
        let window = prob.map(|score| WindowTap {
            score,
            armed: self.trigger_armed(),
            decision: self.trigger_decision(),
            attribution: self.last_trace.as_slice(),
        });
        tap.on_sample(&SampleTapCtx {
            accel,
            gyro,
            missing,
            mode: self.guard.mode,
            guard: self.guard.status,
            window,
        });
        self.tap = Some(tap);
    }

    /// Publishes `detector.mode.*` gauges (0/1) when the mode changed
    /// since the last publish. Static names, no allocation.
    fn publish_mode(&mut self, rec: &dyn Recorder) {
        let m = self.guard.mode;
        if self.published_mode == Some(m) {
            return;
        }
        self.published_mode = Some(m);
        let flag = |b: bool| if b { 1.0 } else { 0.0 };
        rec.gauge_set("detector.mode.accel_degraded", flag(m.accel_degraded));
        rec.gauge_set("detector.mode.gyro_degraded", flag(m.gyro_degraded));
        rec.gauge_set("detector.mode.stale", flag(m.stale));
        rec.gauge_set("detector.mode.degraded", flag(m.is_degraded()));
    }

    /// The hardened ingest path. `synthetic` marks a gap-fill sample,
    /// which skips validation and watchdog updates (its values are the
    /// already-clean hold sample and must not look "stuck"). `infer`
    /// off is load shedding: cadence advances, inference is skipped.
    /// Returns `(probability, shed_boundary)`.
    fn push_guarded(
        &mut self,
        bundle: &ModelBundle,
        accel: [f32; 3],
        gyro: [f32; 3],
        synthetic: bool,
        infer: bool,
    ) -> (Option<f32>, bool) {
        // Cloning the Arc (one atomic bump, no allocation) frees `self`
        // for the mutable streaming state below.
        let rec = Arc::clone(&self.rec);
        let _push_span = Span::enter(rec.as_ref(), "detector.push_sample_seconds");
        let before = self.guard.status;

        if self.guard.pending_flush && !synthetic {
            // Real data after an unbridgeable gap: the window mixes
            // pre- and post-gap time, so drop it and refill.
            self.window.clear();
            self.positives_in_a_row = 0;
            self.guard.pending_flush = false;
            self.guard.gap_run = 0;
            self.guard.mode.stale = false;
            self.guard.status.window_flushes += 1;
        }

        let (accel, gyro) = if synthetic {
            (accel, gyro)
        } else {
            self.guard.sanitize(accel, gyro)
        };

        // Degraded gyro: run fusion accel-only so the Euler channels
        // stay posture-driven instead of integrating garbage.
        let fused_gyro = if self.guard.mode.gyro_degraded {
            [0.0; 3]
        } else {
            gyro
        };
        let boundary = self.push_row(accel, gyro, fused_gyro);

        let mut shed_boundary = false;
        let prob = if !boundary {
            None
        } else if !infer {
            // Load shedding: the window boundary passes unclassified.
            // The arming run is frozen — a shed fleet falls back to
            // the accel-confirmed trigger, never to stale scores.
            shed_boundary = true;
            None
        } else {
            // Assemble, normalise, mask degraded channels, classify.
            // The scratch buffer and workspace are taken out of `self`
            // (both takes are allocation-free) so the engine can borrow
            // them alongside the session's own state.
            let mut seg = std::mem::take(&mut self.scratch_seg);
            let mut ws = std::mem::take(&mut self.ws);
            seg.clear();
            for r in &self.window {
                seg.extend_from_slice(r);
            }
            bundle.normalizer.apply_in_place(&mut seg);
            let mode = self.guard.mode;
            if mode.accel_degraded || mode.gyro_degraded {
                let from = if mode.accel_degraded { 0 } else { 3 };
                let to = if mode.gyro_degraded { 6 } else { 3 };
                for row in seg.chunks_exact_mut(NUM_CHANNELS) {
                    row[from..to].fill(0.0);
                }
            }
            let p = {
                let _infer_span = Span::enter(rec.as_ref(), "detector.infer_seconds");
                let trace = self.tap.is_some().then_some(&mut self.last_trace);
                // The engine launders a NaN input into a finite score
                // (see `Engine::score`), so the segment is checked
                // before scoring and the score after.
                let p = if seg.iter().all(|v| v.is_finite()) {
                    bundle.engine.score(&seg, &mut ws, trace)
                } else {
                    if let Some(t) = trace {
                        t.clear();
                    }
                    f32::NAN
                };
                if p.is_finite() {
                    p
                } else {
                    self.guard.status.engine_rejects += 1;
                    0.0
                }
            };
            self.scratch_seg = seg;
            self.ws = ws;
            self.guard.status.windows += 1;
            if mode.is_degraded() {
                self.guard.status.degraded_windows += 1;
            }
            if rec.enabled() {
                rec.counter_add("detector.windows", 1);
            }
            if p >= self.threshold {
                self.positives_in_a_row += 1;
            } else {
                self.positives_in_a_row = 0;
            }
            if self.trigger_armed() && !self.guard_allows_trigger() {
                self.guard.status.suppressed_triggers += 1;
            }
            Some(p)
        };

        if rec.enabled() {
            emit_guard_deltas(rec.as_ref(), &before, &self.guard.status);
            self.publish_mode(rec.as_ref());
        }
        (prob, shed_boundary)
    }

    /// The legacy unhardened ingest, byte-for-byte the pre-guard
    /// behaviour. Returns `(probability, shed_boundary)`.
    fn push_raw(
        &mut self,
        bundle: &ModelBundle,
        accel: [f32; 3],
        gyro: [f32; 3],
        infer: bool,
    ) -> (Option<f32>, bool) {
        // Cloning the Arc (one atomic bump, no allocation) frees `self`
        // for the mutable streaming state below.
        let rec = Arc::clone(&self.rec);
        let _push_span = Span::enter(rec.as_ref(), "detector.push_sample_seconds");
        if !self.push_row(accel, gyro, gyro) {
            return (None, false);
        }
        if !infer {
            return (None, true);
        }

        // Assemble, normalise, classify. Scratch reuse as in
        // `push_guarded`: no per-window heap allocation.
        let mut seg = std::mem::take(&mut self.scratch_seg);
        let mut ws = std::mem::take(&mut self.ws);
        seg.clear();
        for r in &self.window {
            seg.extend_from_slice(r);
        }
        bundle.normalizer.apply_in_place(&mut seg);
        let prob = {
            let _infer_span = Span::enter(rec.as_ref(), "detector.infer_seconds");
            let trace = self.tap.is_some().then_some(&mut self.last_trace);
            bundle.engine.score(&seg, &mut ws, trace)
        };
        self.scratch_seg = seg;
        self.ws = ws;
        if rec.enabled() {
            rec.counter_add("detector.windows", 1);
        }
        if prob >= self.threshold {
            self.positives_in_a_row += 1;
        } else {
            self.positives_in_a_row = 0;
        }
        (Some(prob), false)
    }

    /// On-edge sensor fusion (integrating `fusion_gyro`), exactly like
    /// the acquisition firmware, then the low-pass filters; the row
    /// enters the sliding window. Returns whether the window is full on
    /// a hop boundary, i.e. due to be classified.
    fn push_row(&mut self, accel: [f32; 3], gyro: [f32; 3], fusion_gyro: [f32; 3]) -> bool {
        let euler = self
            .fusion
            .update(accel.map(f64::from), fusion_gyro.map(f64::from));
        let raw = [
            accel[0],
            accel[1],
            accel[2],
            gyro[0],
            gyro[1],
            gyro[2],
            euler.pitch as f32,
            euler.roll as f32,
            euler.yaw as f32,
        ];
        let mut row = [0.0f32; NUM_CHANNELS];
        for (c, (f, &v)) in self.filters.iter_mut().zip(&raw).enumerate() {
            row[c] = f.process(v);
        }
        let w = self.window_len;
        if self.window.len() == w {
            self.window.pop_front();
        }
        self.window.push_back(row);
        self.samples_seen += 1;
        self.window.len() == w && (self.samples_seen - w).is_multiple_of(self.hop)
    }

    fn guard_allows_trigger(&self) -> bool {
        if !self.guard.cfg.enabled {
            return true;
        }
        let m = self.guard.mode;
        if !m.is_degraded() {
            return true;
        }
        !m.accel_degraded && !m.stale && self.accel_confirms()
    }
}

/// The guard's per-stream state inside a [`SessionCheckpoint`]
/// (configuration excluded — the restoring session keeps its own).
#[derive(Debug, Clone, PartialEq)]
struct GuardSnapshot {
    last_good: Option<([f32; 3], [f32; 3])>,
    gap_run: u64,
    pending_flush: bool,
    axis_last: [f32; 6],
    axis_run: [u32; 6],
    bad_run: [u32; 2],
    stuck: [bool; 2],
    anomaly_age: u32,
    mode: DetectorMode,
    status: GuardStatus,
    next_tick: u64,
}

impl GuardSnapshot {
    fn capture(g: &SampleGuard) -> Self {
        Self {
            last_good: g.last_good,
            gap_run: g.gap_run as u64,
            pending_flush: g.pending_flush,
            axis_last: g.axis_last,
            axis_run: g.axis_run,
            bad_run: g.bad_run,
            stuck: g.stuck,
            anomaly_age: g.anomaly_age,
            mode: g.mode,
            status: g.status,
            next_tick: g.next_tick,
        }
    }

    fn restore_into(&self, g: &mut SampleGuard) {
        g.last_good = self.last_good;
        g.gap_run = usize::try_from(self.gap_run).unwrap_or(usize::MAX);
        g.pending_flush = self.pending_flush;
        g.axis_last = self.axis_last;
        g.axis_run = self.axis_run;
        g.bad_run = self.bad_run;
        g.stuck = self.stuck;
        g.anomaly_age = self.anomaly_age;
        g.mode = self.mode;
        g.status = self.status;
        g.next_tick = self.next_tick;
    }
}

/// A complete, self-contained snapshot of one [`Session`]'s streaming
/// state: filter delay lines, fusion attitude, window rows, arming
/// run, and the guard's stream state and counters.
///
/// Serialises to a versioned, checksummed byte format
/// ([`SessionCheckpoint::to_bytes`]); a truncated or corrupted blob is
/// refused on load, never half-restored — that is what makes resuming
/// a reconnecting wearer crash-safe.
#[derive(Debug, Clone, PartialEq)]
pub struct SessionCheckpoint {
    samples_seen: u64,
    positives_in_a_row: u64,
    window: Vec<[f32; NUM_CHANNELS]>,
    filters: Vec<Vec<(f64, f64)>>,
    fusion_angles: EulerAngles,
    fusion_init: bool,
    guard: GuardSnapshot,
}

/// `"PFSC"` — prefall session checkpoint.
const CHECKPOINT_MAGIC: u32 = 0x5046_5343;
const CHECKPOINT_VERSION: u16 = 1;

/// Most window rows a checkpoint or detector bundle may claim: a
/// window longer than ~40 s of samples is not a real configuration.
pub const MAX_WINDOW: usize = 4096;

/// Most channels (filter cascades, network inputs) and filter sections
/// a checkpoint or detector bundle may claim.
pub const MAX_CHANNELS: usize = 64;

impl SessionCheckpoint {
    /// Serialises to the versioned `PFSC` byte format with a trailing
    /// FNV-1a checksum, through [`prefall_telemetry::codec`].
    pub fn to_bytes(&self) -> Vec<u8> {
        let mut w = Writer::with_capacity(128 + self.window.len() * NUM_CHANNELS * 4);
        w.u32(CHECKPOINT_MAGIC);
        w.u16(CHECKPOINT_VERSION);
        w.u16(NUM_CHANNELS as u16);
        w.u64(self.samples_seen);
        w.u64(self.positives_in_a_row);

        w.u32(u32::try_from(self.window.len()).expect("window rows"));
        for row in &self.window {
            for &v in row {
                w.f32(v);
            }
        }

        w.u16(u16::try_from(self.filters.len()).expect("channels"));
        let sections = self.filters.first().map_or(0, Vec::len);
        w.u16(u16::try_from(sections).expect("sections"));
        for states in &self.filters {
            debug_assert_eq!(states.len(), sections, "ragged filter cascade");
            for &(s1, s2) in states {
                w.f64(s1);
                w.f64(s2);
            }
        }

        w.f64(self.fusion_angles.pitch);
        w.f64(self.fusion_angles.roll);
        w.f64(self.fusion_angles.yaw);
        w.bool(self.fusion_init);

        let g = &self.guard;
        w.bool(g.last_good.is_some());
        let (la, lg) = g.last_good.unwrap_or(([0.0; 3], [0.0; 3]));
        for &v in la.iter().chain(lg.iter()) {
            w.f32(v);
        }
        w.u64(g.gap_run);
        w.bool(g.pending_flush);
        for &v in &g.axis_last {
            w.f32(v);
        }
        for &v in g.axis_run.iter().chain(g.bad_run.iter()) {
            w.u32(v);
        }
        for &v in &g.stuck {
            w.bool(v);
        }
        w.u32(g.anomaly_age);
        w.bool(g.mode.accel_degraded);
        w.bool(g.mode.gyro_degraded);
        w.bool(g.mode.stale);
        let s = &g.status;
        for v in [
            s.samples,
            s.nonfinite,
            s.clamped,
            s.gaps_filled,
            s.gap_lost,
            s.stuck_events,
            s.degraded_samples,
            s.degraded_windows,
            s.window_flushes,
            s.suppressed_triggers,
            s.engine_rejects,
            s.windows,
            s.ts_regression,
        ] {
            w.u64(v);
        }
        w.u64(g.next_tick);
        w.finish_checksummed()
    }

    /// Deserialises a checkpoint produced by
    /// [`SessionCheckpoint::to_bytes`].
    ///
    /// # Errors
    ///
    /// Returns [`CoreError::InvalidConfig`] on a bad magic/version,
    /// truncation, trailing garbage, a checksum mismatch, or an
    /// implausible shape — a damaged checkpoint is refused outright.
    pub fn from_bytes(bytes: &[u8]) -> Result<Self, CoreError> {
        let bad = |reason: &str| CoreError::InvalidConfig {
            reason: reason.to_string(),
        };
        let mut r = Reader::checksummed(bytes)?;
        if r.u32()? != CHECKPOINT_MAGIC {
            return Err(bad("not a session checkpoint (bad magic)"));
        }
        if r.u16()? != CHECKPOINT_VERSION {
            return Err(bad("unsupported session checkpoint version"));
        }
        if r.u16()? != NUM_CHANNELS as u16 {
            return Err(bad("session checkpoint channel count mismatch"));
        }
        let samples_seen = r.u64()?;
        let positives_in_a_row = r.u64()?;

        let rows = r.u32()? as usize;
        if rows > MAX_WINDOW {
            return Err(bad("implausible session checkpoint window length"));
        }
        let rows = r.count(rows, NUM_CHANNELS * 4)?;
        let mut window = Vec::with_capacity(rows);
        for _ in 0..rows {
            let mut row = [0.0f32; NUM_CHANNELS];
            for v in &mut row {
                *v = r.f32()?;
            }
            window.push(row);
        }

        let channels = r.u16()? as usize;
        let sections = r.u16()? as usize;
        if channels > MAX_CHANNELS || sections > MAX_CHANNELS {
            return Err(bad("implausible session checkpoint filter shape"));
        }
        let mut filters = Vec::with_capacity(channels);
        for _ in 0..channels {
            let mut states = Vec::with_capacity(sections);
            for _ in 0..sections {
                states.push((r.f64()?, r.f64()?));
            }
            filters.push(states);
        }

        let fusion_angles = EulerAngles::new(r.f64()?, r.f64()?, r.f64()?);
        let fusion_init = r.bool()?;

        let has_last_good = r.bool()?;
        let mut la = [0.0f32; 3];
        let mut lg = [0.0f32; 3];
        for v in la.iter_mut().chain(lg.iter_mut()) {
            *v = r.f32()?;
        }
        let gap_run = r.u64()?;
        let pending_flush = r.bool()?;
        let mut axis_last = [0.0f32; 6];
        for v in &mut axis_last {
            *v = r.f32()?;
        }
        let mut axis_run = [0u32; 6];
        let mut bad_run = [0u32; 2];
        for v in axis_run.iter_mut().chain(bad_run.iter_mut()) {
            *v = r.u32()?;
        }
        let stuck = [r.bool()?, r.bool()?];
        let anomaly_age = r.u32()?;
        let mode = DetectorMode {
            accel_degraded: r.bool()?,
            gyro_degraded: r.bool()?,
            stale: r.bool()?,
        };
        let status = GuardStatus {
            samples: r.u64()?,
            nonfinite: r.u64()?,
            clamped: r.u64()?,
            gaps_filled: r.u64()?,
            gap_lost: r.u64()?,
            stuck_events: r.u64()?,
            degraded_samples: r.u64()?,
            degraded_windows: r.u64()?,
            window_flushes: r.u64()?,
            suppressed_triggers: r.u64()?,
            engine_rejects: r.u64()?,
            windows: r.u64()?,
            ts_regression: r.u64()?,
        };
        let next_tick = r.u64()?;
        r.finish()?;
        Ok(Self {
            samples_seen,
            positives_in_a_row,
            window,
            filters,
            fusion_angles,
            fusion_init,
            guard: GuardSnapshot {
                last_good: has_last_good.then_some((la, lg)),
                gap_run,
                pending_flush,
                axis_last,
                axis_run,
                bad_run,
                stuck,
                anomaly_age,
                mode,
                status,
                next_tick,
            },
        })
    }

    /// Samples folded into the checkpointed window (a quick warmth
    /// check for a resumed wearer).
    pub fn samples_seen(&self) -> u64 {
        self.samples_seen
    }

    /// Rows held in the checkpointed sliding window.
    pub fn window_rows(&self) -> usize {
        self.window.len()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::detector::StreamingDetector;
    use crate::models::ModelKind;
    use crate::pipeline::PipelineConfig;
    use prefall_dsp::segment::Overlap;

    fn config() -> DetectorConfig {
        DetectorConfig {
            pipeline: PipelineConfig::paper(200.0, Overlap::Half),
            threshold: 0.5,
            consecutive: 1,
            guard: GuardConfig::default(),
        }
    }

    fn bundle() -> ModelBundle {
        let cfg = config();
        let w = cfg.pipeline.segmentation.window();
        let net = ModelKind::ProposedCnn.build(w, 9, 5).unwrap();
        ModelBundle::new(net, Normalizer::identity(9), cfg).unwrap()
    }

    /// A lightly varying, physically plausible sample.
    fn wiggle(i: u64) -> ([f32; 3], [f32; 3]) {
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
    fn shared_session_matches_serial_detector_bitwise() {
        let b = bundle();
        let mut session = b.new_session();
        let cfg = config();
        let w = cfg.pipeline.segmentation.window();
        let net = ModelKind::ProposedCnn.build(w, 9, 5).unwrap();
        let mut serial = StreamingDetector::new(net, Normalizer::identity(9), cfg).unwrap();

        for i in 0..300 {
            let (a, g) = wiggle(i);
            let ps = session.push_sample(&b, a, g);
            let pd = serial.push_sample(a, g);
            assert_eq!(ps.map(f32::to_bits), pd.map(f32::to_bits), "sample {i}");
            assert_eq!(session.trigger_decision(), serial.trigger_decision());
        }
    }

    #[test]
    fn push_at_in_order_matches_push_sample() {
        let b = bundle();
        let mut seq = b.new_session();
        let mut plain = b.new_session();
        let mut out = Vec::new();
        for i in 0..120 {
            let (a, g) = wiggle(i);
            out.clear();
            let res = seq.push_at(&b, i, a, g, &mut out);
            let p = plain.push_sample(&b, a, g);
            assert!(!res.regressed);
            assert_eq!(out.len(), usize::from(p.is_some()));
            if let Some(p) = p {
                assert_eq!(out[0].to_bits(), p.to_bits());
            }
        }
        assert_eq!(seq.next_tick(), 120);
    }

    #[test]
    fn duplicate_and_reordered_ticks_are_dropped_and_counted() {
        let b = bundle();
        let mut s = b.new_session();
        let mut out = Vec::new();
        for i in 0..50 {
            let (a, g) = wiggle(i);
            s.push_at(&b, i, a, g, &mut out);
        }
        let windows_before = s.guard_status().windows;
        let samples_before = s.guard_status().samples;
        // Re-deliver an already-consumed range (duplicate batch).
        for i in 30..40 {
            let (a, g) = wiggle(i);
            let res = s.push_at(&b, i, a, g, &mut out);
            assert!(res.regressed);
            assert_eq!(res.windows, 0);
        }
        let st = s.guard_status();
        assert_eq!(st.ts_regression, 10);
        assert_eq!(st.windows, windows_before, "no window from stale ticks");
        assert_eq!(st.samples, samples_before, "stale ticks not ingested");
        assert_eq!(s.next_tick(), 50, "grid unmoved");
        // The stream continues unharmed.
        let (a, g) = wiggle(50);
        let res = s.push_at(&b, 50, a, g, &mut out);
        assert!(!res.regressed);
    }

    #[test]
    fn tick_gaps_bridge_like_push_missing() {
        let b = bundle();
        let mut seq = b.new_session();
        let mut imp = b.new_session();
        let mut out = Vec::new();
        let mut seq_probs = Vec::new();
        let mut imp_probs = Vec::new();
        for i in 0..60 {
            if (25..30).contains(&i) {
                // Sequenced side: simply never delivers these ticks —
                // the jump at tick 30 bridges them.
                if let Some(p) = imp.push_missing(&b) {
                    imp_probs.push(p.to_bits());
                }
                continue;
            }
            let (a, g) = wiggle(i);
            out.clear();
            seq.push_at(&b, i, a, g, &mut out);
            seq_probs.extend(out.iter().map(|p| p.to_bits()));
            if let Some(p) = imp.push_sample(&b, a, g) {
                imp_probs.push(p.to_bits());
            }
        }
        assert_eq!(seq_probs, imp_probs, "gap bridging must be bit-identical");
        assert_eq!(seq.guard_status().gaps_filled, 5);
        assert_eq!(seq.guard_status().gap_lost, 0);
    }

    #[test]
    fn huge_tick_jump_costs_o1_and_goes_stale() {
        let b = bundle();
        let mut s = b.new_session();
        let mut out = Vec::new();
        for i in 0..30 {
            let (a, g) = wiggle(i);
            s.push_at(&b, i, a, g, &mut out);
        }
        // A reconnect after ~10 minutes of silence: bridging all 60k
        // ticks individually would be O(gap); the collapse is O(1).
        let jump = 60_000u64;
        let (a, g) = wiggle(jump);
        let res = s.push_at(&b, jump, a, g, &mut out);
        assert!(!res.regressed);
        assert_eq!(s.next_tick(), jump + 1);
        let st = s.guard_status();
        let max_fill = GuardConfig::default().max_gap_fill as u64;
        assert_eq!(st.gaps_filled, max_fill);
        assert_eq!(st.gap_lost, jump - 30 - max_fill);
        assert_eq!(st.samples, jump + 1, "every tick accounted for");
        assert_eq!(st.window_flushes, 1, "mixed window flushed on arrival");
    }

    #[test]
    fn checkpoint_resume_is_bit_identical() {
        let b = bundle();
        let mut s = b.new_session();
        for i in 0..73 {
            let (a, g) = wiggle(i);
            let _ = s.push_sample(&b, a, g);
        }
        let ck = s.checkpoint();
        let blob = ck.to_bytes();
        let loaded = SessionCheckpoint::from_bytes(&blob).unwrap();
        assert_eq!(ck, loaded, "byte round-trip is lossless");

        let mut resumed = b.new_session();
        resumed.restore(&loaded).unwrap();
        assert_eq!(resumed.samples_seen(), 73);
        for i in 73..200 {
            let (a, g) = wiggle(i);
            let pa = s.push_sample(&b, a, g);
            let pb = resumed.push_sample(&b, a, g);
            assert_eq!(pa.map(f32::to_bits), pb.map(f32::to_bits), "tick {i}");
        }
    }

    #[test]
    fn corrupted_checkpoints_are_refused() {
        let b = bundle();
        let mut s = b.new_session();
        for i in 0..40 {
            let (a, g) = wiggle(i);
            let _ = s.push_sample(&b, a, g);
        }
        let blob = s.checkpoint().to_bytes();
        // Truncation.
        assert!(SessionCheckpoint::from_bytes(&blob[..blob.len() - 3]).is_err());
        // Bit flip in the body.
        let mut flipped = blob.clone();
        flipped[20] ^= 0x40;
        assert!(SessionCheckpoint::from_bytes(&flipped).is_err());
        // Bad magic (checksum recomputed so only the magic is wrong).
        assert!(SessionCheckpoint::from_bytes(&[0u8; 4]).is_err());
        // Empty.
        assert!(SessionCheckpoint::from_bytes(&[]).is_err());
    }

    #[test]
    fn restore_rejects_mismatched_shapes() {
        let big = bundle(); // 200 ms window (20 rows)
        let cfg_small = DetectorConfig {
            pipeline: PipelineConfig::paper(100.0, Overlap::Half),
            ..config()
        };
        let w = cfg_small.pipeline.segmentation.window();
        let net = ModelKind::ProposedCnn.build(w, 9, 5).unwrap();
        let small = ModelBundle::new(net, Normalizer::identity(9), cfg_small).unwrap();

        let mut s = big.new_session();
        for i in 0..40 {
            let (a, g) = wiggle(i);
            let _ = s.push_sample(&big, a, g);
        }
        let ck = s.checkpoint();
        let mut target = small.new_session();
        assert!(target.restore(&ck).is_err(), "20-row window into 10-row");
    }

    #[test]
    fn shedding_freezes_inference_but_keeps_cadence() {
        let b = bundle();
        let mut shed = b.new_session();
        let mut full = b.new_session();
        let mut out = Vec::new();
        let mut shed_windows = 0;
        for i in 0..100 {
            let (a, g) = wiggle(i);
            let res = shed.push_at_shed(&b, i, a, g);
            assert_eq!(res.windows, 0, "shed path never classifies");
            shed_windows += res.shed_windows;
            out.clear();
            full.push_at(&b, i, a, g, &mut out);
        }
        assert_eq!(
            shed_windows,
            full.guard_status().windows as usize,
            "every boundary the full path classified, the shed path counted"
        );
        assert_eq!(shed.guard_status().windows, 0);
        assert!(!shed.trigger_armed(), "no scores, no arming");
        // Guard state still tracks reality: recovery to full service
        // continues seamlessly on the same grid.
        let (a, g) = wiggle(100);
        out.clear();
        let res = shed.push_at(&b, 100, a, g, &mut out);
        assert!(!res.regressed);
        assert_eq!(shed.next_tick(), 101);
    }

    #[test]
    fn reset_retains_buffers_and_restreams() {
        let b = bundle();
        let mut s = b.new_session();
        for i in 0..55 {
            let (a, g) = wiggle(i);
            let _ = s.push_sample(&b, a, g);
        }
        let faults = s.guard_status().faults();
        s.reset();
        assert_eq!(s.next_tick(), 0);
        assert_eq!(s.samples_seen(), 0);
        assert_eq!(s.guard_status().faults(), faults, "counters survive");
        let mut fresh = b.new_session();
        for i in 0..60 {
            let (a, g) = wiggle(i);
            let pa = s.push_sample(&b, a, g);
            let pb = fresh.push_sample(&b, a, g);
            assert_eq!(pa.map(f32::to_bits), pb.map(f32::to_bits));
        }
    }

    #[test]
    fn recurrent_networks_are_refused_for_streaming() {
        let cfg = config();
        let w = cfg.pipeline.segmentation.window();
        for kind in [ModelKind::Lstm, ModelKind::ConvLstm2d] {
            let net = kind.build(w, 9, 5).unwrap();
            let err = ModelBundle::new(net, Normalizer::identity(9), cfg).unwrap_err();
            assert!(
                matches!(err, CoreError::InvalidConfig { .. }),
                "{kind}: {err}"
            );
            let net = kind.build(w, 9, 5).unwrap();
            let err = StreamingDetector::new(net, Normalizer::identity(9), cfg).unwrap_err();
            assert!(
                matches!(err, CoreError::InvalidConfig { .. }),
                "{kind}: {err}"
            );
        }
    }

    #[test]
    fn nonfinite_segments_are_rejected_guarded_and_laundered_raw() {
        // A NaN normaliser mean poisons one channel of every segment
        // after the guard has already cleaned the samples.
        let cfg = config();
        let w = cfg.pipeline.segmentation.window();
        let mut means = vec![0.0f32; 9];
        means[3] = f32::NAN;
        let norm = Normalizer::from_parts(means, vec![1.0; 9]).unwrap();
        let net = ModelKind::ProposedCnn.build(w, 9, 5).unwrap();
        let b = ModelBundle::new(net, norm, cfg).unwrap();

        let mut guarded = b.new_session();
        let mut raw = b.new_session();
        raw.set_guard(GuardConfig::disabled());
        let mut windows = 0;
        for i in 0..100 {
            let (a, g) = wiggle(i);
            if let Some(p) = guarded.push_sample(&b, a, g) {
                assert_eq!(p, 0.0, "a rejected window scores 0");
                windows += 1;
            }
            // The raw path launders the NaN through `max`-based layers
            // into a finite garbage score — which is exactly why the
            // guarded path must check the input, not the output.
            if let Some(p) = raw.push_sample(&b, a, g) {
                assert!(p.is_finite(), "silent laundering");
            }
        }
        assert!(windows > 0);
        assert_eq!(guarded.guard_status().engine_rejects, windows);
        assert_eq!(guarded.guard_status().windows, windows);
    }
}
