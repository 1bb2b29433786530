//! The online workloads over loopback TCP: `stream` (a steady fleet at
//! a ladder of sizes) and `churn` (wearers that go silent, get parked,
//! and come back).

use crate::inputs::{bundle, fleet_config, SampleSource, BATCH_LEN, BATCH_PERIOD};
use crate::probe::Probe;
use crate::stats::{self, Rung, Summary};
use crate::wire::{self, Done, Kind, Log, Pace, Send};
use prefall_fleet::{Fleet, FleetConfig, FleetServer, FleetStats};
use std::collections::BTreeMap;
use std::sync::Arc;
use std::time::{Duration, Instant};

/// Wearer counts of the stream ladder, lowest first. The lowest rung
/// gives the workload's latency figures; the top rung is past this
/// machine class's capacity.
pub const LADDER: [usize; 4] = [256, 1024, 4096, 16384];

/// Times the lowest rung runs, each on a fresh fleet, and the steady
/// batches per wearer in each. A repeat times 768 batches, so its tail
/// is a p90 (the highest percentile with ten samples beyond it); the
/// workload reports medians over the repeats.
pub const LOWEST_REPEATS: usize = 7;
pub const LOWEST_STEADY: u64 = 3;

/// Batches per wearer that fill the first window before timing starts.
const WARM_BATCHES: u64 = 2;

/// Wearers whose replies are checked against a serial replay on rungs
/// above the lowest (the lowest checks every wearer).
const CHECKED_PER_RUNG: u64 = 32;

/// Churn: wearer population, batches per active stretch, silence after
/// it, and the re-delivery pattern (every `DUP_EVERY`-th batch is sent
/// twice).
pub const CHURN_WEARERS: usize = 320;
const CHURN_ACTIVE: u64 = 5;
const CHURN_SILENCE: Duration = Duration::from_millis(1000);
const DUP_EVERY: u64 = 7;

fn churn_cycle() -> Duration {
    BATCH_PERIOD * CHURN_ACTIVE as u32 + CHURN_SILENCE
}

/// Capacity legs: requests outstanding per connection, bursts per
/// `churn` run and per `stream` ladder leg, and the run seconds set
/// aside for them. A `stream` burst is [`CAPACITY_ROUNDS`] steady
/// batches from each of the lowest rung's wearers; a `churn` burst is
/// one return of each of [`RESUME_WEARERS`] parked wearers, of which
/// every [`RESUME_CHECK_EVERY`]-th is checked. Bursts are short and
/// many, so that they sample the whole run.
const CAPACITY_WINDOW: usize = 64;
pub const CAPACITY_BURSTS: u64 = 40;
pub const BURSTS_PER_LEG: u64 = 4;
const CAPACITY_ROUNDS: u64 = 12;
pub const RESUME_WEARERS: usize = 2048;
const RESUME_CHECK_EVERY: u64 = 8;
const CAPACITY_ALLOWANCE_S: f64 = 6.0;

/// A live fleet behind a loopback ingest server.
pub struct Served {
    pub fleet: Arc<Fleet>,
    server: Option<FleetServer>,
    supervisor: Option<prefall_fleet::Supervisor>,
    /// The threads the server and supervisor started.
    threads: Vec<i32>,
}

impl Served {
    pub fn start(config: FleetConfig, supervise: bool) -> Self {
        let before = wire::thread_ids();
        let fleet = Arc::new(Fleet::new(bundle(), config));
        let supervisor = supervise.then(|| fleet.spawn_supervisor());
        let server = FleetServer::start("127.0.0.1:0", Arc::clone(&fleet)).expect("bind loopback");
        let threads = wire::thread_ids()
            .into_iter()
            .filter(|t| !before.contains(t))
            .collect();
        Served {
            fleet,
            server: Some(server),
            supervisor,
            threads,
        }
    }

    /// On-CPU nanoseconds the server's threads have used so far.
    pub fn cpu_ns(&self) -> u64 {
        self.threads.iter().map(|&t| wire::thread_cpu_ns(t)).sum()
    }

    pub fn addr(&self) -> std::net::SocketAddr {
        self.server.as_ref().expect("running").addr()
    }

    /// Runs one schedule against the server, split over the generator's
    /// connections.
    pub fn exchange(&self, src: &SampleSource, sends: Vec<Send>, pace: Pace) -> Vec<Log> {
        let connections = self.connections();
        wire::run(self.addr(), src, split(sends, connections), pace)
    }

    pub fn connections(&self) -> usize {
        wire::generator_connections(self.fleet.config().conn_workers)
    }

    /// Stops the server and supervisor, waits for their threads, and
    /// returns the final fleet counters.
    pub fn stop(mut self) -> FleetStats {
        if let Some(s) = self.server.take() {
            s.shutdown();
        }
        if let Some(s) = self.supervisor.take() {
            s.shutdown();
        }
        self.fleet.stats()
    }
}

/// What one online leg measured.
#[derive(Debug, Clone)]
pub struct Leg {
    pub wearers: usize,
    pub attempted: u64,
    pub failed: u64,
    /// Wrong outputs: replies with the wrong status, wearer or shedding,
    /// wearers whose replies differ from the serial replay, and fleet
    /// counters that disagree with what was sent.
    pub mismatched: u64,
    pub aborted: bool,
    /// Latencies (ms, due → parsed reply) of steady and returning
    /// batches, and of returning batches alone by return wave.
    pub latency_ms: Vec<f64>,
    pub resume_ms: BTreeMap<u64, Vec<f64>>,
    /// Generator lag (ms) of every send, in send order per thread.
    pub lag_ms: Vec<f64>,
    pub lag_growing: bool,
    /// Returns and re-deliveries that got a reply.
    pub returns: u64,
    pub duplicates_sent: u64,
    /// Send → last reply byte (ms) and reply parse (ms).
    pub wire_ms: Vec<f64>,
    pub parse_ms: Vec<f64>,
    pub stats: FleetStats,
    /// Generator connections (two threads each).
    pub connections: usize,
}

impl Leg {
    /// Every resume latency, and the median over return waves of each
    /// wave's tail (one wave is every wearer returning once).
    pub fn resume(&self) -> (Vec<f64>, f64) {
        let all = self.resume_ms.values().flatten().copied().collect();
        let tails: Vec<f64> = self
            .resume_ms
            .values()
            .map(|w| Summary::of(w).tail)
            .collect();
        (all, stats::median(&tails))
    }

    pub fn rung(&self) -> Rung {
        Rung {
            wearers: self.wearers,
            p99_ms: Summary::at(&self.latency_ms, 9_900),
            failures: self.failed,
            lag_growing: self.lag_growing,
            completed: !self.aborted,
        }
    }
}

/// Splits a schedule over generator connections by wearer, each
/// connection's part in due order (stable, so a re-delivery stays
/// behind its original and equal dues keep the schedule's order).
fn split(sends: Vec<Send>, connections: usize) -> Vec<Vec<Send>> {
    let mut plans = vec![Vec::new(); connections];
    for s in sends {
        plans[(s.wearer % connections as u64) as usize].push(s);
    }
    for p in &mut plans {
        p.sort_by_key(|s| s.due);
    }
    plans
}

/// The steady schedule: `wearers` wearers, phases spread evenly over
/// one batch period, each sending `WARM_BATCHES + steady` batches.
pub fn stream_schedule(wearers: usize, steady: u64) -> Vec<Send> {
    let mut sends = Vec::new();
    for w in 0..wearers as u64 {
        let phase = BATCH_PERIOD.mul_f64(w as f64 / wearers as f64);
        for k in 0..WARM_BATCHES + steady {
            sends.push(Send {
                due: phase + BATCH_PERIOD * k as u32,
                wearer: w,
                seq: k * BATCH_LEN,
                kind: if k < WARM_BATCHES {
                    Kind::Warm
                } else {
                    Kind::Steady
                },
            });
        }
    }
    sends
}

/// The churn schedule: every wearer runs `cycles` stretches of
/// `CHURN_ACTIVE` batches separated by `CHURN_SILENCE`; phases spread
/// over one cycle. Ticks stay contiguous across the silence (the device
/// buffers), so each return must resume the parked state.
pub fn churn_schedule(wearers: usize, cycles: u64) -> Vec<Send> {
    let cycle = churn_cycle();
    // Wearers split into classes that take turns being active, and each
    // class spreads its wearers evenly over one batch period, so sends
    // are evenly spaced at every moment (as in `stream`). Uneven
    // spacing would make latency follow the gaps between sends, since a
    // reply leaves the server when the next request arrives (README).
    let stretch = BATCH_PERIOD * CHURN_ACTIVE as u32;
    let classes = (cycle.as_nanos() / stretch.as_nanos()) as u64;
    let per_class = (wearers as u64).div_ceil(classes);
    let mut sends = Vec::new();
    for w in 0..wearers as u64 {
        let offset = BATCH_PERIOD.mul_f64((w % per_class) as f64 / per_class as f64);
        let phase = stretch * (w / per_class) as u32 + offset;
        for c in 0..cycles {
            for j in 0..CHURN_ACTIVE {
                let k = c * CHURN_ACTIVE + j;
                let kind = match (c, j) {
                    (0, j) if j < WARM_BATCHES => Kind::Warm,
                    (c, 0) if c > 0 => Kind::Return,
                    _ => Kind::Steady,
                };
                let send = Send {
                    due: phase + cycle * c as u32 + BATCH_PERIOD * j as u32,
                    wearer: w,
                    seq: k * BATCH_LEN,
                    kind,
                };
                sends.push(send);
                if k % DUP_EVERY == DUP_EVERY - 1 {
                    sends.push(Send {
                        kind: Kind::Duplicate,
                        ..send
                    });
                }
            }
        }
    }
    sends
}

/// Runs one schedule against a fresh fleet and checks every reply.
/// `check` selects the wearers compared with a serial replay.
fn run_leg(
    src: &SampleSource,
    wearers: usize,
    config: FleetConfig,
    supervise: bool,
    sends: Vec<Send>,
    check: impl Fn(u64) -> bool,
) -> Leg {
    let served = Served::start(config, supervise);
    let connections = served.connections();
    let logs = served.exchange(src, sends, Pace::Open);
    let stats = served.stop();
    summarise(src, wearers, connections, logs, stats, check)
}

fn summarise(
    src: &SampleSource,
    wearers: usize,
    connections: usize,
    logs: Vec<Log>,
    stats: FleetStats,
    check: impl Fn(u64) -> bool,
) -> Leg {
    let mut leg = Leg {
        wearers,
        attempted: 0,
        failed: 0,
        mismatched: 0,
        aborted: logs.iter().any(|l| l.aborted),
        latency_ms: Vec::new(),
        resume_ms: BTreeMap::new(),
        lag_ms: Vec::new(),
        lag_growing: false,
        returns: 0,
        duplicates_sent: 0,
        wire_ms: Vec::new(),
        parse_ms: Vec::new(),
        stats,
        connections,
    };
    let mut probs: BTreeMap<u64, (u64, Vec<u32>, bool)> = BTreeMap::new();
    for log in &logs {
        let lags: Vec<f64> = log.done.iter().map(Done::lag_ms).collect();
        leg.lag_growing |= stats::lag_growing(&lags);
        leg.lag_ms.extend(lags);
        for d in &log.done {
            leg.attempted += 1;
            let ok = d.ok();
            if !ok {
                leg.failed += 1;
                // A reply that arrived but says the wrong thing is a
                // wrong output, not a transport failure.
                leg.mismatched += u64::from(d.reply.is_ok());
            }
            match d.send.kind {
                Kind::Steady | Kind::Return if ok => {
                    leg.latency_ms.push(d.latency_ms());
                    leg.wire_ms
                        .push(stats::ms(d.replied.saturating_sub(d.sent)));
                    leg.parse_ms
                        .push(stats::ms(d.parsed.saturating_sub(d.replied)));
                    if d.send.kind == Kind::Return {
                        let wave = d.send.seq / (CHURN_ACTIVE * BATCH_LEN);
                        leg.resume_ms.entry(wave).or_default().push(d.latency_ms());
                    }
                }
                _ => {}
            }
            if d.reply.is_ok() {
                leg.returns += u64::from(d.send.kind == Kind::Return);
                leg.duplicates_sent += u64::from(d.send.kind == Kind::Duplicate);
            }
            // Replies of one wearer arrive in send order on one connection.
            if d.send.kind != Kind::Duplicate {
                let entry = probs.entry(d.send.wearer).or_insert((0, Vec::new(), true));
                match &d.reply {
                    Ok(r) if ok && d.send.seq == entry.0 => {
                        entry.0 += BATCH_LEN;
                        entry.1.extend_from_slice(&r.probs_bits);
                    }
                    _ => entry.2 = false,
                }
            }
        }
    }
    // Replay checked wearers serially; a wearer with a failed batch is
    // already counted as failed and its stream cannot be compared.
    let mut wrong = 0;
    for (&wearer, (ticks, got, intact)) in &probs {
        if *intact && check(wearer) && src.serial_probs(wearer, *ticks) != *got {
            wrong += 1;
        }
    }
    // Every answered return must have resumed a parked session (else the
    // leg silently became a steady stream), and the fleet must have
    // recognised exactly the answered re-deliveries.
    if leg.stats.resumed < leg.returns || leg.stats.duplicates != leg.duplicates_sent {
        wrong += 1;
    }
    leg.mismatched += wrong;
    leg.failed += wrong;
    leg
}

/// Steady batches per wearer on each rung above the lowest, for a
/// stream run of `seconds` measured seconds: what the lowest rung's
/// repeats leave, split evenly.
pub fn higher_steady(seconds: f64) -> u64 {
    let per_batch = BATCH_PERIOD.as_secs_f64();
    let lowest = LOWEST_REPEATS as f64 * (WARM_BATCHES + LOWEST_STEADY + 1) as f64 * per_batch;
    let rest = seconds - lowest - CAPACITY_ALLOWANCE_S;
    ((rest / (LADDER.len() - 1) as f64 / per_batch) as u64).max(WARM_BATCHES + 1) - WARM_BATCHES
}

/// One rung of the stream ladder.
pub fn stream_rung(src: &SampleSource, wearers: usize, steady: u64, all_checked: bool) -> Leg {
    let top = *LADDER.last().expect("ladder");
    run_leg(
        src,
        wearers,
        fleet_config(top, false),
        false,
        stream_schedule(wearers, steady),
        |w| all_checked || w < CHECKED_PER_RUNG,
    )
}

/// The stream ladder: the lowest rung [`LOWEST_REPEATS`] times, then
/// every higher rung once, with `between` run after every leg.
pub fn stream(src: &SampleSource, seconds: f64, mut between: impl FnMut()) -> (Vec<Leg>, Vec<Leg>) {
    let rest = higher_steady(seconds);
    let mut leg = |wearers, steady, all_checked| {
        let leg = stream_rung(src, wearers, steady, all_checked);
        between();
        leg
    };
    let lowest = (0..LOWEST_REPEATS)
        .map(|_| leg(LADDER[0], LOWEST_STEADY, true))
        .collect();
    let higher = LADDER[1..].iter().map(|&w| leg(w, rest, false)).collect();
    (lowest, higher)
}

/// Churn cycles for `seconds` measured seconds, less the capacity leg.
pub fn churn_cycles(seconds: f64) -> u64 {
    ((seconds - CAPACITY_ALLOWANCE_S) / churn_cycle().as_secs_f64())
        .floor()
        .max(2.0) as u64
}

/// The churn workload: every wearer checked.
pub fn churn(src: &SampleSource, wearers: usize, cycles: u64) -> Leg {
    run_leg(
        src,
        wearers,
        fleet_config(wearers, true),
        true,
        churn_schedule(wearers, cycles),
        |_| true,
    )
}

/// Sends of `rounds` consecutive batches from each of `wearers`
/// wearers, starting at batch `first`, all due at once and in round
/// order, so every wearer has a request in flight early.
pub fn burst_schedule(
    wearers: usize,
    first: u64,
    rounds: u64,
    kind: impl Fn(u64) -> Kind,
) -> Vec<Send> {
    (first..first + rounds)
        .flat_map(|k| {
            let kind = kind(k);
            (0..wearers as u64).map(move |w| Send {
                due: Duration::ZERO,
                wearer: w,
                seq: k * BATCH_LEN,
                kind,
            })
        })
        .collect()
}

/// A capacity leg: one server, kept for the whole run, that takes
/// closed-loop bursts between the workload's other legs. Each burst is
/// rated as answered batches per second of the server threads' CPU
/// time; a `churn` leg parks every session before each burst, so every
/// request restores a checkpoint. The leg's figure pools the bursts:
/// all answered batches over all server CPU seconds, at the reference
/// speed of [`crate::probe`], which runs before each burst.
pub struct CapacityLeg<'a> {
    src: &'a SampleSource,
    served: Served,
    wearers: usize,
    kind: Kind,
    logs: Vec<Log>,
    /// Answered batches of `kind` and server CPU nanoseconds, per burst.
    bursts: Vec<(u64, u64)>,
    /// Churn bursts before which some session was not parked.
    unparked: u64,
    probe: Probe,
}

/// What a capacity leg measured: its rate (answered batches per server
/// CPU second at the reference speed, all bursts pooled), the same
/// before scaling, each burst's unscaled rate, the run's median probe,
/// and the checked replies as a leg.
pub struct Capacity {
    pub rate: f64,
    pub raw_rate: f64,
    pub rates: Vec<f64>,
    pub probe_ms: f64,
    pub leg: Leg,
}

impl<'a> CapacityLeg<'a> {
    /// `stream`: the lowest rung's wearers, each burst
    /// [`CAPACITY_ROUNDS`] steady batches from each.
    pub fn stream(src: &'a SampleSource) -> Self {
        Self::start(src, LADDER[0], Kind::Steady)
    }

    /// `churn`: [`RESUME_WEARERS`] wearers, each burst one return each.
    pub fn churn(src: &'a SampleSource) -> Self {
        Self::start(src, RESUME_WEARERS, Kind::Return)
    }

    fn start(src: &'a SampleSource, wearers: usize, kind: Kind) -> Self {
        let served = Served::start(fleet_config(wearers, false), false);
        let warm = burst_schedule(wearers, 0, WARM_BATCHES, |_| Kind::Warm);
        let logs = served.exchange(src, warm, Pace::Window(CAPACITY_WINDOW));
        CapacityLeg {
            src,
            served,
            wearers,
            kind,
            logs,
            bursts: Vec::new(),
            unparked: 0,
            probe: Probe::new(crate::grid::threads()),
        }
    }

    pub fn burst(&mut self) {
        let b = self.bursts.len() as u64;
        let sends = if self.kind == Kind::Return {
            let parked = self.served.fleet.reap_idle(Duration::ZERO);
            self.unparked += u64::from(parked != self.wearers);
            burst_schedule(self.wearers, WARM_BATCHES + b, 1, |_| Kind::Return)
        } else {
            let first = WARM_BATCHES + b * CAPACITY_ROUNDS;
            burst_schedule(self.wearers, first, CAPACITY_ROUNDS, |_| Kind::Steady)
        };
        self.probe.run();
        let cpu0 = self.served.cpu_ns();
        let logs = self
            .served
            .exchange(self.src, sends, Pace::Window(CAPACITY_WINDOW));
        let cpu = self.served.cpu_ns().saturating_sub(cpu0);
        let answered = logs
            .iter()
            .flat_map(|l| &l.done)
            .filter(|d| d.send.kind == self.kind && d.ok())
            .count() as u64;
        self.bursts.push((answered, cpu));
        self.logs.extend(logs);
    }

    /// Stops the server and checks every reply.
    pub fn finish(self) -> Capacity {
        let connections = self.served.connections();
        let stats = self.served.stop();
        let check = |w: u64| match self.kind {
            Kind::Return => w.is_multiple_of(RESUME_CHECK_EVERY),
            _ => w < CHECKED_PER_RUNG,
        };
        let mut leg = summarise(self.src, self.wearers, connections, self.logs, stats, check);
        // Every session must have been parked before each churn burst.
        leg.mismatched += self.unparked;
        leg.failed += self.unparked;
        let rates: Vec<f64> = self
            .bursts
            .iter()
            .map(|&(n, ns)| n as f64 / (ns as f64 / 1e9))
            .collect();
        let (n, ns) = self
            .bursts
            .iter()
            .fold((0, 0), |(n, ns), &(a, c)| (n + a, ns + c));
        let raw_rate = n as f64 / (ns as f64 / 1e9);
        Capacity {
            rate: raw_rate / self.probe.scale(),
            raw_rate,
            rates,
            probe_ms: stats::median(&self.probe.ms),
            leg,
        }
    }
}

/// Online set-up: the sample source, the model bundle, a bound server
/// and a warm-up exchange. Returns the source and the set-up seconds.
pub fn setup(seed: u64) -> (SampleSource, f64) {
    let t0 = Instant::now();
    let src = SampleSource::from_seed(seed);
    let served = Served::start(fleet_config(LADDER[0], false), false);
    // Closed loop: set-up must not include schedule gaps or wait out
    // delayed ACKs.
    let warm = burst_schedule(4, 0, WARM_BATCHES + 2, |_| Kind::Warm);
    let logs = served.exchange(&src, warm, Pace::Window(CAPACITY_WINDOW));
    served.stop();
    assert!(
        logs.iter().flat_map(|l| &l.done).all(Done::ok),
        "warm-up exchange failed"
    );
    (src, t0.elapsed().as_secs_f64())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn churn_schedule_returns_after_silence_and_repeats_some_batches() {
        let sends = churn_schedule(4, 3);
        let of = |w: u64| sends.iter().filter(move |s| s.wearer == w);
        // Two returns per wearer over three stretches.
        assert_eq!(of(1).filter(|s| s.kind == Kind::Return).count(), 2);
        // Ticks are contiguous across silences.
        let seqs: Vec<u64> = of(1)
            .filter(|s| s.kind != Kind::Duplicate)
            .map(|s| s.seq)
            .collect();
        assert_eq!(seqs, (0..15).map(|k| k * BATCH_LEN).collect::<Vec<_>>());
        // A return comes after a silence longer than the idle timeout.
        let ret = of(1).find(|s| s.kind == Kind::Return).unwrap();
        let before = of(1)
            .filter(|s| s.due < ret.due)
            .map(|s| s.due)
            .max()
            .unwrap();
        assert!(ret.due - before > fleet_config(4, true).idle_timeout * 2);
        // Sends are evenly spaced: one class of wearers is active at a
        // time, spread over a batch period.
        let big = churn_schedule(320, 2);
        let mut dues: Vec<_> = big
            .iter()
            .filter(|s| s.kind != Kind::Duplicate && s.due < BATCH_PERIOD * 5)
            .map(|s| s.due)
            .collect();
        dues.sort();
        assert_eq!(dues.len(), 160 * 5);
        let gaps: Vec<_> = dues.windows(2).map(|d| d[1] - d[0]).collect();
        let (min, max) = (gaps.iter().min().unwrap(), gaps.iter().max().unwrap());
        assert!(*max - *min <= Duration::from_micros(1), "{min:?}..{max:?}");
        // Every re-delivery repeats the batch right before it.
        let dups = sends.iter().filter(|s| s.kind == Kind::Duplicate).count();
        assert_eq!(dups, 4 * 15 / DUP_EVERY as usize);
    }

    fn answered(send: Send, parsed_ms: u64, status: prefall_fleet::IngestStatus) -> Done {
        Done {
            send,
            sent: Duration::ZERO,
            replied: Duration::from_millis(parsed_ms),
            parsed: Duration::from_millis(parsed_ms),
            reply: Ok(prefall_fleet::IngestReply {
                wearer: send.wearer,
                status,
                next_seq: send.seq + BATCH_LEN,
                windows: 1,
                shed_windows: 0,
                shed: false,
                trigger: false,
                regressed: false,
                probs_bits: Vec::new(),
            }),
        }
    }

    #[test]
    fn bursts_are_round_major_and_due_at_once() {
        let sends = burst_schedule(3, 2, 2, |k| if k == 2 { Kind::Warm } else { Kind::Return });
        let got: Vec<(u64, u64, Kind)> = sends
            .iter()
            .map(|s| (s.wearer, s.seq / BATCH_LEN, s.kind))
            .collect();
        assert_eq!(
            got,
            [(0, 2, Kind::Warm), (1, 2, Kind::Warm), (2, 2, Kind::Warm)]
                .into_iter()
                .chain([
                    (0, 3, Kind::Return),
                    (1, 3, Kind::Return),
                    (2, 3, Kind::Return)
                ])
                .collect::<Vec<_>>()
        );
        assert!(sends.iter().all(|s| s.due == Duration::ZERO));
        // Splitting keeps each wearer's batches in order.
        let parts = split(sends, 2);
        assert_eq!(
            parts[1]
                .iter()
                .map(|s| s.seq / BATCH_LEN)
                .collect::<Vec<_>>(),
            [2, 3]
        );
    }

    #[test]
    fn a_reply_with_the_wrong_status_or_wearer_is_not_ok() {
        use prefall_fleet::IngestStatus::{Accepted, Duplicate};
        let send = Send {
            due: Duration::ZERO,
            wearer: 5,
            seq: 40,
            kind: Kind::Duplicate,
        };
        assert!(answered(send, 1, Duplicate).ok());
        assert!(!answered(send, 1, Accepted).ok());
        let steady = Send {
            kind: Kind::Steady,
            ..send
        };
        assert!(answered(steady, 1, Accepted).ok());
        let mut other = answered(steady, 1, Accepted);
        if let Ok(r) = &mut other.reply {
            r.wearer = 6;
        }
        assert!(!other.ok());
        let mut shed = answered(steady, 1, Accepted);
        if let Ok(r) = &mut shed.reply {
            r.shed = true;
        }
        assert!(!shed.ok());
    }

    #[test]
    fn lowest_rung_repeats_time_a_p90_each_and_higher_rungs_fill_the_run() {
        assert_eq!(
            stats::tail_bp(LADDER[0] * LOWEST_STEADY as usize),
            Some(9_000)
        );
        assert_eq!(higher_steady(1.0), 1);
        assert_eq!(higher_steady(20.0), 7);
    }
}
