//! The repository's benchmark: one command for the offline grid and the
//! online fleet path.
//!
//! ```text
//! cargo run --release --manifest-path perfbench/Cargo.toml -- \
//!     --workload grid|stream|churn --seed N --seconds S --trace 0|1
//! ```
//!
//! Every run checks the program's outputs. Human-readable lines come
//! first; the last line of standard output is one JSON object with
//! `correct`, `attempted`, `failed` and `metrics` (end-to-end metrics
//! with `--trace 0`, per-layer metrics with `--trace 1`). A wrong
//! output makes the command exit with code 1. See `perfbench/README.md`
//! for what each workload and metric means.

mod grid;
mod inputs;
mod layers;
mod online;
mod probe;
mod stats;
mod wire;

use stats::{median, Summary};
use std::fmt::Write as _;

/// Set-ups per run; the reported `setup_s` is their median.
const SETUPS: usize = 5;

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Workload {
    Grid,
    Stream,
    Churn,
}

#[derive(Debug, Clone, PartialEq)]
struct Args {
    workload: Workload,
    seed: u64,
    seconds: f64,
    trace: bool,
}

fn parse_args(args: &[String]) -> Result<Args, String> {
    let mut workload = None;
    let mut seed = None;
    let mut seconds: f64 = 10.0;
    let mut trace = false;
    let mut it = args.iter();
    while let Some(flag) = it.next() {
        let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        match flag.as_str() {
            "--workload" => {
                workload = Some(match value.as_str() {
                    "grid" => Workload::Grid,
                    "stream" => Workload::Stream,
                    "churn" => Workload::Churn,
                    other => return Err(format!("unknown workload {other:?}")),
                })
            }
            "--seed" => seed = Some(value.parse().map_err(|e| format!("--seed: {e}"))?),
            "--seconds" => {
                seconds = value.parse().map_err(|e| format!("--seconds: {e}"))?;
                if seconds.is_nan() || seconds <= 0.0 {
                    return Err("--seconds must be positive".into());
                }
            }
            "--trace" => {
                trace = match value.as_str() {
                    "0" => false,
                    "1" => true,
                    other => return Err(format!("--trace takes 0 or 1, not {other:?}")),
                }
            }
            other => return Err(format!("unknown flag {other:?}")),
        }
    }
    Ok(Args {
        workload: workload.ok_or("--workload is required")?,
        seed: seed.ok_or("--seed is required")?,
        seconds,
        trace,
    })
}

/// The result a run prints last.
#[derive(Debug, Default)]
pub struct Outcome {
    pub attempted: u64,
    pub failed: u64,
    /// Outputs that differ from their reference.
    pub mismatched: u64,
    pub metrics: Vec<(String, f64, &'static str)>,
}

impl Outcome {
    pub fn metric(&mut self, name: &str, value: f64, unit: &'static str) {
        self.metrics.push((name.to_string(), value, unit));
    }

    fn json(&self) -> String {
        let mut m = String::new();
        for (i, (name, value, unit)) in self.metrics.iter().enumerate() {
            let sep = if i == 0 { "" } else { ", " };
            // Non-finite values are not JSON; they only arise from an
            // empty measurement, which is also a failed run.
            let v = if value.is_finite() { *value } else { -1.0 };
            let _ = write!(
                m,
                "{sep}\"{name}\": {{\"value\": {v:?}, \"unit\": \"{unit}\"}}"
            );
        }
        format!(
            "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{m}}}}}",
            self.correct(),
            self.attempted.max(1),
            self.failed
        )
    }

    fn correct(&self) -> bool {
        self.mismatched == 0 && self.metrics.iter().all(|(_, v, _)| v.is_finite())
    }
}

/// Peak resident set size of this process in MiB (`VmHWM`).
pub fn peak_rss_mb() -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|s| {
            s.lines()
                .find(|l| l.starts_with("VmHWM:"))
                .and_then(|l| l.split_whitespace().nth(1)?.parse::<f64>().ok())
        })
        .map_or(f64::NAN, |kb| kb / 1024.0)
}

/// Prints a named metric on a human-readable line.
pub fn say(name: &str, value: f64, unit: &str, note: &str) {
    println!("{name:<28} {value:>14.4} {unit:<6} {note}");
}

fn grid_workload(args: &Args) -> Outcome {
    let setups: Vec<f64> = (0..SETUPS).map(|_| grid::setup()).collect();
    let run = grid::run(args.seed, args.seconds);
    // The gated figures are CPU time at the reference speed; the wall
    // is printed, not gated (README: host preemption sets it).
    let scale = run.probe.scale();
    let cpu_ms: Vec<f64> = run.cpus_s.iter().map(|s| s * 1e3 * scale).collect();
    let s = Summary::of(&cpu_ms);
    let mut out = Outcome {
        attempted: (run.walls_s.len() * run.cells) as u64,
        mismatched: run.mismatched,
        ..Outcome::default()
    };
    out.failed = run.mismatched * run.cells as u64;
    println!(
        "grid: {} reps of {} cells ({} segments) at {} threads; cells vs {}: {} mismatched; digest {:#018x}",
        run.walls_s.len(),
        run.cells,
        run.segments,
        grid::threads(),
        run.reference,
        run.mismatched,
        run.digest
    );
    let list = |v: &[f64]| {
        v.iter()
            .map(|x| format!("{x:.3}"))
            .collect::<Vec<_>>()
            .join(" ")
    };
    say(
        "grid_s",
        median(&run.walls_s),
        "s",
        &format!("wall, median of {} reps [{}]", s.n, list(&run.walls_s)),
    );
    say(
        "grid_cpu_s",
        median(&run.cpus_s),
        "s",
        &format!("CPU time of all threads [{}]", list(&run.cpus_s)),
    );
    say(
        "probe_ms",
        median(&run.probe.ms),
        "ms",
        &format!("median of {} probes", run.probe.ms.len()),
    );
    say(
        "failed_ratio",
        out.failed as f64 / out.attempted as f64,
        "ratio",
        "",
    );
    say(
        "setup_cold_s",
        setups[0],
        "s",
        "the first set-up of the process, not gated",
    );
    // Cross-validated segments per CPU second of the median rep, so
    // that the seed's dataset size does not move the figure.
    let rate = run.segments as f64 / (s.p50 / 1e3);
    finish_e2e(&mut out, &setups, s.p50, s.tail, rate);
    out
}

fn stream_workload(args: &Args) -> Outcome {
    let setups: Vec<(inputs::SampleSource, f64)> =
        (0..SETUPS).map(|_| online::setup(args.seed)).collect();
    let src = &setups[0].0;
    // Capacity bursts after each ladder leg.
    let mut capacity = online::CapacityLeg::stream(src);
    let (lowest, higher) = online::stream(src, args.seconds, || {
        (0..online::BURSTS_PER_LEG).for_each(|_| capacity.burst())
    });
    let cap = capacity.finish();
    let mut out = Outcome {
        attempted: cap.leg.attempted,
        failed: cap.leg.failed,
        mismatched: cap.leg.mismatched,
        ..Outcome::default()
    };
    for leg in lowest.iter().chain(&higher) {
        out.attempted += leg.attempted;
        out.failed += leg.failed;
        out.mismatched += leg.mismatched;
        let r = leg.rung();
        println!(
            "rung {:>5} wearers: {:>6} sends, p50 {:.3} ms, p99 {:.3} ms, lag p99 {:.3} ms{}{}, failed {} -> {}",
            leg.wearers,
            leg.attempted,
            median(&leg.latency_ms),
            r.p99_ms,
            Summary::at(&leg.lag_ms, 9_900),
            if leg.lag_growing { ", lag growing" } else { "" },
            if leg.aborted { ", cut short" } else { "" },
            leg.failed,
            if r.meets_slo() { "meets SLO" } else { "misses SLO" }
        );
    }
    // The lowest rung's figures are medians over its repeats; its SLO
    // check pools them.
    let per_repeat: Vec<Summary> = lowest.iter().map(|l| Summary::of(&l.latency_ms)).collect();
    let p50 = median(&per_repeat.iter().map(|s| s.p50).collect::<Vec<_>>());
    let tail = median(&per_repeat.iter().map(|s| s.tail).collect::<Vec<_>>());
    let pooled: Vec<f64> = lowest
        .iter()
        .flat_map(|l| l.latency_ms.iter().copied())
        .collect();
    let mut low_rung = lowest[0].rung();
    low_rung.p99_ms = Summary::at(&pooled, 9_900);
    low_rung.failures = lowest.iter().map(|l| l.failed).sum();
    low_rung.lag_growing = lowest.iter().any(|l| l.lag_growing);
    low_rung.completed = lowest.iter().all(|l| !l.aborted);
    let ladder: Vec<stats::Rung> = std::iter::once(low_rung.clone())
        .chain(higher.iter().map(online::Leg::rung))
        .collect();
    let lag: Vec<f64> = lowest
        .iter()
        .flat_map(|l| l.lag_ms.iter().copied())
        .collect();
    let one = &per_repeat[0];
    println!(
        "generator: {} threads, {} connections",
        2 * lowest[0].connections,
        lowest[0].connections
    );
    say(
        "ingest_p50_ms",
        p50,
        "ms",
        &format!(
            "lowest rung, median of {} repeats of n={}",
            lowest.len(),
            one.n
        ),
    );
    say(
        "ingest_p99_ms",
        low_rung.p99_ms,
        "ms",
        &format!(
            "lowest rung, {} repeats pooled, n={}",
            lowest.len(),
            pooled.len()
        ),
    );
    say(
        "ingest_tail_ms",
        tail,
        "ms",
        &format!("p{} per repeat, median of {}", one.tail_pct, lowest.len()),
    );
    say(
        "max_wearers_at_slo",
        stats::max_wearers_at_slo(&ladder) as f64,
        "count",
        "",
    );
    say(
        "gen.lag_p99_ms",
        Summary::at(&lag, 9_900),
        "ms",
        "lowest rung",
    );
    say(
        "failed_ratio",
        out.failed as f64 / out.attempted.max(1) as f64,
        "ratio",
        "",
    );
    let rate = report_capacity(&cap, "steady batches");
    let setup_s: Vec<f64> = setups.iter().map(|(_, s)| *s).collect();
    finish_e2e(&mut out, &setup_s, p50, tail, rate);
    out
}

/// Prints a capacity leg and returns its rate at the reference speed.
fn report_capacity(cap: &online::Capacity, what: &str) -> f64 {
    println!(
        "capacity: {} bursts of {what}, {} sends, {} failed, {} mismatched; per-burst rate p10 {:.0}, p50 {:.0}, p90 {:.0}, pooled {:.0} /s of server CPU; median probe {:.3} ms",
        cap.rates.len(),
        cap.leg.attempted,
        cap.leg.failed,
        cap.leg.mismatched,
        Summary::at(&cap.rates, 1_000),
        median(&cap.rates),
        Summary::at(&cap.rates, 9_000),
        cap.raw_rate,
        cap.probe_ms,
    );
    cap.rate
}

fn churn_workload(args: &Args) -> Outcome {
    let setups: Vec<(inputs::SampleSource, f64)> =
        (0..SETUPS).map(|_| online::setup(args.seed)).collect();
    let src = &setups[0].0;
    // Half the capacity bursts before the churn leg and half after it.
    let mut capacity = online::CapacityLeg::churn(src);
    let half = online::CAPACITY_BURSTS / 2;
    (0..half).for_each(|_| capacity.burst());
    let leg = online::churn(
        src,
        online::CHURN_WEARERS,
        online::churn_cycles(args.seconds),
    );
    (half..online::CAPACITY_BURSTS).for_each(|_| capacity.burst());
    let cap = capacity.finish();
    let mut out = Outcome {
        attempted: leg.attempted + cap.leg.attempted,
        failed: leg.failed + cap.leg.failed,
        mismatched: leg.mismatched + cap.leg.mismatched,
        ..Outcome::default()
    };
    let s = Summary::of(&leg.latency_ms);
    let (resumes, resume_tail) = leg.resume();
    let r = Summary::of(&resumes);
    let wave = Summary::of(&leg.resume_ms.values().next().cloned().unwrap_or_default());
    println!(
        "churn: {} wearers, {} sends, {} returns ({} resumed), {} duplicates sent ({} recognised), {} sessions created, {} mismatched",
        leg.wearers,
        leg.attempted,
        leg.returns,
        leg.stats.resumed,
        leg.duplicates_sent,
        leg.stats.duplicates,
        leg.stats.sessions_created,
        leg.mismatched
    );
    println!(
        "generator: {} threads, {} connections",
        2 * leg.connections,
        leg.connections
    );
    say("ingest_p50_ms", s.p50, "ms", &format!("n={}", s.n));
    say(
        "ingest_p99_ms",
        Summary::at(&leg.latency_ms, 9_900),
        "ms",
        &format!("n={}", s.n),
    );
    say(
        "resume_p99_ms",
        Summary::at(&resumes, 9_900),
        "ms",
        &format!("n={}", r.n),
    );
    say(
        "resume_tail_ms",
        resume_tail,
        "ms",
        &format!(
            "p{} per return wave of n={}, median of {} waves",
            wave.tail_pct,
            wave.n,
            leg.resume_ms.len()
        ),
    );
    say("gen.lag_p99_ms", Summary::at(&leg.lag_ms, 9_900), "ms", "");
    say(
        "failed_ratio",
        out.failed as f64 / out.attempted.max(1) as f64,
        "ratio",
        "",
    );
    let rate = report_capacity(&cap, &format!("{} resumes", online::RESUME_WEARERS));
    let setup_s: Vec<f64> = setups.iter().map(|(_, s)| *s).collect();
    // The churn tail is the resume tail: the batch that pays for restore.
    finish_e2e(&mut out, &setup_s, s.p50, resume_tail, rate);
    out
}

/// The end-to-end metrics every workload reports, after the tail that
/// is printed but not gated (README: tails on a shared VM).
fn finish_e2e(out: &mut Outcome, setups: &[f64], p50_ms: f64, tail_ms: f64, per_s: f64) {
    say("tail_ms", tail_ms, "ms", "not gated");
    let setup = median(setups);
    say(
        "setup_s",
        setup,
        "s",
        &format!("median of {}", setups.len()),
    );
    say("throughput_per_s", per_s, "1/s", "");
    let rss = peak_rss_mb();
    say("peak_rss_mb", rss, "MiB", "VmHWM");
    out.metric("setup_s", setup, "s");
    out.metric("p50_ms", p50_ms, "ms");
    out.metric("throughput_per_s", per_s, "1/s");
    out.metric("peak_rss_mb", rss, "MiB");
}

fn main() {
    // The program's own environment knobs would let the environment,
    // not the benchmark, configure the run.
    for var in ["PREFALL_THREADS", "PREFALL_PREPROC_CACHE", "PREFALL_SEED"] {
        std::env::remove_var(var);
    }
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let args = match parse_args(&argv) {
        Ok(a) => a,
        Err(e) => {
            eprintln!("perfbench: {e}");
            eprintln!(
                "usage: perfbench --workload grid|stream|churn --seed N --seconds S --trace 0|1"
            );
            std::process::exit(2);
        }
    };
    let out = if args.trace {
        layers::traced(args.workload, args.seed)
    } else {
        match args.workload {
            Workload::Grid => grid_workload(&args),
            Workload::Stream => stream_workload(&args),
            Workload::Churn => churn_workload(&args),
        }
    };
    println!("{}", out.json());
    if !out.correct() {
        eprintln!("perfbench: outputs differ from their reference");
        std::process::exit(1);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn argv(s: &str) -> Vec<String> {
        s.split_whitespace().map(str::to_string).collect()
    }

    #[test]
    fn args_parse_and_reject() {
        let a = parse_args(&argv("--workload churn --seed 9 --seconds 4 --trace 1")).unwrap();
        assert_eq!(
            a,
            Args {
                workload: Workload::Churn,
                seed: 9,
                seconds: 4.0,
                trace: true
            }
        );
        assert!(parse_args(&argv("--workload nope --seed 1")).is_err());
        assert!(parse_args(&argv("--workload grid")).is_err());
        assert!(parse_args(&argv("--workload grid --seed 1 --trace 2")).is_err());
        assert!(parse_args(&argv("--workload grid --seed")).is_err());
    }

    #[test]
    fn result_line_has_exactly_the_contract_keys() {
        let mut out = Outcome {
            attempted: 10,
            failed: 1,
            ..Outcome::default()
        };
        out.metric("p50_ms", 1.25, "ms");
        let doc = prefall_telemetry::JsonValue::parse(&out.json()).unwrap();
        assert_eq!(doc.get("correct").and_then(|v| v.as_bool()), Some(true));
        assert_eq!(doc.get("attempted").and_then(|v| v.as_u64()), Some(10));
        let m = doc.get("metrics").and_then(|m| m.get("p50_ms")).unwrap();
        assert_eq!(m.get("value").and_then(|v| v.as_f64()), Some(1.25));
        out.mismatched = 1;
        assert!(!out.correct());
    }
}
