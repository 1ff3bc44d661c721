//! `stackbench` — the stack benchmark of the hidden-hhh workspace.
//!
//! ```text
//! stackbench --workload <name> [--seed N] [--seconds S] [--trace 0|1]
//! stackbench --workload <name> --steady RUNS [--seed N] [--seconds S]
//! ```
//!
//! One invocation runs one workload in this fresh process: it sets up
//! (synthesis, oracle, daemon, connections, warm-up) several times and
//! keeps the last set-up, measures for `--seconds`, checks every output
//! against its oracle, and prints a run record followed by one JSON
//! result line. `--trace 1` measures half the time untraced and half
//! traced and prints the per-layer metrics instead of the end-to-end
//! ones. `--steady RUNS` reruns the workload in RUNS fresh processes on
//! consecutive seeds and prints each metric's median and quartiles.
//! See `README.md` next to this file.

mod fleet;
mod mitigate;
mod probe;
mod sliding;
mod util;

use std::fmt::Write as _;
use std::time::Instant;

/// How many times a run sets up; `setup_s` is their median.
const SETUP_REPEATS: usize = 3;

/// The workloads, in the order `BENCHMARK.json` lists them.
const WORKLOADS: [&str; 3] = ["sliding-hidden", "fleet-serve", "mitigate-blend"];

/// What one timed phase measured.
#[derive(Default)]
pub struct Phase {
    /// Packets offered to the system.
    pub packets: u64,
    /// Wall time of the phase, seconds.
    pub wall_s: f64,
    /// Report lag samples, milliseconds (failed operations excluded).
    pub lags_ms: Vec<f64>,
    /// Operations attempted.
    pub attempted: u64,
    /// Operations failed.
    pub failed: u64,
    /// Failed correctness checks.
    pub problems: Vec<String>,
}

impl Phase {
    /// Fold another phase into this one.
    pub fn absorb(&mut self, other: Phase) {
        self.packets += other.packets;
        self.wall_s += other.wall_s;
        self.lags_ms.extend(other.lags_ms);
        self.attempted += other.attempted;
        self.failed += other.failed;
        self.problems.extend(other.problems);
    }

    fn pkts_per_s(&self) -> f64 {
        self.packets as f64 / self.wall_s
    }
}

/// A metric: name, value, unit.
pub type Metric = (&'static str, f64, &'static str);

/// Every per-layer metric, in `BENCHMARK.json` order, with its unit. A
/// layer the workload never calls reads 0.
const LAYER_METRICS: [(&str, &str); 26] = [
    ("window.source.ns_per_pkt", "ns"),
    ("window.engine.self_ns_per_pkt", "ns"),
    ("core.observe.ns_per_pkt", "ns"),
    ("core.merge.us_per_call", "us"),
    ("core.merge.calls", "count"),
    ("core.retract.us_per_call", "us"),
    ("core.retract.calls", "count"),
    ("core.report.us_per_call", "us"),
    ("core.encode.us_per_frame", "us"),
    ("core.encode.bytes_per_frame", "bytes"),
    ("window.transport.write_us_per_frame", "us"),
    ("aggd.fold_lag_ms.p50", "ms"),
    ("agg.refold_ms.p50", "ms"),
    ("aggd.query_ms.p50", "ms"),
    ("aggd.query_bytes", "bytes"),
    ("aggd.frames", "count"),
    ("aggd.gaps", "count"),
    ("aggd.fold_errors", "count"),
    ("aggd.http_busy", "count"),
    ("mitigate.gate.ns_per_pkt", "ns"),
    ("mitigate.gate.drop_ratio", "ratio"),
    ("mitigate.policy.us_per_window", "us"),
    ("mitigate.rules.max_active", "count"),
    ("mitigate.rules.churn", "count"),
    ("baseline.sliding_exact.pkts_per_s", "pkts/s"),
    ("trace.overhead_ratio", "ratio"),
];

/// Every per-layer metric at 0.
pub fn zero_layers() -> Vec<Metric> {
    LAYER_METRICS.iter().map(|&(name, unit)| (name, 0.0, unit)).collect()
}

/// Set the per-layer metric `name` in `metrics`.
pub fn set(metrics: &mut [Metric], name: &str, value: f64) {
    let m = metrics.iter_mut().find(|m| m.0 == name).expect("per-layer metric is listed");
    m.1 = value;
}

/// The face every workload shows the runner.
pub trait Workload: Sized {
    /// Synthesize inputs from `seed`, build the oracle, start and
    /// connect whatever the workload drives, and warm it up.
    fn setup(seed: u64) -> Result<Self, String>;

    /// Measure for at least `seconds`; whole units of work only.
    fn run(&mut self, seconds: f64) -> Phase;

    /// Checks that need the whole run (run after the timed phase), plus
    /// run-record fields as `"key": value` JSON fragments.
    fn finish(&mut self, phase: &mut Phase) -> Vec<String>;

    /// Per-layer metrics of the traced phase just run.
    fn layers(&mut self, traced: &Phase) -> Vec<Metric>;

    /// Shards and connections the benchmark holds, for the run record.
    fn budget() -> (usize, usize);
}

struct Args {
    workload: String,
    seed: u64,
    seconds: f64,
    trace: bool,
    steady: Option<usize>,
}

fn parse_args() -> Result<Args, String> {
    let mut args = Args {
        workload: String::new(),
        seed: hhh_loadgen::SUITE_SEED,
        seconds: 10.0,
        trace: false,
        steady: None,
    };
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let mut value = || it.next().ok_or_else(|| format!("{flag} needs a value"));
        match flag.as_str() {
            "--workload" => args.workload = value()?,
            "--seed" => args.seed = value()?.parse().map_err(|e| format!("--seed: {e}"))?,
            "--seconds" => {
                args.seconds = value()?.parse().map_err(|e| format!("--seconds: {e}"))?;
                if !(args.seconds > 0.0 && args.seconds <= 600.0) {
                    return Err("--seconds must be in (0, 600]".into());
                }
            }
            "--trace" => {
                args.trace = match value()?.as_str() {
                    "0" => false,
                    "1" => true,
                    other => return Err(format!("--trace takes 0 or 1, not {other}")),
                }
            }
            "--steady" => {
                let n: usize = value()?.parse().map_err(|e| format!("--steady: {e}"))?;
                if n < 2 {
                    return Err("--steady needs at least 2 runs".into());
                }
                args.steady = Some(n);
            }
            other => return Err(format!("unknown argument {other}")),
        }
    }
    if !WORKLOADS.contains(&args.workload.as_str()) {
        return Err(format!("--workload must be one of {WORKLOADS:?}"));
    }
    Ok(args)
}

fn main() {
    // `setup_s` of the first set-up counts from here.
    let started = Instant::now();
    probe::mark_driver();
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("stackbench: {e}");
            std::process::exit(2);
        }
    };
    let code = match (args.steady, args.workload.as_str()) {
        (Some(runs), _) => steady(&args, runs),
        (None, "sliding-hidden") => run::<sliding::Sliding>(&args, started),
        (None, "fleet-serve") => run::<fleet::Fleet>(&args, started),
        (None, _) => run::<mitigate::Mitigate>(&args, started),
    };
    std::process::exit(code);
}

/// The git revision for the run record. A benchmark checkout need not be
/// a repository; git is asked only when this directory is one, so the run
/// reads nothing outside it. `HHH_GIT_REV` overrides, as in `hhh-loadgen`.
fn git_rev() -> String {
    if std::path::Path::new(".git").exists() {
        hhh_loadgen::git_rev()
    } else {
        std::env::var("HHH_GIT_REV").unwrap_or_else(|_| "unknown".into())
    }
}

/// Seconds of timed work between two host probes.
const PROBE_EVERY_S: f64 = 1.0;

/// Run the workload for `seconds` of timed work, in slices with a host
/// probe between them; the probes are not part of the timed work.
fn measure<W: Workload>(w: &mut W, seconds: f64, probes: &mut Vec<f64>) -> Phase {
    let mut phase = Phase::default();
    while phase.wall_s < seconds {
        phase.absorb(w.run(PROBE_EVERY_S.min(seconds - phase.wall_s)));
        probes.push(util::host_probe_ms());
    }
    phase
}

fn json_metrics(metrics: &[Metric]) -> Result<String, String> {
    let mut out = String::from("{");
    for (i, (name, value, unit)) in metrics.iter().enumerate() {
        if !value.is_finite() {
            return Err(format!("metric {name} is not finite ({value})"));
        }
        if i > 0 {
            out.push_str(", ");
        }
        let _ = write!(out, "\"{name}\": {{\"value\": {value}, \"unit\": \"{unit}\"}}");
    }
    out.push('}');
    Ok(out)
}

fn run<W: Workload>(args: &Args, started: Instant) -> i32 {
    let mut setups = Vec::with_capacity(SETUP_REPEATS);
    let mut workload: Option<W> = None;
    for i in 0..SETUP_REPEATS {
        // Tear the previous set-up down before timing the next one.
        drop(workload.take());
        let t0 = if i == 0 { started } else { Instant::now() };
        match W::setup(args.seed) {
            Ok(w) => workload = Some(w),
            Err(e) => {
                eprintln!("stackbench: {} set-up failed: {e}", args.workload);
                return 1;
            }
        }
        setups.push(t0.elapsed().as_secs_f64());
    }
    let mut w = workload.expect("set up at least once");
    let setup_s = hhh_analysis::median(&setups);

    let mut probes = Vec::new();
    let hwm_ok = util::reset_hwm().is_ok();

    let (mut phase, traced) = if args.trace {
        let mut untraced = measure(&mut w, args.seconds / 2.0, &mut probes);
        probe::reset();
        probe::set_tracing(true);
        let traced = measure(&mut w, args.seconds / 2.0, &mut probes);
        probe::set_tracing(false);
        let overhead = traced.pkts_per_s() / untraced.pkts_per_s();
        let layers_phase = Phase {
            packets: traced.packets,
            wall_s: traced.wall_s,
            attempted: traced.attempted,
            ..Phase::default()
        };
        untraced.absorb(traced);
        (untraced, Some((layers_phase, overhead)))
    } else {
        (measure(&mut w, args.seconds, &mut probes), None)
    };
    let peak_kb = util::hwm_kb();

    let record_fields = w.finish(&mut phase);
    let layers = traced.map(|(traced, overhead)| {
        let mut layers = w.layers(&traced);
        set(&mut layers, "trace.overhead_ratio", overhead);
        let spans = std::path::Path::new(env!("CARGO_MANIFEST_DIR"))
            .join("out")
            .join(format!("spans-{}-{}.tsv", args.workload, args.seed));
        match probe::write_spans(&spans) {
            Ok(n) => eprintln!("stackbench: {n} spans written to {}", spans.display()),
            Err(e) => eprintln!("stackbench: spans not written: {e}"),
        }
        layers
    });
    let lags = &phase.lags_ms;
    let lag =
        |q: f64| if lags.is_empty() { 0.0 } else { hhh_analysis::percentile(lags, q * 100.0) };
    let tail_q = if lags.is_empty() { 0.0 } else { util::tail_quantile(lags.len()) };
    if lags.is_empty() {
        phase.problems.push("no report lag samples".into());
    }
    if !hwm_ok {
        phase.problems.push("could not reset the RSS high-water mark".into());
    }
    if phase.failed > 0 {
        phase.problems.push(format!(
            "{} of {} operations failed; error_ratio must be 0",
            phase.failed, phase.attempted
        ));
    }
    // The program's memory: the timed phase's high-water mark over the
    // RSS of the benchmark's inputs and oracle alone.
    let inputs_kb = util::inputs_rss_kb();

    let (shards, connections) = W::budget();
    let mut record = format!(
        "{{\"record\": \"stackbench\", \"workload\": \"{}\", \"seed\": {}, \"git_rev\": \"{}\", \
         \"nproc\": {}, \"shards\": {shards}, \"connections\": {connections}, \"trace\": {}, \
         \"run_seconds\": {}, \"measured_s\": {}, \"packets\": {}, \"lag_samples\": {}, \
         \"report_lag_ms_p50\": {}, \"report_lag_ms_p90\": {}, \"report_lag_ms_tail\": {}, \
         \"lag_tail_quantile\": {tail_q}, \
         \"rss_inputs_mb\": {}, \"peak_rss_mb\": {}, \"setup_s_each\": {setups:?}, \
         \"host_probe_ms\": {}, \"error_ratio\": {}",
        args.workload,
        args.seed,
        git_rev(),
        std::thread::available_parallelism().map_or(0, usize::from),
        u8::from(args.trace),
        args.seconds,
        phase.wall_s,
        phase.packets,
        lags.len(),
        lag(0.5),
        lag(0.9),
        lag(tail_q),
        inputs_kb as f64 / 1024.0,
        peak_kb.saturating_sub(inputs_kb) as f64 / 1024.0,
        hhh_analysis::median(&probes),
        phase.failed as f64 / phase.attempted.max(1) as f64,
    );
    for field in &record_fields {
        let _ = write!(record, ", {field}");
    }
    record.push('}');
    println!("{record}");

    if !phase.problems.is_empty() {
        for p in phase.problems.iter().take(20) {
            eprintln!("stackbench: check failed: {p}");
        }
        eprintln!("stackbench: {} check(s) failed; no metrics reported", phase.problems.len());
        println!(
            "{{\"correct\": false, \"attempted\": {}, \"failed\": {}, \"metrics\": {{}}}}",
            phase.attempted.max(1),
            phase.failed
        );
        return 1;
    }

    let metrics: Vec<Metric> = if let Some(layers) = layers {
        layers
    } else {
        vec![("pkts_per_s", phase.pkts_per_s(), "pkts/s"), ("setup_s", setup_s, "s")]
    };
    match json_metrics(&metrics) {
        Ok(m) => {
            println!(
                "{{\"correct\": true, \"attempted\": {}, \"failed\": {}, \"metrics\": {m}}}",
                phase.attempted.max(1),
                phase.failed
            );
            0
        }
        Err(e) => {
            eprintln!("stackbench: {e}");
            1
        }
    }
}

/// Python's `statistics.quantiles(values, n=4)` (the default
/// `exclusive` method): the first quartile, the median and the third.
fn quartiles(values: &[f64]) -> [f64; 3] {
    let mut data = values.to_vec();
    data.sort_by(f64::total_cmp);
    let (ld, n) = (data.len() as i64, 4i64);
    let m = ld + 1;
    let mut out = [0.0; 3];
    for (k, slot) in out.iter_mut().enumerate() {
        let i = k as i64 + 1;
        let j = (i * m / n).clamp(1, ld - 1);
        let delta = (i * m - j * n) as f64;
        *slot = (data[j as usize - 1] * (n as f64 - delta) + data[j as usize] * delta) / n as f64;
    }
    out
}

/// Run-record fields `--steady` summarizes beside the metrics: the
/// median report lag, which is recorded but not bounded, and the host
/// probe, which shows the host's drift.
const STEADY_RECORD_FIELDS: [(&str, &str); 2] =
    [("report_lag_ms_p50", "ms"), ("host_probe_ms", "ms")];

/// Rerun the workload in `runs` fresh processes on consecutive seeds
/// and print each metric's median, quartiles and spread (interquartile
/// distance over the median).
fn steady(args: &Args, runs: usize) -> i32 {
    use hhh_core::snapshot::json::Json;
    let exe = match std::env::current_exe() {
        Ok(e) => e,
        Err(e) => {
            eprintln!("stackbench: cannot find own executable: {e}");
            return 1;
        }
    };
    let mut series: Vec<(String, String, Vec<f64>)> = Vec::new();
    for r in 0..runs {
        let seed = args.seed + r as u64;
        let out = std::process::Command::new(&exe)
            .args(["--workload", &args.workload, "--seed", &seed.to_string()])
            .args([
                "--seconds",
                &args.seconds.to_string(),
                "--trace",
                if args.trace { "1" } else { "0" },
            ])
            .stderr(std::process::Stdio::inherit())
            .output();
        let out = match out {
            Ok(o) if o.status.success() => o,
            Ok(o) => {
                eprintln!("stackbench: run {r} (seed {seed}) exited with {}", o.status);
                return 1;
            }
            Err(e) => {
                eprintln!("stackbench: run {r} (seed {seed}) did not start: {e}");
                return 1;
            }
        };
        let stdout = String::from_utf8_lossy(&out.stdout);
        let last = stdout.lines().last().unwrap_or_default();
        let parsed = Json::parse(last).ok();
        let Some(metrics) = parsed.as_ref().and_then(|j| j.get("metrics")).and_then(Json::as_obj)
        else {
            eprintln!("stackbench: run {r} printed no result line");
            return 1;
        };
        let mut push = |name: &str, unit: &str, value: f64| match series
            .iter_mut()
            .find(|(n, _, _)| n == name)
        {
            Some((_, _, v)) => v.push(value),
            None => series.push((name.to_string(), unit.to_string(), vec![value])),
        };
        for (name, m) in metrics {
            let value = m.get("value").and_then(Json::as_f64).unwrap_or(f64::NAN);
            push(name, m.get("unit").and_then(Json::as_str).unwrap_or_default(), value);
        }
        let record = stdout.lines().rev().nth(1).and_then(|l| Json::parse(l).ok());
        for (field, unit) in STEADY_RECORD_FIELDS {
            if let Some(v) = record.as_ref().and_then(|j| j.get(field)).and_then(Json::as_f64) {
                push(field, unit, v);
            }
        }
        eprintln!("stackbench: steady run {}/{runs} (seed {seed}) done", r + 1);
    }
    println!(
        "{:<36} {:>8} {:>14} {:>14} {:>14} {:>8}",
        "metric", "unit", "q1", "median", "q3", "spread"
    );
    for (name, unit, values) in &series {
        let [q1, med, q3] = quartiles(values);
        println!("{name:<36} {unit:>8} {q1:>14.6} {med:>14.6} {q3:>14.6} {:>8.4}", (q3 - q1) / med);
    }
    println!(
        "{{\"steady\": \"{}\", \"runs\": {runs}, \"first_seed\": {}, \"seconds\": {}, \"values\": {{{}}}}}",
        args.workload,
        args.seed,
        args.seconds,
        series
            .iter()
            .map(|(n, _, v)| format!("\"{n}\": {v:?}"))
            .collect::<Vec<_>>()
            .join(", ")
    );
    0
}

#[cfg(test)]
mod tests {
    use super::quartiles;

    #[test]
    fn quartiles_match_python_statistics_exclusive() {
        // statistics.quantiles([1..=10], n=4) == [2.75, 5.5, 8.25]
        let v: Vec<f64> = (1..=10).map(f64::from).collect();
        assert_eq!(quartiles(&v), [2.75, 5.5, 8.25]);
        // statistics.quantiles([3, 1, 2], n=4) == [1.0, 2.0, 3.0]
        assert_eq!(quartiles(&[3.0, 1.0, 2.0]), [1.0, 2.0, 3.0]);
    }
}
