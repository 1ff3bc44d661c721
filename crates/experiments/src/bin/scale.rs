//! E-scale — the shard-count sweep over the batched, mergeable
//! ingestion pipeline, the sliding-window pkts/s scoreboard, the
//! daemon end-to-end benchmark, and the same-memory fairness
//! shoot-out.
//!
//! ```text
//! cargo run --release -p hhh-experiments --bin scale -- [smoke|quick|paper] [out.json]
//! cargo run --release -p hhh-experiments --bin scale -- sliding [smoke|quick|paper] [out.json]
//! cargo run --release -p hhh-experiments --bin scale -- aggd [smoke|quick|paper] [out.json]
//! cargo run --release -p hhh-experiments --bin scale -- fairness [smoke|quick|paper] [out.json]
//! cargo run --release -p hhh-experiments --bin scale -- loadgen [smoke|quick|paper] [out.json]
//! cargo run --release -p hhh-experiments --bin scale -- mitigate [smoke|quick|paper] [out.json]
//! ```
//!
//! Without a mode the shard sweep runs; without a scale, `quick`. An
//! unknown mode or scale, or a stray argument, prints this usage to
//! stderr and exits with status 2.
//!
//! Prints the throughput/fidelity table; with an output path, also
//! writes the rows as JSON lines (the formats committed as
//! `BENCH_pr1.json`, `BENCH_pr6.json`, `BENCH_pr7.json`,
//! `BENCH_pr8.json`, `BENCH_pr9.json`, and `BENCH_pr10.json`).

use hhh_experiments::aggd_e2e::{aggd_json, aggd_table, run_aggd};
use hhh_experiments::fairness::fairness;
use hhh_experiments::{shard_sweep, sliding_scoreboard, Scale};
use hhh_loadgen::{DriveOptions, LoadScale};

const USAGE: &str = "usage: scale [sliding|aggd|fairness|loadgen|mitigate] \
                     [smoke|quick|paper] [out.json]\n\
                     (no mode runs the shard sweep; the scale defaults to quick)";

/// Which experiment to run.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
enum Mode {
    Sweep,
    Sliding,
    Aggd,
    Fairness,
    Loadgen,
    Mitigate,
}

impl Mode {
    fn parse(s: &str) -> Option<Mode> {
        Some(match s {
            "sliding" => Mode::Sliding,
            "aggd" => Mode::Aggd,
            "fairness" => Mode::Fairness,
            "loadgen" => Mode::Loadgen,
            "mitigate" => Mode::Mitigate,
            _ => return None,
        })
    }

    fn label(self) -> &'static str {
        match self {
            Mode::Sweep => "shard sweep",
            Mode::Sliding => "sliding scoreboard",
            Mode::Aggd => "daemon e2e",
            Mode::Fairness => "fairness shoot-out",
            Mode::Loadgen => "closed-loop scenario suite",
            Mode::Mitigate => "mitigation closed loop",
        }
    }
}

/// `[mode] [scale] [out.json]`: no mode is the shard sweep, no scale is
/// `quick`. Anything else — an unknown mode or scale, an extra
/// argument — is an error, never a silent default.
fn parse_args(args: &[String]) -> Result<(Mode, Scale, Option<String>), String> {
    let (mode, rest) = match args.first() {
        Some(a) => match Mode::parse(a) {
            Some(mode) => (mode, &args[1..]),
            None if Scale::parse(a).is_some() => (Mode::Sweep, args),
            None => return Err(format!("unknown mode or scale `{a}`")),
        },
        None => (Mode::Sweep, args),
    };
    let scale = match rest.first() {
        Some(a) => Scale::parse(a).ok_or_else(|| format!("unknown scale `{a}`"))?,
        None => Scale::Quick,
    };
    if let Some(extra) = rest.get(2) {
        return Err(format!("unexpected argument `{extra}`"));
    }
    Ok((mode, scale, rest.get(1).cloned()))
}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let (mode, scale, out) = parse_args(&args).unwrap_or_else(|e| {
        eprintln!("scale: {e}\n{USAGE}");
        std::process::exit(2);
    });
    eprintln!(
        "{} at scale '{}' on {} hardware thread(s)…",
        mode.label(),
        scale.label(),
        std::thread::available_parallelism().map(|n| n.get()).unwrap_or(1)
    );
    let (table, json) = match mode {
        Mode::Sliding => {
            let results = sliding_scoreboard(scale);
            (results.table(), results.json_lines())
        }
        Mode::Aggd => {
            let rows = vec![run_aggd(scale, 4)];
            (aggd_table(&rows), aggd_json(&rows))
        }
        Mode::Fairness => {
            let results = fairness(scale);
            (results.table(), results.json_lines())
        }
        Mode::Loadgen => {
            let load_scale = match scale {
                Scale::Smoke => LoadScale::Smoke,
                Scale::Quick => LoadScale::Quick,
                Scale::Paper => LoadScale::Paper,
            };
            let results = hhh_loadgen::sweep(
                load_scale,
                hhh_loadgen::SUITE_SEED,
                None,
                &DriveOptions::default(),
                |msg| eprintln!("loadgen: {msg}"),
            )
            .expect("closed-loop sweep");
            (results.table(), results.json_lines())
        }
        Mode::Mitigate => {
            let load_scale = match scale {
                Scale::Smoke => LoadScale::Smoke,
                Scale::Quick => LoadScale::Quick,
                Scale::Paper => LoadScale::Paper,
            };
            let results = hhh_loadgen::mitigate_sweep(
                load_scale,
                hhh_loadgen::SUITE_SEED,
                None,
                &DriveOptions::default(),
                &hhh_mitigate::PolicyConfig::default(),
                |msg| eprintln!("loadgen: {msg}"),
            )
            .expect("mitigation sweep");
            (results.table(), results.json_lines())
        }
        Mode::Sweep => {
            let results = shard_sweep(scale);
            (results.table(), results.json_lines())
        }
    };
    print!("{table}");
    if let Some(path) = out {
        std::fs::write(&path, json).expect("write JSON output");
        eprintln!("wrote {path}");
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn parse(args: &[&str]) -> Result<(Mode, Scale, Option<String>), String> {
        parse_args(&args.iter().map(|a| a.to_string()).collect::<Vec<_>>())
    }

    #[test]
    fn no_mode_is_the_sweep_and_no_scale_is_quick() {
        assert_eq!(parse(&[]), Ok((Mode::Sweep, Scale::Quick, None)));
        assert_eq!(parse(&["smoke"]), Ok((Mode::Sweep, Scale::Smoke, None)));
        assert_eq!(
            parse(&["paper", "o.json"]),
            Ok((Mode::Sweep, Scale::Paper, Some("o.json".into())))
        );
        assert_eq!(parse(&["sliding"]), Ok((Mode::Sliding, Scale::Quick, None)));
        assert_eq!(
            parse(&["mitigate", "smoke", "o.json"]),
            Ok((Mode::Mitigate, Scale::Smoke, Some("o.json".into())))
        );
        for (arg, mode) in
            [("aggd", Mode::Aggd), ("fairness", Mode::Fairness), ("loadgen", Mode::Loadgen)]
        {
            assert_eq!(parse(&[arg, "quick"]), Ok((mode, Scale::Quick, None)));
        }
    }

    #[test]
    fn unknown_modes_scales_and_extra_arguments_are_errors() {
        assert!(parse(&["slidng"]).unwrap_err().contains("slidng"));
        assert!(parse(&["out.json"]).is_err(), "an output path is not a mode");
        assert!(parse(&["sliding", "huge"]).unwrap_err().contains("huge"));
        assert!(parse(&["sliding", "o.json"]).is_err(), "the scale comes before the path");
        assert!(parse(&["smoke", "o.json", "more"]).unwrap_err().contains("more"));
        assert!(parse(&["aggd", "smoke", "o.json", "more"]).is_err());
    }
}
