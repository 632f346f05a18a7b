//! Benchmark of the TSJ NSLD self-join (see `README.md`).
//!
//! `perfbench --workload <name> --seed <n> --seconds <s> --trace 0` runs
//! the workload's join in a closed loop for `s` seconds and prints the
//! end-to-end metrics; `perfbench-traced ... --trace 1` replays each layer
//! from outside the program and prints the per-layer metrics. Either way
//! the last stdout line is one JSON object, and every join is gated for
//! correctness.

pub mod alloc;
pub mod e2e;
pub mod gate;
pub mod harness;
pub mod output;
pub mod stats;
pub mod sys;
pub mod trace;
pub mod workloads;

use std::process::ExitCode;

use crate::alloc::CountingAlloc;
use crate::workloads::Workload;

/// Parsed command line.
#[derive(Debug, Clone, PartialEq)]
pub struct Args {
    pub workload: Workload,
    pub seed: u64,
    pub seconds: f64,
    pub trace: bool,
}

impl Args {
    pub fn parse(argv: &[String]) -> Result<Args, String> {
        let (mut workload, mut seed, mut seconds, mut trace) = (None, None, None, None);
        let mut it = argv.iter();
        while let Some(flag) = it.next() {
            let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
            match flag.as_str() {
                "--workload" => {
                    let names: Vec<&str> = workloads::WORKLOADS.iter().map(|w| w.name).collect();
                    workload =
                        Some(Workload::by_name(value).ok_or_else(|| {
                            format!("unknown workload {value:?} (one of {names:?})")
                        })?)
                }
                "--seed" => seed = Some(value.parse().map_err(|e| format!("--seed: {e}"))?),
                "--seconds" => {
                    let s: f64 = value.parse().map_err(|e| format!("--seconds: {e}"))?;
                    if !(s.is_finite() && s > 0.0) {
                        return Err(format!("--seconds must be positive, got {value}"));
                    }
                    seconds = Some(s)
                }
                "--trace" => {
                    trace = Some(match value.as_str() {
                        "0" => false,
                        "1" => true,
                        _ => return Err(format!("--trace must be 0 or 1, got {value}")),
                    })
                }
                _ => return Err(format!("unknown flag {flag}")),
            }
        }
        Ok(Args {
            workload: workload.ok_or("--workload is required")?,
            seed: seed.ok_or("--seed is required")?,
            seconds: seconds.ok_or("--seconds is required")?,
            trace: trace.unwrap_or(false),
        })
    }
}

/// Shared `main` of both binaries. `alloc` is the counting allocator when
/// the binary installed one (the traced run requires it).
pub fn main_with(alloc: Option<&'static CountingAlloc>) -> ExitCode {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let outcome = Args::parse(&argv).and_then(|args| match (args.trace, alloc) {
        (false, _) => e2e::run(&args),
        (true, Some(alloc)) => trace::run(&args, alloc),
        (true, None) => Err("--trace 1 needs the perfbench-traced binary".into()),
    });
    match outcome {
        Ok(line) => {
            println!("{line}");
            ExitCode::SUCCESS
        }
        Err(e) => {
            eprintln!("perfbench: {e}");
            ExitCode::FAILURE
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn argv(s: &str) -> Vec<String> {
        s.split_whitespace().map(String::from).collect()
    }

    #[test]
    fn parses_the_command_line() {
        let a = Args::parse(&argv(
            "--workload token_join --seed 7 --seconds 10 --trace 1",
        ))
        .unwrap();
        assert_eq!(a.workload.name, "token_join");
        assert_eq!((a.seed, a.seconds, a.trace), (7, 10.0, true));
    }

    #[test]
    fn rejects_bad_command_lines() {
        for bad in [
            "--workload nope --seed 1 --seconds 1",
            "--workload verify --seconds 1",
            "--workload verify --seed 1 --seconds 0",
            "--workload verify --seed 1 --seconds 1 --trace 2",
            "--workload verify --seed 1 --seconds 1 --bogus 3",
            "--workload",
        ] {
            assert!(Args::parse(&argv(bad)).is_err(), "{bad}");
        }
    }
}
