//! The end-to-end run: a closed loop of `self_join`s, one at a time.

use std::time::{Duration, Instant};

use crate::harness::{self, Ledger, WorkDir};
use crate::output::{result_json, Metric};
use crate::stats::{highest_supported_percentile, iqr_share, median, quartiles};
use crate::sys::peak_rss_mb;
use crate::workloads::describe;
use crate::Args;

/// Warm joins measured even when `--seconds` runs out sooner.
const MIN_WARM_JOINS: usize = 3;

/// Runs the workload and returns the result line.
pub fn run(args: &Args) -> Result<String, String> {
    let w = &args.workload;
    let work = WorkDir::create()?;
    let setup = harness::setup(w, args.seed, &work);
    println!(
        "workload={} seed={} n={} T={} M={}",
        w.name, args.seed, w.n, w.threshold, w.max_token_frequency
    );
    println!("settings: {}", describe(&setup.cluster));

    let mut ledger = Ledger::default();
    // The first join warms caches and lazy state; it is reported, not gated
    // by any bound.
    let first = harness::timed_join(w, &setup.cluster, &setup.corpus);
    ledger.record(&first.result, &work);
    drop(first.result); // peak RSS should hold one join's output at a time

    let deadline = Instant::now() + Duration::from_secs_f64(args.seconds);
    let (mut walls, mut cpus) = (Vec::new(), Vec::new());
    while walls.len() < MIN_WARM_JOINS || Instant::now() < deadline {
        let j = harness::timed_join(w, &setup.cluster, &setup.corpus);
        ledger.record(&j.result, &work);
        walls.push(j.wall);
        cpus.push(j.cpu);
    }
    let peak_rss = peak_rss_mb().map_err(|e| format!("peak RSS: {e}"))?;

    let (failed, messages) = ledger.judge(w, &setup.corpus, &work);
    for m in &messages {
        println!("gate failure: {m}");
    }
    let attempted = ledger.attempted();
    let join_s = median(&walls).expect("at least one warm join");
    println!(
        "join_s samples={} first(warm-up)={:.4} median={join_s:.4} {}",
        walls.len(),
        first.wall,
        highest_supported_percentile(&walls).map_or(
            "no percentile has 10 samples beyond it".to_string(),
            |(p, v)| format!("p{p}={v:.4}")
        ),
    );
    for (name, xs) in [("join_s", &walls), ("join_cpu_s", &cpus)] {
        let [q1, _, q3] = quartiles(xs).expect("MIN_WARM_JOINS >= 2");
        let samples: Vec<String> = xs.iter().map(|x| format!("{x:.3}")).collect();
        println!(
            "{name}: q1={q1:.4} q3={q3:.4} iqr/median={:.4} samples: {}",
            iqr_share(xs).unwrap_or(f64::NAN),
            samples.join(" ")
        );
    }
    println!(
        "join_fail_ratio={} ({failed}/{attempted})",
        failed as f64 / attempted as f64
    );

    let metrics = [
        Metric {
            name: "join_s",
            value: join_s,
            unit: "s",
        },
        Metric {
            name: "join_cpu_s",
            value: median(&cpus).expect("warm joins"),
            unit: "s",
        },
        Metric {
            name: "setup_s",
            value: median(&setup.setup_secs).expect("set-up reps"),
            unit: "s",
        },
        Metric {
            name: "peak_rss_mb",
            value: peak_rss,
            unit: "MB",
        },
    ];
    result_json(failed == 0, attempted, failed, &metrics)
}
