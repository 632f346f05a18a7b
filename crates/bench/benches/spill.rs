//! Memory-bounded shuffle benchmarks: the same counting job run with an
//! unbounded shuffle vs memory-bounded mappers (periodic combine + spill
//! to disk + external sort-merge reduce), at two spill thresholds.
//!
//! The point being measured: bounding mapper memory costs real wall-clock
//! (sorting, serialization, disk I/O) and simulated spill time, but output
//! is identical and per-mapper memory stays capped — the trade a 1 GB-RAM
//! production worker (paper Sec. V) makes on every large job.

use criterion::{black_box, criterion_group, criterion_main, BatchSize, Criterion};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use tsj_mapreduce::{Cluster, Count, Emitter, JobStats, OutputSink, ShuffleConfig};

/// A skewed key stream (Zipf-ish over ~64k distinct keys): hot keys for
/// the combiner to fold, but a key space wide enough that a map task's
/// post-combine buffer still exceeds the spill thresholds — the regime
/// the memory bound exists for.
fn skewed_keys(n: usize, seed: u64) -> Vec<u64> {
    let mut rng = StdRng::seed_from_u64(seed);
    (0..n)
        .map(|_| {
            let r: f64 = rng.gen();
            (65_536.0 * r.powf(3.0)) as u64
        })
        .collect()
}

fn count_job(cluster: &Cluster, keys: Vec<u64>, name: &str) -> (Vec<(u64, u64)>, JobStats) {
    let (output, report) = cluster
        .input_vec(keys)
        .map_reduce_combined(
            name,
            |&k, e: &mut Emitter<u64, u64>| e.emit(k, 1),
            &Count,
            |&k, vs: Vec<u64>, out: &mut OutputSink<(u64, u64)>| {
                out.emit((k, vs.iter().sum()));
            },
        )
        .unwrap()
        .collect()
        .unwrap();
    (output, report.jobs()[0].clone())
}

fn bench_spill_job(c: &mut Criterion) {
    let keys = skewed_keys(200_000, 11);
    let unbounded = Cluster::with_machines(64).with_shuffle_config(ShuffleConfig::unbounded());
    // ~3.1k records per map task: 2048 = a couple of spills per task,
    // 256 = constant spill pressure.
    let bounded =
        Cluster::with_machines(64).with_shuffle_config(ShuffleConfig::bounded(1024, 2048));
    let tiny = Cluster::with_machines(64).with_shuffle_config(ShuffleConfig::bounded(128, 256));

    let mut g = c.benchmark_group("spill_count_job");
    g.sample_size(10);
    g.bench_function("unbounded/200k", |b| {
        b.iter_batched(
            || keys.clone(),
            |keys| count_job(&unbounded, black_box(keys), "bench.spill.unbounded"),
            BatchSize::LargeInput,
        )
    });
    g.bench_function("bounded2048/200k", |b| {
        b.iter_batched(
            || keys.clone(),
            |keys| count_job(&bounded, black_box(keys), "bench.spill.bounded"),
            BatchSize::LargeInput,
        )
    });
    g.bench_function("bounded256/200k", |b| {
        b.iter_batched(
            || keys.clone(),
            |keys| count_job(&tiny, black_box(keys), "bench.spill.tiny"),
            BatchSize::LargeInput,
        )
    });
    g.finish();

    // Sanity + report outside the timed loops: identical output, bounded
    // memory, spilled volume charged.
    let sort = |mut v: Vec<(u64, u64)>| {
        v.sort_unstable();
        v
    };
    let (plain_out, plain) = count_job(&unbounded, keys.clone(), "check.unbounded");
    for (cluster, threshold) in [(&bounded, 2048u64), (&tiny, 256)] {
        let (spilled_out, spilled) = count_job(cluster, keys.clone(), "check.bounded");
        assert_eq!(sort(plain_out.clone()), sort(spilled_out));
        assert!(
            spilled.spilled_records > 0,
            "threshold {threshold} never spilled"
        );
        assert!(spilled.peak_buffered_records <= threshold);
        assert!(spilled.spill_secs > 0.0);
        println!(
            "threshold {threshold}: spilled {} of {} shuffled records ({} KiB), \
             peak mapper buffer {} records, sim {:+.4}s vs unbounded",
            spilled.spilled_records,
            spilled.shuffle_records,
            spilled.spill_bytes / 1024,
            spilled.peak_buffered_records,
            spilled.sim_total_secs - plain.sim_total_secs,
        );
    }
    assert_eq!(plain.spilled_records, 0);
}

criterion_group! {
    name = benches;
    config = Criterion::default()
        .sample_size(10)
        .measurement_time(std::time::Duration::from_secs(2))
        .warm_up_time(std::time::Duration::from_millis(300));
    targets = bench_spill_job
}
criterion_main!(benches);
