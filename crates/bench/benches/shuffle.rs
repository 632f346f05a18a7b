//! Shuffle-path benchmarks: the collect-then-partition pass the runtime
//! used to do (reconstructed here) vs emit-time partitioning, and a full
//! counting job with and without a map-side combiner.

use std::collections::HashMap;

use criterion::{black_box, criterion_group, criterion_main, BatchSize, Criterion};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use tsj_mapreduce::{
    fingerprint64, Cluster, ClusterConfig, CostModel, Count, Emitter, FxBuildHasher, OutputSink,
    PartitionedBuffer,
};

const PARTITIONS: usize = 64;

/// A skewed key stream (Zipf-ish over ~2k distinct keys): the shape of
/// `tsj.token_stats` traffic, where a few tokens dominate.
fn skewed_keys(n: usize, seed: u64) -> Vec<u64> {
    let mut rng = StdRng::seed_from_u64(seed);
    (0..n)
        .map(|_| {
            let r: f64 = rng.gen();
            // Cubing biases draws toward low key ids (hot keys).
            (2048.0 * r.powf(3.0)) as u64
        })
        .collect()
}

/// The runtime's pre-refactor shuffle: mappers append to one flat `Vec`,
/// then a single serial pass hashes every record into a partition map.
fn collect_then_partition(keys: &[u64]) -> HashMap<usize, Vec<(u64, u64, u64)>, FxBuildHasher> {
    let flat: Vec<(u64, u64)> = keys.iter().map(|&k| (k, 1u64)).collect();
    let mut partitions: HashMap<usize, Vec<(u64, u64, u64)>, FxBuildHasher> = HashMap::default();
    for (k, v) in flat {
        let h = fingerprint64(&k);
        partitions
            .entry((h % PARTITIONS as u64) as usize)
            .or_default()
            .push((h, k, v));
    }
    partitions
}

/// The refactored shuffle: records are routed at emit time; no serial pass.
fn emit_time_partition(keys: &[u64]) -> PartitionedBuffer<u64, u64> {
    let mut buf: PartitionedBuffer<u64, u64> = PartitionedBuffer::new(PARTITIONS);
    for &k in keys {
        buf.emit(k, 1);
    }
    buf
}

fn bench_partitioning(c: &mut Criterion) {
    let keys = skewed_keys(200_000, 42);
    let mut g = c.benchmark_group("shuffle_partitioning");
    g.sample_size(20);
    g.bench_function("collect_then_partition/200k", |b| {
        b.iter(|| collect_then_partition(black_box(&keys)))
    });
    g.bench_function("emit_time_partition/200k", |b| {
        b.iter(|| emit_time_partition(black_box(&keys)))
    });
    g.finish();
}

fn bench_cluster() -> Cluster {
    Cluster::new(ClusterConfig {
        machines: PARTITIONS,
        threads: 0,
        partitions: 0,
        cost: CostModel::default(),
    })
}

/// End-to-end counting job (the `tsj.token_stats` shape): uncombined, one
/// shuffled record per occurrence; combined, one per distinct key per map
/// task. The assert pins the equivalence the combiner contract promises.
fn bench_counting_job(c: &mut Criterion) {
    let keys = skewed_keys(200_000, 7);
    let cluster = bench_cluster();
    let mut g = c.benchmark_group("count_job");
    g.sample_size(10);
    g.bench_function("uncombined/200k", |b| {
        b.iter_batched(
            || keys.clone(),
            |keys| {
                cluster
                    .input_vec(black_box(keys))
                    .map_reduce(
                        "bench.count.uncombined",
                        |&k, e: &mut Emitter<u64, u64>| e.emit(k, 1),
                        |&k, vs: Vec<u64>, out: &mut OutputSink<(u64, u64)>| {
                            out.emit((k, vs.iter().sum()));
                        },
                    )
                    .unwrap()
                    .collect()
                    .unwrap()
            },
            BatchSize::LargeInput,
        )
    });
    g.bench_function("combined/200k", |b| {
        b.iter_batched(
            || keys.clone(),
            |keys| {
                cluster
                    .input_vec(black_box(keys))
                    .map_reduce_combined(
                        "bench.count.combined",
                        |&k, e: &mut Emitter<u64, u64>| e.emit(k, 1),
                        &Count,
                        |&k, vs: Vec<u64>, out: &mut OutputSink<(u64, u64)>| {
                            out.emit((k, vs.iter().sum()));
                        },
                    )
                    .unwrap()
                    .collect()
                    .unwrap()
            },
            BatchSize::LargeInput,
        )
    });
    g.finish();

    // Sanity outside the timed loops: identical output, smaller shuffle.
    let (plain_out, plain) = cluster
        .input(&keys)
        .map_reduce(
            "check.uncombined",
            |&k, e: &mut Emitter<u64, u64>| e.emit(k, 1),
            |&k, vs: Vec<u64>, out: &mut OutputSink<(u64, u64)>| {
                out.emit((k, vs.iter().sum()));
            },
        )
        .unwrap()
        .collect()
        .unwrap();
    let (combined_out, combined) = cluster
        .input(&keys)
        .map_reduce_combined(
            "check.combined",
            |&k, e: &mut Emitter<u64, u64>| e.emit(k, 1),
            &Count,
            |&k, vs: Vec<u64>, out: &mut OutputSink<(u64, u64)>| {
                out.emit((k, vs.iter().sum()));
            },
        )
        .unwrap()
        .collect()
        .unwrap();
    let (plain, combined) = (&plain.jobs()[0], &combined.jobs()[0]);
    let sort = |mut v: Vec<(u64, u64)>| {
        v.sort_unstable();
        v
    };
    assert_eq!(sort(plain_out), sort(combined_out));
    assert!(
        combined.shuffle_records < plain.shuffle_records,
        "combiner must shrink the shuffle: {} vs {}",
        combined.shuffle_records,
        plain.shuffle_records
    );
    assert!(
        combined.sim_total_secs < plain.sim_total_secs,
        "post-combine shuffle charging must lower the simulated cluster time"
    );
    println!(
        "count_job shuffle volume: uncombined {} records, combined {} records ({:.1}x saving)",
        plain.shuffle_records,
        combined.shuffle_records,
        plain.shuffle_records as f64 / combined.shuffle_records.max(1) as f64,
    );
    println!(
        "count_job simulated cluster time: uncombined {:.3}s, combined {:.3}s \
         (local wall time can go the other way: map-side combining spends CPU \
         to save shuffle volume, and the in-memory shuffle is free)",
        plain.sim_total_secs, combined.sim_total_secs,
    );
}

criterion_group! {
    name = benches;
    config = Criterion::default()
        .sample_size(10)
        .measurement_time(std::time::Duration::from_secs(2))
        .warm_up_time(std::time::Duration::from_millis(300));
    targets = bench_partitioning, bench_counting_job
}
criterion_main!(benches);
