//! Shuffle-transport benchmarks: the same counting job run over the
//! in-process segment handoff vs the multi-process file exchange vs the
//! remote network shuffle, with and without mapper spill pressure.
//!
//! The point being measured: the exchanges serialize every post-combine
//! record through the `Spill` wire codec into per-partition run files and
//! stream them back in the reduce merge — real wall-clock (encode, I/O,
//! for `remote` a loopback socket round trip per ranged read, decode)
//! and simulated transport time, for byte-identical output. This is the
//! local stand-in for what a worker NIC would charge on a genuine
//! cluster.

use criterion::{black_box, criterion_group, criterion_main, BatchSize, Criterion};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use tsj_mapreduce::{
    Cluster, Count, Emitter, FaultConfig, JobStats, OutputSink, ShuffleConfig, Transport,
};

/// A skewed key stream (Zipf-ish over ~64k distinct keys), the same
/// workload shape as `benches/spill.rs` so the two reports compare.
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

fn bench_transport_job(c: &mut Criterion) {
    let keys = skewed_keys(200_000, 11);
    let in_proc = Cluster::with_machines(64).with_shuffle_config(ShuffleConfig::unbounded());
    let multi = Cluster::with_machines(64)
        .with_shuffle_config(ShuffleConfig::unbounded().with_transport(Transport::MultiProcess));
    let multi_spilling = Cluster::with_machines(64).with_shuffle_config(
        ShuffleConfig::bounded(1024, 2048).with_transport(Transport::MultiProcess),
    );
    let remote = Cluster::with_machines(64)
        .with_shuffle_config(ShuffleConfig::unbounded().with_transport(Transport::Remote));

    let mut g = c.benchmark_group("transport_count_job");
    g.sample_size(10);
    g.bench_function("in-process/200k", |b| {
        b.iter_batched(
            || keys.clone(),
            |keys| count_job(&in_proc, black_box(keys), "bench.transport.inprocess"),
            BatchSize::LargeInput,
        )
    });
    g.bench_function("multi-process/200k", |b| {
        b.iter_batched(
            || keys.clone(),
            |keys| count_job(&multi, black_box(keys), "bench.transport.multiprocess"),
            BatchSize::LargeInput,
        )
    });
    g.bench_function("multi-process+spill2048/200k", |b| {
        b.iter_batched(
            || keys.clone(),
            |keys| count_job(&multi_spilling, black_box(keys), "bench.transport.spilling"),
            BatchSize::LargeInput,
        )
    });
    g.bench_function("remote/200k", |b| {
        b.iter_batched(
            || keys.clone(),
            |keys| count_job(&remote, black_box(keys), "bench.transport.remote"),
            BatchSize::LargeInput,
        )
    });
    g.finish();

    // Sanity + report outside the timed loops: identical output, bytes
    // accounted and charged.
    let sort = |mut v: Vec<(u64, u64)>| {
        v.sort_unstable();
        v
    };
    let (plain_out, plain) = count_job(&in_proc, keys.clone(), "check.inprocess");
    assert_eq!(plain.transport_bytes, 0);
    for (cluster, label) in [
        (&multi, "unbounded"),
        (&multi_spilling, "spill2048"),
        (&remote, "unbounded"),
    ] {
        let (exchanged_out, exchanged) = count_job(cluster, keys.clone(), "check.exchange");
        assert_eq!(sort(plain_out.clone()), sort(exchanged_out));
        assert!(exchanged.transport_bytes > 0);
        assert!(exchanged.transport_secs > 0.0);
        // v2 framing pin: a (u64, u64) record frames as 1 B length +
        // 1 B fingerprint delta + 16 B payload = 18 B/record (the v1
        // fixed frame cost 28). Regressing past 20 means the compact
        // framing broke. The remote exchange ships the identical run
        // bytes, so the same pin covers it.
        let b_per_rec = exchanged.transport_bytes as f64 / exchanged.shuffle_records.max(1) as f64;
        assert!(
            b_per_rec < 20.0,
            "{label}: exchange cost {b_per_rec:.1} B/record exceeds the v2 framing budget"
        );
        println!(
            "{} ({label}): {} KiB exchanged for {} shuffled records \
             ({:.1} B/record), sim {:+.4}s vs in-process{}",
            exchanged.transport,
            exchanged.transport_bytes / 1024,
            exchanged.shuffle_records,
            b_per_rec,
            exchanged.sim_total_secs - plain.sim_total_secs,
            if exchanged.fetch_requests > 0 {
                format!(
                    ", {} fetch rpcs / {} retries",
                    exchanged.fetch_requests, exchanged.fetch_retries
                )
            } else {
                String::new()
            },
        );
    }

    // The fault-injected remote run: every 5th server request dropped
    // and a 200µs stall on the rest. Retries must absorb the faults
    // without changing a byte of output or of exchanged volume.
    let faulted = Cluster::with_machines(64).with_shuffle_config(
        ShuffleConfig::unbounded()
            .with_transport(Transport::Remote)
            .with_net_fault(FaultConfig {
                drop_nth: 5,
                stall_us: 200,
                seed: 3,
            }),
    );
    let (clean_out, clean) = count_job(&remote, keys.clone(), "check.remote.clean");
    let (shaken_out, shaken) = count_job(&faulted, keys.clone(), "check.remote.faulted");
    assert_eq!(sort(clean_out), sort(shaken_out));
    assert_eq!(clean.transport_bytes, shaken.transport_bytes);
    assert!(shaken.fetch_retries > 0);
    println!(
        "remote (drop 1/5 + 200µs stall): {} fetch rpcs, {} retries, \
         output and exchanged volume unchanged",
        shaken.fetch_requests, shaken.fetch_retries,
    );
}

criterion_group! {
    name = benches;
    config = Criterion::default()
        .sample_size(10)
        .measurement_time(std::time::Duration::from_secs(2))
        .warm_up_time(std::time::Duration::from_millis(300));
    targets = bench_transport_job
}
criterion_main!(benches);
