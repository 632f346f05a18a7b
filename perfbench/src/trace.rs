//! The traced run: per-layer numbers taken from outside the program.
//!
//! It times the benchmark's own calls into each layer's public functions
//! and reads the `SimReport` the join returns. The replay re-derives the
//! join's candidate pairs and re-runs the filters and the verifier on them;
//! its counts must equal the join's own counters, so it provably times the
//! same work the join did.

use std::fs::File;
use std::hint::black_box;
use std::io::Write;
use std::sync::Arc;
use std::time::Instant;

use tsj::filters::FilterVerdict;
use tsj::{FilterContext, JoinOutput, SimilarMap};
use tsj_assignment::{hungarian, SquareMatrix};
use tsj_mapreduce::{JobStats, SimReport, Transport};
use tsj_netshuffle::{
    FaultConfig, FetchClient, FetchConfig, PublishedTask, Registry, RunKey, RunServer, RunSpec,
};
use tsj_passjoin::MassJoin;
use tsj_strdist::{char_len, levenshtein};
use tsj_tokenize::{Corpus, StringId, TokenId};

use crate::alloc::CountingAlloc;
use crate::harness::{self, Ledger, WorkDir};
use crate::output::{result_json, Metric};
use crate::stats::median;
use crate::workloads::describe;
use crate::Args;

/// Untraced joins after the warm-up, and traced (allocation-counted) joins.
const JOINS_EACH: usize = 2;

/// The pipeline's stages as the report names them, with their metric names.
const STAGES: [(&str, &str); 6] = [
    ("tsj.token_stats", "mapreduce.tsj.token_stats.wall_s"),
    (
        "massjoin.candidates",
        "mapreduce.massjoin.candidates.wall_s",
    ),
    ("massjoin.verify", "mapreduce.massjoin.verify.wall_s"),
    ("tsj.shared_token", "mapreduce.tsj.shared_token.wall_s"),
    ("tsj.expand_similar", "mapreduce.tsj.expand_similar.wall_s"),
    (
        "tsj.dedup_verify.one_string",
        "mapreduce.tsj.dedup_verify.one_string.wall_s",
    ),
];

pub fn run(args: &Args, alloc: &CountingAlloc) -> Result<String, String> {
    let w = &args.workload;
    let work = WorkDir::create()?;
    let setup = harness::setup(w, args.seed, &work);
    println!("workload={} seed={} trace=1", w.name, args.seed);
    println!("settings: {}", describe(&setup.cluster));
    let (corpus, cluster) = (&setup.corpus, &setup.cluster);
    let mut ledger = Ledger::default();
    let mut m: Vec<Metric> = Vec::new();
    let mut push = |name, value, unit| m.push(Metric { name, value, unit });

    // ---- joins: untraced walls, then allocation-counted ones ----------
    let warm = harness::timed_join(w, cluster, corpus);
    ledger.record(&warm.result, &work);
    let mut plain = Vec::new();
    let mut last: Option<(f64, JoinOutput)> = None;
    for _ in 0..JOINS_EACH {
        let j = harness::timed_join(w, cluster, corpus);
        ledger.record(&j.result, &work);
        plain.push(j.wall);
        last = j.result.ok().map(|out| (j.wall, out)).or(last);
    }
    let (mut counted, mut allocs, mut alloc_bytes) = (Vec::new(), 0u64, 0u64);
    for _ in 0..JOINS_EACH {
        let (j, count, bytes) = alloc.measure(|| harness::timed_join(w, cluster, corpus));
        ledger.record(&j.result, &work);
        counted.push(j.wall);
        allocs += count;
        alloc_bytes += bytes;
    }
    let (join_wall, out) = last.ok_or("every untraced join failed")?;
    let plain_s = median(&plain).expect("untraced joins");
    let join_report = &out.report;

    push(
        "tokenize.build_s",
        median(&setup.build_secs).expect("set-up reps"),
        "s",
    );

    // ---- passjoin: a direct MassJoin on the eligible token space ------
    let eligible: Vec<bool> = corpus
        .token_ids()
        .map(|t| corpus.df(t) <= w.max_token_frequency)
        .collect();
    let elig_tokens: Vec<TokenId> = corpus.token_ids().filter(|t| eligible[t.index()]).collect();
    let texts: Vec<&str> = elig_tokens.iter().map(|&t| corpus.token_text(t)).collect();
    let t0 = Instant::now();
    let (token_pairs, mass_report) = MassJoin::new(cluster, w.threshold)
        .nld_self_join(&texts)
        .map_err(|e| format!("direct MassJoin failed: {e}"))?;
    push("passjoin.nld_join_s", t0.elapsed().as_secs_f64(), "s");
    for (job, counter) in [
        ("massjoin.candidates", "candidates_generated"),
        ("massjoin.verify", "candidates_distinct"),
        ("massjoin.verify", "pairs_verified"),
    ] {
        cross_check(
            job,
            counter,
            counter_of(&mass_report, job, counter)?,
            join_report,
        )?;
    }
    let distinct = counter_of(&mass_report, "massjoin.verify", "candidates_distinct")?;
    let useful = counter_of(&mass_report, "massjoin.verify", "pairs_verified")?;
    push(
        "passjoin.candidates",
        counter_of(&mass_report, "massjoin.candidates", "candidates_generated")? as f64,
        "count",
    );
    push("passjoin.useful_ratio", ratio(useful, distinct), "ratio");

    // ---- filters: replay the join's distinct candidates ----------------
    let mut similar = SimilarMap::default();
    let mut adjacent: Vec<Vec<u32>> = vec![Vec::new(); corpus.num_tokens()];
    for p in &token_pairs {
        let (ta, tb) = (elig_tokens[p.a as usize].0, elig_tokens[p.b as usize].0);
        similar.insert((ta.min(tb), ta.max(tb)), p.ld);
        adjacent[ta as usize].push(tb);
        adjacent[tb as usize].push(ta);
    }
    let filter = FilterContext::new(
        corpus,
        w.threshold,
        true,
        true,
        Some(&similar),
        Some(&eligible),
    );
    let replay = replay_filters(corpus, &eligible, &adjacent, &filter);
    let dedup = "tsj.dedup_verify.one_string";
    cross_check(dedup, "candidates_distinct", replay.candidates, join_report)?;
    cross_check(dedup, "pruned_length", replay.pruned_length, join_report)?;
    cross_check(
        dedup,
        "pruned_histogram",
        replay.pruned_histogram,
        join_report,
    )?;
    cross_check(
        dedup,
        "verified",
        replay.survivors.len() as u64,
        join_report,
    )?;
    push(
        "filters.check_ns",
        replay.check_secs * 1e9 / replay.candidates.max(1) as f64,
        "ns",
    );
    push("filters.candidates", replay.candidates as f64, "count");
    push(
        "filters.pruned_length",
        replay.pruned_length as f64,
        "count",
    );
    push(
        "filters.pruned_histogram",
        replay.pruned_histogram as f64,
        "count",
    );
    push(
        "filters.survive_ratio",
        ratio(replay.survivors.len() as u64, replay.candidates),
        "ratio",
    );

    // ---- verify / strdist / assignment over the survivors --------------
    let survivors = &replay.survivors;
    let aligning = w.join_config().scheme.aligning();
    let t0 = Instant::now();
    let accepted: Vec<(u32, u32, u64)> = survivors
        .iter()
        .filter_map(|&(a, b)| {
            tsj::verify_pair(corpus, StringId(a), StringId(b), w.threshold, aligning)
                .map(|d| (a, b, d.to_bits()))
        })
        .collect();
    let verify_secs = t0.elapsed().as_secs_f64();
    let joined: Vec<(u32, u32, u64)> = crate::gate::canonical(&out.pairs)
        .into_iter()
        .filter(|&(a, _, _)| corpus.token_count(StringId(a)) > 0)
        .collect();
    if accepted != joined {
        return Err(format!(
            "replay mismatch: verifier accepted {} pairs, the join reported {}",
            accepted.len(),
            joined.len()
        ));
    }
    push(
        "verify.hungarian_us",
        verify_secs * 1e6 / survivors.len().max(1) as f64,
        "us",
    );
    push(
        "verify.accept_ratio",
        ratio(accepted.len() as u64, survivors.len() as u64),
        "ratio",
    );
    push("strdist.ld_ns", ld_ns(corpus, survivors), "ns");
    push(
        "assignment.hungarian_ns",
        hungarian_ns(corpus, survivors),
        "ns",
    );

    // ---- mapreduce / pool: the untraced join's own report --------------
    for (job, metric) in STAGES {
        push(metric, job_of(join_report, job)?.wall_secs, "s");
    }
    let stage_sum: f64 = join_report.jobs().iter().map(|j| j.wall_secs).sum();
    push(
        "mapreduce.shuffle_records",
        join_report.total_shuffle_records() as f64,
        "count",
    );
    push(
        "mapreduce.spill_bytes",
        join_report.total_spill_bytes() as f64,
        "B",
    );
    push(
        "mapreduce.transport_bytes",
        join_report.total_transport_bytes() as f64,
        "B",
    );
    push(
        "mapreduce.bytes_per_record",
        join_report.transport_bytes_per_record().unwrap_or(0.0),
        "B/record",
    );
    let merge_passes: u64 = join_report.jobs().iter().map(|j| j.merge_passes).sum();
    push("mapreduce.merge_passes", merge_passes as f64, "count");
    push("mapreduce.overlap_ratio", stage_sum / join_wall, "ratio");
    push("pool.steals", join_report.total_steals() as f64, "count");
    // A sum of per-task queue waits across the join, not a latency.
    push(
        "pool.queue_wait_ms_sum",
        join_report.total_queue_wait_us() as f64 / 1e3,
        "ms",
    );

    // ---- netshuffle: the same join over the remote shuffle + direct RPCs
    let remote = w.cluster_over(&work.spill(), Transport::Remote);
    let remote_run = harness::timed_join(w, &remote, corpus);
    ledger.record(&remote_run.result, &work);
    let net_report = remote_run.result.as_ref().ok().map(|o| &o.report);
    let net = |f: fn(&SimReport) -> u64| net_report.map_or(0, f);
    let rpcs = net(SimReport::total_fetch_requests);
    push("netshuffle.remote_join_s", remote_run.wall, "s");
    push("netshuffle.fetch_rpcs", rpcs as f64, "count");
    push(
        "netshuffle.bytes_per_rpc",
        ratio(net(SimReport::total_fetch_bytes), rpcs),
        "B",
    );
    push(
        "netshuffle.retry_ratio",
        ratio(net(SimReport::total_fetch_retries), rpcs),
        "ratio",
    );
    let (dir_us, fetch_us) = rpc_timings(&work)?;
    push("netshuffle.dir_rtt_us", dir_us, "us");
    push("netshuffle.fetch_256k_us", fetch_us, "us");

    // ---- allocation counting and its cost ------------------------------
    push(
        "alloc.count_per_join",
        allocs as f64 / JOINS_EACH as f64,
        "count",
    );
    push(
        "alloc.bytes_per_join",
        alloc_bytes as f64 / JOINS_EACH as f64,
        "B",
    );
    push(
        "trace.overhead_s",
        median(&counted).expect("traced joins") - plain_s,
        "s",
    );

    let (failed, messages) = ledger.judge(w, corpus, &work);
    for msg in &messages {
        println!("gate failure: {msg}");
    }
    for metric in &m {
        println!("{:<46} {:>16.4} {}", metric.name, metric.value, metric.unit);
    }
    result_json(failed == 0, ledger.attempted(), failed, &m)
}

fn ratio(num: u64, den: u64) -> f64 {
    if den == 0 {
        0.0
    } else {
        num as f64 / den as f64
    }
}

fn job_of<'r>(report: &'r SimReport, job: &str) -> Result<&'r JobStats, String> {
    report
        .jobs()
        .iter()
        .find(|j| j.name == job)
        .ok_or_else(|| format!("the join report has no job {job:?}"))
}

fn counter_of(report: &SimReport, job: &str, counter: &str) -> Result<u64, String> {
    Ok(job_of(report, job)?.counter(counter))
}

/// Fails loudly unless the replayed count equals the join's own counter.
fn cross_check(job: &str, counter: &str, replayed: u64, join: &SimReport) -> Result<(), String> {
    let reported = counter_of(join, job, counter)?;
    if replayed != reported {
        return Err(format!(
            "replay mismatch on {job}/{counter}: replayed {replayed}, the join counted {reported}"
        ));
    }
    Ok(())
}

struct FilterReplay {
    candidates: u64,
    pruned_length: u64,
    pruned_histogram: u64,
    /// Candidate pairs `(a, b)`, `a < b`, that survived both filters.
    survivors: Vec<(u32, u32)>,
    /// Time spent inside `FilterContext::check` (summed per string).
    check_secs: f64,
}

/// Re-derives the join's distinct candidate pairs string by string — the
/// partners `b > a` sharing an eligible token with `a`, or holding a token
/// NLD-similar to one of `a`'s — and times the filters on them.
fn replay_filters(
    corpus: &Corpus,
    eligible: &[bool],
    adjacent: &[Vec<u32>],
    filter: &FilterContext<'_>,
) -> FilterReplay {
    let mut r = FilterReplay {
        candidates: 0,
        pruned_length: 0,
        pruned_histogram: 0,
        survivors: Vec::new(),
        check_secs: 0.0,
    };
    let mut partners: Vec<u32> = Vec::new();
    let mut verdicts: Vec<FilterVerdict> = Vec::new();
    for a in corpus.string_ids() {
        partners.clear();
        for &t in corpus.tokens(a) {
            if !eligible[t.index()] {
                continue;
            }
            for u in std::iter::once(t.0).chain(adjacent[t.index()].iter().copied()) {
                partners.extend(
                    corpus
                        .postings(TokenId(u))
                        .iter()
                        .map(|s| s.0)
                        .filter(|&b| b > a.0),
                );
            }
        }
        partners.sort_unstable();
        partners.dedup();
        let t0 = Instant::now();
        verdicts.clear();
        verdicts.extend(partners.iter().map(|&b| filter.check(a, StringId(b))));
        r.check_secs += t0.elapsed().as_secs_f64();
        for (&b, v) in partners.iter().zip(&verdicts) {
            match v {
                FilterVerdict::PrunedByLength => r.pruned_length += 1,
                FilterVerdict::PrunedByHistogram => r.pruned_histogram += 1,
                FilterVerdict::Survives => r.survivors.push((a.0, b)),
            }
        }
        r.candidates += partners.len() as u64;
    }
    r
}

/// Mean `levenshtein` time over every token pair of the survivors'
/// bigraphs (padding cells need no distance and are skipped).
fn ld_ns(corpus: &Corpus, survivors: &[(u32, u32)]) -> f64 {
    let mut cells = 0u64;
    let mut sum = 0usize;
    let t0 = Instant::now();
    for &(a, b) in survivors {
        for &x in corpus.tokens(StringId(a)) {
            for &y in corpus.tokens(StringId(b)) {
                sum += levenshtein(
                    black_box(corpus.token_text(x)),
                    black_box(corpus.token_text(y)),
                );
                cells += 1;
            }
        }
    }
    let secs = t0.elapsed().as_secs_f64();
    black_box(sum);
    secs * 1e9 / cells.max(1) as f64
}

/// Mean `hungarian` time on the survivors' ε-padded token bigraphs. The
/// matrices are built untimed, a chunk at a time to bound memory.
fn hungarian_ns(corpus: &Corpus, survivors: &[(u32, u32)]) -> f64 {
    let mut secs = 0.0;
    let mut cost = 0u64;
    for chunk in survivors.chunks(4096) {
        let matrices: Vec<SquareMatrix> =
            chunk.iter().map(|&(a, b)| bigraph(corpus, a, b)).collect();
        let t0 = Instant::now();
        for m in &matrices {
            cost = cost.wrapping_add(hungarian(black_box(m)).cost);
        }
        secs += t0.elapsed().as_secs_f64();
    }
    black_box(cost);
    secs * 1e9 / survivors.len().max(1) as f64
}

/// The token bigraph SLD is solved on: `k × k` with `k` the larger token
/// count, missing tokens padded by ε (cost = the other token's length).
fn bigraph(corpus: &Corpus, a: u32, b: u32) -> SquareMatrix {
    let (x, y) = (
        corpus.token_texts(StringId(a)),
        corpus.token_texts(StringId(b)),
    );
    SquareMatrix::from_fn(x.len().max(y.len()), |i, j| match (x.get(i), y.get(j)) {
        (Some(p), Some(q)) => levenshtein(p, q) as u64,
        (Some(p), None) => char_len(p) as u64,
        (None, Some(q)) => char_len(q) as u64,
        (None, None) => 0,
    })
}

/// Medians of direct `FetchClient::dir` and 256 KiB `fetch` round trips
/// against a loopback run server serving one registered run.
fn rpc_timings(work: &WorkDir) -> Result<(f64, f64), String> {
    const RUN: u64 = 256 * 1024;
    let io = |e: std::io::Error| format!("rpc timing set-up: {e}");
    let path = work.root().join("rpc.run");
    let payload: Vec<u8> = (0..RUN).map(|i| (i * 131 % 251) as u8).collect();
    File::create(&path)
        .and_then(|mut f| f.write_all(&payload))
        .map_err(io)?;
    let registry = Arc::new(Registry::new());
    registry.publish(
        1,
        0,
        PublishedTask {
            file: Some(Arc::new(File::open(&path).map_err(io)?)),
            parts: vec![vec![RunSpec {
                offset: 0,
                bytes: RUN,
                records: 1,
            }]],
        },
    );
    let mut server =
        RunServer::bind_tcp(Arc::clone(&registry), FaultConfig::default()).map_err(io)?;
    let key = RunKey {
        job: 1,
        partition: 0,
        task: 0,
    };
    let mut client = FetchClient::new(server.addr().clone(), FetchConfig::default());
    let rpc = |e| format!("rpc timing: {e}");
    let mut time = |n: usize, call: &mut dyn FnMut(&mut FetchClient) -> Result<(), String>| {
        let mut us = Vec::with_capacity(n);
        for i in 0..n + 10 {
            let t0 = Instant::now();
            call(&mut client)?;
            if i >= 10 {
                us.push(t0.elapsed().as_secs_f64() * 1e6);
            }
        }
        Ok::<f64, String>(median(&us).expect("samples"))
    };
    let dir_us = time(400, &mut |c| c.dir(key).map(drop).map_err(rpc))?;
    let fetch_us = time(100, &mut |c| match c.fetch(key, 0, RUN).map_err(rpc)? {
        bytes if bytes == payload => Ok(()),
        _ => Err("rpc timing: fetched bytes differ from the run".into()),
    })?;
    drop(client);
    server.shutdown();
    registry.retire_job(1);
    Ok((dir_us, fetch_us))
}
