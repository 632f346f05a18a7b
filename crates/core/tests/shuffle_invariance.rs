//! Shuffle-refactor invariants: the verified join output must be
//! byte-identical regardless of real thread count and shuffle partition
//! count, and the combiner-based jobs must match their uncombined
//! formulations exactly.

use proptest::prelude::*;
use tsj::{ApproximationScheme, DedupStrategy, SimilarPair, TsjConfig, TsjJoiner};
use tsj_datagen::workload;
use tsj_mapreduce::{Cluster, ClusterConfig, CostModel, Count, Emitter, OutputSink, PlanCheck};
use tsj_tokenize::{Corpus, NameTokenizer, StringId};

fn cluster_with(threads: usize, partitions: usize, machines: usize) -> Cluster {
    Cluster::new(ClusterConfig {
        machines,
        threads,
        partitions,
        cost: CostModel::default(),
    })
}

fn join_with(
    cluster: &Cluster,
    corpus: &Corpus,
    t: f64,
    scheme: ApproximationScheme,
    dedup: DedupStrategy,
) -> Vec<SimilarPair> {
    TsjJoiner::new(cluster)
        .self_join(
            corpus,
            &TsjConfig {
                threshold: t,
                max_token_frequency: Some(100),
                scheme,
                dedup,
                ..TsjConfig::default()
            },
        )
        .unwrap()
        .pairs
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(8))]

    /// The tentpole's behaviour-preservation guarantee, end to end: the
    /// sorted `SimilarPair` output of a full TSJ self-join is *identical*
    /// (ids and distances, not just the pair set) across real thread
    /// counts and shuffle partition counts.
    #[test]
    fn join_output_invariant_under_threads_and_partitions(
        seed in 0u64..1_000,
        t in 0.05f64..0.25,
    ) {
        let w = workload(120, 0.3, seed);
        let corpus = Corpus::build(&w.strings, &NameTokenizer::default());
        for (scheme, dedup) in [
            (ApproximationScheme::FuzzyTokenMatching, DedupStrategy::OneString),
            (ApproximationScheme::GreedyTokenAligning, DedupStrategy::BothStrings),
        ] {
            let reference =
                join_with(&cluster_with(1, 0, 16), &corpus, t, scheme, dedup);
            for threads in [2usize, 8] {
                let got =
                    join_with(&cluster_with(threads, 0, 16), &corpus, t, scheme, dedup);
                prop_assert_eq!(&got, &reference, "threads = {}", threads);
            }
            for partitions in [1usize, 5, 64] {
                let got =
                    join_with(&cluster_with(4, partitions, 16), &corpus, t, scheme, dedup);
                prop_assert_eq!(&got, &reference, "partitions = {}", partitions);
            }
            // Machine count changes partitioning too (partitions defaults
            // to machines) — output still identical.
            for machines in [1usize, 3, 64] {
                let got =
                    join_with(&cluster_with(4, 0, machines), &corpus, t, scheme, dedup);
                prop_assert_eq!(&got, &reference, "machines = {}", machines);
            }
        }
    }
}

/// `tsj.token_stats` equivalence: the production formulation (emit 1 per
/// distinct token occurrence, `Count` combiner, summing reducer) matches
/// the pre-refactor uncombined formulation (emit `()` per occurrence,
/// reducer counts the group) document-frequency for document-frequency.
#[test]
fn token_stats_combiner_matches_uncombined_reduce() {
    let w = workload(300, 0.3, 41);
    let corpus = Corpus::build(&w.strings, &NameTokenizer::default());
    let string_ids: Vec<u32> = (0..corpus.len() as u32).collect();
    // The uncombined `()` formulation raises the warn-level
    // `uncombined-dedup-foldable` diagnostic on purpose.
    let cluster = cluster_with(4, 0, 16).with_plan_check(PlanCheck::Warn);

    let distinct_tokens = |s: u32| {
        let tokens = corpus.tokens(StringId(s));
        tokens
            .iter()
            .enumerate()
            .filter(move |(i, t)| !tokens[..*i].contains(t))
            .map(|(_, &t)| t)
            .collect::<Vec<_>>()
    };

    // Pre-refactor shape: one shuffled record per token occurrence.
    let (uncombined_output, uncombined) = cluster
        .input(&string_ids)
        .map_reduce(
            "token_stats.uncombined",
            |&s, e: &mut Emitter<u32, ()>| {
                for t in distinct_tokens(s) {
                    e.emit(t.0, ());
                }
            },
            |&tid, hits: Vec<()>, out: &mut OutputSink<(u32, u32)>| {
                out.emit((tid, hits.len() as u32));
            },
        )
        .unwrap()
        .collect()
        .unwrap();

    // Production shape (what `TsjJoiner` runs): partial counts + combiner.
    let (combined_output, combined) = cluster
        .input(&string_ids)
        .map_reduce_combined(
            "token_stats.combined",
            |&s, e: &mut Emitter<u32, u64>| {
                for t in distinct_tokens(s) {
                    e.emit(t.0, 1);
                }
            },
            &Count,
            |&tid, partial_counts: Vec<u64>, out: &mut OutputSink<(u32, u32)>| {
                out.emit((tid, partial_counts.iter().sum::<u64>() as u32));
            },
        )
        .unwrap()
        .collect()
        .unwrap();
    let (uncombined, combined) = (&uncombined.jobs()[0], &combined.jobs()[0]);

    let sort = |mut v: Vec<(u32, u32)>| {
        v.sort_unstable();
        v
    };
    assert_eq!(sort(uncombined_output), sort(combined_output));
    // The whole point: same answer, fewer shuffled records.
    assert_eq!(uncombined.shuffle_records, uncombined.map_output_records);
    assert!(
        combined.shuffle_records < uncombined.shuffle_records,
        "count combiner must shrink token_stats shuffle volume: {} vs {}",
        combined.shuffle_records,
        uncombined.shuffle_records
    );
}

/// The pipeline report must show the combiner actually engaging on the
/// combiner-enabled TSJ jobs (shuffled < emitted).
#[test]
fn sim_report_shows_reduced_shuffle_volume() {
    let w = workload(400, 0.35, 17);
    let corpus = Corpus::build(&w.strings, &NameTokenizer::default());
    let cluster = cluster_with(4, 0, 16);
    let out = TsjJoiner::new(&cluster)
        .self_join(
            &corpus,
            &TsjConfig {
                threshold: 0.15,
                max_token_frequency: Some(100),
                ..TsjConfig::default()
            },
        )
        .unwrap();
    let jobs = out.report.jobs();
    assert!(!jobs.is_empty());
    for j in jobs {
        assert!(
            j.shuffle_records <= j.map_output_records,
            "{}: shuffled {} > emitted {}",
            j.name,
            j.shuffle_records,
            j.map_output_records
        );
    }
    let stats = |name: &str| {
        jobs.iter()
            .find(|j| j.name == name)
            .unwrap_or_else(|| panic!("job {name} missing from report"))
    };
    // token_stats emits one record per (string, distinct token); with ~400
    // names over a shared token vocabulary the Count combiner must fold
    // some of them inside at least one map task.
    let ts = stats("tsj.token_stats");
    assert!(
        ts.shuffle_records < ts.map_output_records,
        "token_stats combiner never engaged: {} emitted, {} shuffled",
        ts.map_output_records,
        ts.shuffle_records
    );
    // The report totals aggregate the saving.
    assert!(out.report.total_shuffle_records() < out.report.total_map_output_records());
}
