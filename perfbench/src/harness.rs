//! What both runs share: the work directory, set-up, timing one join, and
//! gating every join's output against the workload's reference run.

use std::path::{Path, PathBuf};
use std::time::Instant;

use tsj::{JoinOutput, TsjJoiner};
use tsj_mapreduce::Cluster;
use tsj_tokenize::{Corpus, NameTokenizer};

use crate::gate::{self, Canonical};
use crate::sys::process_cpu_secs;
use crate::workloads::{Workload, RING_FRACTION};

/// Set-up repetitions per run; the metric is their median.
pub const SETUP_REPS: usize = 9;

/// A per-process scratch directory under the current directory, holding
/// the clusters' spill and exchange files. Removed on drop.
pub struct WorkDir {
    root: PathBuf,
}

impl WorkDir {
    pub fn create() -> Result<WorkDir, String> {
        let root = Path::new(".perfbench_work").join(std::process::id().to_string());
        std::fs::create_dir_all(root.join("spill"))
            .map_err(|e| format!("cannot create {}: {e}", root.display()))?;
        Ok(WorkDir { root })
    }

    pub fn root(&self) -> &Path {
        &self.root
    }

    /// Where every cluster of this run spills and exchanges.
    pub fn spill(&self) -> PathBuf {
        self.root.join("spill")
    }

    /// Entries the runtime left behind in the spill directory.
    pub fn leftovers(&self) -> usize {
        std::fs::read_dir(self.spill()).map_or(usize::MAX, |d| d.count())
    }
}

impl Drop for WorkDir {
    fn drop(&mut self) {
        if let Err(e) = std::fs::remove_dir_all(&self.root) {
            eprintln!("perfbench: cannot remove {}: {e}", self.root.display());
        }
        // Drop the shared parent too once no concurrent run uses it.
        if let Some(parent) = self.root.parent() {
            let _ = std::fs::remove_dir(parent);
        }
    }
}

/// The corpus and pinned cluster of one run, with set-up timings.
pub struct Setup {
    pub corpus: Corpus,
    pub cluster: Cluster,
    /// `Corpus::build` + cluster construction, one sample per repetition.
    pub setup_secs: Vec<f64>,
    /// `Corpus::build` alone, one sample per repetition.
    pub build_secs: Vec<f64>,
}

/// Generates the workload's strings from `seed` (the load generator, not
/// timed) and sets up [`SETUP_REPS`] times.
pub fn setup(w: &Workload, seed: u64, work: &WorkDir) -> Setup {
    let strings = tsj_datagen::workload(w.n, RING_FRACTION, seed).strings;
    let (mut setup_secs, mut build_secs) = (Vec::new(), Vec::new());
    let mut last = None;
    for _ in 0..SETUP_REPS {
        drop(last.take()); // free the previous corpus before building the next
        let t0 = Instant::now();
        let corpus = Corpus::build(&strings, &NameTokenizer::default());
        build_secs.push(t0.elapsed().as_secs_f64());
        let cluster = w.cluster(&work.spill());
        setup_secs.push(t0.elapsed().as_secs_f64());
        last = Some((corpus, cluster));
    }
    let (corpus, cluster) = last.expect("SETUP_REPS > 0");
    Setup {
        corpus,
        cluster,
        setup_secs,
        build_secs,
    }
}

/// One timed `self_join`.
pub struct Timed {
    pub wall: f64,
    pub cpu: f64,
    pub result: Result<JoinOutput, String>,
}

pub fn timed_join(w: &Workload, cluster: &Cluster, corpus: &Corpus) -> Timed {
    let cfg = w.join_config();
    let (t0, c0) = (Instant::now(), process_cpu_secs());
    let result = TsjJoiner::new(cluster).self_join(corpus, &cfg);
    let (wall, cpu) = (t0.elapsed().as_secs_f64(), process_cpu_secs() - c0);
    Timed {
        wall,
        cpu,
        result: result.map_err(|e| e.to_string()),
    }
}

/// Outcomes of every join of a run, kept compactly: each distinct output
/// once, and per join either its output's index or why it failed.
#[derive(Default)]
pub struct Ledger {
    distinct: Vec<Canonical>,
    joins: Vec<Result<usize, String>>,
}

impl Ledger {
    /// Records a finished join (outside any timed region). A join that
    /// left files in the spill directory fails even if its output is fine.
    pub fn record(&mut self, result: &Result<JoinOutput, String>, work: &WorkDir) {
        let leftovers = work.leftovers();
        let entry = match result {
            Err(e) => Err(e.clone()),
            Ok(_) if leftovers > 0 => Err(format!("{leftovers} entries left in the spill dir")),
            Ok(out) => {
                let c = gate::canonical(&out.pairs);
                Ok(match self.distinct.iter().position(|d| *d == c) {
                    Some(i) => i,
                    None => {
                        self.distinct.push(c);
                        self.distinct.len() - 1
                    }
                })
            }
        };
        self.joins.push(entry);
    }

    pub fn attempted(&self) -> u64 {
        self.joins.len() as u64
    }

    /// Runs the reference join and gates every recorded output against
    /// it. Returns the failed-join count and one message per failure kind.
    pub fn judge(&self, w: &Workload, corpus: &Corpus, work: &WorkDir) -> (u64, Vec<String>) {
        let reference = reference_pairs(w, corpus, work);
        let verdicts: Vec<Result<(), String>> = self
            .distinct
            .iter()
            .map(|out| match &reference {
                Ok(r) => gate::check(out, r, corpus, w.threshold).map_err(|e| e.to_string()),
                Err(e) => Err(e.clone()),
            })
            .collect();
        let mut failed = 0;
        let mut messages: Vec<String> = Vec::new();
        for join in &self.joins {
            let verdict = match join {
                Ok(i) => verdicts[*i].clone(),
                Err(e) => Err(e.clone()),
            };
            if let Err(e) = verdict {
                failed += 1;
                if !messages.contains(&e) {
                    messages.push(e);
                }
            }
        }
        (failed, messages)
    }
}

/// The completeness oracle: the same join on the in-process, unbounded,
/// stage-at-a-time, FIFO cluster (untimed).
fn reference_pairs(w: &Workload, corpus: &Corpus, work: &WorkDir) -> Result<Canonical, String> {
    let cluster = w.reference_cluster(&work.spill());
    let out = TsjJoiner::new(&cluster)
        .self_join(corpus, &w.join_config())
        .map_err(|e| format!("reference join failed: {e}"))?;
    Ok(gate::canonical(&out.pairs))
}
