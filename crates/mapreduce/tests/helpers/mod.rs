//! Shared integration-test helpers (not a test binary: only top-level
//! files under `tests/` are compiled as suites). Each suite uses a
//! subset, hence the `dead_code` allowance.

#![allow(dead_code)]

use std::path::{Path, PathBuf};

use tsj_mapreduce::{Dataset, JobError, JobStats, Spill};

/// Minimal self-cleaning temp dir (no tempfile crate in this container).
pub struct Dir(PathBuf);

impl Dir {
    pub fn new(prefix: &str) -> Self {
        use std::sync::atomic::{AtomicU64, Ordering};
        static SEQ: AtomicU64 = AtomicU64::new(0);
        let path = std::env::temp_dir().join(format!(
            "{prefix}-{}-{}",
            std::process::id(),
            SEQ.fetch_add(1, Ordering::Relaxed)
        ));
        std::fs::create_dir_all(&path).unwrap();
        Self(path)
    }

    pub fn path(&self) -> &Path {
        &self.0
    }
}

impl Drop for Dir {
    fn drop(&mut self) {
        let _ = std::fs::remove_dir_all(&self.0);
    }
}

/// One executed job: its collected output and its stats.
#[derive(Debug)]
pub struct Job<O> {
    /// Every reduce output record, concatenated in partition order.
    pub output: Vec<O>,
    /// The job's entry in the terminal's report.
    pub stats: JobStats,
}

/// Collects a one-stage graph (`cluster.input(..).map_reduce*(..)`) into
/// its output and the stage's stats — the single-job shape the engine
/// suites assert on.
pub trait CollectJob<O> {
    fn collect_job(self) -> Result<Job<O>, JobError>;
}

impl<'a, O: Send + Sync + Spill + 'a> CollectJob<O> for Result<Dataset<'a, O>, JobError> {
    fn collect_job(self) -> Result<Job<O>, JobError> {
        let (output, report) = self?.collect()?;
        assert_eq!(report.jobs().len(), 1, "a one-stage graph runs one job");
        Ok(Job {
            output,
            stats: report.jobs()[0].clone(),
        })
    }
}
