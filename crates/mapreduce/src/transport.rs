//! The shuffle transport: how map output physically reaches reduce tasks.
//!
//! The runtime always *routes* records to partitions at emit time
//! ([`crate::shuffle`]); the transport decides how a partition's segments
//! travel from the map side to the reduce side:
//!
//! * [`Transport::InProcess`] (the default) — the segment handoff: each
//!   map task's in-memory partition buffers and spill-run locations are
//!   moved to the reduce tasks by reference, within one address space.
//!   Nothing is serialized beyond what the mapper itself spilled;
//!   `bytes_moved` is 0.
//! * [`Transport::MultiProcess`] — a real file exchange over the spill-run
//!   wire format (see [`crate::spill`]): every map task *publishes* its
//!   post-combine output — the runs it spilled, then its in-memory
//!   leftover — into its own exchange file, inside the timed map task,
//!   exactly as a separate worker process would publish map output for
//!   reducers to fetch. After the map barrier the exchange only walks the
//!   published run directories: reduce tasks read the task files in place
//!   through the ordinary k-way sort-merge ([`crate::merge`]). Reduce
//!   never special-cases the transport, because an exchange run is
//!   indistinguishable from a spill run. `bytes_moved` is the published
//!   volume, charged by
//!   [`CostModel::transport_secs_per_byte`](crate::cluster::CostModel).
//! * [`Transport::Remote`] — the same per-task publish, registered with a
//!   per-stage run server; the reduce side fetches the runs back over a
//!   socket (see `Remote`).
//!
//! # Determinism and equivalence
//!
//! Every transport hands partition `p` its segments in map-task order, a
//! task's spilled runs before its in-memory leftover. Since the merge
//! resolves equal-fingerprint ties by segment index, the merged record
//! order (and therefore grouping and job output) is identical across
//! transports whenever the reduce side merges. The remaining difference —
//! purely in-memory partitions reduce in first-occurrence order in
//! process but in fingerprint order over a file exchange (everything is a
//! sorted run there) — is the same deterministic reordering the spill
//! path already introduces, and the pipeline output is property-tested
//! byte-identical across transports in
//! `crates/core/tests/transport_equivalence.rs`.
//!
//! # Wire format
//!
//! One exchange file per map task that produced output, named
//! `task<N>.xruns`, holding the task's runs back-to-back, partition by
//! partition, in the [`SpillWriter`] v2 frame format (see
//! [`crate::spill`]): per record, a LEB128 varint payload length, a varint
//! fingerprint delta (`fp XOR fingerprint64(key)` — one zero byte for
//! every runtime-emitted record), then the `Spill`-encoded key and value.
//! For the dominant small-payload stages this is ≈2 B of framing per
//! record where the v1 fixed `[u32 len][u64 fp]` frame spent 12. Next to
//! the file the task publishes its run directory: per partition, each
//! run's `(offset, bytes, records)` [`RunMeta`]. That directory is all a
//! local reducer needs to stream its partition out of the file, and all a
//! remote one needs to ask for it by byte range.
//!
//! [`RunMeta`]: crate::spill::RunMeta

use std::fs::File;
use std::hash::Hash;
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex, PoisonError};

use tsj_netshuffle::{
    FaultConfig, FetchClient, FetchConfig, FetchError, FetchStats, PublishedTask, Registry, RunKey,
    RunServer, RunSpec, ServerAddr,
};

use crate::merge::Segment;
use crate::shuffle::ShuffleRecord;
use crate::spill::{RunMeta, Spill, SpillWriter};

#[cfg(test)]
use crate::spill::RunReader;

/// Which transport a job's shuffle uses (the configuration-level knob;
/// see [`ShuffleConfig`](crate::shuffle::ShuffleConfig)).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub enum Transport {
    /// In-process segment handoff (the default).
    #[default]
    InProcess,
    /// File exchange over the spill-run wire format.
    MultiProcess,
    /// Network exchange: map tasks publish their runs to a per-stage run
    /// server ([`tsj_netshuffle`]) and the reduce side fetches them over
    /// a socket with ranged reads, retries, and deadlines.
    Remote,
}

impl Transport {
    /// Every variant (for exhaustive config sweeps and round-trip tests).
    pub const ALL: [Transport; 3] = [
        Transport::InProcess,
        Transport::MultiProcess,
        Transport::Remote,
    ];

    /// Stable lowercase name (what `TSJ_SHUFFLE_TRANSPORT` accepts and
    /// [`JobStats::transport`](crate::job::JobStats) reports).
    pub fn name(&self) -> &'static str {
        match self {
            Transport::InProcess => "in-process",
            Transport::MultiProcess => "multi-process",
            Transport::Remote => "remote",
        }
    }

    /// Parses a `TSJ_SHUFFLE_TRANSPORT` value (ASCII case-insensitive;
    /// hyphens and underscores optional). Accepts every
    /// [`Transport::name`] spelling: `parse(t.name())` round-trips.
    pub fn parse(s: &str) -> Option<Self> {
        match s.to_ascii_lowercase().replace(['-', '_'], "").as_str() {
            "inprocess" => Some(Transport::InProcess),
            "multiprocess" => Some(Transport::MultiProcess),
            "remote" => Some(Transport::Remote),
            _ => None,
        }
    }
}

/// A file of sorted runs plus its run directory: per partition, the
/// location of each run in the file, in order. Describes both a mapper's
/// spill file and a published exchange file.
#[derive(Debug)]
pub(crate) struct TaskRuns {
    /// The run file, opened read-only; `None` when no run was written.
    pub(crate) file: Option<Arc<File>>,
    /// Partition-indexed run directories.
    pub(crate) parts: Vec<Vec<RunMeta>>,
}

/// One map task's complete post-combine output, as handed to the
/// exchange. Constructed by the runtime only.
#[derive(Debug)]
pub(crate) struct MapOutput<K, V> {
    /// The task's sorted runs: its spill file under the in-process
    /// handoff, or the exchange file it published.
    pub(crate) runs: Option<TaskRuns>,
    /// Partition-indexed in-memory leftover (empty once published).
    pub(crate) parts: Vec<Vec<ShuffleRecord<K, V>>>,
    /// The task id the output was published under (file transports
    /// only): its runs are exchange bytes, and the remote exchange
    /// fetches them by this key.
    pub(crate) published: Option<u64>,
}

/// The transport's result: every partition's reduce-input segments, plus
/// what moving them cost.
#[derive(Debug)]
pub(crate) struct Exchange<K, V> {
    pub(crate) partition_segments: Vec<Vec<Segment<K, V>>>,
    /// Bytes serialized through the transport (0 in process).
    pub(crate) bytes_moved: u64,
    /// What the fetch client observed ([`Remote`] only; zero elsewhere).
    /// Wall-clock-class observability — retries depend on timing and
    /// injected faults, never on job content.
    pub(crate) fetch: FetchStats,
}

/// Publishes one map task's output into the exchange directory `dir`:
/// per partition, the task's spilled runs (a raw byte copy — spill runs
/// are already in the exchange frame format), then its in-memory leftover
/// as one sorted run, all into the task's own file `task<N>.xruns`.
/// Called from inside the timed map task, so the writing overlaps the map
/// wave and the buffers are freed at once. `task` is already
/// attempt-distinct under speculation, so concurrent attempts never
/// collide on a file. A task that produced nothing creates no file.
pub(crate) fn publish_task<K: Spill + Hash, V: Spill>(
    dir: &Path,
    task: u64,
    mut parts: Vec<Vec<ShuffleRecord<K, V>>>,
    spill: Option<&TaskRuns>,
) -> std::io::Result<TaskRuns> {
    // The task's exchange file, opened on first written run.
    fn open<'a>(
        writer: &'a mut Option<SpillWriter>,
        dir: &Path,
        task: u64,
    ) -> std::io::Result<&'a mut SpillWriter> {
        match writer.take() {
            Some(w) => Ok(writer.insert(w)),
            None => Ok(writer.insert(SpillWriter::create(dir.join(format!("task{task}.xruns")))?)),
        }
    }
    let mut writer: Option<SpillWriter> = None;
    let mut runs: Vec<Vec<RunMeta>> = Vec::with_capacity(parts.len());
    for (p, segment) in parts.iter_mut().enumerate() {
        let mut metas = Vec::new();
        if let Some(TaskRuns {
            file: Some(file),
            parts: spilled,
        }) = spill
        {
            for meta in &spilled[p] {
                metas.push(open(&mut writer, dir, task)?.copy_raw_run(file, *meta)?);
            }
        }
        if !segment.is_empty() {
            // Stable sort: equal-fingerprint records keep emit order,
            // mirroring the mapper's own spill discipline.
            segment.sort_by_key(|(h, _, _)| *h);
            metas.push(open(&mut writer, dir, task)?.write_run(segment)?);
        }
        runs.push(metas);
    }
    let file = match writer {
        Some(w) => Some(w.into_reader()?.0),
        None => None,
    };
    Ok(TaskRuns { file, parts: runs })
}

/// The exchange of both local transports: hands reduce every task's runs
/// in place — `Segment::Spilled` over the task's spill file or published
/// exchange file, no second file and no copy — and its in-memory leftover
/// by reference, partition by partition in task order. `bytes_moved` is
/// the published run volume (0 for the in-process handoff, which
/// publishes nothing).
pub(crate) fn exchange_local<K, V>(
    tasks: Vec<MapOutput<K, V>>,
    partitions: usize,
) -> Exchange<K, V> {
    let mut bytes_moved = 0u64;
    let mut partition_segments: Vec<Vec<Segment<K, V>>> =
        (0..partitions).map(|_| Vec::new()).collect();
    for task in tasks {
        if let Some(TaskRuns {
            file: Some(file),
            parts,
        }) = task.runs
        {
            for (p, metas) in parts.into_iter().enumerate() {
                for meta in metas {
                    if task.published.is_some() {
                        bytes_moved += meta.bytes;
                    }
                    partition_segments[p].push(Segment::Spilled {
                        file: Arc::clone(&file),
                        meta,
                    });
                }
            }
        }
        for (p, segment) in task.parts.into_iter().enumerate() {
            if !segment.is_empty() {
                partition_segments[p].push(Segment::Mem(segment));
            }
        }
    }
    Exchange {
        partition_segments,
        bytes_moved,
        fetch: FetchStats::default(),
    }
}

/// The network transport: map tasks publish their output as per-task
/// exchange files (`publish_task`, called *inside* the timed map task,
/// overlapping the map wave) and register them with a per-stage
/// [`RunServer`]; after the map barrier, `Remote::exchange` fetches
/// every partition's runs back over a socket — directory lookups plus
/// chunked ranged reads with retries — and assembles them into local
/// per-partition run files for the ordinary sort-merge reduce.
///
/// The server listens on a loopback TCP port, so every fetched byte
/// genuinely crosses the host boundary machinery (sockets, framing,
/// deadlines) even though the simulation runs in one process.
///
/// # Determinism
///
/// Per partition, runs are fetched in map-task order, each task's runs in
/// its published directory order (spilled runs before the in-memory
/// leftover) — the same segment discipline the other transports produce,
/// so job output is byte-identical. Retries cannot perturb this: every
/// fetch is an idempotent ranged read, so a retried request yields the
/// same bytes and only the wall-clock-class [`FetchStats`] differ.
#[derive(Debug)]
pub(crate) struct Remote {
    /// The stage's exchange directory (task files + fetched partition
    /// files); its owner keeps it alive until reduce has drained it.
    dir: PathBuf,
    /// This stage's job id in the run-server keyspace (process-unique).
    job: u64,
    registry: Arc<Registry>,
    /// The stage's run server; taken out (and shut down) by
    /// [`Remote::stop`] once the exchange has fetched everything.
    server: Mutex<Option<RunServer>>,
    addr: ServerAddr,
    fetch_config: FetchConfig,
}

/// Process-wide job-id allocator for the run-server keyspace: stages
/// never collide even when many clusters run concurrently (tests).
static NEXT_JOB: AtomicU64 = AtomicU64::new(0);

impl Remote {
    /// Starts this stage's run server (loopback TCP, ephemeral port) with
    /// `fault` injection over the exchange directory `dir`, and allocates
    /// a fresh job id.
    pub(crate) fn start(dir: PathBuf, fault: FaultConfig) -> std::io::Result<Self> {
        let registry = Arc::new(Registry::new());
        let server = RunServer::bind_tcp(Arc::clone(&registry), fault)?;
        let addr = server.addr().clone();
        Ok(Self {
            dir,
            job: NEXT_JOB.fetch_add(1, Ordering::Relaxed),
            registry,
            server: Mutex::new(Some(server)),
            addr,
            fetch_config: FetchConfig::default(),
        })
    }

    /// Registers one published map task with the run server: its runs
    /// are servable the moment the task finishes, while the map wave is
    /// still running. A task that produced nothing still registers (an
    /// empty directory is a valid answer; an unknown task is an error).
    pub(crate) fn register(&self, task: u64, runs: &TaskRuns) {
        let parts = runs
            .parts
            .iter()
            .map(|metas| metas.iter().copied().map(run_spec).collect())
            .collect();
        self.registry.publish(
            self.job,
            task,
            PublishedTask {
                file: runs.file.clone(),
                parts,
            },
        );
    }

    /// Shuts the run server down (idempotent). Called once the exchange
    /// has fetched every partition — nothing fetches after that.
    pub(crate) fn stop(&self) {
        let server = self
            .server
            .lock()
            .unwrap_or_else(PoisonError::into_inner)
            .take();
        drop(server);
    }

    /// Fetches every partition's runs — per partition, the published
    /// tasks in order — into local `part<p>.fetch` files for reduce.
    pub(crate) fn exchange<K: Spill + Hash, V: Spill>(
        &self,
        tasks: Vec<MapOutput<K, V>>,
        partitions: usize,
    ) -> std::io::Result<Exchange<K, V>> {
        // Map tasks already published everything; all the exchange needs
        // is each winner's run-server key, in task order.
        let keys = tasks
            .iter()
            .map(|task| {
                task.published.ok_or_else(|| {
                    std::io::Error::other(
                        "remote exchange received a map output that was never published \
                         to the run server",
                    )
                })
            })
            .collect::<std::io::Result<Vec<u64>>>()?;
        drop(tasks);

        let mut client = FetchClient::new(self.addr.clone(), self.fetch_config);
        let chunk = self
            .fetch_config
            .chunk
            .clamp(1, tsj_netshuffle::protocol::MAX_FETCH_BYTES);
        let mut bytes_moved = 0u64;
        let mut partition_segments: Vec<Vec<Segment<K, V>>> =
            (0..partitions).map(|_| Vec::new()).collect();
        for (p, segments) in partition_segments.iter_mut().enumerate() {
            // This partition's local reduce input, assembled run by run
            // from the fetched byte ranges (created lazily: sparse
            // partitions fetch nothing and cost nothing).
            let mut writer: Option<SpillWriter> = None;
            let mut metas: Vec<RunMeta> = Vec::new();
            let partition = u32::try_from(p).map_err(|_| {
                std::io::Error::new(
                    std::io::ErrorKind::InvalidData,
                    format!("partition index {p} exceeds the u32 run-key field"),
                )
            })?;
            for &task in &keys {
                let key = RunKey {
                    job: self.job,
                    partition,
                    task,
                };
                let specs = client.dir(key).map_err(fetch_io)?;
                for spec in specs {
                    let writer = match writer.take() {
                        Some(w) => writer.insert(w),
                        None => writer.insert(SpillWriter::create(
                            self.dir.join(format!("part{p}.fetch")),
                        )?),
                    };
                    let start = writer.offset();
                    let mut done = 0u64;
                    while done < spec.bytes {
                        let len = chunk.min(spec.bytes - done);
                        let bytes = client
                            .fetch(key, spec.offset + done, len)
                            .map_err(fetch_io)?;
                        writer.append_raw(&bytes)?;
                        done += len;
                    }
                    metas.push(writer.seal_raw_run(start, spec.records));
                    bytes_moved += spec.bytes;
                }
            }
            if let Some(writer) = writer {
                let (file, _path) = writer.into_reader()?;
                segments.extend(metas.into_iter().map(|meta| Segment::Spilled {
                    file: Arc::clone(&file),
                    meta,
                }));
            }
        }
        Ok(Exchange {
            partition_segments,
            bytes_moved,
            fetch: client.stats(),
        })
    }
}

/// [`RunMeta`] → wire [`RunSpec`] (same fields, decoupled types: the
/// netshuffle crate stays independent of the spill layer).
fn run_spec(meta: RunMeta) -> RunSpec {
    RunSpec {
        offset: meta.offset,
        bytes: meta.bytes,
        records: meta.records,
    }
}

fn fetch_io(err: FetchError) -> std::io::Error {
    std::io::Error::other(format!("run fetch failed: {err}"))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::hash::fingerprint64;
    use crate::spill::{reserve_job_dir, SpillDirGuard};

    fn rec(key: u64, value: u64, partitions: usize) -> (usize, ShuffleRecord<u64, u64>) {
        let h = fingerprint64(&key);
        ((h % partitions as u64) as usize, (h, key, value))
    }

    fn mem_task(keys: &[(u64, u64)], partitions: usize) -> MapOutput<u64, u64> {
        let mut parts: Vec<Vec<ShuffleRecord<u64, u64>>> =
            (0..partitions).map(|_| Vec::new()).collect();
        for &(k, v) in keys {
            let (p, r) = rec(k, v, partitions);
            parts[p].push(r);
        }
        MapOutput {
            runs: None,
            parts,
            published: None,
        }
    }

    /// Publishes `keys` as map task `task` would under a file transport
    /// (and registers it with `remote`, if any).
    fn published_task(
        dir: &Path,
        task: u64,
        keys: &[(u64, u64)],
        partitions: usize,
        remote: Option<&Remote>,
    ) -> MapOutput<u64, u64> {
        let runs = publish_task(dir, task, mem_task(keys, partitions).parts, None).unwrap();
        if let Some(remote) = remote {
            remote.register(task, &runs);
        }
        MapOutput {
            runs: Some(runs),
            parts: Vec::new(),
            published: Some(task),
        }
    }

    fn exchange_dir() -> SpillDirGuard {
        SpillDirGuard(reserve_job_dir(&std::env::temp_dir(), "tsj-exchange-test"))
    }

    /// Drains every segment of an exchange into (partition, record) order.
    fn drain(exchange: Exchange<u64, u64>) -> Vec<(usize, ShuffleRecord<u64, u64>)> {
        let mut out = Vec::new();
        for (p, segments) in exchange.partition_segments.into_iter().enumerate() {
            for seg in segments {
                match seg {
                    Segment::Mem(records) => {
                        let mut records = records;
                        records.sort_by_key(|(h, _, _)| *h);
                        out.extend(records.into_iter().map(|r| (p, r)));
                    }
                    Segment::Spilled { file, meta } => {
                        let mut r = RunReader::new(file, meta);
                        while let Some(record) = r.next::<u64, u64>().unwrap() {
                            out.push((p, record));
                        }
                    }
                }
            }
        }
        out
    }

    fn file_names(dir: &Path) -> Vec<String> {
        let mut names: Vec<String> = std::fs::read_dir(dir)
            .unwrap()
            .map(|e| e.unwrap().file_name().into_string().unwrap())
            .collect();
        names.sort();
        names
    }

    #[test]
    fn transport_parse_accepts_spelling_variants() {
        for s in ["inprocess", "in-process", "IN_PROCESS", "InProcess"] {
            assert_eq!(Transport::parse(s), Some(Transport::InProcess), "{s}");
        }
        for s in ["multiprocess", "multi-process", "MULTI_PROCESS"] {
            assert_eq!(Transport::parse(s), Some(Transport::MultiProcess), "{s}");
        }
        for s in ["remote", "REMOTE", "Re-mote"] {
            assert_eq!(Transport::parse(s), Some(Transport::Remote), "{s}");
        }
        assert_eq!(Transport::parse("network"), None);
        assert_eq!(Transport::parse(""), None);
    }

    #[test]
    fn transport_name_round_trips_through_parse_for_every_variant() {
        for t in Transport::ALL {
            assert_eq!(Transport::parse(t.name()), Some(t), "{}", t.name());
        }
    }

    #[test]
    fn remote_ships_the_same_records_as_inprocess() {
        let partitions = 4;
        let data_a: Vec<(u64, u64)> = (0..40).map(|i| (i % 11, i)).collect();
        let data_b: Vec<(u64, u64)> = (0..25).map(|i| (i % 7, 100 + i)).collect();

        let in_proc = exchange_local(
            vec![mem_task(&data_a, partitions), mem_task(&data_b, partitions)],
            partitions,
        );

        let dir = exchange_dir();
        let remote = Remote::start(dir.0.clone(), FaultConfig::default()).unwrap();
        // Publish exactly as the map tasks would, then exchange over the
        // socket.
        let outputs = vec![
            published_task(&dir.0, 0, &data_a, partitions, Some(&remote)),
            published_task(&dir.0, 1, &data_b, partitions, Some(&remote)),
        ];
        let exchange = remote.exchange(outputs, partitions).unwrap();
        remote.stop();
        assert!(exchange.bytes_moved > 0);
        assert!(exchange.fetch.requests > 0);
        assert_eq!(exchange.fetch.bytes, exchange.bytes_moved);

        assert_eq!(drain(exchange), drain(in_proc));
        let path = dir.0.clone();
        drop(dir);
        assert!(!path.exists(), "guard removes the exchange dir on drop");
    }

    #[test]
    fn remote_exchange_matches_multiprocess_volume() {
        let partitions = 3;
        let data: Vec<(u64, u64)> = (0..60).map(|i| (i % 13, i)).collect();

        let dir = exchange_dir();
        let multi = exchange_local(
            vec![published_task(&dir.0, 0, &data, partitions, None)],
            partitions,
        );

        let remote_dir = exchange_dir();
        let remote = Remote::start(remote_dir.0.clone(), FaultConfig::default()).unwrap();
        let outputs = vec![published_task(
            &remote_dir.0,
            0,
            &data,
            partitions,
            Some(&remote),
        )];
        let exchange = remote.exchange(outputs, partitions).unwrap();
        remote.stop();
        // Same runs, same frames: the serialized exchange volume is
        // byte-for-byte the multi-process one.
        assert_eq!(exchange.bytes_moved, multi.bytes_moved);
        assert_eq!(drain(exchange), drain(multi));
    }

    #[test]
    fn remote_exchange_rejects_unpublished_outputs() {
        let dir = exchange_dir();
        let remote = Remote::start(dir.0.clone(), FaultConfig::default()).unwrap();
        let err = remote
            .exchange(vec![mem_task(&[(1, 1)], 2)], 2)
            .expect_err("unpublished output must be a structured error");
        assert!(err.to_string().contains("never published"));
        remote.stop();
    }

    #[test]
    fn multiprocess_ships_the_same_records_as_inprocess() {
        let partitions = 4;
        let data_a: Vec<(u64, u64)> = (0..40).map(|i| (i % 11, i)).collect();
        let data_b: Vec<(u64, u64)> = (0..25).map(|i| (i % 7, 100 + i)).collect();

        let in_proc = exchange_local(
            vec![mem_task(&data_a, partitions), mem_task(&data_b, partitions)],
            partitions,
        );
        assert_eq!(in_proc.bytes_moved, 0);

        let dir = exchange_dir();
        let multi = exchange_local(
            vec![
                published_task(&dir.0, 0, &data_a, partitions, None),
                published_task(&dir.0, 1, &data_b, partitions, None),
            ],
            partitions,
        );
        assert!(multi.bytes_moved > 0);
        assert!(dir.0.exists(), "exchange dir materialized");

        // Same records per partition, in the same merged order (mem
        // segments compared post-sort, the order the merge consumes).
        assert_eq!(drain(multi), drain(in_proc));
        let path = dir.0.clone();
        drop(dir);
        assert!(!path.exists(), "guard removes the exchange dir on drop");
    }

    #[test]
    fn exchange_files_are_per_task_and_runs_are_sorted() {
        let partitions = 3;
        let data_a: Vec<(u64, u64)> = (0..60).map(|i| (i, i * 2)).collect();
        let data_b: Vec<(u64, u64)> = (40..90).map(|i| (i, i * 3)).collect();
        let dir = exchange_dir();
        let exchange = exchange_local(
            vec![
                published_task(&dir.0, 0, &data_a, partitions, None),
                published_task(&dir.0, 1, &data_b, partitions, None),
            ],
            partitions,
        );
        // One file per publishing task, nothing per partition.
        assert_eq!(file_names(&dir.0), ["task0.xruns", "task1.xruns"]);
        let mut moved = 0u64;
        for (p, segments) in exchange.partition_segments.iter().enumerate() {
            // Task order within the partition: one run per task here.
            assert_eq!(segments.len(), 2, "partition {p}");
            for seg in segments {
                let Segment::Spilled { file, meta } = seg else {
                    panic!("multi-process exchange must hand out spilled segments only");
                };
                moved += meta.bytes;
                let mut r = RunReader::new(Arc::clone(file), *meta);
                let mut last = 0u64;
                while let Some((h, _, _)) = r.next::<u64, u64>().unwrap() {
                    assert!(h >= last, "exchange run not sorted");
                    assert_eq!((h % partitions as u64) as usize, p);
                    last = h;
                }
            }
        }
        assert_eq!(moved, exchange.bytes_moved);
    }

    #[test]
    fn tasks_without_output_create_no_exchange_files() {
        let partitions = 64;
        let dir = exchange_dir();
        let exchange = exchange_local(
            vec![
                published_task(&dir.0, 0, &[], partitions, None),
                published_task(&dir.0, 1, &[(1, 1)], partitions, None),
                published_task(&dir.0, 2, &[], partitions, None),
            ],
            partitions,
        );
        // Only the task that emitted wrote a file, and only its one
        // partition has a segment.
        assert_eq!(file_names(&dir.0), ["task1.xruns"]);
        assert_eq!(
            exchange
                .partition_segments
                .iter()
                .filter(|s| !s.is_empty())
                .count(),
            1
        );
    }
}
