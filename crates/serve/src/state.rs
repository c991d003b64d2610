//! Internal scheduler state: the job table, per-group snapshot control,
//! the waiter/completion rendezvous between workers and the I/O loop,
//! and the work condvar workers sleep on. Not part of the public API —
//! the server module owns the only instance.

use crate::json::Json;
use crate::journal::{Journal, JournalRecord, SubmitRecord};
use crate::metrics::Metrics;
use crate::queue::{JobQueue, QueueEntry};
use crate::server::ServeConfig;
use crate::sys::Waker;
use fastsim_core::{
    BatchDriver, BatchJob, HierarchyConfig, JobReport, SnapshotStore, WarmCacheSnapshot,
};
use fastsim_workloads::Manifest;
use std::collections::HashMap;
use std::sync::{Condvar, Mutex};
use std::time::{Duration, Instant};

/// Where a job is in its lifecycle.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum JobStatus {
    /// Waiting in the queue (or parked for retry backoff).
    Queued,
    /// A worker is running it.
    Running,
    /// Finished; `result` holds the report.
    Done,
    /// Settled with a build/simulation/timeout failure; `error` says why.
    Failed,
    /// Panicked [`ServeConfig::max_attempts`] times and was isolated;
    /// `error` holds the last panic message. The shared caches never saw
    /// any of its attempts.
    Quarantined,
}

impl JobStatus {
    /// Whether the job will never run again.
    pub fn settled(&self) -> bool {
        matches!(self, JobStatus::Done | JobStatus::Failed | JobStatus::Quarantined)
    }

    /// The wire name of the status.
    pub fn as_str(&self) -> &'static str {
        match self {
            JobStatus::Queued => "queued",
            JobStatus::Running => "running",
            JobStatus::Done => "done",
            JobStatus::Failed => "failed",
            JobStatus::Quarantined => "quarantined",
        }
    }
}

/// One admitted job: the simulation work plus its serving bookkeeping.
pub struct JobRecord {
    /// Server-assigned id.
    pub id: u64,
    /// The job's display name (outlives `job`, which a worker takes while
    /// running).
    pub name: String,
    /// Client that submitted it.
    pub client: String,
    /// Priority band.
    pub band: usize,
    /// The simulation job (None once taken by a worker; restored if the
    /// attempt is retried).
    pub job: Option<BatchJob>,
    /// Warm-cache sharing group.
    pub fingerprint: u64,
    /// Attempts started so far.
    pub attempts: u32,
    /// Fault injection: the first `chaos_panics` attempts panic in the
    /// worker — the server's only fault source, fixed at submission.
    pub chaos_panics: u32,
    /// Per-job timeout (None: run to completion).
    pub timeout: Option<Duration>,
    /// When the job was admitted (latency baseline).
    pub submitted: Instant,
    /// Lifecycle state.
    pub status: JobStatus,
    /// The report, once `Done`.
    pub result: Option<JobReport>,
    /// The failure/panic message, once `Failed` or `Quarantined`.
    pub error: Option<String>,
}

impl JobRecord {
    /// A fresh `Queued` record for one submit record.
    pub fn queued(rec: &SubmitRecord, job: Option<BatchJob>, fingerprint: u64) -> JobRecord {
        JobRecord {
            id: rec.id,
            name: rec.name.clone(),
            client: rec.client.clone(),
            band: rec.band as usize,
            job,
            fingerprint,
            attempts: 0,
            chaos_panics: rec.chaos_panics,
            timeout: rec.timeout_ms.map(Duration::from_millis),
            submitted: Instant::now(),
            status: JobStatus::Queued,
            result: None,
            error: None,
        }
    }
}

/// Per-group snapshot control: the snapshot handed to every job of the
/// group until the next re-freeze, plus the merge/lookups window that
/// decides and describes re-freezes.
pub struct GroupCtl {
    /// The current frozen snapshot jobs thaw from.
    pub snapshot: WarmCacheSnapshot,
    /// Deltas merged since the snapshot was frozen.
    pub deltas_since_freeze: usize,
    /// Config-lookup hits by jobs merged since the last freeze.
    pub hits_window: u64,
    /// Config lookups by jobs merged since the last freeze.
    pub lookups_window: u64,
}

impl GroupCtl {
    /// Control for a group whose jobs thaw from `snapshot`, with an empty
    /// merge window.
    pub fn new(snapshot: WarmCacheSnapshot) -> GroupCtl {
        GroupCtl { snapshot, deltas_since_freeze: 0, hits_window: 0, lookups_window: 0 }
    }

    /// The window's memoization hit rate (0 when no lookups).
    pub fn window_hit_rate(&self) -> f64 {
        if self.lookups_window == 0 {
            0.0
        } else {
            self.hits_window as f64 / self.lookups_window as f64
        }
    }
}

/// What a deferred response is waiting for. The event loop cannot block
/// a thread per waiting request the way the thread-per-connection server
/// did, so blocking ops register a waiter instead; workers settle waiters
/// as jobs finish and hand the finished responses back to the I/O loop
/// as [`Completion`]s over the wake pipe.
pub enum WaitKind {
    /// A `submit` with `wait: true`: respond once every listed job has
    /// settled, with the full job records in submission order.
    Jobs(Vec<u64>),
    /// A `drain`: respond once every admitted job has settled.
    Drain,
    /// A `shutdown`: like drain, then stop workers and the loop; the
    /// response closes the connection.
    Shutdown,
}

/// A registered deferred response: which connection gets it and what it
/// waits for.
pub struct Waiter {
    /// Event-loop connection token.
    pub conn: u64,
    /// Settlement condition.
    pub kind: WaitKind,
}

/// A finished response on its way from a worker to the I/O loop.
pub struct Completion {
    /// Event-loop connection token the response belongs to.
    pub conn: u64,
    /// The response line (unframed).
    pub response: Json,
    /// Close the connection after delivering (shutdown responses).
    pub close: bool,
}

/// Everything behind the scheduler lock.
pub struct Core {
    /// The work queue.
    pub queue: JobQueue,
    /// All jobs ever admitted, by id.
    pub jobs: HashMap<u64, JobRecord>,
    /// The batch driver owning the master p-action caches.
    pub driver: BatchDriver,
    /// Per-group snapshot control, by fingerprint.
    pub groups: HashMap<u64, GroupCtl>,
    /// Next job id to assign.
    pub next_id: u64,
    /// Jobs currently running on workers.
    pub in_flight: usize,
    /// Admissions stopped (drain or shutdown requested).
    pub draining: bool,
    /// Workers must exit once no job is runnable.
    pub stop: bool,
    /// Deferred responses waiting for jobs to settle.
    pub waiters: Vec<Waiter>,
    /// Settled responses awaiting pickup by the I/O loop.
    pub completions: Vec<Completion>,
}

impl Core {
    /// Whether every admitted job has settled (nothing queued, parked, or
    /// running).
    pub fn drained(&self) -> bool {
        self.queue.is_empty() && self.in_flight == 0
    }

    /// Admits one job under the id, client, band, timeout and panic
    /// budget of its submit record: ensures its group (creating the
    /// [`GroupCtl`] with the group's current snapshot on first sight) and
    /// queues it. Live submits and journal recovery both admit through
    /// here, so a recovered job is the job that was journaled. The caller
    /// has checked capacity.
    pub fn admit(&mut self, rec: &SubmitRecord, job: BatchJob) {
        let fingerprint = self.driver.ensure_group(&job);
        if !self.groups.contains_key(&fingerprint) {
            let snapshot =
                self.driver.current_snapshot(fingerprint).expect("group ensured above");
            self.groups.insert(fingerprint, GroupCtl::new(snapshot));
        }
        let entry = QueueEntry { id: rec.id, client: rec.client.clone(), band: rec.band as usize };
        self.queue.push(entry).expect("capacity checked by the caller");
        self.jobs.insert(rec.id, JobRecord::queued(rec, Some(job), fingerprint));
    }
}

/// The server's shared state: the core behind its lock, the condvars, the
/// metrics registry, and the immutable config.
pub struct ServerState {
    /// Scheduler state.
    pub core: Mutex<Core>,
    /// Signaled when work may be runnable (push, unpark, stop).
    pub work: Condvar,
    /// Wakes the I/O loop when [`Core::completions`] gained entries (or
    /// `stop` was set).
    pub waker: Waker,
    /// The metrics registry (own lock; see [`Metrics`]).
    pub metrics: Metrics,
    /// Server configuration.
    pub cfg: ServeConfig,
    /// The durable snapshot store, when [`ServeConfig::snapshot_dir`] is
    /// set. Saves take their own filesystem time on the worker path —
    /// always *after* the scheduler lock is released.
    pub store: Option<SnapshotStore>,
    /// The job journal, when [`ServeConfig::journal_dir`] is set. Locked
    /// only while the scheduler lock is already held (lock order:
    /// core → journal), so append batches stay ordered exactly like the
    /// scheduler transitions they record.
    pub journal: Option<Mutex<Journal>>,
}

impl ServerState {
    /// Fresh state for a server with the given config; `waker` is the
    /// write end of the I/O loop's wake pipe.
    ///
    /// With [`ServeConfig::snapshot_dir`] set this is also the boot
    /// load: the store's newest decodable snapshot of every group is
    /// adopted into the driver and pre-installed as its group's frozen
    /// snapshot, so the first job of a known configuration thaws warm
    /// instead of starting cold. Corrupt or foreign files are skipped
    /// with a typed cause (counted in the metrics, logged to stderr) —
    /// the decoder rejects, it never guesses.
    ///
    /// With [`ServeConfig::journal_dir`] set the journal is opened (boot
    /// compaction included) and every unfinished journaled job is
    /// re-admitted with its original id, band, and admission order, so a
    /// killed server resumes exactly the queue it lost. A journaled job
    /// whose kernel or preset can no longer be rebuilt is settled as
    /// `Failed` with a typed reason — never silently replayed as a
    /// different job.
    pub fn new(cfg: ServeConfig, waker: Waker) -> ServerState {
        let metrics = Metrics::new();
        let mut driver = BatchDriver::new(1);
        let mut groups = HashMap::new();
        let store = cfg.snapshot_dir.as_ref().and_then(|dir| match SnapshotStore::open(dir) {
            Ok(store) => Some(store),
            Err(e) => {
                eprintln!(
                    "snapshot store {}: cannot open ({e}); serving without durability",
                    dir.display()
                );
                None
            }
        });
        if let Some(store) = &store {
            let _ = store.sweep_tmp();
            match store.load_all() {
                Ok(report) => {
                    for rejected in &report.rejected {
                        eprintln!("snapshot store: skipped {rejected}");
                    }
                    metrics.snapshot_rejected(report.rejected.len() as u64);
                    for loaded in report.loaded {
                        let fingerprint = loaded.snapshot.fingerprint();
                        if driver.adopt_snapshot(&loaded.snapshot) {
                            groups.insert(fingerprint, GroupCtl::new(loaded.snapshot));
                            metrics.snapshot_loaded(loaded.bytes as u64, loaded.generation);
                        }
                    }
                }
                Err(e) => eprintln!("snapshot store: boot scan failed: {e}"),
            }
        }
        let mut core = Core {
            queue: JobQueue::new(cfg.queue_capacity),
            jobs: HashMap::new(),
            driver,
            groups,
            next_id: 1,
            in_flight: 0,
            draining: false,
            stop: false,
            waiters: Vec::new(),
            completions: Vec::new(),
        };
        let journal = cfg.journal_dir.as_ref().and_then(|dir| match Journal::open(dir) {
            Ok((mut journal, recovery)) => {
                if recovery.torn_tail {
                    metrics.journal_torn_tail();
                    eprintln!(
                        "journal {}: dropped one torn tail record (incomplete final append)",
                        dir.display()
                    );
                }
                core.next_id = recovery.next_id;
                let mut abandons = Vec::new();
                for rec in &recovery.pending {
                    // Full-queue recovery can only happen when the server
                    // was restarted with a smaller --queue-cap than the
                    // journal was written under.
                    let built = if core.queue.is_full() {
                        Err(format!("recovered queue exceeds capacity {}", cfg.queue_capacity))
                    } else {
                        rebuild_job(rec)
                    };
                    match built {
                        Ok(job) => core.admit(rec, job),
                        Err(e) => {
                            let id = rec.id;
                            eprintln!("journal {}: job {id} rejected at recovery: {e}", dir.display());
                            let mut record = JobRecord::queued(rec, None, 0);
                            record.status = JobStatus::Failed;
                            record.error = Some(e.clone());
                            core.jobs.insert(id, record);
                            abandons.push(JournalRecord::Abandon { id, reason: e });
                        }
                    }
                }
                let recovered = (recovery.pending.len() - abandons.len()) as u64;
                metrics.journal_recovered(recovered);
                if recovered > 0 {
                    let depth = core.queue.len() + core.queue.parked_len();
                    metrics.submitted(recovered, depth as u64);
                }
                if !abandons.is_empty() {
                    metrics.journal_rejected(abandons.len() as u64);
                    match journal.append_all(&abandons) {
                        Ok(_) => metrics.journal_appended(abandons.len() as u64),
                        Err(e) => eprintln!(
                            "journal {}: cannot settle rejected jobs ({e})",
                            dir.display()
                        ),
                    }
                }
                eprintln!(
                    "journal {}: {recovered} job(s) recovered, {} rejected",
                    dir.display(),
                    abandons.len()
                );
                Some(Mutex::new(journal))
            }
            Err(e) => {
                metrics.journal_rejected(1);
                eprintln!(
                    "journal {}: cannot open ({e}); serving without a durable queue",
                    dir.display()
                );
                None
            }
        });
        ServerState {
            core: Mutex::new(core),
            work: Condvar::new(),
            waker,
            metrics,
            cfg,
            store,
            journal,
        }
    }
}

/// Rebuilds the simulation job for one journaled submission. The journal
/// stores the selection seed (base kernel name, instruction budget,
/// hierarchy preset), not program bytes, so recovery re-derives the job
/// from the workload manifest exactly as the original submit did — the
/// replayed job is bit-identical because the manifest is deterministic.
///
/// # Errors
///
/// The reason the job can no longer be built (unknown kernel or preset —
/// possible only when the binary changed across the restart).
fn rebuild_job(rec: &SubmitRecord) -> Result<BatchJob, String> {
    let manifest = Manifest::select(&[rec.kernel.as_str()], rec.insts)
        .ok_or_else(|| format!("unknown kernel `{}`", rec.kernel))?;
    let mj = manifest
        .into_jobs()
        .into_iter()
        .next()
        .ok_or_else(|| format!("kernel `{}` expanded to no jobs", rec.kernel))?;
    let mut job = BatchJob::new(rec.name.clone(), mj.program);
    if let Some(p) = rec.hierarchy.as_deref() {
        job.hierarchy = HierarchyConfig::preset(p)
            .ok_or_else(|| format!("unknown hierarchy preset `{p}`"))?;
    }
    Ok(job)
}
