//! `served_jobs`: one closed-loop client driving an in-process
//! `fastsim-serve` server with one worker, journaled and snapshotting.

use crate::jobs::{Job, Outcome};
use crate::trace::Tracer;
use fastsim_core::{run_single, BatchDriver, BatchJob, JobReport};
use fastsim_serve::client::Client;
use fastsim_serve::json::Json;
use fastsim_serve::server::{Listener, ServeConfig, Server, ServerHandle};
use std::path::{Path, PathBuf};
use std::time::Instant;

/// The client reads the server's metrics once per this many submits.
pub const METRICS_EVERY: usize = 8;

/// The deterministic part of a job result, as served and as run offline.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct ServedResult {
    pub cycles: u64,
    pub retired: u64,
    pub loads: u64,
    pub stores: u64,
    pub l1_misses: u64,
    pub writebacks: u64,
    /// (hits, misses) per cache level.
    pub levels: Vec<(u64, u64)>,
}

impl ServedResult {
    pub fn of_report(r: &JobReport) -> ServedResult {
        ServedResult {
            cycles: r.stats.cycles,
            retired: r.stats.retired_insts,
            loads: r.cache_stats.loads,
            stores: r.cache_stats.stores,
            l1_misses: r.cache_stats.l1_misses,
            writebacks: r.cache_stats.writebacks,
            levels: r.level_stats.iter().map(|l| (l.hits, l.misses)).collect(),
        }
    }

    /// Parses the `result` member of a settled job.
    pub fn of_json(result: &Json) -> Option<ServedResult> {
        let num = |k: &str| result.get(k).and_then(Json::as_u64);
        let levels = result
            .get("levels")?
            .as_arr()?
            .iter()
            .map(|l| Some((l.get("hits")?.as_u64()?, l.get("misses")?.as_u64()?)))
            .collect::<Option<Vec<_>>>()?;
        Some(ServedResult {
            cycles: num("cycles")?,
            retired: num("retired_insts")?,
            loads: num("loads")?,
            stores: num("stores")?,
            l1_misses: num("l1_misses")?,
            writebacks: num("writebacks")?,
            levels,
        })
    }

    /// Whether the SlowSim reference agrees on every field both carry.
    pub fn matches(&self, reference: &Outcome) -> bool {
        self.cycles == reference.cycles
            && self.retired == reference.retired
            && self.levels.len() == reference.levels.len()
            && self
                .levels
                .iter()
                .zip(&reference.levels)
                .all(|(&(h, m), l)| h == l.hits && m == l.misses)
    }
}

/// The batch job the server builds for a `submit` of this job.
pub fn batch_job(job: &Job) -> BatchJob {
    let mut b = BatchJob::new(job.spec.kernel, job.program.clone());
    b.hierarchy = job.hierarchy.clone();
    b
}

/// Runs `job` offline through `run_single` from an empty snapshot: the
/// result every served copy of it must equal.
pub fn offline_result(job: &Job) -> Result<ServedResult, String> {
    let mut batch = BatchDriver::new(1);
    let b = batch_job(job);
    let fp = batch.ensure_group(&b);
    let snap = batch
        .current_snapshot(fp)
        .expect("the group was just ensured");
    let single =
        run_single(&b, &snap, None).map_err(|e| format!("{}: run_single: {e}", job.spec.kernel))?;
    Ok(ServedResult::of_report(&single.report))
}

/// A running server and the benchmark's client connection to it.
pub struct Served {
    pub handle: ServerHandle,
    pub client: Client,
    pub dir: PathBuf,
}

/// Boots a server in `dir` (journal, snapshot store and Unix socket all
/// under it) with one worker, and connects the client.
pub fn boot(dir: &Path) -> Result<Served, String> {
    let _ = std::fs::remove_dir_all(dir);
    std::fs::create_dir_all(dir).map_err(|e| format!("{}: {e}", dir.display()))?;
    let sock = dir.join("serve.sock");
    let cfg = ServeConfig {
        workers: 1,
        journal_dir: Some(dir.join("journal")),
        snapshot_dir: Some(dir.join("snapshots")),
        ..ServeConfig::default()
    };
    let listener = Listener::unix(&sock).map_err(|e| format!("bind {}: {e}", sock.display()))?;
    let handle = Server::start(cfg, vec![listener]);
    let client =
        Client::connect_unix(&sock).map_err(|e| format!("connect {}: {e}", sock.display()))?;
    Ok(Served {
        handle,
        client,
        dir: dir.to_path_buf(),
    })
}

impl Served {
    /// Submits one job and waits for its result.
    pub fn submit(&mut self, job: &Job) -> Result<ServedResult, String> {
        let req = Json::obj([
            ("op", Json::from("submit")),
            ("kernels", Json::Arr(vec![Json::from(job.spec.kernel)])),
            ("insts", Json::from(job.spec.target)),
            ("hierarchy", Json::from(job.spec.preset)),
            ("client", Json::from("perfbench")),
            ("wait", Json::Bool(true)),
        ]);
        let resp = self.client.expect_ok(&req)?;
        let settled = resp
            .get("jobs")
            .and_then(Json::as_arr)
            .and_then(|jobs| jobs.first())
            .ok_or("submit response without jobs")?;
        match settled.get("result") {
            Some(result) => {
                ServedResult::of_json(result).ok_or_else(|| format!("malformed result: {result}"))
            }
            None => Err(format!("job did not complete: {settled}")),
        }
    }

    pub fn metrics(&mut self) -> Result<Json, String> {
        self.client.metrics()
    }

    /// Stops the server, waits for every thread, and removes its files.
    pub fn stop(mut self) -> Result<(), String> {
        let stopped = self.client.shutdown();
        self.handle.wait();
        let _ = std::fs::remove_dir_all(&self.dir);
        stopped.map(|_| ())
    }
}

/// One timed submit.
#[derive(Clone, Copy, Debug)]
pub struct Submit {
    pub job: usize,
    /// The round (pass over the mix) it was sent in.
    pub round: usize,
    pub secs: f64,
    pub insts: u64,
    pub ok: bool,
    pub traced: bool,
}

/// What the served timed phase measured.
#[derive(Default)]
pub struct ServedTimed {
    pub submits: Vec<Submit>,
    /// Wall seconds of each round, metrics reads included.
    pub round_walls: Vec<f64>,
}

/// Whether a served result equals both the job's offline `run_single`
/// result and its SlowSim reference.
fn served_ok(result: &Result<ServedResult, String>, job: &Job, offline: &ServedResult) -> bool {
    matches!(result, Ok(r) if r == offline && r.matches(&job.reference))
}

/// Sends every job once, untimed; errors if any result is wrong.
pub fn warm_up(
    served: &mut Served,
    jobs: &[Job],
    offline: &[ServedResult],
    order: &[usize],
) -> Result<(), String> {
    for &i in order {
        let result = served.submit(&jobs[i]);
        if !served_ok(&result, &jobs[i], &offline[i]) {
            return Err(format!(
                "warm-up: {} served {result:?}, offline {:?}",
                jobs[i].spec.kernel, offline[i]
            ));
        }
    }
    Ok(())
}

impl ServedTimed {
    /// Appends a later timed stretch, numbering its rounds on from these.
    pub fn extend(&mut self, later: ServedTimed) {
        let first = self.round_walls.len();
        self.submits
            .extend(later.submits.into_iter().map(|s| Submit {
                round: first + s.round,
                ..s
            }));
        self.round_walls.extend(later.round_walls);
    }
}

/// The closed loop: whole rounds of submits over `order` until `seconds`
/// have passed, one `metrics` read per [`METRICS_EVERY`] submits. With
/// `alternate`, tracing is on on odd rounds only (at least one of each).
pub fn run_timed(
    served: &mut Served,
    jobs: &[Job],
    offline: &[ServedResult],
    order: &[usize],
    seconds: f64,
    tr: &mut Tracer,
    alternate: bool,
) -> ServedTimed {
    let start = Instant::now();
    let mut out = ServedTimed::default();
    let min_rounds = if alternate { 2 } else { 1 };
    let mut round = 0usize;
    while round < min_rounds || start.elapsed().as_secs_f64() < seconds {
        if alternate {
            tr.set_on(round % 2 == 1);
        }
        let round_start = Instant::now();
        for &i in order {
            let job = &jobs[i];
            let span = tr.begin("serve.submit", job.id);
            let t0 = Instant::now();
            let result = served.submit(job);
            let secs = t0.elapsed().as_secs_f64();
            tr.end(span, 0);
            let ok = served_ok(&result, job, &offline[i]);
            let insts = result.as_ref().map_or(0, |r| r.retired);
            out.submits.push(Submit {
                job: i,
                round,
                secs,
                insts,
                ok,
                traced: tr.is_on(),
            });
            if out.submits.len().is_multiple_of(METRICS_EVERY) {
                let span = tr.begin("serve.metrics", job.id);
                let read = served.metrics();
                tr.end(span, 0);
                if let Err(e) = read {
                    eprintln!("perfbench: metrics read failed: {e}");
                }
            }
        }
        out.round_walls.push(round_start.elapsed().as_secs_f64());
        round += 1;
    }
    out
}

/// The server counters the traced run reports, read from a `metrics` dump.
pub const COUNTERS: [(&str, &[&str]); 6] = [
    ("serve.refreezes", &["refreezes"]),
    ("serve.journal_appended", &["journal", "appended"]),
    ("serve.loop_wakeups", &["event_loop", "loop_wakeups"]),
    ("serve.partial_writes", &["event_loop", "partial_writes"]),
    ("serve.retries", &["retries"]),
    ("serve.failed", &["failed"]),
];

/// Reads one counter (by its path of member names) from a metrics dump.
pub fn counter(dump: &Json, path: &[&str]) -> u64 {
    path.iter()
        .try_fold(dump, |j, k| j.get(k))
        .and_then(Json::as_u64)
        .unwrap_or(0)
}
