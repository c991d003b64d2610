//! Serve-path chaos drivers: a retrying client that survives transport
//! faults, a seeded request storm, and the post-storm invariant checks.
//!
//! The production server carries no fault injection. Faults enter from
//! two places, both fixed by the storm's seed:
//!
//! * **server faults** — the storm gives some submissions a per-job
//!   `chaos_panics` budget, so the first attempts of those jobs panic in
//!   the worker and exercise retry, backoff and quarantine. The final
//!   metrics dump's `panics` and `retries` counters must equal the
//!   budgets the server admitted ([`StormOutcome::panic_budget`]);
//! * **transport faults** — the storm's own client sends malformed,
//!   partial, slow-loris and half-open frames, disconnects mid-response,
//!   and storms deadlines across priority bands.
//!
//! After the storm, the serving invariants the runbook promises must
//! hold: every admitted job settles, the metrics dump stays
//! schema-valid, and results are bit-identical to an offline batch run
//! (no cache poisoning).
//!
//! Unix-only (like the serve integration tests): the drivers speak over
//! Unix-domain sockets.

#![cfg(unix)]

use fastsim_core::{BatchDriver, BatchJob};
use fastsim_prng::Rng;
use fastsim_serve::json::Json;
use fastsim_serve::metrics::SCHEMA;
use fastsim_workloads::Manifest;
use std::io::{BufRead, BufReader, Write};
use std::os::unix::net::UnixStream;
use std::path::{Path, PathBuf};
use std::time::{Duration, Instant};

/// How long a request keeps retrying before it is declared
/// undeliverable: far beyond any host stall a run should survive, and
/// inside the 60 s read timeout every attempt sets.
const RETRY_DEADLINE: Duration = Duration::from_secs(30);

/// A client that retries through transport faults: every request opens a
/// fresh connection; a failed connect or a dropped or truncated response
/// (EOF / unparsable line) is detected and the request is resent.
pub struct RetryClient {
    path: PathBuf,
    /// Transport-level retries performed so far (failed attempts
    /// survived).
    pub retries: u64,
}

impl RetryClient {
    /// A client for the server at the given Unix socket path.
    pub fn new(path: impl Into<PathBuf>) -> RetryClient {
        RetryClient { path: path.into(), retries: 0 }
    }

    /// Sends one request, retrying until a parsable response line
    /// arrives.
    ///
    /// # Panics
    ///
    /// After 30 s of failed attempts, naming the last attempt's error.
    pub fn request(&mut self, body: &Json) -> Json {
        self.request_line(&body.to_string())
    }

    /// Like [`RetryClient::request`], but sends a raw line (possibly
    /// malformed — the server should answer with an error response).
    pub fn request_line(&mut self, line: &str) -> Json {
        self.retry(line, |path| one_shot(path, line, &[]))
    }

    /// Sends a request split into flushed partial frames (with pauses),
    /// retrying whole attempts until a parsable response arrives. The
    /// server must reassemble the line across reads.
    pub fn request_chunked(&mut self, line: &str) -> Json {
        let thirds = [line.len() / 3, 2 * line.len() / 3];
        self.retry(line, |path| one_shot(path, line, &thirds))
    }

    /// Slow-loris delivery: the request dribbles in one byte per flush,
    /// with a pause after each. A readiness-driven server buffers the
    /// partial line without burning a thread (or a poll loop) on it; the
    /// request must still be answered once the newline lands.
    pub fn request_slow_loris(&mut self, line: &str) -> Json {
        let splits: Vec<usize> = (1..=line.len()).collect();
        self.retry(line, |path| one_shot(path, line, &splits))
    }

    /// Half-open delivery: the client sends the request, closes its
    /// *writing* half, and only then reads. The server sees EOF right
    /// after the request but must still deliver the response before
    /// closing its side.
    pub fn request_half_open(&mut self, line: &str) -> Json {
        self.retry(line, |path| half_open_shot(path, line))
    }

    /// Repeats `attempt` (2 ms apart) until it yields a response.
    fn retry(&mut self, line: &str, attempt: impl Fn(&Path) -> std::io::Result<Json>) -> Json {
        let deadline = Instant::now() + RETRY_DEADLINE;
        loop {
            match attempt(&self.path) {
                Ok(v) => return v,
                Err(e) if Instant::now() >= deadline => panic!(
                    "no response for {line:?} within {RETRY_DEADLINE:?}; last attempt: {e}"
                ),
                Err(_) => {
                    self.retries += 1;
                    std::thread::sleep(Duration::from_millis(2));
                }
            }
        }
    }
}

/// One connection, one request line (split at `splits` byte offsets with
/// a flush and a pause after each), one response line.
fn one_shot(path: &Path, line: &str, splits: &[usize]) -> std::io::Result<Json> {
    let mut stream = UnixStream::connect(path)?;
    stream.set_read_timeout(Some(Duration::from_secs(60)))?;
    let framed = format!("{line}\n");
    let bytes = framed.as_bytes();
    let mut sent = 0;
    for &split in splits {
        let split = split.clamp(sent, bytes.len());
        stream.write_all(&bytes[sent..split])?;
        stream.flush()?;
        sent = split;
        std::thread::sleep(Duration::from_millis(2));
    }
    stream.write_all(&bytes[sent..])?;
    stream.flush()?;

    let mut reader = BufReader::new(stream);
    let mut response = String::new();
    let n = reader.read_line(&mut response)?;
    if n == 0 || !response.ends_with('\n') {
        return Err(std::io::Error::new(
            std::io::ErrorKind::UnexpectedEof,
            "response dropped or truncated",
        ));
    }
    Json::parse(response.trim()).map_err(|e| {
        std::io::Error::new(std::io::ErrorKind::InvalidData, format!("bad response json: {e}"))
    })
}

/// One half-open attempt: write the request, `shutdown(Write)`, then read
/// the response off the surviving read half.
fn half_open_shot(path: &Path, line: &str) -> std::io::Result<Json> {
    let mut stream = UnixStream::connect(path)?;
    stream.set_read_timeout(Some(Duration::from_secs(60)))?;
    stream.write_all(format!("{line}\n").as_bytes())?;
    stream.flush()?;
    stream.shutdown(std::net::Shutdown::Write)?;
    let mut reader = BufReader::new(stream);
    let mut response = String::new();
    let n = reader.read_line(&mut response)?;
    if n == 0 || !response.ends_with('\n') {
        return Err(std::io::Error::new(
            std::io::ErrorKind::UnexpectedEof,
            "response dropped or truncated",
        ));
    }
    Json::parse(response.trim()).map_err(|e| {
        std::io::Error::new(std::io::ErrorKind::InvalidData, format!("bad response json: {e}"))
    })
}

/// Submits a waiting job, then disconnects *before the deferred response
/// can arrive*. The server must discard the orphaned completion (the
/// connection is gone when the job settles) and still settle the job —
/// no crash, no stranded worker, no leaked waiter.
fn mid_response_disconnect(path: &Path, body: &Json) -> std::io::Result<()> {
    let mut stream = UnixStream::connect(path)?;
    stream.write_all(format!("{body}\n").as_bytes())?;
    stream.flush()?;
    // Give the loop a beat to parse the request and register the waiter,
    // then vanish.
    std::thread::sleep(Duration::from_millis(2));
    Ok(())
}

/// Storm shape knobs.
#[derive(Clone, Debug)]
pub struct StormConfig {
    /// Fire-and-forget submissions (mixed kernels/priorities; every fifth
    /// carries a one-panic `chaos_panics` budget).
    pub submissions: u32,
    /// Malformed request lines (must be rejected, not crash anything).
    pub malformed: u32,
    /// Requests delivered as interleaved partial frames.
    pub partial_frames: u32,
    /// Submissions with a 1 ms deadline on an oversized job (must settle
    /// `failed` via the timeout path).
    pub deadline_storm: u32,
    /// Requests dribbled in one byte per flush (slow-loris clients; the
    /// event loop must buffer them without dedicating a thread).
    pub slow_loris: u32,
    /// Requests whose client closes its writing half before reading the
    /// response (half-open sockets; the response must still arrive).
    pub half_open: u32,
    /// Waiting submissions whose client disconnects before the deferred
    /// response arrives (the orphaned completion must be discarded and
    /// the job must still settle).
    pub mid_response: u32,
    /// Instructions per normal storm job.
    pub insts: u64,
}

impl Default for StormConfig {
    fn default() -> StormConfig {
        StormConfig {
            submissions: 24,
            malformed: 6,
            partial_frames: 4,
            deadline_storm: 4,
            slow_loris: 3,
            half_open: 3,
            mid_response: 3,
            insts: 8_000,
        }
    }
}

/// What the storm observed.
#[derive(Clone, Debug, Default)]
pub struct StormOutcome {
    /// Jobs the server acknowledged admitting.
    pub admitted: u64,
    /// Worker panics the admitted jobs' `chaos_panics` budgets request —
    /// exactly the panics the server must report once they settle.
    pub panic_budget: u64,
    /// Submissions refused by admission control.
    pub rejected_submissions: u64,
    /// Malformed lines answered with an error response.
    pub malformed_rejected: u64,
    /// Partial-frame requests answered successfully.
    pub partial_frames_ok: u64,
    /// Deadline-stormed jobs the server acknowledged admitting.
    pub deadline_admitted: u64,
    /// Slow-loris requests answered successfully.
    pub slow_loris_ok: u64,
    /// Half-open requests answered successfully.
    pub half_open_ok: u64,
    /// Mid-response disconnects performed (their jobs run orphaned; the
    /// settled-state invariants verify nothing stranded).
    pub mid_response_disconnects: u64,
    /// Transport-level retries (failed attempts survived).
    pub transport_retries: u64,
}

/// Kernels the storm draws from (all in the workload suite).
pub const STORM_KERNELS: [&str; 2] = ["compress", "vortex"];

/// Malformed request lines the storm sends, in turn. The first has the
/// shape of a parked HTTP answer; on a line connection it is one more
/// malformed request.
const MALFORMED: [&str; 5] =
    ["\u{0}200 0 {}", "{\"op\": \"sub", "not json at all", "{\"op\": 42}", "[1,2,"];

/// Runs a seeded chaotic load against the server at `socket`.
pub fn run_storm(socket: &Path, seed: u64, cfg: &StormConfig) -> StormOutcome {
    let mut rng = Rng::new(seed);
    let mut client = RetryClient::new(socket);
    let mut outcome = StormOutcome::default();

    for i in 0..cfg.submissions {
        let kernel = *rng.pick(&STORM_KERNELS);
        let chaos_panics = u64::from(i % 5 == 0);
        let resp = client.request(&Json::obj([
            ("op", Json::from("submit")),
            ("kernels", Json::Arr(vec![Json::from(kernel)])),
            ("insts", Json::from(cfg.insts)),
            ("client", Json::from("storm")),
            ("priority", Json::from(rng.range_u64(0..4))),
            ("chaos_panics", Json::from(chaos_panics)),
            ("wait", Json::Bool(false)),
        ]));
        if resp.get("ok").and_then(Json::as_bool) == Some(true) {
            let jobs = resp.get("jobs").and_then(Json::as_arr).map_or(0, |jobs| jobs.len() as u64);
            outcome.admitted += jobs;
            outcome.panic_budget += jobs * chaos_panics;
        } else {
            outcome.rejected_submissions += 1;
        }

        // Interleave the other fault classes through the submission loop.
        if i < cfg.malformed {
            let resp = client.request_line(MALFORMED[i as usize % MALFORMED.len()]);
            if resp.get("ok").and_then(Json::as_bool) == Some(false) {
                outcome.malformed_rejected += 1;
            }
        }
        if i < cfg.partial_frames {
            let resp = client.request_chunked(&Json::obj([("op", Json::from("ping"))]).to_string());
            if resp.get("ok").and_then(Json::as_bool) == Some(true) {
                outcome.partial_frames_ok += 1;
            }
        }
        if i < cfg.deadline_storm {
            let resp = client.request(&Json::obj([
                ("op", Json::from("submit")),
                ("kernels", Json::Arr(vec![Json::from(*rng.pick(&STORM_KERNELS))])),
                ("insts", Json::from(5_000_000u64)),
                ("timeout_ms", Json::from(1u64)),
                ("client", Json::from("hasty")),
                ("wait", Json::Bool(false)),
            ]));
            if resp.get("ok").and_then(Json::as_bool) == Some(true) {
                outcome.deadline_admitted +=
                    resp.get("jobs").and_then(Json::as_arr).map_or(0, |jobs| jobs.len() as u64);
            }
        }
        if i < cfg.slow_loris {
            let resp =
                client.request_slow_loris(&Json::obj([("op", Json::from("ping"))]).to_string());
            if resp.get("ok").and_then(Json::as_bool) == Some(true) {
                outcome.slow_loris_ok += 1;
            }
        }
        if i < cfg.half_open {
            let resp =
                client.request_half_open(&Json::obj([("op", Json::from("metrics"))]).to_string());
            if resp.get("ok").and_then(Json::as_bool) == Some(true) {
                outcome.half_open_ok += 1;
            }
        }
        if i < cfg.mid_response {
            let body = Json::obj([
                ("op", Json::from("submit")),
                ("kernels", Json::Arr(vec![Json::from(*rng.pick(&STORM_KERNELS))])),
                ("insts", Json::from(cfg.insts)),
                ("client", Json::from("vanisher")),
                ("wait", Json::Bool(true)),
            ]);
            if mid_response_disconnect(socket, &body).is_ok() {
                outcome.mid_response_disconnects += 1;
            }
        }
    }

    outcome.transport_retries = client.retries;
    outcome
}

/// Waits (polling `metrics`) until every admitted job has
/// settled, then verifies the settled invariants on the metrics dump:
/// schema tag, empty queue, nothing in flight or parked, and
/// `submitted == completed + failed + quarantined`. A `drain` request
/// would also settle everything, but it permanently stops admissions —
/// this keeps the server usable for the post-chaos identity check.
///
/// Returns the (revalidated) metrics object.
///
/// # Errors
///
/// A description of the first violated invariant (including not settling
/// within the 120 s patience window).
pub fn drain_and_verify(socket: &Path) -> Result<Json, String> {
    let mut client = RetryClient::new(socket);
    let deadline = std::time::Instant::now() + Duration::from_secs(120);
    let metrics = loop {
        let resp = client.request(&Json::obj([("op", Json::from("metrics"))]));
        let metrics = resp.get("metrics").ok_or("metrics response missing `metrics`")?.clone();
        let gauge = |key: &str| metrics.get(key).and_then(Json::as_u64).unwrap_or(u64::MAX);
        if gauge("queue_depth") == 0 && gauge("parked") == 0 && gauge("in_flight") == 0 {
            break metrics;
        }
        if std::time::Instant::now() > deadline {
            return Err(format!("jobs did not settle within 120 s: {metrics}"));
        }
        std::thread::sleep(Duration::from_millis(10));
    };
    // The dump must survive a serialize → parse round trip (schema gate).
    let reparsed =
        Json::parse(&metrics.to_string()).map_err(|e| format!("metrics not valid JSON: {e}"))?;
    if reparsed != metrics {
        return Err("metrics dump does not round-trip".to_string());
    }
    if metrics.get("schema").and_then(Json::as_str) != Some(SCHEMA) {
        return Err(format!("metrics schema tag is not {SCHEMA}"));
    }
    let counter = |key: &str| -> Result<u64, String> {
        metrics
            .get(key)
            .and_then(Json::as_u64)
            .ok_or_else(|| format!("metrics missing counter `{key}`"))
    };
    for gauge in ["queue_depth", "parked", "in_flight"] {
        let v = counter(gauge)?;
        if v != 0 {
            return Err(format!("{gauge} = {v} after drain (expected 0)"));
        }
    }
    let (submitted, completed, failed, quarantined) =
        (counter("submitted")?, counter("completed")?, counter("failed")?, counter("quarantined")?);
    if submitted != completed + failed + quarantined {
        return Err(format!(
            "unsettled jobs: submitted {submitted} != completed {completed} + \
             failed {failed} + quarantined {quarantined}"
        ));
    }
    Ok(metrics)
}

/// Checks a metrics dump's fault counters against the storm's admitted
/// panic budget: one panic and one retry per budgeted panic (every budget
/// is below the default `max_attempts`), nothing quarantined.
///
/// # Errors
///
/// A description of the first counter that differs.
pub fn verify_budgeted_faults(metrics: &Json, panic_budget: u64) -> Result<(), String> {
    for (key, expected) in [("panics", panic_budget), ("retries", panic_budget), ("quarantined", 0)]
    {
        let found = metrics.get(key).and_then(Json::as_u64);
        if found != Some(expected) {
            return Err(format!(
                "`{key}` is {found:?}, expected {expected} for an admitted panic budget of \
                 {panic_budget}"
            ));
        }
    }
    Ok(())
}

/// Submits a clean waiting job set and requires its deterministic result
/// rows to be bit-identical to an offline [`BatchDriver`] run of the same
/// manifest — the "no cache poisoning" gate. The submission carries no
/// panic budget, so it runs clean on a server that just weathered a
/// storm.
///
/// # Errors
///
/// A description of the first divergent row.
pub fn post_chaos_identity(socket: &Path, insts: u64) -> Result<(), String> {
    let mut client = RetryClient::new(socket);
    let resp = client.request(&Json::obj([
        ("op", Json::from("submit")),
        ("kernels", Json::Arr(STORM_KERNELS.iter().map(|&k| Json::from(k)).collect())),
        ("insts", Json::from(insts)),
        ("client", Json::from("post-chaos")),
        ("wait", Json::Bool(true)),
    ]));
    if resp.get("ok").and_then(Json::as_bool) != Some(true) {
        return Err(format!("post-chaos submit failed: {resp}"));
    }

    let jobs: Vec<BatchJob> = Manifest::select(&STORM_KERNELS, insts)
        .ok_or("storm kernels missing from the workload suite")?
        .into_jobs()
        .into_iter()
        .map(|j| BatchJob::new(j.name, j.program))
        .collect();
    let offline = BatchDriver::new(1).run_round(&jobs).map_err(|e| e.to_string())?;

    for job in resp.get("jobs").and_then(Json::as_arr).ok_or("submit response missing jobs")? {
        let name = job.get("name").and_then(Json::as_str).ok_or("job missing name")?;
        if job.get("status").and_then(Json::as_str) != Some("done") {
            return Err(format!("post-chaos job {name} did not settle done: {job}"));
        }
        let result = job.get("result").ok_or("done job missing result")?;
        let reference = offline
            .jobs
            .iter()
            .find(|j| j.name == name)
            .ok_or_else(|| format!("offline round has no job {name}"))?;
        let expected = [
            ("cycles", reference.stats.cycles),
            ("retired_insts", reference.stats.retired_insts),
            ("loads", reference.cache_stats.loads),
            ("stores", reference.cache_stats.stores),
            ("l1_misses", reference.cache_stats.l1_misses),
            ("writebacks", reference.cache_stats.writebacks),
        ];
        for (key, offline_value) in expected {
            let served = result
                .get(key)
                .and_then(Json::as_u64)
                .ok_or_else(|| format!("job {name} result missing `{key}`"))?;
            if served != offline_value {
                return Err(format!(
                    "cache poisoning: job {name} {key} served {served} != offline {offline_value}"
                ));
            }
        }
    }
    Ok(())
}
