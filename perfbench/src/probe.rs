//! The traced run's layer probes: after the timed phase, the workload's
//! own jobs are fed through each module's public functions one layer at a
//! time, every call inside a span. Each probe also checks its results
//! against the job's SlowSim reference, so a probe can never time wrong
//! work.

use crate::jobs::{Job, Outcome};
use crate::offline::JobCounts;
use crate::served::{batch_job, ServedResult};
use crate::trace::Tracer;
use fastsim_core::{
    run_single, BatchDriver, Mode, PipelineState, Simulator, SnapshotStore, UArchConfig,
    WarmCacheSnapshot,
};
use fastsim_emu::{CtrlKind, FuncEmulator, FuncStopReason, RunOutcome, SpecEmulator, SpecStats};
use fastsim_mem::{CacheSim, PollResult};
use fastsim_memo::{ActionKind, ConfigLookup, PActionCache, Policy, RetireCounts};
use fastsim_serve::journal::{Journal, JournalRecord, SubmitRecord};
use fastsim_uarch::encode_config_into;
use std::cell::RefCell;
use std::collections::{HashMap, HashSet};
use std::path::Path;
use std::rc::Rc;
use std::time::Instant;

/// Pipeline states captured per job for the encode and p-action-cache
/// probes, from the first `CAPTURE_INSTS` instructions of a SlowSim run.
const MAX_STATES: usize = 1024;
const CAPTURE_INSTS: u64 = 40_000;
/// Encodings timed per `uarch.encode` span.
const ENCODES_PER_SPAN: usize = 4096;
/// Merges per group between re-freezes, as the server's default.
pub const REFREEZE_EVERY: usize = 4;
/// Records appended by the journal probe.
const JOURNAL_APPENDS: u64 = 64;

/// Per-job results of the probes that are not spans.
#[derive(Default)]
pub struct ProbeOut {
    /// `1 − warm ÷ cold` host time of each probed job.
    pub detailed_time_share: Vec<f64>,
    /// Functional-engine counters of each probed job's cold run, by job
    /// id (they do not depend on warmth).
    pub emu: HashMap<u64, SpecStats>,
    /// Probe results that differed from the reference.
    pub failures: Vec<String>,
}

enum Access {
    Load { id: u64, addr: u32, width: u32 },
    Store { addr: u32, width: u32 },
}

/// Retires everything the emulator has queued, appending the memory
/// accesses to `stream` (loads, then stores, of each control block).
fn retire_all(emu: &mut SpecEmulator, stream: &mut Vec<Access>) {
    while let Some(l) = emu.pop_load() {
        stream.push(Access::Load {
            id: l.seq,
            addr: l.addr,
            width: l.width,
        });
    }
    while let Some(s) = emu.pop_store() {
        stream.push(Access::Store {
            addr: s.addr,
            width: s.width,
        });
    }
    while emu.pop_ctrl().is_some() {}
}

/// Drives the speculative emulator along the committed path: to each
/// control transfer, rolling back at once on a mispredicted branch, and
/// retiring as it goes.
fn drive_committed(emu: &mut SpecEmulator, stream: &mut Vec<Access>) -> Result<(), String> {
    loop {
        match emu.run_to_next_control().map_err(|e| e.to_string())? {
            RunOutcome::Control(rec) => {
                if rec.mispredicted && rec.kind == CtrlKind::CondBranch {
                    emu.rollback(rec.seq);
                }
                retire_all(emu, stream);
            }
            RunOutcome::Halted => {
                retire_all(emu, stream);
                return Ok(());
            }
            RunOutcome::Blocked => return Err("committed path left the code segment".into()),
        }
    }
}

/// Replays a load/store stream through the cache model in order, each
/// load polled until its data is ready.
fn replay_stream(cache: &mut CacheSim, stream: &[Access]) {
    let mut now = 0u64;
    for access in stream {
        match *access {
            Access::Load { id, addr, width } => {
                let mut wait = cache.issue_load(id, addr, width, now);
                loop {
                    now += u64::from(wait.max(1));
                    match cache.poll_load(id, now) {
                        PollResult::Ready => break,
                        PollResult::Wait(w) => wait = w,
                    }
                }
            }
            Access::Store { addr, width } => {
                cache.issue_store(addr, width, now);
                now += 1;
            }
        }
    }
}

/// Samples pipeline states from the start of a SlowSim run.
fn capture_states(job: &Job) -> Result<Vec<PipelineState>, String> {
    let mut sim = Simulator::with_configs(
        &job.program,
        Mode::Slow,
        UArchConfig::table1(),
        job.hierarchy.clone(),
    )
    .map_err(|e| e.to_string())?;
    let states = Rc::new(RefCell::new(Vec::new()));
    let sink = states.clone();
    sim.set_cycle_observer(Some(Box::new(move |_, state, _| {
        let mut sink = sink.borrow_mut();
        if sink.len() < MAX_STATES && !state.iq.is_empty() {
            sink.push(state.clone());
        }
    })));
    sim.run(CAPTURE_INSTS).map_err(|e| e.to_string())?;
    sim.set_cycle_observer(None);
    Ok(Rc::into_inner(states)
        .expect("the observer was dropped")
        .into_inner())
}

/// Runs every single-job probe on `job`.
pub fn probe_job(job: &Job, tr: &mut Tracer, out: &mut ProbeOut) {
    if let Err(e) = try_probe_job(job, tr, out) {
        out.failures
            .push(format!("{}@{}: {e}", job.spec.kernel, job.spec.preset));
    }
}

fn try_probe_job(job: &Job, tr: &mut Tracer, out: &mut ProbeOut) -> Result<(), String> {
    let id = job.id;
    let reference = &job.reference;
    if crate::jobs::slow_reference(&job.spec, &job.program, id, tr)? != *reference {
        return Err("SlowSim differs from the pinned reference".into());
    }

    let span = tr.begin("isa.predecode", id);
    let decoded = job.program.predecode();
    tr.end(span, job.program.words.len() as u64);
    let decoded = Rc::new(decoded.map_err(|e| e.to_string())?);

    let mut func = FuncEmulator::new(decoded.clone(), &job.program);
    let span = tr.begin("emu.func", id);
    let ran = func.run(u64::MAX);
    tr.end(span, ran.insts);
    if ran.stop != FuncStopReason::Halted || func.output() != reference.output.as_slice() {
        return Err("functional emulator output differs from SlowSim".into());
    }

    let mut spec = SpecEmulator::new(decoded.clone(), &job.program);
    let mut stream = Vec::new();
    let span = tr.begin("emu.spec", id);
    let drove = drive_committed(&mut spec, &mut stream);
    let st = spec.stats();
    tr.end(span, st.insts_executed - st.wrong_path_insts);
    drove?;
    if spec.output() != reference.output.as_slice() {
        return Err("speculative emulator output differs from SlowSim".into());
    }

    let mut cache = CacheSim::new(job.hierarchy.clone());
    let span = tr.begin("mem.stream", id);
    replay_stream(&mut cache, &stream);
    tr.end(span, stream.len() as u64);

    let states = capture_states(job)?;
    let mut scratch = Vec::new();
    let passes = (ENCODES_PER_SPAN / states.len().max(1)).max(1);
    let span = tr.begin("uarch.encode", id);
    for _ in 0..passes {
        for st in &states {
            encode_config_into(&mut scratch, std::hint::black_box(st), &decoded);
            std::hint::black_box(&scratch);
        }
    }
    tr.end(span, (passes * states.len()) as u64);

    let mut seen = HashSet::new();
    let encodings: Vec<Vec<u8>> = states
        .iter()
        .map(|st| {
            encode_config_into(&mut scratch, st, &decoded);
            scratch.clone()
        })
        .filter(|e| seen.insert(e.clone()))
        .collect();
    let mut pcache = PActionCache::new(Policy::Unbounded);
    let span = tr.begin("memo.insert", id);
    for e in &encodings {
        if pcache.register_config(e) == ConfigLookup::Miss {
            pcache.record_action(ActionKind::Advance {
                cycles: 1,
                retired: RetireCounts::default(),
            });
        }
    }
    tr.end(span, encodings.len() as u64);
    let span = tr.begin("memo.lookup", id);
    let hits = encodings
        .iter()
        .filter(|e| pcache.register_config(e) != ConfigLookup::Miss)
        .count();
    tr.end(span, encodings.len() as u64);
    if hits != encodings.len() {
        return Err("a registered configuration missed on lookup".into());
    }

    let t0 = Instant::now();
    let span = tr.begin("probe.cold_run", id);
    let cold = Simulator::with_configs(
        &job.program,
        Mode::fast(),
        UArchConfig::table1(),
        job.hierarchy.clone(),
    );
    let mut cold = cold.map_err(|e| e.to_string())?;
    let run = tr.begin("engine.run", id);
    let ran = cold.run_to_completion();
    tr.end(run, cold.stats().retired_insts);
    tr.end(span, 0);
    let cold_s = t0.elapsed().as_secs_f64();
    ran.map_err(|e| e.to_string())?;
    if Outcome::of(&cold) != *reference {
        return Err("cold FastSim run differs from SlowSim".into());
    }
    out.emu.insert(id, cold.emu_stats());
    let warm = cold
        .take_warm_cache()
        .expect("a finished FastSim run yields a warm cache");
    let span = tr.begin("memo.freeze", id);
    let snapshot = warm.freeze();
    tr.end(span, 0);
    let span = tr.begin("memo.encode", id);
    let bytes = snapshot.encode();
    tr.end(span, bytes.len() as u64);
    let span = tr.begin("memo.decode", id);
    let decoded_snap = WarmCacheSnapshot::decode(&bytes, Some(snapshot.fingerprint()));
    tr.end(span, bytes.len() as u64);
    let decoded_snap = decoded_snap.map_err(|e| e.to_string())?;

    let t0 = Instant::now();
    let span = tr.begin("probe.warm_run", id);
    let thaw = tr.begin("memo.thaw", id);
    let sim = Simulator::with_warm_snapshot(
        &job.program,
        &decoded_snap,
        UArchConfig::table1(),
        job.hierarchy.clone(),
    );
    tr.end(thaw, 0);
    let mut sim = sim.map_err(|e| e.to_string())?;
    let run = tr.begin("engine.run", id);
    let ran = sim.run_to_completion();
    tr.end(run, sim.stats().retired_insts);
    tr.end(span, 0);
    let warm_s = t0.elapsed().as_secs_f64();
    ran.map_err(|e| e.to_string())?;
    if Outcome::of(&sim) != *reference {
        return Err("warm FastSim run differs from SlowSim".into());
    }
    out.detailed_time_share.push(1.0 - warm_s / cold_s);
    Ok(())
}

/// What replaying a job stream offline through the batch layer measured.
#[derive(Default)]
pub struct BatchReplay {
    /// `run_single` plus `merge_delta` host seconds, by stream position.
    pub job_secs: Vec<f64>,
    /// Each job's result and counters, by stream position.
    pub results: Vec<ServedResult>,
    pub counts: Vec<JobCounts>,
    pub refreezes: u64,
}

/// Replays `stream` (indices into `jobs`) through `run_single`,
/// `merge_delta` and a `current_snapshot` re-freeze every
/// [`REFREEZE_EVERY`] merges per group, persisting each re-freeze to a
/// snapshot store in `store_dir` and loading every group back at the end:
/// the server's job path without the server.
pub fn replay_batch(
    jobs: &[Job],
    stream: &[usize],
    store_dir: &Path,
    tr: &mut Tracer,
    out: &mut ProbeOut,
) -> Result<BatchReplay, String> {
    let _ = std::fs::remove_dir_all(store_dir);
    let store =
        SnapshotStore::open(store_dir).map_err(|e| format!("{}: {e}", store_dir.display()))?;
    let mut batch = BatchDriver::new(1);
    let mut groups: HashMap<u64, (WarmCacheSnapshot, usize)> = HashMap::new();
    let mut replay = BatchReplay::default();
    for &i in stream {
        let job = &jobs[i];
        let b = batch_job(job);
        let fp = batch.ensure_group(&b);
        let snap = groups
            .entry(fp)
            .or_insert_with(|| {
                (
                    batch
                        .current_snapshot(fp)
                        .expect("the group was just ensured"),
                    0,
                )
            })
            .0
            .clone();
        let t0 = Instant::now();
        let span = tr.begin("batch.run_single", job.id);
        let single = run_single(&b, &snap, None);
        tr.end(
            span,
            single.as_ref().map_or(0, |s| s.report.stats.retired_insts),
        );
        let single = single.map_err(|e| format!("{}: run_single: {e}", job.spec.kernel))?;
        let span = tr.begin("batch.merge_delta", job.id);
        batch.merge_delta(fp, &single.delta);
        tr.end(span, 0);
        replay.job_secs.push(t0.elapsed().as_secs_f64());
        let result = ServedResult::of_report(&single.report);
        if !result.matches(&job.reference) {
            out.failures.push(format!(
                "{}: run_single differs from SlowSim",
                job.spec.kernel
            ));
        }
        replay.results.push(result);
        replay
            .counts
            .push(JobCounts::of_report(&single.report, snap.stats()));
        let group = groups.get_mut(&fp).expect("inserted above");
        group.1 += 1;
        if group.1 >= REFREEZE_EVERY {
            let span = tr.begin("batch.refreeze", job.id);
            let fresh = batch.current_snapshot(fp).expect("the group exists");
            tr.end(span, 0);
            replay.refreezes += 1;
            let span = tr.begin("store.save", job.id);
            let saved = store.save(&fresh);
            tr.end(span, saved.as_ref().map_or(0, |s| s.bytes as u64));
            saved.map_err(|e| format!("snapshot save: {e}"))?;
            *group = (fresh, 0);
        }
    }
    let mut fps: Vec<u64> = groups.keys().copied().collect();
    fps.sort_unstable();
    for fp in fps {
        let span = tr.begin("store.load", 0);
        let loaded = store.load_latest(fp);
        tr.end(
            span,
            loaded
                .as_ref()
                .ok()
                .and_then(|(l, _)| l.as_ref())
                .map_or(0, |l| l.bytes as u64),
        );
        loaded.map_err(|e| format!("snapshot load: {e}"))?;
    }
    let _ = std::fs::remove_dir_all(store_dir);
    Ok(replay)
}

/// Appends submit records to a fresh journal in `dir`, each one written
/// and synced by `Journal::append`.
pub fn probe_journal(dir: &Path, tr: &mut Tracer) -> Result<(), String> {
    let _ = std::fs::remove_dir_all(dir);
    let (mut journal, _) = Journal::open(dir).map_err(|e| format!("journal open: {e}"))?;
    for id in 1..=JOURNAL_APPENDS {
        let record = JournalRecord::Submit(SubmitRecord {
            id,
            name: "129.compress".to_string(),
            kernel: "129.compress".to_string(),
            insts: 20_000,
            client: "perfbench".to_string(),
            band: 0,
            hierarchy: None,
            timeout_ms: None,
            chaos_panics: 0,
        });
        let span = tr.begin("serve.journal_append", id);
        let appended = journal.append(&record);
        tr.end(span, 1);
        appended.map_err(|e| format!("journal append: {e}"))?;
    }
    drop(journal);
    let _ = std::fs::remove_dir_all(dir);
    Ok(())
}
