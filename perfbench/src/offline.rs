//! `cold_sweep` and `warm_rerun`: simulator jobs run directly on the
//! benchmark's one thread, bypassing the server.

use crate::jobs::{Job, Outcome};
use crate::trace::Tracer;
use fastsim_core::{
    CacheStats, JobReport, LevelStats, MemoStats, Mode, SimStats, Simulator, UArchConfig,
    WarmCacheSnapshot,
};
use fastsim_emu::SpecStats;
use std::time::Instant;

/// One timed job.
#[derive(Clone, Copy, Debug)]
pub struct JobTime {
    /// Which job of the list it ran.
    pub job: usize,
    /// The round (pass over the job list) it ran in.
    pub round: usize,
    pub secs: f64,
    pub insts: u64,
    pub ok: bool,
    /// Whether tracing was on while it ran.
    pub traced: bool,
}

/// The deterministic counters of one job, summed into the layer counts.
#[derive(Clone, Debug, Default)]
pub struct JobCounts {
    pub sim: SimStats,
    pub emu: SpecStats,
    pub cache: CacheStats,
    pub levels: Vec<LevelStats>,
    /// Memoization counters of this job alone (a warm job's snapshot
    /// counters subtracted).
    pub memo: MemoStats,
}

impl JobCounts {
    /// The counters of a finished simulator; `base` is the memoization
    /// state it was thawed from, if any.
    pub fn of(sim: &Simulator, base: Option<&MemoStats>) -> JobCounts {
        let now = sim.memo_stats().copied().unwrap_or_default();
        JobCounts {
            sim: *sim.stats(),
            emu: sim.emu_stats(),
            cache: *sim.cache_stats(),
            levels: sim.cache_level_stats().to_vec(),
            memo: memo_delta(&now, &base.copied().unwrap_or_default()),
        }
    }

    /// The counters of a batch job's report. The report carries no
    /// functional-engine counters; `emu` stays zero until filled in.
    pub fn of_report(report: &JobReport, base: &MemoStats) -> JobCounts {
        JobCounts {
            sim: report.stats,
            emu: SpecStats::default(),
            cache: report.cache_stats,
            levels: report.level_stats.clone(),
            memo: memo_delta(&report.memo, base),
        }
    }
}

/// The memoization counters one job added on top of `base`.
fn memo_delta(now: &MemoStats, base: &MemoStats) -> MemoStats {
    MemoStats {
        config_hits: now.config_hits - base.config_hits,
        config_misses: now.config_misses - base.config_misses,
        replay_segments_entered: now.replay_segments_entered - base.replay_segments_entered,
        replay_bailouts: now.replay_bailouts - base.replay_bailouts,
        chain_follows: now.chain_follows - base.chain_follows,
        ..MemoStats::default()
    }
}

/// What the timed phase measured.
#[derive(Default)]
pub struct Timed {
    pub jobs: Vec<JobTime>,
    /// Counters of the first run of every distinct job, by job index.
    pub counts: Vec<Option<JobCounts>>,
    /// Rounds run so far.
    pub rounds: usize,
}

/// Freezes a cold FastSim run of `job` into the snapshot a warm rerun
/// thaws (`WarmCache::freeze`, traced as `memo.freeze`).
pub fn freeze_cold_run(job: &Job, tr: &mut Tracer) -> Result<WarmCacheSnapshot, String> {
    let mut sim = Simulator::with_configs(
        &job.program,
        Mode::fast(),
        UArchConfig::table1(),
        job.hierarchy.clone(),
    )
    .map_err(|e| format!("{}: cold build: {e}", job.spec.kernel))?;
    sim.run_to_completion()
        .map_err(|e| format!("{}: cold run: {e}", job.spec.kernel))?;
    if Outcome::of(&sim) != job.reference {
        return Err(format!(
            "{}: cold FastSim run differs from SlowSim",
            job.spec.kernel
        ));
    }
    let warm = sim
        .take_warm_cache()
        .expect("a finished FastSim run yields a warm cache");
    let span = tr.begin("memo.freeze", job.id);
    let snapshot = warm.freeze();
    tr.end(span, 0);
    Ok(snapshot)
}

impl Timed {
    /// Appends a later timed stretch, numbering its rounds on from these.
    pub fn extend(&mut self, later: Timed) {
        let first = self.rounds;
        self.jobs.extend(later.jobs.into_iter().map(|j| JobTime {
            round: first + j.round,
            ..j
        }));
        self.counts.resize(later.counts.len(), None);
        for (mine, theirs) in self.counts.iter_mut().zip(later.counts) {
            if mine.is_none() {
                *mine = theirs;
            }
        }
        self.rounds += later.rounds;
    }
}

/// Runs whole rounds over `order` until `seconds` have passed, timing each
/// job from simulator construction to completion. Whole rounds keep the
/// job mix identical from seed to seed.
///
/// With `alternate`, tracing is off on even rounds and on on odd ones (at
/// least one of each), so one run yields both the traced and the untraced
/// rate.
pub fn run_timed(
    jobs: &[Job],
    warm: &[WarmCacheSnapshot],
    order: &[usize],
    seconds: f64,
    tr: &mut Tracer,
    alternate: bool,
) -> Timed {
    let start = Instant::now();
    let mut out = Timed {
        counts: vec![None; jobs.len()],
        ..Timed::default()
    };
    let min_rounds = if alternate { 2 } else { 1 };
    let mut round = 0usize;
    while round < min_rounds || start.elapsed().as_secs_f64() < seconds {
        if alternate {
            tr.set_on(round % 2 == 1);
        }
        for &i in order {
            let job = &jobs[i];
            let snap = warm.get(i);
            let root = tr.begin("job", job.id);
            let t0 = Instant::now();
            let sim = build(job, snap, tr);
            let (secs, result) = match sim {
                Some(mut sim) => {
                    let span = tr.begin("engine.run", job.id);
                    let ran = sim.run_to_completion();
                    tr.end(span, sim.stats().retired_insts);
                    (t0.elapsed().as_secs_f64(), ran.ok().map(|()| sim))
                }
                None => (t0.elapsed().as_secs_f64(), None),
            };
            tr.end(root, 0);
            let (ok, insts) = match &result {
                Some(sim) => (Outcome::of(sim) == job.reference, sim.stats().retired_insts),
                None => (false, 0),
            };
            if let (Some(sim), None) = (&result, &out.counts[i]) {
                out.counts[i] = Some(JobCounts::of(sim, snap.map(|s| s.stats())));
            }
            out.jobs.push(JobTime {
                job: i,
                round,
                secs,
                insts,
                ok,
                traced: tr.is_on(),
            });
        }
        round += 1;
    }
    out.rounds = round;
    out
}

/// Builds one timed job's simulator: a fresh FastSim simulator with an
/// empty p-action cache (`sim.build`), or one thawed from the job's warm
/// snapshot (`memo.thaw`, `Simulator::with_warm_snapshot`).
fn build(job: &Job, warm: Option<&WarmCacheSnapshot>, tr: &mut Tracer) -> Option<Simulator> {
    let name = if warm.is_some() {
        "memo.thaw"
    } else {
        "sim.build"
    };
    let span = tr.begin(name, job.id);
    let sim = match warm {
        None => Simulator::with_configs(
            &job.program,
            Mode::fast(),
            UArchConfig::table1(),
            job.hierarchy.clone(),
        ),
        Some(snap) => Simulator::with_warm_snapshot(
            &job.program,
            snap,
            UArchConfig::table1(),
            job.hierarchy.clone(),
        ),
    };
    tr.end(span, 0);
    sim.ok()
}
