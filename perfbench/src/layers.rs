//! Turns one run's timings, spans and counters into the named metrics.

use crate::offline::JobCounts;
use crate::probe::{BatchReplay, ProbeOut};
use crate::served::{counter, COUNTERS};
use crate::stats::{quantile, sorted, summarize, tail_percentile, Summary};
use crate::trace::{self_times_ns, Tracer};
use fastsim_serve::json::Json;
use std::collections::{BTreeMap, BTreeSet};

/// One printed metric.
pub struct Metric {
    pub name: &'static str,
    pub unit: &'static str,
    pub value: f64,
    /// Median, quartiles and sample count, for metrics that are a median.
    pub detail: Option<Summary>,
    /// Extra words for the `#` detail line.
    pub note: String,
}

impl Metric {
    fn value(name: &'static str, unit: &'static str, value: f64) -> Metric {
        Metric {
            name,
            unit,
            value,
            detail: None,
            note: String::new(),
        }
    }

    fn median(name: &'static str, unit: &'static str, sample: &[f64]) -> Metric {
        match summarize(sample) {
            Some(s) => Metric {
                name,
                unit,
                value: s.median,
                detail: Some(s),
                note: String::new(),
            },
            None => Metric {
                note: " (no samples)".into(),
                ..Metric::value(name, unit, 0.0)
            },
        }
    }
}

/// One timed job or submit.
#[derive(Clone, Copy, Debug)]
pub struct Run {
    /// Which job of the workload's list it ran.
    pub job: usize,
    pub round: usize,
    pub secs: f64,
    pub insts: u64,
    pub traced: bool,
}

/// The timed work the timing metrics are computed from.
struct Timing {
    insts: u64,
    jobs: usize,
    secs: f64,
    /// Ascending latencies in ms.
    lat_ms: Vec<f64>,
    /// Which runs were used, for the `#` detail line.
    note: String,
}

impl Timing {
    fn minsts_per_s(&self) -> f64 {
        self.insts as f64 / self.secs / 1e6
    }

    fn latency(&self, p: f64) -> f64 {
        if self.lat_ms.is_empty() {
            0.0
        } else {
            quantile(&self.lat_ms, p)
        }
    }
}

/// Each distinct job's fastest run, in job order.
///
/// An offline job is identical work every time it runs (a fresh or
/// freshly thawed simulator, nothing carried over from the last run), and
/// interference from outside the process only ever slows a run down, so
/// a job's fastest run is the one the host disturbed least. Each job runs
/// once per round, dozens of times in a timed phase; a change that slows
/// a job slows every run of it, the fastest included.
fn fastest_per_job(runs: &[Run]) -> Vec<Run> {
    let mut best: BTreeMap<usize, Run> = BTreeMap::new();
    for r in runs {
        best.entry(r.job)
            .and_modify(|b| {
                if r.secs < b.secs {
                    *b = *r;
                }
            })
            .or_insert(*r);
    }
    best.into_values().collect()
}

/// The timing of the runs whose tracing state is `traced` (all runs when
/// `None`).
///
/// Offline (`round_walls` is `None`): each job's fastest run
/// ([`fastest_per_job`]), timed from simulator construction to
/// completion. Served: every submit, and a round's seconds are its wall
/// time. Served rounds do not repeat identical work — the server's
/// re-freezes, journal compactions and snapshot writes fall on some
/// submits and not others — so picking fast submits would pick work, not
/// quiet host time.
fn timing(runs: &[Run], round_walls: Option<&[f64]>, traced: Option<bool>) -> Timing {
    let kept: Vec<Run> = runs
        .iter()
        .filter(|r| traced.is_none_or(|t| r.traced == t))
        .copied()
        .collect();
    let lat_ms = |rs: &[Run]| sorted(rs.iter().map(|r| r.secs * 1e3).collect());
    match round_walls {
        None => {
            let best = fastest_per_job(&kept);
            let n_rounds = kept.iter().map(|r| r.round).collect::<BTreeSet<_>>().len();
            Timing {
                insts: best.iter().map(|r| r.insts).sum(),
                jobs: best.len(),
                secs: best.iter().map(|r| r.secs).sum(),
                lat_ms: lat_ms(&best),
                note: format!(
                    " (fastest of {n_rounds} runs of each of {} jobs)",
                    best.len()
                ),
            }
        }
        Some(walls) => {
            let rounds: BTreeSet<usize> = kept.iter().map(|r| r.round).collect();
            Timing {
                insts: kept.iter().map(|r| r.insts).sum(),
                jobs: kept.len(),
                secs: rounds.iter().map(|&i| walls[i]).sum(),
                lat_ms: lat_ms(&kept),
                note: format!(" ({} rounds, n {})", rounds.len(), kept.len()),
            }
        }
    }
}

/// The end-to-end metrics; timings come from [`timing`].
pub fn end_to_end(
    runs: &[Run],
    round_walls: Option<&[f64]>,
    setup_secs: &[f64],
    attempted: usize,
    failed: usize,
) -> Vec<Metric> {
    let t = timing(runs, round_walls, None);
    let timed = |name, unit, value| Metric {
        note: t.note.clone(),
        ..Metric::value(name, unit, value)
    };
    vec![
        timed("sim_minsts_per_s", "Minst/s", t.minsts_per_s()),
        timed("serve_jobs_per_s", "jobs/s", t.jobs as f64 / t.secs),
        timed("serve_p50_ms", "ms", t.latency(0.5)),
        timed("serve_p90_ms", "ms", t.latency(0.9)),
        Metric::median("setup_s", "s", setup_secs),
        Metric::value(
            "peak_rss_mb",
            "MiB",
            crate::host::peak_rss_mb().unwrap_or(0.0),
        ),
        Metric::value(
            "success_rate",
            "fraction",
            (attempted - failed) as f64 / attempted.max(1) as f64,
        ),
    ]
}

/// What the serve layer measured: client latencies, the offline
/// `run_single` + `merge_delta` time of the same jobs in the same order,
/// and the server's metrics before and after each stretch of submits
/// (one per server booted).
pub struct ServeLayer {
    pub latencies: Vec<f64>,
    pub offline_secs: Vec<f64>,
    pub windows: Vec<(Json, Json)>,
}

/// Per-span samples of one span name.
struct Spans<'a> {
    tr: &'a Tracer,
    self_ns: Vec<u64>,
}

impl Spans<'_> {
    /// `f(self_ns, work)` over every span called `name` (spans without
    /// work are skipped when `needs_work`).
    fn sample(&self, name: &str, needs_work: bool, f: impl Fn(f64, f64) -> f64) -> Vec<f64> {
        self.tr
            .spans()
            .iter()
            .zip(&self.self_ns)
            .filter(|(s, &ns)| s.name == name && ns > 0 && (!needs_work || s.work > 0))
            .map(|(s, &ns)| f(ns as f64, s.work as f64))
            .collect()
    }

    fn ms(&self, name: &str) -> Vec<f64> {
        self.sample(name, false, |ns, _| ns / 1e6)
    }

    fn ns_per_unit(&self, name: &str) -> Vec<f64> {
        self.sample(name, true, |ns, w| ns / w)
    }

    fn millions_per_s(&self, name: &str) -> Vec<f64> {
        self.sample(name, true, |ns, w| w / ns * 1e3)
    }
}

fn ratio(num: u64, den: u64) -> f64 {
    if den == 0 {
        0.0
    } else {
        num as f64 / den as f64
    }
}

/// Every per-layer metric of a traced run.
pub fn per_layer(
    tr: &Tracer,
    runs: &[Run],
    round_walls: Option<&[f64]>,
    counts: &[JobCounts],
    probes: &ProbeOut,
    replay: &BatchReplay,
    serve: &ServeLayer,
) -> Vec<Metric> {
    let sp = Spans {
        tr,
        self_ns: self_times_ns(tr.spans()),
    };
    let sum = |f: &dyn Fn(&JobCounts) -> u64| counts.iter().map(f).sum::<u64>();
    let level = |k: usize, f: &dyn Fn(&fastsim_core::LevelStats) -> u64| {
        counts
            .iter()
            .filter_map(|c| c.levels.get(k))
            .map(f)
            .sum::<u64>()
    };
    let cycles = sum(&|c| c.sim.cycles);
    let detailed = sum(&|c| c.sim.detailed_cycles);
    let hits = sum(&|c| c.memo.config_hits);
    let misses = sum(&|c| c.memo.config_misses);

    let overhead: Vec<f64> = serve
        .latencies
        .iter()
        .zip(&serve.offline_secs)
        .map(|(lat, off)| (lat - off) * 1e3)
        .collect();
    let lat = sorted(serve.latencies.iter().map(|s| s * 1e3).collect());
    let tail = match tail_percentile(lat.len()) {
        Some(p) => Metric {
            note: format!(" (p{p} of n {})", lat.len()),
            ..Metric::value("serve.tail_ms", "ms", quantile(&lat, p / 100.0))
        },
        None => Metric {
            note: format!(
                " (max of n {}: too few samples for a percentile)",
                lat.len()
            ),
            ..Metric::value("serve.tail_ms", "ms", lat.last().copied().unwrap_or(0.0))
        },
    };
    let rate_when = |traced| timing(runs, round_walls, Some(traced)).minsts_per_s();
    let (u, t) = (rate_when(false), rate_when(true));

    let mut m = vec![
        Metric::median("workloads.build_ms", "ms", &sp.ms("workloads.build")),
        Metric::median("isa.predecode_ms", "ms", &sp.ms("isa.predecode")),
        Metric::median(
            "emu.func_minsts_per_s",
            "Minst/s",
            &sp.millions_per_s("emu.func"),
        ),
        Metric::median(
            "emu.spec_minsts_per_s",
            "Minst/s",
            &sp.millions_per_s("emu.spec"),
        ),
        Metric::value(
            "emu.wrong_path_insts",
            "count",
            sum(&|c| c.emu.wrong_path_insts) as f64,
        ),
        Metric::value("emu.rollbacks", "count", sum(&|c| c.emu.rollbacks) as f64),
        Metric::median("mem.ns_per_access", "ns", &sp.ns_per_unit("mem.stream")),
        Metric::value(
            "mem.accesses",
            "count",
            sum(&|c| c.cache.loads + c.cache.stores) as f64,
        ),
        Metric::value(
            "mem.l1_miss_rate",
            "fraction",
            ratio(level(0, &|l| l.misses), level(0, &|l| l.hits + l.misses)),
        ),
        Metric::value(
            "mem.l2_miss_rate",
            "fraction",
            ratio(level(1, &|l| l.misses), level(1, &|l| l.hits + l.misses)),
        ),
        Metric::median(
            "uarch.slow_ns_per_cycle",
            "ns",
            &sp.ns_per_unit("uarch.slow_run"),
        ),
        Metric::median("uarch.encode_ns", "ns", &sp.ns_per_unit("uarch.encode")),
        Metric::value("uarch.detailed_cycles", "count", detailed as f64),
        Metric::value(
            "uarch.detailed_cycle_share",
            "fraction",
            ratio(detailed, cycles),
        ),
        Metric::median(
            "uarch.detailed_time_share",
            "fraction",
            &probes.detailed_time_share,
        ),
        Metric::median("memo.insert_ns", "ns", &sp.ns_per_unit("memo.insert")),
        Metric::median("memo.lookup_ns", "ns", &sp.ns_per_unit("memo.lookup")),
        Metric::median("memo.thaw_ms", "ms", &sp.ms("memo.thaw")),
        Metric::median("memo.freeze_ms", "ms", &sp.ms("memo.freeze")),
        Metric::median(
            "memo.encode_mb_per_s",
            "MB/s",
            &sp.millions_per_s("memo.encode"),
        ),
        Metric::median(
            "memo.decode_mb_per_s",
            "MB/s",
            &sp.millions_per_s("memo.decode"),
        ),
        Metric::median(
            "memo.snapshot_bytes",
            "bytes",
            &sp.sample("memo.encode", true, |_, w| w),
        ),
        Metric::value("memo.hit_rate", "fraction", ratio(hits, hits + misses)),
        Metric::value("memo.config_misses", "count", misses as f64),
        Metric::value(
            "memo.replayed_actions",
            "count",
            sum(&|c| c.sim.replayed_actions) as f64,
        ),
        Metric::value(
            "memo.segments_entered",
            "count",
            sum(&|c| c.memo.replay_segments_entered) as f64,
        ),
        Metric::value(
            "memo.bailouts",
            "count",
            sum(&|c| c.memo.replay_bailouts) as f64,
        ),
        Metric::value(
            "memo.chain_follows",
            "count",
            sum(&|c| c.memo.chain_follows) as f64,
        ),
        Metric::median("engine.run_ms", "ms", &sp.ms("engine.run")),
        Metric::median("batch.run_single_ms", "ms", &sp.ms("batch.run_single")),
        Metric::median("batch.merge_delta_ms", "ms", &sp.ms("batch.merge_delta")),
        Metric::median("batch.refreeze_ms", "ms", &sp.ms("batch.refreeze")),
        Metric::value("batch.refreezes", "count", replay.refreezes as f64),
        Metric::median("store.save_ms", "ms", &sp.ms("store.save")),
        Metric::median("store.load_ms", "ms", &sp.ms("store.load")),
        Metric::median("serve.overhead_ms", "ms", &overhead),
        Metric::median(
            "serve.journal_append_us",
            "us",
            &sp.sample("serve.journal_append", false, |ns, _| ns / 1e3),
        ),
        Metric::median("serve.metrics_ms", "ms", &sp.ms("serve.metrics")),
    ];
    for (name, path) in COUNTERS {
        let delta: u64 = serve
            .windows
            .iter()
            .map(|(before, after)| counter(after, path).saturating_sub(counter(before, path)))
            .sum();
        m.push(Metric::value(name, "count", delta as f64));
    }
    m.push(tail);
    m.push(Metric {
        note: format!(" (untraced {u:.4} vs traced {t:.4} Minst/s)"),
        ..Metric::value("trace.overhead_pct", "%", (u - t) / u * 100.0)
    });
    m
}

#[cfg(test)]
mod tests {
    use super::*;

    fn run(job: usize, round: usize, secs: f64) -> Run {
        Run {
            job,
            round,
            secs,
            insts: 1_000_000,
            traced: round % 2 == 1,
        }
    }

    #[test]
    fn offline_timing_takes_each_jobs_fastest_run() {
        // Job j's run in round r takes (j + 1) s plus r/10 s of
        // interference, except one quiet run of job 1 in round 4.
        let mut runs: Vec<Run> = (0..6)
            .flat_map(|r| (0..3).map(move |j| run(j, r, (j + 1) as f64 + r as f64 / 10.0)))
            .collect();
        runs[4 * 3 + 1].secs = 1.5;
        let best = fastest_per_job(&runs);
        assert_eq!(
            best.iter()
                .map(|r| (r.job, r.round, r.secs))
                .collect::<Vec<_>>(),
            vec![(0, 0, 1.0), (1, 4, 1.5), (2, 0, 3.0)]
        );
        let t = timing(&runs, None, None);
        assert_eq!((t.insts, t.jobs, t.secs), (3_000_000, 3, 5.5));
        assert_eq!(t.lat_ms, vec![1000.0, 1500.0, 3000.0]);
        // The traced (odd) rounds alone: every job's fastest is round 1's.
        let t = timing(&runs, None, Some(true));
        assert!((t.secs - (1.1 + 2.1 + 3.1)).abs() < 1e-9);
    }

    #[test]
    fn served_timing_takes_every_submit_and_round_walls() {
        let runs: Vec<Run> = (0..4)
            .flat_map(|r| (0..2).map(move |j| run(j, r, 0.001 * (j + 1) as f64)))
            .collect();
        let walls = [0.01, 0.02, 0.03, 0.04];
        let t = timing(&runs, Some(&walls), None);
        assert_eq!((t.jobs, t.insts), (8, 8_000_000));
        assert!((t.secs - 0.1).abs() < 1e-12);
        assert!((t.latency(0.5) - 1.5).abs() < 1e-9);
        let t = timing(&runs, Some(&walls), Some(false));
        assert_eq!(t.jobs, 4);
        assert!((t.secs - 0.04).abs() < 1e-12);
    }
}
