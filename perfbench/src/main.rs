//! `perfbench` — the FastSim-RS benchmark: one named workload per process,
//! every end-to-end metric (or, traced, every per-layer metric) printed by
//! name with its unit, and every result checked against SlowSim.
//!
//! ```text
//! perfbench --workload cold_sweep|warm_rerun|served_jobs [--seed N]
//!           [--seconds S] [--trace 0|1] [--size full|smoke] [--wrong-reference]
//! perfbench --pin-references PATH
//! ```
//!
//! The last line of standard output is one JSON object:
//! `{"correct": .., "attempted": .., "failed": .., "metrics": {name: {"value", "unit"}}}`.
//! Lines before it start with `#`: the host context, and in a traced run
//! each per-layer metric's median, quartiles and sample count. The exit
//! code is 0 only when every result equals its reference. See
//! `perfbench/README.md` for the metrics, the workloads and why they exist.

mod host;
mod jobs;
mod layers;
mod offline;
mod probe;
mod served;
mod stats;
mod trace;

use jobs::{Job, Size};
use layers::Metric;
use std::path::{Path, PathBuf};
use std::process::ExitCode;
use std::time::Instant;
use trace::Tracer;

/// The seed used when `--seed` is not given.
const DEFAULT_SEED: u64 = 1;
/// Scratch files (journal, snapshot store, socket, span dump) live under
/// this directory of the working directory.
const RUN_DIR: &str = ".perfbench_run";

#[derive(Clone, Copy, Debug, PartialEq, Eq)]
enum Workload {
    ColdSweep,
    WarmRerun,
    ServedJobs,
}

impl Workload {
    fn parse(name: &str) -> Option<Workload> {
        match name {
            "cold_sweep" => Some(Workload::ColdSweep),
            "warm_rerun" => Some(Workload::WarmRerun),
            "served_jobs" => Some(Workload::ServedJobs),
            _ => None,
        }
    }

    fn name(self) -> &'static str {
        match self {
            Workload::ColdSweep => "cold_sweep",
            Workload::WarmRerun => "warm_rerun",
            Workload::ServedJobs => "served_jobs",
        }
    }
}

struct Args {
    workload: Workload,
    seed: u64,
    seconds: f64,
    trace: bool,
    size: Size,
    /// Corrupts the first job's reference, to show that a mismatch fails
    /// the run.
    wrong_reference: bool,
}

const USAGE: &str = "usage: perfbench --workload cold_sweep|warm_rerun|served_jobs [--seed N] \
                     [--seconds S] [--trace 0|1] [--size full|smoke] [--wrong-reference]\n       \
                     perfbench --pin-references PATH";

fn parse_args() -> Result<Args, String> {
    let mut workload = None;
    let mut args = Args {
        workload: Workload::ColdSweep,
        seed: DEFAULT_SEED,
        seconds: 20.0,
        trace: false,
        size: Size::FULL,
        wrong_reference: false,
    };
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let mut value = || it.next().ok_or_else(|| format!("{flag} needs a value"));
        match flag.as_str() {
            "--workload" => {
                let v = value()?;
                workload =
                    Some(Workload::parse(&v).ok_or_else(|| format!("unknown workload `{v}`"))?);
            }
            "--seed" => args.seed = value()?.parse().map_err(|e| format!("--seed: {e}"))?,
            "--seconds" => {
                args.seconds = value()?.parse().map_err(|e| format!("--seconds: {e}"))?;
                if !(args.seconds.is_finite() && args.seconds >= 0.0) {
                    return Err("--seconds must be a non-negative number".into());
                }
            }
            "--trace" => {
                args.trace = match value()?.as_str() {
                    "0" => false,
                    "1" => true,
                    v => return Err(format!("--trace takes 0 or 1, not `{v}`")),
                }
            }
            "--size" => {
                args.size = match value()?.as_str() {
                    "full" => Size::FULL,
                    "smoke" => Size::SMOKE,
                    v => return Err(format!("--size takes full or smoke, not `{v}`")),
                }
            }
            "--wrong-reference" => args.wrong_reference = true,
            other => return Err(format!("unknown argument `{other}`")),
        }
    }
    args.workload = workload.ok_or("--workload is required")?;
    Ok(args)
}

/// Everything one run reports.
struct Report {
    attempted: usize,
    failed: usize,
    /// Errors of the checks outside the timed jobs (probes, set-up).
    other_failures: Vec<String>,
    metrics: Vec<Metric>,
    host: String,
}

/// Writes the SlowSim reference of every job any seed can generate.
fn pin_references(path: &str) -> Result<(), String> {
    let mut tr = Tracer::new(false);
    let mut text = String::from(
        "# kernel\tpreset\ttarget\tcycles\tretired\toutput\thits:misses:mshr_stall_cycles:writebacks per level\n",
    );
    for size in [Size::FULL, Size::SMOKE] {
        for spec in jobs::all_specs(size) {
            let program = jobs::build_program(&spec, 0, &mut tr);
            let reference = jobs::slow_reference(&spec, &program, 0, &mut tr)?;
            text.push_str(&jobs::pin_line(&spec, &reference));
            text.push('\n');
        }
    }
    std::fs::write(path, text).map_err(|e| format!("{path}: {e}"))
}

fn main() -> ExitCode {
    let mut argv = std::env::args().skip(1);
    if argv.next().as_deref() == Some("--pin-references") {
        return match argv
            .next()
            .ok_or("--pin-references needs a path".to_string())
            .and_then(|p| pin_references(&p))
        {
            Ok(()) => ExitCode::SUCCESS,
            Err(e) => {
                eprintln!("perfbench: {e}");
                ExitCode::from(2)
            }
        };
    }
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("perfbench: {e}\n{USAGE}");
            return ExitCode::from(2);
        }
    };
    let run_dir =
        PathBuf::from(RUN_DIR).join(format!("{}-{}", args.workload.name(), std::process::id()));
    let outcome = std::fs::create_dir_all(&run_dir)
        .map_err(|e| format!("{}: {e}", run_dir.display()))
        .and_then(|()| run(&args, &run_dir));
    let _ = std::fs::remove_dir_all(&run_dir);
    let report = match outcome {
        Ok(r) => r,
        Err(e) => {
            eprintln!("perfbench: {e}");
            return ExitCode::from(2);
        }
    };
    for f in &report.other_failures {
        eprintln!("perfbench: check failed: {f}");
    }
    let correct = report.failed == 0 && report.other_failures.is_empty();
    println!("# host {}", report.host);
    println!("# model: unvalidated against hardware (no hardware reference); correctness = exact equality with SlowSim");
    for m in &report.metrics {
        if let Some(d) = &m.detail {
            println!(
                "# {} {} median {} q1 {} q3 {} n {}{}",
                m.name, m.unit, m.value, d.q1, d.q3, d.n, m.note
            );
        } else if !m.note.is_empty() {
            println!("# {} {} value {}{}", m.name, m.unit, m.value, m.note);
        }
    }
    let metrics: Vec<String> = report
        .metrics
        .iter()
        .map(|m| {
            format!(
                "\"{}\": {{\"value\": {}, \"unit\": \"{}\"}}",
                m.name,
                json_number(m.value),
                m.unit
            )
        })
        .collect();
    println!(
        "{{\"correct\": {correct}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
        report.attempted,
        report.failed,
        metrics.join(", ")
    );
    if correct {
        ExitCode::SUCCESS
    } else {
        ExitCode::from(1)
    }
}

/// A finite number with all its digits (non-finite values print as 0).
fn json_number(x: f64) -> String {
    if x.is_finite() {
        format!("{x}")
    } else {
        "0".to_string()
    }
}

fn run(args: &Args, run_dir: &Path) -> Result<Report, String> {
    let mut rng = fastsim_prng::Rng::new(args.seed);
    let mut tr = Tracer::new(false);
    let report = match args.workload {
        Workload::ColdSweep | Workload::WarmRerun => run_offline(args, &mut rng, &mut tr, run_dir)?,
        Workload::ServedJobs => run_served(args, &mut rng, &mut tr, run_dir)?,
    };
    if args.trace {
        let path = PathBuf::from(RUN_DIR).join(format!(
            "spans-{}-seed{}.tsv",
            args.workload.name(),
            args.seed
        ));
        tr.write_tsv(&path)
            .map_err(|e| format!("{}: {e}", path.display()))?;
        println!("# spans written to {}", path.display());
    }
    Ok(report)
}

/// Runs the timed phase in equal segments, each after a set-up of its
/// own: `setup` builds a product (timed; the seconds of every set-up are
/// returned), `segment` times its share of `--seconds` on it. Each product
/// is dropped before the next set-up begins; the last one is returned.
/// Spans are recorded on the first set-up, when traced.
///
/// Set-up time moves with the host as much as the timed jobs do, and the
/// host slows down for seconds at a time. Set-ups spread over the whole
/// run sample it at different times, so their median (`setup_s`) shifts
/// less from run to run than that of set-ups done back to back.
fn segmented<T>(
    args: &Args,
    tr: &mut Tracer,
    mut setup: impl FnMut(&mut Tracer) -> Result<T, String>,
    mut segment: impl FnMut(&mut T, f64, &mut Tracer) -> Result<(), String>,
) -> Result<(T, Vec<f64>), String> {
    let segments = args.size.segments.max(1);
    let mut secs = Vec::new();
    let mut last: Option<T> = None;
    for k in 0..segments {
        drop(last.take());
        tr.set_on(args.trace && k == 0);
        let t0 = Instant::now();
        let mut product = setup(tr)?;
        secs.push(t0.elapsed().as_secs_f64());
        tr.set_on(false);
        segment(&mut product, args.seconds / segments as f64, tr)?;
        tr.set_on(false);
        last = Some(product);
    }
    Ok((last.expect("at least one segment"), secs))
}

/// Builds every job's program and looks up its pinned reference.
fn prepare_all(specs: &[jobs::JobSpec], tr: &mut Tracer) -> Result<Vec<Job>, String> {
    let pins = jobs::Pins::load()?;
    specs
        .iter()
        .enumerate()
        .map(|(i, s)| jobs::prepare(i as u64, s, &pins, tr))
        .collect()
}

fn run_offline(
    args: &Args,
    rng: &mut fastsim_prng::Rng,
    tr: &mut Tracer,
    run_dir: &Path,
) -> Result<Report, String> {
    let warm = args.workload == Workload::WarmRerun;
    let specs = if warm {
        jobs::warm_rerun_specs(rng, args.size)
    } else {
        jobs::cold_sweep_specs(rng, args.size)
    };
    let order = jobs::permutation(rng, specs.len());
    let mut timed = offline::Timed::default();
    let mut host = None;
    let ((jobs, _), setup_secs) = segmented(
        args,
        tr,
        |tr| {
            let jobs = prepare_all(&specs, tr)?;
            let snapshots = if warm {
                jobs.iter()
                    .map(|j| offline::freeze_cold_run(j, tr))
                    .collect::<Result<Vec<_>, _>>()?
            } else {
                Vec::new()
            };
            // An untimed warm-up round, as served_jobs has: first-touch page
            // faults and allocator growth stay out of the timed phase.
            let traced = tr.is_on();
            tr.set_on(false);
            let warm_up = offline::run_timed(&jobs, &snapshots, &order, 0.0, tr, false);
            tr.set_on(traced);
            if warm_up.jobs.iter().any(|j| !j.ok) {
                return Err("warm-up round: a result differs from its reference".into());
            }
            Ok((jobs, snapshots))
        },
        |(jobs, snapshots), seconds, tr| {
            if args.wrong_reference {
                jobs[0].reference.cycles += 1;
            }
            host.get_or_insert_with(host::HostContext::before);
            timed.extend(offline::run_timed(
                jobs, snapshots, &order, seconds, tr, args.trace,
            ));
            Ok(())
        },
    )?;
    let host = host.expect("at least one segment").after();
    let attempted = timed.jobs.len();
    let failed = timed.jobs.iter().filter(|j| !j.ok).count();
    let runs: Vec<layers::Run> = timed
        .jobs
        .iter()
        .map(|j| layers::Run {
            job: j.job,
            round: j.round,
            secs: j.secs,
            insts: j.insts,
            traced: j.traced,
        })
        .collect();
    if !args.trace {
        let metrics = layers::end_to_end(&runs, None, &setup_secs, attempted, failed);
        return Ok(Report {
            attempted,
            failed,
            other_failures: Vec::new(),
            metrics,
            host,
        });
    }

    tr.set_on(true);
    let mut out = probe::ProbeOut::default();
    for job in &jobs {
        probe::probe_job(job, tr, &mut out);
    }
    let stream: Vec<usize> = (0..probe::REFREEZE_EVERY)
        .flat_map(|_| order.iter().copied())
        .collect();
    let replay = probe::replay_batch(&jobs, &stream, &run_dir.join("store"), tr, &mut out)?;
    // The server sees the same stream the batch replay ran.
    let mut offline_results = vec![None; jobs.len()];
    for (&i, r) in stream.iter().zip(&replay.results) {
        offline_results[i].get_or_insert_with(|| r.clone());
    }
    let offline_results: Vec<served::ServedResult> = offline_results
        .into_iter()
        .map(|r| r.expect("every job is in the stream"))
        .collect();
    let mut server = served::boot(&run_dir.join("serve"))?;
    let before = server.metrics()?;
    let probe_stream = served::run_timed(
        &mut server,
        &jobs,
        &offline_results,
        &stream,
        0.0,
        tr,
        false,
    );
    let after = server.metrics()?;
    server.stop()?;
    for s in probe_stream.submits.iter().filter(|s| !s.ok) {
        out.failures.push(format!(
            "served probe: {} differs from offline",
            jobs[s.job].spec.kernel
        ));
    }
    probe::probe_journal(&run_dir.join("journal"), tr)?;
    tr.set_on(false);

    let counts: Vec<offline::JobCounts> = timed.counts.into_iter().flatten().collect();
    let serve = layers::ServeLayer {
        latencies: probe_stream.submits.iter().map(|s| s.secs).collect(),
        offline_secs: replay.job_secs.clone(),
        windows: vec![(before, after)],
    };
    let metrics = layers::per_layer(tr, &runs, None, &counts, &out, &replay, &serve);
    Ok(Report {
        attempted,
        failed,
        other_failures: out.failures,
        metrics,
        host,
    })
}

/// Submits the replayed offline for the served traced run (the warm-up
/// round and up to this many timed submits).
const SERVED_REPLAY_CAP: usize = 1024;

fn run_served(
    args: &Args,
    rng: &mut fastsim_prng::Rng,
    tr: &mut Tracer,
    run_dir: &Path,
) -> Result<Report, String> {
    let specs = jobs::served_specs(rng, args.size);
    let order = jobs::permutation(rng, specs.len());
    let mut timed = served::ServedTimed::default();
    let mut host = None;
    // The server's metrics before and after each segment's timed part.
    let mut windows = Vec::new();
    let ((jobs, _, _), setup_secs) = segmented(
        args,
        tr,
        |tr| {
            let jobs = prepare_all(&specs, tr)?;
            let offline_results = jobs
                .iter()
                .map(served::offline_result)
                .collect::<Result<Vec<_>, _>>()?;
            for (job, r) in jobs.iter().zip(&offline_results) {
                if !r.matches(&job.reference) {
                    return Err(format!(
                        "{}: offline run_single differs from SlowSim",
                        job.spec.kernel
                    ));
                }
            }
            let mut server = served::boot(&run_dir.join("serve"))?;
            served::warm_up(&mut server, &jobs, &offline_results, &order)?;
            Ok((jobs, offline_results, Some(server)))
        },
        |(jobs, offline_results, server), seconds, tr| {
            if args.wrong_reference {
                jobs[0].reference.cycles += 1;
            }
            let mut server = server.take().expect("each set-up boots a server");
            let before = server.metrics()?;
            host.get_or_insert_with(host::HostContext::before);
            timed.extend(served::run_timed(
                &mut server,
                jobs,
                offline_results,
                &order,
                seconds,
                tr,
                args.trace,
            ));
            let after = server.metrics()?;
            server.stop()?;
            windows.push((before, after));
            Ok(())
        },
    )?;
    let host = host.expect("at least one segment").after();
    let attempted = timed.submits.len();
    let failed = timed.submits.iter().filter(|s| !s.ok).count();
    let runs: Vec<layers::Run> = timed
        .submits
        .iter()
        .map(|s| layers::Run {
            job: s.job,
            round: s.round,
            secs: s.secs,
            insts: s.insts,
            traced: s.traced,
        })
        .collect();
    if !args.trace {
        let metrics = layers::end_to_end(
            &runs,
            Some(&timed.round_walls),
            &setup_secs,
            attempted,
            failed,
        );
        return Ok(Report {
            attempted,
            failed,
            other_failures: Vec::new(),
            metrics,
            host,
        });
    }

    tr.set_on(true);
    let mut out = probe::ProbeOut::default();
    for job in &jobs {
        probe::probe_job(job, tr, &mut out);
    }
    let timed_stream: Vec<usize> = timed
        .submits
        .iter()
        .take(SERVED_REPLAY_CAP)
        .map(|s| s.job)
        .collect();
    let stream: Vec<usize> = order
        .iter()
        .copied()
        .chain(timed_stream.iter().copied())
        .collect();
    let mut replay = probe::replay_batch(&jobs, &stream, &run_dir.join("store"), tr, &mut out)?;
    probe::probe_journal(&run_dir.join("journal"), tr)?;
    tr.set_on(false);

    // Layer counts: the first timed pass over the mix, as the server ran it
    // (warm), with the functional counters from the probes.
    let first_pass = order.len()..order.len() + order.len().min(timed_stream.len());
    let counts: Vec<offline::JobCounts> = stream[first_pass.clone()]
        .iter()
        .zip(&replay.counts[first_pass])
        .map(|(&i, c)| {
            let mut c = c.clone();
            c.emu = out.emu.get(&jobs[i].id).copied().unwrap_or_default();
            c
        })
        .collect();
    let offline_secs = replay.job_secs.split_off(order.len());
    let serve = layers::ServeLayer {
        latencies: timed.submits.iter().map(|s| s.secs).collect(),
        offline_secs,
        windows,
    };
    let metrics = layers::per_layer(
        tr,
        &runs,
        Some(&timed.round_walls),
        &counts,
        &out,
        &replay,
        &serve,
    );
    Ok(Report {
        attempted,
        failed,
        other_failures: out.failures,
        metrics,
        host,
    })
}
