//! The benchmark's inputs: which (kernel, hierarchy preset, length) jobs a
//! workload runs, in which order, and the SlowSim reference each result is
//! checked against. Everything here is a pure function of the seed.
//!
//! References are pinned: `references.tsv` holds the `Mode::Slow` result
//! of every job any seed can generate, written by
//! `perfbench --pin-references perfbench/references.tsv` and compiled into
//! the binary. Set-up looks them up instead of re-simulating, which leaves
//! the run's time budget to the timed phase; the traced run re-simulates
//! every job with SlowSim and checks the pin.

use crate::trace::Tracer;
use fastsim_core::{HierarchyConfig, LevelStats, Mode, Simulator, UArchConfig};
use fastsim_isa::Program;
use fastsim_prng::Rng;
use std::collections::HashMap;

/// The kernels `served_jobs` cycles through. An odd count keeps the
/// median latency inside one kernel's cluster of latencies instead of on
/// the edge between two, where it would jump from run to run.
pub const SERVED_MIX: [&str; 5] = ["129.compress", "099.go", "130.li", "102.swim", "147.vortex"];

/// How large one run's inputs are.
#[derive(Clone, Copy, Debug)]
pub struct Size {
    pub cold_insts: u64,
    pub warm_insts: u64,
    pub served_insts: u64,
    /// Target variants per served kernel.
    pub served_variants: usize,
    /// Kernel subset (`None`: all 18; the smoke size keeps two).
    pub kernels: Option<&'static [&'static str]>,
    /// Segments of the timed phase, each after a set-up of its own (the
    /// set-ups' median is `setup_s`).
    pub segments: usize,
}

impl Size {
    pub const FULL: Size = Size {
        cold_insts: 200_000,
        warm_insts: 1_000_000,
        served_insts: 20_000,
        served_variants: 4,
        kernels: None,
        segments: 5,
    };

    /// A seconds-long run of every code path, for the benchmark's tests.
    pub const SMOKE: Size = Size {
        cold_insts: 4_000,
        warm_insts: 8_000,
        served_insts: 3_000,
        served_variants: 2,
        kernels: Some(&["129.compress", "099.go"]),
        segments: 2,
    };

    fn keeps(&self, kernel: &str) -> bool {
        self.kernels.is_none_or(|ks| ks.contains(&kernel))
    }
}

/// The offsets from the base instruction target the seed chooses among.
const TARGET_LEVELS: [f64; 5] = [-0.02, -0.01, 0.0, 0.01, 0.02];

/// One job: a kernel at an instruction target under a hierarchy preset.
#[derive(Clone, Debug)]
pub struct JobSpec {
    pub kernel: &'static str,
    pub preset: &'static str,
    pub target: u64,
}

fn target(base: u64, level: usize) -> u64 {
    (base as f64 * (1.0 + TARGET_LEVELS[level])).round() as u64
}

fn kernels(size: Size) -> impl Iterator<Item = &'static str> {
    fastsim_workloads::all()
        .into_iter()
        .map(|w| w.name)
        .filter(move |n| size.keeps(n))
}

/// Every kernel under every hierarchy preset, each at a seed-chosen level.
pub fn cold_sweep_specs(rng: &mut Rng, size: Size) -> Vec<JobSpec> {
    let mut specs = Vec::new();
    for kernel in kernels(size) {
        for &preset in HierarchyConfig::preset_names() {
            let level = rng.range_usize(0..TARGET_LEVELS.len());
            specs.push(JobSpec {
                kernel,
                preset,
                target: target(size.cold_insts, level),
            });
        }
    }
    specs
}

/// Every kernel at `table1`, in long jobs.
pub fn warm_rerun_specs(rng: &mut Rng, size: Size) -> Vec<JobSpec> {
    kernels(size)
        .map(|kernel| {
            let level = rng.range_usize(0..TARGET_LEVELS.len());
            JobSpec {
                kernel,
                preset: "table1",
                target: target(size.warm_insts, level),
            }
        })
        .collect()
}

/// The served mix: each kernel at `served_variants` distinct levels,
/// consecutive from a seed-chosen one, so every seed sees nearly the same
/// spread of job sizes.
pub fn served_specs(rng: &mut Rng, size: Size) -> Vec<JobSpec> {
    let mut specs = Vec::new();
    for kernel in SERVED_MIX.into_iter().filter(|n| size.keeps(n)) {
        let first = rng.range_usize(0..TARGET_LEVELS.len());
        for v in 0..size.served_variants.min(TARGET_LEVELS.len()) {
            let level = (first + v) % TARGET_LEVELS.len();
            specs.push(JobSpec {
                kernel,
                preset: "table1",
                target: target(size.served_insts, level),
            });
        }
    }
    specs
}

/// Every job any seed can generate at `size`, each once.
pub fn all_specs(size: Size) -> Vec<JobSpec> {
    let mut specs = Vec::new();
    for level in 0..TARGET_LEVELS.len() {
        for kernel in kernels(size) {
            for &preset in HierarchyConfig::preset_names() {
                specs.push(JobSpec {
                    kernel,
                    preset,
                    target: target(size.cold_insts, level),
                });
            }
            specs.push(JobSpec {
                kernel,
                preset: "table1",
                target: target(size.warm_insts, level),
            });
            if SERVED_MIX.contains(&kernel) {
                specs.push(JobSpec {
                    kernel,
                    preset: "table1",
                    target: target(size.served_insts, level),
                });
            }
        }
    }
    specs
}

/// A seed-chosen permutation of `0..n` (Fisher-Yates).
pub fn permutation(rng: &mut Rng, n: usize) -> Vec<usize> {
    let mut order: Vec<usize> = (0..n).collect();
    for i in (1..n).rev() {
        order.swap(i, rng.range_usize(0..i + 1));
    }
    order
}

/// The results a timed job must reproduce exactly.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct Outcome {
    pub cycles: u64,
    pub retired: u64,
    pub output: Vec<u32>,
    pub levels: Vec<LevelStats>,
}

impl Outcome {
    pub fn of(sim: &Simulator) -> Outcome {
        Outcome {
            cycles: sim.stats().cycles,
            retired: sim.stats().retired_insts,
            output: sim.output().to_vec(),
            levels: sim.cache_level_stats().to_vec(),
        }
    }
}

/// A job ready to run: its program, hierarchy and SlowSim reference.
pub struct Job {
    pub id: u64,
    pub spec: JobSpec,
    pub program: Program,
    pub hierarchy: HierarchyConfig,
    pub reference: Outcome,
}

/// Builds the job's program, traced as `workloads.build`.
pub fn build_program(spec: &JobSpec, job: u64, tr: &mut Tracer) -> Program {
    let w = fastsim_workloads::by_name(spec.kernel).expect("specs name suite kernels");
    let span = tr.begin("workloads.build", job);
    let program = w.program_for_insts(spec.target);
    tr.end(span, program.words.len() as u64);
    program
}

/// Simulates the job's program with `Mode::Slow`, traced as
/// `uarch.slow_run` (work: simulated cycles).
pub fn slow_reference(
    spec: &JobSpec,
    program: &Program,
    job: u64,
    tr: &mut Tracer,
) -> Result<Outcome, String> {
    let hierarchy = HierarchyConfig::preset(spec.preset).expect("specs name presets");
    let mut slow = Simulator::with_configs(program, Mode::Slow, UArchConfig::table1(), hierarchy)
        .map_err(|e| format!("{}@{}: slow build: {e}", spec.kernel, spec.preset))?;
    let span = tr.begin("uarch.slow_run", job);
    let ran = slow.run_to_completion();
    tr.end(span, slow.stats().cycles);
    ran.map_err(|e| format!("{}@{}: slow run: {e}", spec.kernel, spec.preset))?;
    Ok(Outcome::of(&slow))
}

/// The pinned references, compiled in.
const PINNED: &str = include_str!("../references.tsv");

/// Pinned references by (kernel, preset, target).
pub struct Pins(HashMap<(String, String, u64), Outcome>);

impl Pins {
    /// Parses the pinned references.
    pub fn load() -> Result<Pins, String> {
        Pins::parse(PINNED)
    }

    fn parse(text: &str) -> Result<Pins, String> {
        let mut map = HashMap::new();
        for (n, line) in text
            .lines()
            .enumerate()
            .filter(|(_, l)| !l.starts_with('#') && !l.is_empty())
        {
            let bad = || format!("references.tsv line {}: malformed", n + 1);
            let f: Vec<&str> = line.split('\t').collect();
            let [kernel, preset, target, cycles, retired, output, levels] = f[..] else {
                return Err(bad());
            };
            let num = |s: &str| s.parse::<u64>().map_err(|_| bad());
            let output = output
                .split(',')
                .filter(|s| !s.is_empty())
                .map(|s| s.parse::<u32>().map_err(|_| bad()))
                .collect::<Result<Vec<_>, _>>()?;
            let levels = levels
                .split(';')
                .map(|l| {
                    let v = l.split(':').map(num).collect::<Result<Vec<_>, _>>()?;
                    let [hits, misses, mshr_stall_cycles, writebacks] = v[..] else {
                        return Err(bad());
                    };
                    Ok(LevelStats {
                        hits,
                        misses,
                        mshr_stall_cycles,
                        writebacks,
                    })
                })
                .collect::<Result<Vec<_>, _>>()?;
            let outcome = Outcome {
                cycles: num(cycles)?,
                retired: num(retired)?,
                output,
                levels,
            };
            map.insert(
                (kernel.to_string(), preset.to_string(), num(target)?),
                outcome,
            );
        }
        Ok(Pins(map))
    }

    fn get(&self, spec: &JobSpec) -> Option<&Outcome> {
        self.0.get(&(
            spec.kernel.to_string(),
            spec.preset.to_string(),
            spec.target,
        ))
    }
}

/// One line of `references.tsv`.
pub fn pin_line(spec: &JobSpec, r: &Outcome) -> String {
    let output: Vec<String> = r.output.iter().map(u32::to_string).collect();
    let levels: Vec<String> = r
        .levels
        .iter()
        .map(|l| {
            format!(
                "{}:{}:{}:{}",
                l.hits, l.misses, l.mshr_stall_cycles, l.writebacks
            )
        })
        .collect();
    format!(
        "{}\t{}\t{}\t{}\t{}\t{}\t{}",
        spec.kernel,
        spec.preset,
        spec.target,
        r.cycles,
        r.retired,
        output.join(","),
        levels.join(";")
    )
}

/// Builds the job and looks up its pinned reference.
pub fn prepare(id: u64, spec: &JobSpec, pins: &Pins, tr: &mut Tracer) -> Result<Job, String> {
    let program = build_program(spec, id, tr);
    let reference = pins
        .get(spec)
        .ok_or_else(|| {
            format!(
                "no pinned reference for {}@{} at {} insts",
                spec.kernel, spec.preset, spec.target
            )
        })?
        .clone();
    let hierarchy = HierarchyConfig::preset(spec.preset).expect("specs name presets");
    Ok(Job {
        id,
        spec: spec.clone(),
        program,
        hierarchy,
        reference,
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn specs_are_a_function_of_the_seed() {
        let a = cold_sweep_specs(&mut Rng::new(7), Size::FULL);
        let b = cold_sweep_specs(&mut Rng::new(7), Size::FULL);
        let c = cold_sweep_specs(&mut Rng::new(8), Size::FULL);
        let targets = |s: &[JobSpec]| s.iter().map(|j| j.target).collect::<Vec<_>>();
        assert_eq!(a.len(), 18 * 3);
        assert_eq!(targets(&a), targets(&b));
        assert_ne!(targets(&a), targets(&c));
        for j in &a {
            let dev = j.target as f64 / Size::FULL.cold_insts as f64 - 1.0;
            assert!(dev.abs() <= 0.02 + 1e-9, "{j:?}");
        }
    }

    #[test]
    fn served_variants_are_distinct() {
        let specs = served_specs(&mut Rng::new(3), Size::FULL);
        assert_eq!(specs.len(), SERVED_MIX.len() * 4);
        for kernel in specs.chunks(4) {
            let mut t: Vec<u64> = kernel.iter().map(|s| s.target).collect();
            t.dedup();
            assert_eq!(t.len(), 4, "{kernel:?}");
        }
    }

    #[test]
    fn every_seed_finds_its_pins() {
        let pins = Pins::load().unwrap();
        for size in [Size::FULL, Size::SMOKE] {
            for seed in 0..20 {
                let mut rng = Rng::new(seed);
                let specs = [
                    cold_sweep_specs(&mut rng, size),
                    warm_rerun_specs(&mut rng, size),
                    served_specs(&mut rng, size),
                ];
                for spec in specs.iter().flatten() {
                    assert!(pins.get(spec).is_some(), "seed {seed}: {spec:?}");
                }
            }
        }
    }

    #[test]
    fn a_pin_line_round_trips() {
        let spec = JobSpec {
            kernel: "129.compress",
            preset: "three-level",
            target: 1234,
        };
        let r = Outcome {
            cycles: 99,
            retired: 77,
            output: vec![1, 4_000_000_000],
            levels: vec![
                LevelStats {
                    hits: 1,
                    misses: 2,
                    mshr_stall_cycles: 3,
                    writebacks: 4
                };
                3
            ],
        };
        let pins = Pins::parse(&pin_line(&spec, &r)).unwrap();
        assert_eq!(pins.get(&spec), Some(&r));
        assert!(Pins::parse("129.compress\ttable1\t1\t2").is_err());
    }

    #[test]
    fn permutation_is_a_permutation() {
        let mut p = permutation(&mut Rng::new(11), 54);
        assert_ne!(p, (0..54).collect::<Vec<_>>());
        p.sort_unstable();
        assert_eq!(p, (0..54).collect::<Vec<_>>());
    }
}
