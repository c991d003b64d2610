//! Replay-path equivalence: how replay is driven must never show in the
//! results. A warm run thawed from a frozen snapshot is bit-identical to
//! its cold run at every hierarchy depth, and a run chopped into small
//! budget slices — many of which pause mid-replay — is bit-identical to
//! one uninterrupted run. (The file keeps the name it had when replay
//! also had a trace-compiled path; these are the checks that outlived it.)

use fastsim::core::{HierarchyConfig, Mode, Simulator, UArchConfig};
use fastsim::workloads::by_name;

/// Warm replay stays bit-identical to the cold run at every hierarchy
/// depth, on an integer and a floating-point kernel: warmth moves work
/// from detailed simulation to replay, never the outcome.
#[test]
fn warm_replay_identical_at_every_depth() {
    for preset in HierarchyConfig::preset_names() {
        let hier = HierarchyConfig::preset(preset).expect("named preset");
        for name in ["compress", "tomcatv"] {
            let ctx = format!("{preset}/{name}");
            let w = by_name(name).expect("workload exists");
            let program = w.program_for_insts(40_000);
            let mut cold = Simulator::with_configs(
                &program,
                Mode::fast(),
                UArchConfig::table1(),
                hier.clone(),
            )
            .expect("cold builds");
            cold.run_to_completion().expect("cold completes");
            let cold_stats = *cold.stats();
            let cold_cache = *cold.cache_stats();
            let cold_levels = cold.cache_level_stats().to_vec();
            let cold_output = cold.output().to_vec();
            let snap = cold.take_warm_cache().expect("fast mode").freeze();

            let mut warm =
                Simulator::with_warm_snapshot(&program, &snap, UArchConfig::table1(), hier.clone())
                    .expect("warm builds");
            warm.run_to_completion().expect("warm completes");
            assert_eq!(warm.stats().cycles, cold_stats.cycles, "{ctx}: cycles");
            assert_eq!(
                warm.stats().retired_insts,
                cold_stats.retired_insts,
                "{ctx}: insts"
            );
            assert_eq!(warm.output(), cold_output, "{ctx}: warm output");
            assert_eq!(*warm.cache_stats(), cold_cache, "{ctx}: cache-hierarchy stats");
            assert_eq!(warm.cache_level_stats(), cold_levels, "{ctx}: per-level stats");
            assert!(
                warm.stats().replayed_insts > cold_stats.replayed_insts,
                "{ctx}: warm run must replay more than the cold run"
            );
        }
    }
}

/// Mid-run budget pauses resume exactly where an uninterrupted run would:
/// chopping a run into 500-instruction slices changes nothing, cold or
/// thawed warm (where nearly every pause lands mid-replay).
#[test]
fn budget_pauses_inside_segments_are_transparent() {
    let w = by_name("129.compress").expect("workload exists");
    let program = w.program_for_insts(40_000);

    let mut cold = Simulator::new(&program, Mode::fast()).expect("builds");
    cold.run_to_completion().expect("completes");
    let snap = cold.take_warm_cache().expect("fast mode").freeze();

    let build = |warm: bool| {
        if warm {
            Simulator::with_warm_snapshot(
                &program,
                &snap,
                UArchConfig::table1(),
                HierarchyConfig::table1(),
            )
            .expect("warm builds")
        } else {
            Simulator::new(&program, Mode::fast()).expect("cold builds")
        }
    };
    for warm in [false, true] {
        let ctx = if warm { "warm" } else { "cold" };
        let mut whole = build(warm);
        whole.run_to_completion().expect("completes");

        let mut sliced = build(warm);
        while !sliced.finished() {
            sliced.run(500).expect("slice runs");
        }
        assert_eq!(sliced.stats(), whole.stats(), "{ctx}: sliced vs whole SimStats");
        assert_eq!(sliced.output(), whole.output(), "{ctx}: sliced vs whole output");
        assert_eq!(
            sliced.memo_stats(),
            whole.memo_stats(),
            "{ctx}: sliced vs whole MemoStats"
        );
        assert!(whole.stats().replayed_insts > 0, "{ctx}: some pauses land in replay");
    }
}
