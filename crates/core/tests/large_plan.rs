//! Differential tests in the many-step regime: paper-scale f1 plans whose
//! level-1 nodes run hundreds of SD steps of 32 children each — where
//! the step memo serves almost every step. `cold_props` stops at 48×48 on
//! tiny machines and never gets there.
//!
//! For each program the memoized simulator must match the naive
//! reference ([`SimOptions::NAIVE`]) bit for bit: the outcome (and so the
//! `PerfReport`), the extracted timeline's makespan, and the profile —
//! per-level attribution and every signature's hit and plan counts.

use cf_core::perf::{NodeOutcome, PerfSim, SimOptions};
use cf_core::{Machine, MachineConfig, ProfileReport};
use cf_isa::Program;
use cf_workloads::nets;

fn run(cfg: &MachineConfig, program: &Program, opts: SimOptions) -> (NodeOutcome, PerfSim) {
    let sim = PerfSim::with_options(cfg, opts);
    let out = sim.simulate(program).expect("simulation");
    (out, sim)
}

/// The profile without the shape-memo counters, which differ between
/// the paths by design.
fn profile_of(sim: &PerfSim, out: &NodeOutcome) -> ProfileReport {
    let mut p = sim.profile_report(out.makespan, usize::MAX).expect("profiling on");
    p.shape_memo_hits = 0;
    p.shape_memo_misses = 0;
    p
}

fn check(name: &str, program: &Program) {
    let cfg = MachineConfig::cambricon_f1();
    let (naive, naive_sim) = run(&cfg, program, SimOptions::NAIVE);
    let (memo, memo_sim) = run(&cfg, program, SimOptions::default());

    assert_eq!(naive.makespan.to_bits(), memo.makespan.to_bits(), "{name}: makespan");
    assert_eq!(naive.steady.to_bits(), memo.steady.to_bits(), "{name}: steady");
    assert_eq!(naive.stats, memo.stats, "{name}: stats");
    let report = Machine::new(cfg.clone()).simulate(program).expect("report");
    assert_eq!(report.makespan_seconds.to_bits(), naive.makespan.to_bits(), "{name}: report");
    assert_eq!(report.stats, naive.stats, "{name}: report stats");
    let tl = Machine::new(cfg.clone()).timeline(program, 2).expect("timeline");
    assert_eq!(tl.makespan.to_bits(), naive.makespan.to_bits(), "{name}: timeline makespan");

    // The naive path never probes the step memo; the memoized one serves
    // most steps from it, and every probe is a hit or a miss.
    let cold = naive_sim.cold_stats();
    assert_eq!((cold.step_memo_hits, cold.step_memo_misses), (0, 0), "{name}");
    assert_eq!(naive_sim.step_memo_probes(), 0, "{name}");
    let cold = memo_sim.cold_stats();
    assert_eq!(memo_sim.step_memo_probes(), cold.step_memo_hits + cold.step_memo_misses);
    assert!(cold.step_memo_hits > cold.step_memo_misses, "{name}: {cold:?}");

    let (pn, pn_sim) = run(&cfg, program, SimOptions { memo: false, profile: true });
    let (pm, pm_sim) = run(&cfg, program, SimOptions::PROFILED);
    assert_eq!(pn.makespan.to_bits(), naive.makespan.to_bits(), "{name}: profiled naive");
    assert_eq!(pm.makespan.to_bits(), naive.makespan.to_bits(), "{name}: profiled memo");
    let (naive_profile, memo_profile) = (profile_of(&pn_sim, &pn), profile_of(&pm_sim, &pm));
    assert!(!memo_profile.signatures.is_empty());
    assert_eq!(naive_profile, memo_profile, "{name}: profile");
}

#[test]
fn f1_matmuls_match_naive_bit_for_bit() {
    for order in [1025, 1535, 2018, 2100, 2336] {
        check(&format!("matmul {order}"), &nets::matmul_program(order));
    }
}

#[test]
fn f1_alexnet_matches_naive_bit_for_bit() {
    let program = nets::build_program(&nets::alexnet(), 2).expect("alexnet");
    check("alexnet b2", &program);
}
