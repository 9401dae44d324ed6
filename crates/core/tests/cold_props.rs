//! Property tests for the cold-path optimisations: across randomized
//! machines and programs, the shape-memoized / arena-allocated /
//! parallel simulator — fresh, or with tables kept from earlier programs
//! and across generation resets — must be **byte-identical** to the
//! naive reference path (same `PerfReport` numbers, same `Timeline`
//! makespan), and the shape-memo and step-memo counters must reconcile
//! (every table probe ends as exactly one hit or one
//! computed-and-inserted miss).

use cf_core::arena::PlanArena;
use cf_core::memo::PlanMemo;
use cf_core::perf::{NodeOutcome, PerfSim, SimCache, SimOptions};
use cf_core::plan::Planner;
use cf_core::{Machine, MachineConfig, PerfReport};
use cf_isa::{Opcode, Program, ProgramBuilder};
use proptest::prelude::*;

/// A random-ish program: a chain of ops over a `[rows, cols]` tile,
/// each step picked by one byte of `ops` (matmul, elementwise mul/add,
/// activation), so shapes stay valid by construction.
fn program_of(ops: &[u8], rows: usize, cols: usize) -> Program {
    let mut b = ProgramBuilder::new();
    let mut cur = b.alloc("x0", vec![rows, cols]);
    let (r, mut c) = (rows, cols);
    for (i, &op) in ops.iter().enumerate() {
        cur = match op % 4 {
            0 => {
                let w = b.alloc(format!("w{i}"), vec![c, rows]);
                c = rows;
                b.apply(Opcode::MatMul, [cur, w]).unwrap()[0]
            }
            1 => {
                let y = b.alloc(format!("y{i}"), vec![r, c]);
                b.apply(Opcode::Mul1D, [cur, y]).unwrap()[0]
            }
            2 => b.apply(Opcode::Act1D, [cur]).unwrap()[0],
            _ => {
                let y = b.alloc(format!("a{i}"), vec![r, c]);
                b.apply(Opcode::Add1D, [cur, y]).unwrap()[0]
            }
        };
    }
    b.build()
}

fn config_of(pick: u8, depth: usize, fanout: usize) -> MachineConfig {
    match pick % 3 {
        0 => MachineConfig::cambricon_f1(),
        1 => MachineConfig::tiny(depth, fanout, 8 << 10),
        _ => MachineConfig::tiny(depth, fanout, 32 << 10),
    }
}

/// The bits of every number in a report (its stats compared whole).
fn report_bits(r: &PerfReport) -> [u64; 5] {
    [r.makespan_seconds, r.steady_seconds, r.attained_ops, r.peak_fraction, r.root_intensity]
        .map(f64::to_bits)
}

/// Whether two simulation results agree bit for bit: equal outcomes, or
/// the same refusal.
fn same_outcome(
    a: &Result<NodeOutcome, cf_core::CoreError>,
    b: &Result<NodeOutcome, cf_core::CoreError>,
) -> bool {
    match (a, b) {
        (Ok(a), Ok(b)) => {
            a.makespan.to_bits() == b.makespan.to_bits()
                && a.steady.to_bits() == b.steady.to_bits()
                && a.stats == b.stats
        }
        (Err(a), Err(b)) => a.to_string() == b.to_string(),
        _ => false,
    }
}

proptest! {
    /// The headline invariant: optimized (memo + arena) and parallel
    /// cold paths produce bit-identical outcomes to the naive reference
    /// (disabled memo, fresh buffers), and the extracted timeline's
    /// makespan agrees to the bit.
    #[test]
    fn optimized_and_parallel_paths_match_naive_bit_for_bit(
        ops in prop::collection::vec(any::<u8>(), 1..5),
        rows in 4usize..48,
        cols in 4usize..48,
        pick in any::<u8>(),
        depth in 1usize..3,
        fanout in 2usize..4,
    ) {
        let program = program_of(&ops, rows, cols);
        let cfg = config_of(pick, depth, fanout);

        let naive = PerfSim::with_options(&cfg, SimOptions::NAIVE).simulate(&program);
        let opt_sim = PerfSim::new(&cfg);
        let opt = opt_sim.simulate(&program);
        let par_sim = PerfSim::new(&cfg);
        let par = par_sim.simulate_parallel(&program, 3);

        // Tiny machines may legitimately refuse a program (capacity);
        // then every path must refuse it the same way.
        match (&naive, &opt, &par) {
            (Ok(n), Ok(o), Ok(p)) => {
                prop_assert_eq!(n.makespan.to_bits(), o.makespan.to_bits());
                prop_assert_eq!(n.steady.to_bits(), o.steady.to_bits());
                prop_assert_eq!(&n.stats, &o.stats);
                prop_assert_eq!(n.makespan.to_bits(), p.makespan.to_bits());
                prop_assert_eq!(n.steady.to_bits(), p.steady.to_bits());
                prop_assert_eq!(&n.stats, &p.stats);

                let tl = Machine::new(cfg.clone()).timeline(&program, 2).unwrap();
                prop_assert_eq!(tl.makespan.to_bits(), n.makespan.to_bits());
            }
            (Err(ne), Err(oe), Err(pe)) => {
                prop_assert_eq!(ne.to_string(), oe.to_string());
                prop_assert_eq!(ne.to_string(), pe.to_string());
            }
            other => prop_assert!(false, "paths disagree on success: {other:?}"),
        }
    }

    /// Counter reconciliation: every shape-memo probe resolves to exactly
    /// one hit or one computed-and-inserted miss — no lost inserts, no
    /// double fills — and the simulator reports the same counts through
    /// `cold_stats` as the memo it owns.
    #[test]
    fn shape_memo_counters_reconcile(
        ops in prop::collection::vec(any::<u8>(), 1..5),
        rows in 4usize..48,
        cols in 4usize..48,
        pick in any::<u8>(),
        depth in 1usize..3,
        fanout in 2usize..4,
    ) {
        let program = program_of(&ops, rows, cols);
        let cfg = config_of(pick, depth, fanout);

        let memo = PlanMemo::new();
        let arena = PlanArena::new();
        let planned = Planner::new(&cfg)
            .plan_root_with(program.instructions(), program.extern_elems(), &memo, &arena);
        prop_assert_eq!(memo.probes(), memo.hits() + memo.misses(),
            "probes {} != hits {} + misses {}", memo.probes(), memo.hits(), memo.misses());

        if planned.is_ok() {
            let sim = PerfSim::new(&cfg);
            if sim.simulate(&program).is_ok() {
                let cold = sim.cold_stats();
                prop_assert_eq!(sim.step_memo_probes(), cold.step_memo_hits + cold.step_memo_misses,
                    "step memo: probes {} != hits {} + misses {}", sim.step_memo_probes(),
                    cold.step_memo_hits, cold.step_memo_misses);
                // Deterministic: a second identical run reports identical
                // counters.
                let sim2 = PerfSim::new(&cfg);
                sim2.simulate(&program).unwrap();
                prop_assert_eq!(cold, sim2.cold_stats());
            }
        }
    }

    /// Reuse is exact: simulators whose tables were warmed by unrelated
    /// random programs — on the target's machine and on others — and
    /// then carried across a forced generation reset time the target
    /// bit-identically to the naive reference every time, and each
    /// call's step-memo probes reconcile with that call's hits and
    /// misses.
    #[test]
    fn kept_tables_match_naive_across_programs_machines_and_resets(
        warm in prop::collection::vec(
            (prop::collection::vec(any::<u8>(), 1..4), 4usize..40, 4usize..40, any::<u8>()),
            1..5,
        ),
        ops in prop::collection::vec(any::<u8>(), 1..5),
        rows in 4usize..48,
        cols in 4usize..48,
        pick in any::<u8>(),
        depth in 1usize..3,
        fanout in 2usize..4,
    ) {
        let program = program_of(&ops, rows, cols);
        let cfg = config_of(pick, depth, fanout);
        let warm: Vec<(Program, MachineConfig)> = warm
            .iter()
            .map(|(ops, r, c, p)| (program_of(ops, *r, *c), config_of(*p, depth, fanout)))
            .collect();
        let naive_sim = PerfSim::with_options(&cfg, SimOptions::NAIVE);
        let naive = naive_sim.simulate(&program);
        let naive_report = naive_sim.simulate_report(&program, 1);

        // One simulator kept on the target's machine: outcome and
        // per-call counters.
        let kept = PerfSim::new(&cfg);
        for (p, _) in &warm {
            let _ = kept.simulate(p);
        }
        for _ in 0..2 {
            let (before, probes) = (kept.cold_stats(), kept.step_memo_probes());
            let out = kept.simulate(&program);
            prop_assert!(same_outcome(&naive, &out), "kept: {naive:?} vs {out:?}");
            if out.is_ok() {
                let cold = kept.cold_stats().since(&before);
                prop_assert_eq!(kept.step_memo_probes() - probes,
                    cold.step_memo_hits + cold.step_memo_misses);
            }
        }

        // A cache of simulators over every machine, reset between runs.
        let mut cache = SimCache::new();
        for (p, c) in &warm {
            let _ = cache.simulate(c, p, 1);
        }
        let first = cache.simulate(&cfg, &program, 2);
        cache.reset();
        prop_assert_eq!(cache.table_bytes(), 0);
        let after_reset = cache.simulate(&cfg, &program, 1);
        let _ = cache.simulate(&warm[0].1, &warm[0].0, 1);
        let rewarmed = cache.simulate(&cfg, &program, 1);
        prop_assert_eq!(cache.resets(), 1);
        for got in [&first, &after_reset, &rewarmed] {
            match (&naive_report, got) {
                (Ok((n, _)), Ok((g, _))) => {
                    prop_assert_eq!(report_bits(n), report_bits(g));
                    prop_assert_eq!(&n.stats, &g.stats);
                }
                (Err(n), Err(g)) => prop_assert_eq!(n.to_string(), g.to_string()),
                other => prop_assert!(false, "paths disagree on success: {other:?}"),
            }
        }
        if let Ok((n, _)) = &naive_report {
            let tl = Machine::new(cfg.clone()).timeline(&program, 2).unwrap();
            prop_assert_eq!(tl.makespan.to_bits(), n.makespan_seconds.to_bits());
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig { cases: 8, ..ProptestConfig::default() })]

    /// A cache pre-warmed by unrelated programs — a paper-scale matmul
    /// whose node plan reuses blocks of steps, and random programs — times
    /// a target exactly as the naive reference does, before and after the
    /// generation reset a budget overrun makes: kept step timings, split
    /// decisions and subtree outcomes cannot leak into another program.
    #[test]
    fn prewarmed_cache_matches_naive_through_eviction(
        warm in prop::collection::vec(
            (prop::collection::vec(any::<u8>(), 1..4), 4usize..40, 4usize..40),
            1..4,
        ),
        ops in prop::collection::vec(any::<u8>(), 1..5),
        rows in 4usize..48,
        cols in 4usize..48,
    ) {
        let cfg = MachineConfig::cambricon_f1();
        let program = program_of(&ops, rows, cols);
        let naive = PerfSim::with_options(&cfg, SimOptions::NAIVE).simulate_report(&program, 1);
        let mut cache = SimCache::new();
        cache.simulate(&cfg, &cf_workloads::nets::matmul_program(1025), 1).unwrap();
        for (ops, r, c) in &warm {
            let _ = cache.simulate(&cfg, &program_of(ops, *r, *c), 1);
        }
        let warmed = cache.simulate(&cfg, &program, 1);
        // What a budget overrun does, then the matmul's tables again.
        cache.reset();
        cache.simulate(&cfg, &cf_workloads::nets::matmul_program(1025), 1).unwrap();
        let evicted = cache.simulate(&cfg, &program, 1);
        for got in [&warmed, &evicted] {
            match (&naive, got) {
                (Ok((n, _)), Ok((g, _))) => {
                    prop_assert_eq!(report_bits(n), report_bits(g));
                    prop_assert_eq!(&n.stats, &g.stats);
                }
                (Err(n), Err(g)) => prop_assert_eq!(n.to_string(), g.to_string()),
                other => prop_assert!(false, "paths disagree on success: {other:?}"),
            }
        }
    }
}
