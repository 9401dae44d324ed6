//! Property tests for the cold-path optimisations: across randomized
//! machines and programs, the shape-memoized / arena-allocated /
//! parallel simulator must be **byte-identical** to the naive reference
//! path (same `PerfReport` numbers, same `Timeline` makespan), and the
//! shape-memo and step-memo counters must reconcile (every table probe
//! ends as exactly one hit or one computed-and-inserted miss).

use cf_core::arena::PlanArena;
use cf_core::memo::PlanMemo;
use cf_core::perf::{PerfSim, SimOptions};
use cf_core::plan::Planner;
use cf_core::{Machine, MachineConfig};
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
                let w = b.alloc(&format!("w{i}"), vec![c, rows]);
                c = rows;
                b.apply(Opcode::MatMul, [cur, w]).unwrap()[0]
            }
            1 => {
                let y = b.alloc(&format!("y{i}"), vec![r, c]);
                b.apply(Opcode::Mul1D, [cur, y]).unwrap()[0]
            }
            2 => b.apply(Opcode::Act1D, [cur]).unwrap()[0],
            _ => {
                let y = b.alloc(&format!("a{i}"), vec![r, c]);
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
}
