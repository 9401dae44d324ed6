//! `cfrun` — run a FISA assembly program on a simulated Cambricon-F
//! machine.
//!
//! ```text
//! cfrun <program.cfasm> [--machine f1|f100|embedded|tiny] [--exec] [--timeline N]
//!       [--deadline-budget MS] [--trace] [--profile] [--trace-json PATH]
//! ```
//!
//! By default the program is performance-simulated; `--exec` additionally
//! executes it functionally (inputs seeded) and prints the output symbols;
//! `--timeline N` prints an N-level Gantt chart. `--deadline-budget MS`
//! bounds the whole run by a wall-clock budget: each phase (simulate,
//! timeline, exec) only starts while budget remains, so an overstaying
//! run degrades to the phases it completed instead of running away.
//!
//! `--trace` routes the simulate/exec phases through a single-worker
//! cf-runtime pool with span tracing enabled and prints the span
//! timeline (submit, start, cache hit/miss, settle, with per-stage
//! durations) to stderr after the run — the same spans `cfserve
//! --status-port` exposes at `/trace`. Outputs on stdout are unchanged.
//!
//! `--profile` runs the simulation with the deep profiler on and prints
//! the per-level stage attribution and the hottest instruction
//! signatures (the decomposition "flamegraph") after the headline
//! numbers; timing results are identical to an unprofiled run.
//! `--trace-json PATH` writes a Chrome Trace Event JSON file — the
//! per-level DMA/compute timeline, the fine ID/LD/EX/RD/WB stage
//! intervals and (with `--trace`) the runtime span tracks — loadable in
//! `chrome://tracing` or Perfetto.
//!
//! Exit codes: `0` success, `2` bad arguments (including an unknown
//! machine name), `3` the program failed to load or parse, `4` the
//! simulation or execution itself failed or the deadline budget ran out.

use std::process::ExitCode;
use std::sync::Arc;
use std::time::{Duration, Instant};

use cambricon_f::core::Machine;
use cambricon_f::isa::parse_program;
use cambricon_f::runtime::manifest::{machine_by_name, MACHINE_NAMES};
use cambricon_f::runtime::obs::Tracer;
use cambricon_f::runtime::{JobOptions, Runtime, RuntimeConfig};
use cambricon_f::tensor::{gen::DataGen, Memory, Shape};

const EXIT_BAD_ARGS: u8 = 2;
const EXIT_VALIDATION: u8 = 3;
const EXIT_JOB_FAILED: u8 = 4;

/// Span-ring capacity for `--trace` (two phases of one program fit with
/// room to spare).
const TRACE_CAPACITY: usize = 1024;

/// Hottest-signature rows `--profile` prints.
const PROFILE_TOP_SIGNATURES: usize = 10;

fn usage() -> ExitCode {
    eprintln!(
        "usage: cfrun <program.cfasm> [--machine f1|f100|embedded|tiny] [--exec] [--timeline N] \\\n\
         \x20            [--deadline-budget MS] [--trace] [--profile] [--trace-json PATH]"
    );
    ExitCode::from(EXIT_BAD_ARGS)
}

/// Shuts the traced pool down and prints the span timeline to stderr.
/// No-op without `--trace`.
fn dump_trace(trace: Option<(Runtime, Arc<Tracer>)>) {
    if let Some((runtime, tracer)) = trace {
        runtime.shutdown();
        eprint!("{}", tracer.render_timeline());
    }
}

/// Whether budget remains to start `phase`; prints the skip message when
/// it ran out.
fn budget_left(t0: Instant, budget: Option<Duration>, phase: &str) -> bool {
    match budget {
        None => true,
        Some(b) if t0.elapsed() < b => true,
        Some(b) => {
            eprintln!(
                "cfrun: deadline budget of {:.0} ms exhausted before {phase} ({:.0} ms elapsed)",
                b.as_secs_f64() * 1e3,
                t0.elapsed().as_secs_f64() * 1e3,
            );
            false
        }
    }
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let Some(path) = args.first() else { return usage() };
    let mut machine_name = "f1".to_string();
    let mut do_exec = false;
    let mut timeline_depth: Option<usize> = None;
    let mut deadline_budget: Option<Duration> = None;
    let mut trace = false;
    let mut profile = false;
    let mut trace_json: Option<String> = None;
    let mut it = args[1..].iter();
    while let Some(arg) = it.next() {
        match arg.as_str() {
            "--machine" => match it.next() {
                Some(m) => machine_name = m.clone(),
                None => return usage(),
            },
            "--exec" => do_exec = true,
            "--trace" => trace = true,
            "--profile" => profile = true,
            "--trace-json" => match it.next() {
                Some(p) => trace_json = Some(p.clone()),
                None => return usage(),
            },
            "--timeline" => match it.next().and_then(|d| d.parse().ok()) {
                Some(d) => timeline_depth = Some(d),
                None => return usage(),
            },
            "--deadline-budget" => match it.next().and_then(|d| d.parse::<u64>().ok()) {
                Some(ms) => deadline_budget = Some(Duration::from_millis(ms)),
                None => return usage(),
            },
            _ => return usage(),
        }
    }
    let Some(cfg) = machine_by_name(&machine_name) else {
        eprintln!(
            "cfrun: unknown machine `{machine_name}` — valid machines are {}",
            MACHINE_NAMES.join(", ")
        );
        return ExitCode::from(EXIT_BAD_ARGS);
    };

    let text = match std::fs::read_to_string(path) {
        Ok(t) => t,
        Err(e) => {
            eprintln!("cfrun: cannot read {path}: {e}");
            return ExitCode::from(EXIT_VALIDATION);
        }
    };
    let program = match parse_program(&text) {
        Ok(p) => Arc::new(p),
        Err(e) => {
            eprintln!("cfrun: {path}: parse error: {e}");
            return ExitCode::from(EXIT_VALIDATION);
        }
    };
    println!(
        "{path}: {} instructions, {} KiB external data, machine {}",
        program.instructions().len(),
        program.extern_elems() * 4 / 1024,
        cfg.name
    );

    // With --trace, simulate/exec go through a single-worker cf-runtime
    // pool whose tracer records span events; stdout is unchanged.
    let trace_pool = if trace {
        let tracer = Arc::new(Tracer::new(TRACE_CAPACITY));
        tracer.set_enabled(true);
        let runtime = Runtime::new(RuntimeConfig {
            workers: 1,
            tracer: Some(Arc::clone(&tracer)),
            ..Default::default()
        });
        Some((runtime, tracer))
    } else {
        None
    };

    let t0 = Instant::now();
    let machine = Machine::new(cfg.clone());
    if !budget_left(t0, deadline_budget, "simulation") {
        dump_trace(trace_pool);
        return ExitCode::from(EXIT_JOB_FAILED);
    }
    // --profile takes the direct simulate_profiled path (the pool's
    // cached path cannot attribute anything fresh); timing is identical.
    let simulated = if profile {
        machine
            .simulate_profiled(&program, PROFILE_TOP_SIGNATURES)
            .map(|(report, prof)| (Arc::new(report), Some(prof)))
            .map_err(|e| e.to_string())
    } else {
        match &trace_pool {
            Some((runtime, _)) => runtime
                .submit_simulate(JobOptions::default(), cfg.clone(), Arc::clone(&program))
                .join()
                .map(|sim| (sim.report, None))
                .map_err(|e| e.to_string()),
            None => {
                machine.simulate(&program).map(|r| (Arc::new(r), None)).map_err(|e| e.to_string())
            }
        }
    };
    match simulated {
        Ok((report, prof)) => {
            println!(
                "simulated: {:.3} ms | {:.3} Tops attained ({:.1}% of peak) | root intensity {:.1} ops/B | root traffic {:.3} MB",
                report.makespan_seconds * 1e3,
                report.attained_ops / 1e12,
                report.peak_fraction * 100.0,
                report.root_intensity,
                report.stats.root_traffic_bytes() as f64 / 1e6,
            );
            if let Some(prof) = prof {
                print!("{}", prof.render_table(&cfg));
            }
        }
        Err(e) => {
            eprintln!("cfrun: simulation failed: {e}");
            dump_trace(trace_pool);
            return ExitCode::from(EXIT_JOB_FAILED);
        }
    }

    if let Some(depth) = timeline_depth {
        if !budget_left(t0, deadline_budget, "timeline") {
            dump_trace(trace_pool);
            return ExitCode::from(EXIT_JOB_FAILED);
        }
        match machine.timeline(&program, depth) {
            Ok(tl) => print!("{}", tl.render_ascii(depth + 1, 100)),
            Err(e) => eprintln!("cfrun: timeline failed: {e}"),
        }
    }

    if do_exec {
        if !budget_left(t0, deadline_budget, "functional execution") {
            dump_trace(trace_pool);
            return ExitCode::from(EXIT_JOB_FAILED);
        }
        let elems = program.extern_elems() as usize;
        let mut mem = Memory::new(elems);
        // The traced pool seeds inputs identically (DataGen 0xCAFE), so
        // both paths print the same symbols.
        let ran = match &trace_pool {
            Some((runtime, _)) => runtime
                .submit_exec(cfg.clone(), Arc::clone(&program), 0xCAFE)
                .join()
                .map(|res| mem.as_mut_slice().copy_from_slice(&res.memory))
                .map_err(|e| e.to_string()),
            None => {
                let data = DataGen::new(0xCAFE).uniform(Shape::new(vec![elems]), -1.0, 1.0);
                mem.as_mut_slice().copy_from_slice(data.data());
                machine.run(&program, &mut mem).map_err(|e| e.to_string())
            }
        };
        if let Err(e) = ran {
            eprintln!("cfrun: functional execution failed: {e}");
            dump_trace(trace_pool);
            return ExitCode::from(EXIT_JOB_FAILED);
        }
        for (name, region) in program.symbols().iter().rev().take(3).rev() {
            let t = match mem.read_region(region) {
                Ok(t) => t,
                Err(e) => {
                    eprintln!("cfrun: cannot read back symbol `{name}`: {e}");
                    dump_trace(trace_pool);
                    return ExitCode::from(EXIT_JOB_FAILED);
                }
            };
            let preview: Vec<String> = t.data().iter().take(6).map(|v| format!("{v:.4}")).collect();
            println!("{name} {} = [{}…]", region.shape(), preview.join(", "));
        }
    }

    if let Some(path) = &trace_json {
        if !budget_left(t0, deadline_budget, "trace export") {
            dump_trace(trace_pool);
            return ExitCode::from(EXIT_JOB_FAILED);
        }
        // Full hierarchy depth unless --timeline narrowed it.
        let depth = timeline_depth.unwrap_or_else(|| cfg.depth());
        match machine.timeline(&program, depth) {
            Ok(tl) => {
                let mut events = cambricon_f::core::profile::chrome_trace_events(&cfg, &tl);
                if let Some((_, tracer)) = &trace_pool {
                    events.extend(tracer.chrome_events());
                }
                let body = serde_json::to_string(&serde_json::Value::Array(events));
                if let Err(e) = std::fs::write(path, body) {
                    eprintln!("cfrun: cannot write {path}: {e}");
                    dump_trace(trace_pool);
                    return ExitCode::from(EXIT_JOB_FAILED);
                }
                eprintln!(
                    "cfrun: wrote Chrome trace to {path} (load in chrome://tracing or Perfetto)"
                );
            }
            Err(e) => {
                eprintln!("cfrun: trace export failed: {e}");
                dump_trace(trace_pool);
                return ExitCode::from(EXIT_JOB_FAILED);
            }
        }
    }
    dump_trace(trace_pool);
    ExitCode::SUCCESS
}
