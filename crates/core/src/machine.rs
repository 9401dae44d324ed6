use cf_isa::Program;
use cf_tensor::Memory;

use crate::perf::{PerfSim, SimOptions};
use crate::stats::Stats;
use crate::timeline::Timeline;
use crate::{CoreError, MachineConfig};

/// A Cambricon-F machine instance: the public façade over the planner,
/// the functional executor and the performance simulator.
///
/// # Examples
///
/// ```
/// use cf_core::{Machine, MachineConfig};
/// use cf_isa::{Opcode, ProgramBuilder};
/// use cf_tensor::Memory;
///
/// let mut b = ProgramBuilder::new();
/// let x = b.alloc("x", vec![32]);
/// let y = b.alloc("y", vec![32]);
/// let z = b.alloc("z", vec![32]);
/// b.emit(Opcode::Add1D, [x, y], [z])?;
/// let program = b.build();
///
/// let machine = Machine::new(MachineConfig::tiny(1, 2, 4096));
/// let mut mem = Memory::new(program.extern_elems() as usize);
/// machine.run(&program, &mut mem)?;          // functional
/// let report = machine.simulate(&program)?;  // performance
/// assert!(report.makespan_seconds > 0.0);
/// # Ok::<(), Box<dyn std::error::Error>>(())
/// ```
#[derive(Clone)]
pub struct Machine {
    config: MachineConfig,
    fault_hook: Option<std::sync::Arc<dyn crate::fault::DmaFaultHook>>,
}

impl std::fmt::Debug for Machine {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Machine")
            .field("config", &self.config)
            .field("fault_hook", &self.fault_hook.as_ref().map(|_| "…"))
            .finish()
    }
}

/// Result of a performance simulation.
#[derive(Debug, Clone, PartialEq)]
pub struct PerfReport {
    /// End-to-end execution time in seconds.
    pub makespan_seconds: f64,
    /// Steady-state spacing of back-to-back runs (pipeline concatenating).
    pub steady_seconds: f64,
    /// Per-level traffic/op statistics.
    pub stats: Stats,
    /// Useful arithmetic throughput attained, in ops/s.
    pub attained_ops: f64,
    /// Attained as a fraction of machine peak.
    pub peak_fraction: f64,
    /// Operational intensity at the root memory in flops/byte.
    pub root_intensity: f64,
}

impl Machine {
    /// A machine with the given configuration.
    pub fn new(config: MachineConfig) -> Self {
        Machine { config, fault_hook: None }
    }

    /// Attaches a DMA fault hook consulted on every functional-execution
    /// transfer (see [`crate::fault`]); performance simulation is
    /// unaffected.
    pub fn with_fault_hook(mut self, hook: std::sync::Arc<dyn crate::fault::DmaFaultHook>) -> Self {
        self.fault_hook = Some(hook);
        self
    }

    /// The machine's configuration.
    pub fn config(&self) -> &MachineConfig {
        &self.config
    }

    /// Functionally executes `program` with external data in `mem`
    /// (which is grown if scratch space is needed).
    ///
    /// # Errors
    ///
    /// Propagates planning and kernel errors, plus
    /// [`CoreError::TransientFault`] for transfers an attached fault hook
    /// fails.
    pub fn run(&self, program: &Program, mem: &mut Memory) -> Result<(), CoreError> {
        crate::exec::run_program_hooked(&self.config, program, mem, self.fault_hook.as_deref())
    }

    /// Simulates `program` and reports timing, utilisation and traffic.
    ///
    /// # Errors
    ///
    /// Propagates planning errors.
    pub fn simulate(&self, program: &Program) -> Result<PerfReport, CoreError> {
        let sim = PerfSim::new(&self.config);
        let out = sim.simulate(program)?;
        Ok(self.report_of(out))
    }

    /// Simulates `program` with unique cold subtrees fanned out across up
    /// to `threads` worker threads (`threads <= 1` runs sequentially),
    /// additionally returning the cold-path instrumentation counters. The
    /// report is byte-identical to [`Machine::simulate`] — the parallel
    /// pass only pre-computes outcome-cache entries the sequential walk
    /// would produce anyway.
    ///
    /// # Errors
    ///
    /// Propagates planning errors.
    pub fn simulate_parallel(
        &self,
        program: &Program,
        threads: usize,
    ) -> Result<(PerfReport, crate::perf::ColdStats), CoreError> {
        let sim = PerfSim::new(&self.config);
        let out = sim.simulate_parallel(program, threads)?;
        let cold = sim.cold_stats();
        Ok((self.report_of(out), cold))
    }

    /// Simulates `program` with profiling on, additionally returning the
    /// per-level / per-signature attribution with the `top` hottest
    /// signatures (see [`crate::profile`]). Timing results are identical
    /// to [`Machine::simulate`].
    ///
    /// # Errors
    ///
    /// Propagates planning errors.
    pub fn simulate_profiled(
        &self,
        program: &Program,
        top: usize,
    ) -> Result<(PerfReport, crate::profile::ProfileReport), CoreError> {
        let sim = PerfSim::with_options(&self.config, SimOptions::PROFILED);
        let out = sim.simulate(program)?;
        let profile = sim.profile_report(out.makespan, top).unwrap_or_default();
        Ok((self.report_of(out), profile))
    }

    fn report_of(&self, out: crate::perf::NodeOutcome) -> PerfReport {
        let ops = out.stats.total_ops();
        let attained = if out.makespan > 0.0 { ops as f64 / out.makespan } else { 0.0 };
        let traffic = out.stats.root_traffic_bytes();
        PerfReport {
            makespan_seconds: out.makespan,
            steady_seconds: out.steady,
            attained_ops: attained,
            peak_fraction: attained / self.config.peak_ops(),
            root_intensity: if traffic > 0 { ops as f64 / traffic as f64 } else { f64::INFINITY },
            stats: out.stats,
        }
    }

    /// Extracts a Figure-13-style execution timeline, recursing
    /// `max_depth` levels.
    ///
    /// # Errors
    ///
    /// Propagates planning errors.
    pub fn timeline(&self, program: &Program, max_depth: usize) -> Result<Timeline, CoreError> {
        crate::timeline::extract_timeline(&self.config, program, max_depth, 100_000)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use cf_isa::{Opcode, ProgramBuilder};

    #[test]
    fn report_fields_consistent() {
        let mut b = ProgramBuilder::new();
        let a = b.alloc("a", vec![128, 128]);
        let w = b.alloc("w", vec![128, 128]);
        b.apply(Opcode::MatMul, [a, w]).unwrap();
        let p = b.build();
        let m = Machine::new(MachineConfig::cambricon_f1());
        let r = m.simulate(&p).unwrap();
        assert!(r.peak_fraction > 0.0 && r.peak_fraction <= 1.0);
        assert!(r.root_intensity > 0.0);
        assert!(r.steady_seconds <= r.makespan_seconds + 1e-12);
    }

    #[test]
    fn same_program_runs_on_different_machines() {
        let mut b = ProgramBuilder::new();
        let x = b.alloc("x", vec![64, 64]);
        let y = b.alloc("y", vec![64, 64]);
        b.apply(Opcode::MatMul, [x, y]).unwrap();
        let p = b.build();
        for cfg in [MachineConfig::cambricon_f1(), MachineConfig::cambricon_f100()] {
            let r = Machine::new(cfg).simulate(&p).unwrap();
            assert!(r.makespan_seconds > 0.0);
        }
    }
}
