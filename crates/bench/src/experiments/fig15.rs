//! Figure 15: roofline comparison — Cambricon-F1 vs GTX-1080Ti and
//! Cambricon-F100 vs DGX-1 on the seven Table 5 benchmarks.

use cf_core::{Machine, MachineConfig, PerfReport};
use cf_isa::Program;
use cf_model::gpu::GpuSystem;
use cf_workloads::{ml, nets};

use crate::table::{pct, ratio, Table};

/// One Cambricon-F side of the comparison.
pub struct CfPoint {
    /// Benchmark name.
    pub name: &'static str,
    /// Simulation report.
    pub report: PerfReport,
}

/// Builds the seven Table 5 benchmark programs for a machine (batch sizes
/// scale with machine size, as the paper's "variable batch").
pub fn benchmark_programs(big_machine: bool) -> Vec<(&'static str, Program)> {
    let batch = if big_machine { 64 } else { 16 };
    let size = ml::MlSize::paper();
    // Blocked-matmul operational intensity is set by node memory, not
    // problem size (it plateaus beyond ~4096), so the 32768-order paper
    // benchmark is run at 8192 to keep simulation time reasonable.
    let mm_order = 8192;
    vec![
        ("VGG-16", nets::build_program(&nets::vgg16(), batch).expect("vgg")),
        ("ResNet-152", nets::build_program(&nets::resnet152(), batch).expect("resnet")),
        ("K-NN", ml::knn_benchmark_program(&size, 16).expect("knn")),
        ("K-Means", ml::kmeans_benchmark_program(&size).expect("kmeans")),
        ("LVQ", ml::lvq_benchmark_program(&size).expect("lvq")),
        ("SVM", ml::svm_program(&size).expect("svm")),
        ("MATMUL", nets::matmul_program(mm_order)),
    ]
}

/// Simulates the benchmark suite on one machine.
pub fn simulate_suite(cfg: &MachineConfig, big: bool) -> Vec<CfPoint> {
    let machine = Machine::new(cfg.clone());
    benchmark_programs(big)
        .into_iter()
        .map(|(name, program)| CfPoint {
            name,
            report: machine.simulate(&program).expect("simulation"),
        })
        .collect()
}

fn compare(cfg: &MachineConfig, gpu: &GpuSystem, big: bool, paper_mean: f64) -> String {
    let points = simulate_suite(cfg, big);
    let mut t = Table::new(
        format!("Figure 15 — {} vs {}", cfg.name, gpu.name),
        &["Benchmark", "CF OI op/B", "CF Tops", "CF %peak", "GPU OI", "GPU Tops", "Speedup"],
    );
    let mut log_sum = 0.0;
    let mut lo = f64::INFINITY;
    let mut hi = 0.0f64;
    let mut peak_sum = 0.0;
    for p in &points {
        let gpu_tops = gpu.attained_ops(p.name).unwrap() / 1e12;
        let cf_tops = p.report.attained_ops / 1e12;
        let speedup = cf_tops / gpu_tops;
        log_sum += speedup.ln();
        lo = lo.min(speedup);
        hi = hi.max(speedup);
        peak_sum += p.report.peak_fraction;
        let gpu_oi = gpu.workload_point(p.name).unwrap().oi;
        t.row(&[
            p.name.into(),
            format!("{:.1}", p.report.root_intensity),
            format!("{cf_tops:.2}"),
            pct(p.report.peak_fraction),
            format!("{gpu_oi:.0}"),
            format!("{gpu_tops:.2}"),
            ratio(speedup),
        ]);
    }
    let mean = (log_sum / points.len() as f64).exp();
    let mut out = t.render();
    // The paper quotes a mean peak fraction for F1 only.
    let paper_peak = if big { "" } else { " (paper F1: 88.9%)" };
    out.push_str(&format!(
        "Geomean speedup {} (paper: {paper_mean:.2}x); range {}..{}; \
         mean peak fraction {}{paper_peak}.\n",
        ratio(mean),
        ratio(lo),
        ratio(hi),
        pct(peak_sum / points.len() as f64)
    ));
    out
}

/// Runs the experiment.
pub fn run() -> String {
    let mut out = compare(&MachineConfig::cambricon_f1(), &GpuSystem::gtx_1080ti(), false, 5.14);
    out.push('\n');
    out.push_str(&compare(&MachineConfig::cambricon_f100(), &GpuSystem::dgx1(), true, 2.82));
    out
}
