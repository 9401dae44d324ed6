//! Runs every experiment through the cf-runtime worker pool and writes
//! EXPERIMENTS.md at the workspace root.
//!
//! The experiments are independent, so they fan out across the pool
//! (`--workers N` to override the default of one per CPU); the report is
//! still assembled in DESIGN.md §5 order, with per-experiment worker time
//! and total wall-clock at the end.

fn main() {
    let mut workers = std::thread::available_parallelism().map(|n| n.get()).unwrap_or(1);
    let args: Vec<String> = std::env::args().skip(1).collect();
    let mut it = args.iter();
    while let Some(arg) = it.next() {
        match arg.as_str() {
            "--workers" => match it.next().and_then(|v| v.parse().ok()) {
                Some(n) => workers = n,
                None => {
                    eprintln!("usage: exp_all [--workers N]");
                    std::process::exit(2);
                }
            },
            other => {
                eprintln!("unknown argument `{other}`; usage: exp_all [--workers N]");
                std::process::exit(2);
            }
        }
    }

    let experiments = cf_bench::all_experiments().len();
    eprintln!("[exp_all] running {experiments} experiments on {workers} worker(s) …");
    let report = cf_bench::run_all(workers);
    for (title, outcome) in &report.sections {
        let id = &outcome.label;
        match &outcome.result {
            Ok(body) => {
                println!("=== {title} ({:.2}s) ===\n{body}", outcome.seconds);
                eprintln!("[exp_all]   {id}: {:.2}s", outcome.seconds);
            }
            Err(e) => eprintln!("[exp_all] {id} FAILED: {e}"),
        }
    }
    let busy: f64 = report.sections.iter().map(|(_, o)| o.seconds).sum();
    eprintln!(
        "[exp_all] total {:.2}s wall on {workers} worker(s) ({busy:.2}s of worker time)",
        report.wall_s
    );

    let failed = report.sections.iter().filter(|(_, o)| o.result.is_err()).count();
    if let Err(e) = std::fs::write("EXPERIMENTS.md", &report.markdown) {
        eprintln!("could not write EXPERIMENTS.md: {e}");
    } else {
        eprintln!("[exp_all] wrote EXPERIMENTS.md");
    }
    if failed > 0 {
        eprintln!("[exp_all] {failed} experiment(s) failed");
        std::process::exit(1);
    }
}
