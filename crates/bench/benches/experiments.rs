//! `cargo bench` entry point that regenerates **every table and figure**
//! of the paper's evaluation (DESIGN.md §5) and writes EXPERIMENTS.md.
//!
//! This is a custom harness (not Criterion): the "benchmark" is the
//! experiment suite itself, each experiment timed and reported, exactly
//! as `exp_all` renders it.

fn main() {
    let workers = std::thread::available_parallelism().map_or(1, |n| n.get());
    let report = cf_bench::run_all(workers);
    let mut failures = 0u32;
    for (title, outcome) in &report.sections {
        match &outcome.result {
            Ok(body) => println!("=== {title} ({:.2}s) ===\n{body}", outcome.seconds),
            Err(e) => {
                failures += 1;
                eprintln!("experiment {} FAILED: {e}", outcome.label);
            }
        }
    }
    if let Err(e) = std::fs::write(
        std::path::Path::new(env!("CARGO_MANIFEST_DIR")).join("../../EXPERIMENTS.md"),
        &report.markdown,
    ) {
        eprintln!("could not write EXPERIMENTS.md: {e}");
    }
    assert_eq!(failures, 0, "{failures} experiments failed");
}
