//! The paper's numbers as a golden: every experiment, rendered in
//! process exactly as `exp_all` renders it, must reproduce the committed
//! EXPERIMENTS.md line for line. Only the timing lines (`_… regenerated
//! in …s._` and `_Total: …_`) are masked, so a change that moves any
//! reproduced table or figure fails here until EXPERIMENTS.md is
//! regenerated on purpose.

/// Whether `line` is one of the report's wall-clock stamps.
fn is_timing(line: &str) -> bool {
    line.starts_with("_Total: ")
        || (line.starts_with('_') && line.contains(" regenerated in ") && line.ends_with("s._"))
}

fn masked(markdown: &str) -> Vec<&str> {
    markdown.lines().map(|line| if is_timing(line) { "<timing>" } else { line }).collect()
}

#[test]
fn experiments_reproduce_the_committed_report() {
    let committed =
        std::fs::read_to_string(concat!(env!("CARGO_MANIFEST_DIR"), "/../../EXPERIMENTS.md"))
            .expect("read EXPERIMENTS.md");
    let report = cf_bench::run_all(2);
    let (want, got) = (masked(&committed), masked(&report.markdown));
    assert_eq!(want.iter().filter(|l| **l == "<timing>").count(), report.sections.len() + 1);
    for (i, (w, g)) in want.iter().zip(&got).enumerate() {
        assert_eq!(w, g, "EXPERIMENTS.md line {} differs; regenerate it with exp_all", i + 1);
    }
    assert_eq!(want.len(), got.len(), "EXPERIMENTS.md has a different number of lines");
}
