//! The `cfserve` job manifest: a plain-text description of simulation
//! jobs, one per line, as `key=value` pairs.
//!
//! ```text
//! # workload jobs (builtin generators)
//! workload=vgg16 batch=2 machine=f1 repeat=4
//! workload=matmul order=1024 machine=f100
//! workload=knn size=small mode=exec seed=7
//! # file jobs (FISA assembly)
//! program=assets/demo.cfasm machine=tiny label=demo
//! ```
//!
//! Keys: `workload=` *or* `program=` (exactly one, required),
//! `machine=` (default `f1`), `mode=simulate|exec` (default `simulate`),
//! `seed=` (exec input seeding, default `0xCAFE` like `cfrun`),
//! `batch=` (net workloads), `order=` (matmul), `size=small|paper`
//! (ML workloads), `repeat=` (submit the job N times — the repeats are
//! what the plan cache answers), `label=` (output tag),
//! `profile=true|false` (run the per-level/per-stage simulator profiler
//! on this job and fold the attribution into `/metrics`; simulate-mode
//! only, bypasses the plan cache), `trace_json=PATH` (also write the
//! profiled job's Chrome Trace Event JSON to `PATH`; implies
//! `profile=true`).

use std::fmt;

use cf_core::MachineConfig;
use cf_isa::Program;
use cf_workloads::ml::{self, MlSize};
use cf_workloads::nets;

/// Machine names accepted by `machine=` (and `cfrun --machine`).
pub const MACHINE_NAMES: [&str; 4] = ["f1", "f100", "embedded", "tiny"];

/// Resolves a machine name to its configuration; `None` for unknown
/// names (see [`MACHINE_NAMES`]).
pub fn machine_by_name(name: &str) -> Option<MachineConfig> {
    match name {
        "f1" => Some(MachineConfig::cambricon_f1()),
        "f100" => Some(MachineConfig::cambricon_f100()),
        "embedded" => Some(MachineConfig::cambricon_f_embedded()),
        "tiny" => Some(MachineConfig::tiny(2, 2, 64 << 10)),
        _ => None,
    }
}

/// Builtin workload generator names accepted by `workload=`.
pub const WORKLOAD_NAMES: [&str; 8] =
    ["matmul", "vgg16", "resnet152", "alexnet", "mlp3", "knn", "kmeans", "svm"];

/// What a job does with its program.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum JobKind {
    /// Performance-simulate (cacheable).
    Simulate,
    /// Functionally execute with inputs seeded from `seed` (never cached).
    Exec {
        /// Input data seed.
        seed: u64,
    },
}

/// Where a job's program comes from.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum ProgramSource {
    /// A `.cfasm` file to parse.
    File(String),
    /// A builtin generator from `cf-workloads`.
    Builtin {
        /// Generator name (see [`WORKLOAD_NAMES`]).
        name: String,
        /// Batch size for net workloads.
        batch: usize,
        /// Matrix order for `matmul`.
        order: usize,
        /// `small` or `paper` for ML workloads.
        size: String,
    },
}

/// One parsed manifest line.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct JobSpec {
    /// Output tag (defaults to the workload/file name).
    pub label: String,
    /// Validated machine name.
    pub machine: String,
    /// Simulate or exec.
    pub kind: JobKind,
    /// Program source.
    pub source: ProgramSource,
    /// How many copies of this job to submit.
    pub repeat: usize,
    /// Run the simulator profiler on this job (simulate mode only; the
    /// job bypasses the plan cache so the attribution is real).
    pub profile: bool,
    /// Write the profiled job's Chrome Trace Event JSON here.
    pub trace_json: Option<String>,
}

/// Manifest parsing/resolution errors, with 1-based line numbers.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum ManifestError {
    /// `machine=` named no known machine.
    UnknownMachine {
        /// The offending name.
        name: String,
        /// Manifest line.
        line: usize,
    },
    /// `workload=` named no builtin generator.
    UnknownWorkload {
        /// The offending name.
        name: String,
        /// Manifest line.
        line: usize,
    },
    /// A key the grammar does not know.
    UnknownKey {
        /// The offending key.
        key: String,
        /// Manifest line.
        line: usize,
    },
    /// A value that does not parse for its key.
    BadValue {
        /// The key whose value is malformed.
        key: String,
        /// The offending value.
        value: String,
        /// Manifest line.
        line: usize,
    },
    /// A `batch=` or `order=` of zero: the generator would build a
    /// tensor with a zero-sized dimension, which no shape admits.
    ZeroDimension {
        /// The key whose value is zero.
        key: String,
        /// Manifest line.
        line: usize,
    },
    /// A line with neither or both of `program=` / `workload=`.
    BadSource {
        /// Manifest line.
        line: usize,
    },
    /// Reading or parsing a program file failed.
    Program {
        /// The file or generator involved.
        source: String,
        /// The underlying message.
        message: String,
    },
    /// Two jobs share a label: labels key journal/resume records and
    /// per-job reporting, so they must be unique per manifest.
    DuplicateLabel {
        /// The repeated label.
        label: String,
        /// Manifest line of the second occurrence (1-based).
        line: usize,
        /// Manifest line that first used the label (1-based).
        previous: usize,
    },
    /// A grammar error annotated with the offending line's content
    /// (what [`parse_manifest`] reports).
    BadLine {
        /// Manifest line (1-based).
        line: usize,
        /// The line as written (comments stripped, trimmed).
        content: String,
        /// The underlying grammar error.
        reason: Box<ManifestError>,
    },
}

impl ManifestError {
    /// The underlying grammar error, unwrapping [`ManifestError::BadLine`].
    pub fn reason(&self) -> &ManifestError {
        match self {
            ManifestError::BadLine { reason, .. } => reason,
            other => other,
        }
    }
}

impl fmt::Display for ManifestError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ManifestError::UnknownMachine { name, line } => write!(
                f,
                "line {line}: unknown machine `{name}` (valid machines: {})",
                MACHINE_NAMES.join(", ")
            ),
            ManifestError::UnknownWorkload { name, line } => write!(
                f,
                "line {line}: unknown workload `{name}` (valid workloads: {})",
                WORKLOAD_NAMES.join(", ")
            ),
            ManifestError::UnknownKey { key, line } => {
                write!(f, "line {line}: unknown key `{key}`")
            }
            ManifestError::BadValue { key, value, line } => {
                write!(f, "line {line}: bad value `{value}` for `{key}`")
            }
            ManifestError::ZeroDimension { key, line } => {
                write!(f, "line {line}: `{key}` must be at least 1 (it sizes a tensor dimension)")
            }
            ManifestError::BadSource { line } => {
                write!(f, "line {line}: need exactly one of `program=` or `workload=`")
            }
            ManifestError::Program { source, message } => {
                write!(f, "program `{source}`: {message}")
            }
            ManifestError::DuplicateLabel { label, line, previous } => write!(
                f,
                "line {line}: duplicate label `{label}` (first used on line {previous}); \
                 labels key journal/resume records and must be unique"
            ),
            ManifestError::BadLine { content, reason, .. } => {
                write!(f, "{reason} in line `{content}`")
            }
        }
    }
}

impl std::error::Error for ManifestError {}

/// Parses a whole manifest; `#` comments and blank lines are skipped.
///
/// # Errors
///
/// Returns the first grammar error, wrapped in
/// [`ManifestError::BadLine`] so the message carries both the 1-based
/// line number and the offending line's content.
pub fn parse_manifest(text: &str) -> Result<Vec<JobSpec>, ManifestError> {
    let mut jobs = Vec::new();
    let mut label_lines: std::collections::HashMap<String, usize> =
        std::collections::HashMap::new();
    for (idx, raw) in text.lines().enumerate() {
        let line_no = idx + 1;
        let line = raw.split('#').next().unwrap_or("").trim();
        if line.is_empty() {
            continue;
        }
        let spec = parse_line(line, line_no).map_err(|reason| ManifestError::BadLine {
            line: line_no,
            content: line.to_string(),
            reason: Box::new(reason),
        })?;
        // Labels key journal/resume records and per-job reporting; a
        // duplicate would make those keys ambiguous.
        if let Some(&previous) = label_lines.get(&spec.label) {
            return Err(ManifestError::BadLine {
                line: line_no,
                content: line.to_string(),
                reason: Box::new(ManifestError::DuplicateLabel {
                    label: spec.label.clone(),
                    line: line_no,
                    previous,
                }),
            });
        }
        label_lines.insert(spec.label.clone(), line_no);
        jobs.push(spec);
    }
    Ok(jobs)
}

fn parse_line(line: &str, line_no: usize) -> Result<JobSpec, ManifestError> {
    let mut program: Option<String> = None;
    let mut workload: Option<String> = None;
    let mut machine = "f1".to_string();
    let mut mode = "simulate".to_string();
    let mut seed: u64 = 0xCAFE;
    let mut batch: usize = 1;
    let mut order: usize = 256;
    let mut size = "small".to_string();
    let mut repeat: usize = 1;
    let mut label: Option<String> = None;
    let mut profile = false;
    let mut trace_json: Option<String> = None;

    for token in line.split_whitespace() {
        let Some((key, value)) = token.split_once('=') else {
            return Err(ManifestError::UnknownKey { key: token.to_string(), line: line_no });
        };
        let bad = |k: &str, v: &str| ManifestError::BadValue {
            key: k.to_string(),
            value: v.to_string(),
            line: line_no,
        };
        match key {
            "program" => program = Some(value.to_string()),
            "workload" => workload = Some(value.to_string()),
            "machine" => machine = value.to_string(),
            "mode" => mode = value.to_string(),
            "label" => label = Some(value.to_string()),
            "size" => size = value.to_string(),
            "seed" => seed = value.parse().map_err(|_| bad(key, value))?,
            "batch" => batch = value.parse().map_err(|_| bad(key, value))?,
            "order" => order = value.parse().map_err(|_| bad(key, value))?,
            "repeat" => repeat = value.parse().map_err(|_| bad(key, value))?,
            "profile" => {
                profile = match value {
                    "true" | "1" => true,
                    "false" | "0" => false,
                    other => return Err(bad(key, other)),
                }
            }
            "trace_json" => trace_json = Some(value.to_string()),
            _ => return Err(ManifestError::UnknownKey { key: key.to_string(), line: line_no }),
        }
    }

    if machine_by_name(&machine).is_none() {
        return Err(ManifestError::UnknownMachine { name: machine, line: line_no });
    }
    // Rejected here, not in the generators: a zero extent would reach
    // `Shape::new`'s assertion and panic whichever thread resolves the
    // program — cfserve's main thread or an API connection.
    for (key, value) in [("batch", batch), ("order", order)] {
        if value == 0 {
            return Err(ManifestError::ZeroDimension { key: key.to_string(), line: line_no });
        }
    }
    if !["small", "paper"].contains(&size.as_str()) {
        return Err(ManifestError::BadValue {
            key: "size".to_string(),
            value: size,
            line: line_no,
        });
    }
    let kind = match mode.as_str() {
        "simulate" => JobKind::Simulate,
        "exec" => JobKind::Exec { seed },
        other => {
            return Err(ManifestError::BadValue {
                key: "mode".to_string(),
                value: other.to_string(),
                line: line_no,
            })
        }
    };
    if repeat == 0 {
        return Err(ManifestError::BadValue {
            key: "repeat".to_string(),
            value: "0".to_string(),
            line: line_no,
        });
    }
    let (source, default_label) = match (program, workload) {
        (Some(path), None) => {
            let stem = path.rsplit('/').next().unwrap_or(&path).to_string();
            (ProgramSource::File(path), stem)
        }
        (None, Some(name)) => {
            if !WORKLOAD_NAMES.contains(&name.as_str()) {
                return Err(ManifestError::UnknownWorkload { name, line: line_no });
            }
            let default_label = name.clone();
            (ProgramSource::Builtin { name, batch, order, size }, default_label)
        }
        _ => return Err(ManifestError::BadSource { line: line_no }),
    };
    // Asking for a per-job trace without profiling would silently write
    // nothing; make `trace_json=` imply `profile=true`.
    let profile = profile || trace_json.is_some();
    if profile && kind != JobKind::Simulate {
        return Err(ManifestError::BadValue {
            key: "profile".to_string(),
            value: "exec".to_string(),
            line: line_no,
        });
    }
    Ok(JobSpec {
        label: label.unwrap_or(default_label),
        machine,
        kind,
        source,
        repeat,
        profile,
        trace_json,
    })
}

/// Materialises a job's program (reads and parses the file, or runs the
/// builtin generator).
///
/// # Errors
///
/// I/O, assembly-parse and program-build failures, tagged with the source.
pub fn resolve_program(source: &ProgramSource) -> Result<Program, ManifestError> {
    match source {
        ProgramSource::File(path) => {
            let text = std::fs::read_to_string(path).map_err(|e| ManifestError::Program {
                source: path.clone(),
                message: e.to_string(),
            })?;
            cf_isa::parse_program(&text).map_err(|e| ManifestError::Program {
                source: path.clone(),
                message: e.to_string(),
            })
        }
        ProgramSource::Builtin { name, batch, order, size } => {
            let err = |message: String| ManifestError::Program { source: name.clone(), message };
            let ml_size = match size.as_str() {
                "paper" => MlSize::paper(),
                "small" => MlSize::small(),
                other => return Err(err(format!("unknown size `{other}` (small|paper)"))),
            };
            let built = match name.as_str() {
                "matmul" => return Ok(nets::matmul_program(*order)),
                "vgg16" => nets::build_program(&nets::vgg16(), *batch),
                "resnet152" => nets::build_program(&nets::resnet152(), *batch),
                "alexnet" => nets::build_program(&nets::alexnet(), *batch),
                "mlp3" => nets::build_program(&nets::mlp3(), *batch),
                "knn" => ml::knn_program(&ml_size, 5),
                "kmeans" => ml::kmeans_program(&ml_size),
                "svm" => ml::svm_program(&ml_size),
                other => return Err(err(format!("unknown workload `{other}`"))),
            };
            built.map_err(|e| err(e.to_string()))
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parses_workload_line_with_defaults() {
        let jobs = parse_manifest("workload=vgg16 batch=2 repeat=3\n").unwrap();
        assert_eq!(jobs.len(), 1);
        let j = &jobs[0];
        assert_eq!(j.label, "vgg16");
        assert_eq!(j.machine, "f1");
        assert_eq!(j.kind, JobKind::Simulate);
        assert_eq!(j.repeat, 3);
        assert_eq!(
            j.source,
            ProgramSource::Builtin {
                name: "vgg16".into(),
                batch: 2,
                order: 256,
                size: "small".into()
            }
        );
    }

    #[test]
    fn comments_and_blanks_are_skipped() {
        let text = "# a comment\n\nworkload=matmul order=64 # trailing\n";
        let jobs = parse_manifest(text).unwrap();
        assert_eq!(jobs.len(), 1);
        assert_eq!(
            jobs[0].source,
            ProgramSource::Builtin {
                name: "matmul".into(),
                batch: 1,
                order: 64,
                size: "small".into()
            }
        );
    }

    #[test]
    fn unknown_machine_lists_valid_names() {
        let err = parse_manifest("workload=matmul machine=f2\n").unwrap_err();
        assert_eq!(err.reason(), &ManifestError::UnknownMachine { name: "f2".into(), line: 1 });
        let msg = err.to_string();
        assert!(msg.contains("f1, f100, embedded, tiny"), "{msg}");
    }

    #[test]
    fn grammar_errors_carry_line_numbers() {
        assert_eq!(
            parse_manifest("workload=matmul\nbogus\n").unwrap_err().reason(),
            &ManifestError::UnknownKey { key: "bogus".into(), line: 2 }
        );
        assert_eq!(
            parse_manifest("workload=matmul repeat=x\n").unwrap_err().reason(),
            &ManifestError::BadValue { key: "repeat".into(), value: "x".into(), line: 1 }
        );
        assert_eq!(
            parse_manifest("machine=f1\n").unwrap_err().reason(),
            &ManifestError::BadSource { line: 1 }
        );
        assert_eq!(
            parse_manifest("workload=matmul program=x.cfasm\n").unwrap_err().reason(),
            &ManifestError::BadSource { line: 1 }
        );
        assert_eq!(
            parse_manifest("workload=nope\n").unwrap_err().reason(),
            &ManifestError::UnknownWorkload { name: "nope".into(), line: 1 }
        );
    }

    #[test]
    fn zero_dimensions_are_rejected_before_any_generator_runs() {
        for key in ["order", "batch"] {
            let err = parse_manifest(&format!("workload=vgg16\nworkload=matmul label=m {key}=0\n"))
                .unwrap_err();
            assert_eq!(err.reason(), &ManifestError::ZeroDimension { key: key.into(), line: 2 });
            assert!(err.to_string().contains(&format!("`{key}` must be at least 1")), "{err}");
        }
        assert_eq!(
            parse_manifest("workload=knn size=0\n").unwrap_err().reason(),
            &ManifestError::BadValue { key: "size".into(), value: "0".into(), line: 1 }
        );
    }

    #[test]
    fn grammar_errors_carry_line_content() {
        let err = parse_manifest("workload=matmul\nworkload=matmul repeat=x # oops\n").unwrap_err();
        let ManifestError::BadLine { line, content, .. } = &err else {
            panic!("expected BadLine, got {err:?}");
        };
        assert_eq!(*line, 2);
        // Content is the line as parsed: comment stripped, trimmed.
        assert_eq!(content, "workload=matmul repeat=x");
        let msg = err.to_string();
        assert!(msg.contains("line 2"), "{msg}");
        assert!(msg.contains("workload=matmul repeat=x"), "{msg}");
    }

    #[test]
    fn duplicate_labels_are_rejected_with_both_lines() {
        // Same default label (the workload name) on lines 1 and 3.
        let err = parse_manifest("workload=matmul order=64\n# gap\nworkload=matmul order=128\n")
            .unwrap_err();
        assert_eq!(
            err.reason(),
            &ManifestError::DuplicateLabel { label: "matmul".into(), line: 3, previous: 1 }
        );
        let msg = err.to_string();
        assert!(msg.contains("line 3") && msg.contains("line 1"), "{msg}");
        assert!(msg.contains("duplicate label `matmul`"), "{msg}");

        // Distinct labels on the same workload are fine.
        let jobs =
            parse_manifest("workload=matmul order=64\nworkload=matmul order=128 label=big\n")
                .unwrap();
        assert_eq!(jobs.len(), 2);
    }

    #[test]
    fn exec_mode_carries_seed() {
        let jobs = parse_manifest("workload=knn mode=exec seed=7\n").unwrap();
        assert_eq!(jobs[0].kind, JobKind::Exec { seed: 7 });
    }

    #[test]
    fn profile_and_trace_json_parse() {
        let jobs = parse_manifest("workload=matmul order=64\n").unwrap();
        assert!(!jobs[0].profile && jobs[0].trace_json.is_none());

        let jobs = parse_manifest("workload=matmul order=64 profile=true\n").unwrap();
        assert!(jobs[0].profile);

        // trace_json implies profile.
        let jobs = parse_manifest("workload=matmul order=64 trace_json=/tmp/t.json\n").unwrap();
        assert!(jobs[0].profile);
        assert_eq!(jobs[0].trace_json.as_deref(), Some("/tmp/t.json"));

        assert_eq!(
            parse_manifest("workload=matmul profile=maybe\n").unwrap_err().reason(),
            &ManifestError::BadValue { key: "profile".into(), value: "maybe".into(), line: 1 }
        );
        // Profiling is a simulate-mode concept.
        assert_eq!(
            parse_manifest("workload=knn mode=exec profile=1\n").unwrap_err().reason(),
            &ManifestError::BadValue { key: "profile".into(), value: "exec".into(), line: 1 }
        );
    }

    #[test]
    fn builtin_programs_resolve() {
        for name in ["matmul", "mlp3", "knn", "kmeans"] {
            let source = ProgramSource::Builtin {
                name: name.into(),
                batch: 1,
                order: 64,
                size: "small".into(),
            };
            let program = resolve_program(&source).unwrap();
            assert!(!program.instructions().is_empty(), "{name}");
        }
    }

    #[test]
    fn machine_names_all_resolve() {
        for name in MACHINE_NAMES {
            assert!(machine_by_name(name).is_some(), "{name}");
        }
        assert!(machine_by_name("gpu").is_none());
    }
}
