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
use std::io::Read;
use std::sync::Arc;

use cf_core::MachineConfig;
use cf_isa::Program;
use cf_workloads::ml::{self, MlSize};
use cf_workloads::nets;

use crate::cache::CacheKey;

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
pub(crate) const WORKLOAD_NAMES: [&str; 8] =
    ["matmul", "vgg16", "resnet152", "alexnet", "mlp3", "knn", "kmeans", "svm"];

/// Every key spelled at its default value, as a canonical spec line
/// renders it: a line describes the same job with or without any of them.
pub(crate) const DEFAULT_KEYS: [&str; 8] = [
    "machine=f1",
    "mode=simulate",
    "seed=51966",
    "batch=1",
    "order=256",
    "size=small",
    "profile=false",
    "profile=0",
];

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
        /// Generator name (see `WORKLOAD_NAMES`).
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
    /// Manifest line the spec came from (1-based).
    pub line: usize,
}

/// One resolved job, ready for
/// [`Runtime::submit_job`](crate::Runtime::submit_job): what a manifest
/// line and a `POST /jobs` spec both become. Only [`resolve`] builds one,
/// so its plan-cache key always matches its machine and program.
#[derive(Debug)]
pub struct Job {
    /// Output tag.
    pub(crate) label: String,
    /// The spec's machine name.
    pub(crate) machine_name: String,
    /// The machine the name resolves to.
    pub(crate) machine: MachineConfig,
    /// The built program (shared by a spec's repeats).
    pub(crate) program: Arc<Program>,
    /// Simulate or exec.
    pub(crate) kind: JobKind,
    /// Run the simulator profiler on this job.
    pub(crate) profile: bool,
    /// Write the profiled job's Chrome Trace Event JSON here.
    pub(crate) trace_json: Option<String>,
    /// The plan-cache key, `Some` exactly for a cacheable job (simulate,
    /// not profiled): what the scheduler looks the report up under and
    /// parks same-key jobs on.
    pub(crate) cache_key: Option<CacheKey>,
}

impl Job {
    /// `"simulate"` or `"exec"`: the mode records and journal entries
    /// carry.
    pub(crate) fn mode(&self) -> &'static str {
        match self.kind {
            JobKind::Simulate => "simulate",
            JobKind::Exec { .. } => "exec",
        }
    }

    /// The bytes admission control charges the job: its program's
    /// external-memory footprint.
    pub(crate) fn cost(&self) -> usize {
        footprint_bytes(&self.program) as usize
    }
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
    /// A `batch=` or `order=` so large that the program's element count
    /// overflows `u64` bytes.
    ExtentOverflow {
        /// The key whose value is too large.
        key: String,
        /// Manifest line.
        line: usize,
    },
    /// An exec job whose host footprint exceeds `MAX_EXEC_BYTES`; see
    /// `check_exec_footprint`.
    ExecTooLarge {
        /// The job's external memory in bytes (`extern_elems × 4`).
        bytes: u64,
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
            ManifestError::ExtentOverflow { key, line } => {
                write!(f, "line {line}: `{key}` overflows the program's element count")
            }
            ManifestError::ExecTooLarge { bytes, line } => write!(
                f,
                "line {line}: exec job needs {bytes} bytes of host memory, \
                 above the {MAX_EXEC_BYTES}-byte exec limit (simulate it instead)"
            ),
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
            // Rejected here as well: the generators count elements and
            // bytes unchecked, so an extent whose count passes `u64`
            // would wrap (release) or panic (debug) wherever it resolves.
            if let Some(key) = overflowing_extent(&name, batch, order) {
                return Err(ManifestError::ExtentOverflow { key: key.to_string(), line: line_no });
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
        line: line_no,
    })
}

/// The largest host footprint an exec job may need: 8 GiB of external
/// memory. Exec mode allocates the program's whole external memory
/// (`extern_elems × 4` bytes of `f32`) before the first instruction, so
/// a spec like `workload=matmul order=200000 mode=exec` (480 GB) would
/// abort the process. The largest exec spec the repo runs,
/// `workload=svm size=paper`, needs 7.52 GB.
pub(crate) const MAX_EXEC_BYTES: u64 = 8 << 30;

/// The host bytes a program's external memory occupies
/// (`extern_elems × 4`): what an exec job allocates and what admission
/// control charges any job.
pub(crate) fn footprint_bytes(program: &Program) -> u64 {
    program.extern_elems().saturating_mul(std::mem::size_of::<f32>() as u64)
}

/// Refuses an exec job whose resolved program needs more than
/// [`MAX_EXEC_BYTES`] of host memory. The manifest run and the HTTP job
/// API (including its resume path) both call this before a job is
/// journaled or run; simulate jobs allocate no tensors and always pass.
///
/// # Errors
///
/// [`ManifestError::ExecTooLarge`] with the spec's line.
pub(crate) fn check_exec_footprint(spec: &JobSpec, program: &Program) -> Result<(), ManifestError> {
    let bytes = footprint_bytes(program);
    match spec.kind {
        JobKind::Exec { .. } if bytes > MAX_EXEC_BYTES => {
            Err(ManifestError::ExecTooLarge { bytes, line: spec.line })
        }
        _ => Ok(()),
    }
}

/// Resolves a parsed spec into the [`Job`] that runs it: builds the
/// program, checks an exec job's footprint, looks the machine up and
/// keys a cacheable job. The manifest run and the HTTP job API both
/// resolve through here, before anything is journaled or run.
///
/// # Errors
///
/// [`resolve_program`] and `check_exec_footprint` failures, and
/// [`ManifestError::UnknownMachine`] for a spec that skipped
/// [`parse_manifest`]'s validation.
pub fn resolve(spec: &JobSpec) -> Result<Job, ManifestError> {
    let program = resolve_program(&spec.source)?;
    check_exec_footprint(spec, &program)?;
    let machine = machine_by_name(&spec.machine).ok_or_else(|| ManifestError::UnknownMachine {
        name: spec.machine.clone(),
        line: spec.line,
    })?;
    let cache_key = (spec.kind == JobKind::Simulate && !spec.profile)
        .then(|| CacheKey::new(&machine, &program));
    Ok(Job {
        label: spec.label.clone(),
        machine_name: spec.machine.clone(),
        machine,
        program: Arc::new(program),
        kind: spec.kind,
        profile: spec.profile,
        trace_json: spec.trace_json.clone(),
        cache_key,
    })
}

/// The largest program file [`resolve_program`] reads: 4 MiB of FISA
/// assembly, far above any program the repo renders, so a path that
/// names a device or a huge file fails instead of growing memory.
pub(crate) const MAX_PROGRAM_BYTES: u64 = 4 << 20;

/// Materialises a job's program (reads and parses the file, at most
/// `MAX_PROGRAM_BYTES` of it, or runs the builtin generator).
///
/// # Errors
///
/// I/O, size, assembly-parse and program-build failures, and a program
/// with no instructions, tagged with the source.
pub fn resolve_program(source: &ProgramSource) -> Result<Program, ManifestError> {
    match source {
        ProgramSource::File(path) => {
            let err = |message: String| ManifestError::Program { source: path.clone(), message };
            let mut text = String::new();
            std::fs::File::open(path)
                .and_then(|file| file.take(MAX_PROGRAM_BYTES + 1).read_to_string(&mut text))
                .map_err(|e| err(e.to_string()))?;
            if text.len() as u64 > MAX_PROGRAM_BYTES {
                return Err(err(format!("larger than the {MAX_PROGRAM_BYTES}-byte program limit")));
            }
            let program = cf_isa::parse_program(&text).map_err(|e| err(e.to_string()))?;
            if program.instructions().is_empty() {
                return Err(err("holds no instructions".to_string()));
            }
            Ok(program)
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
                "knn" => ml::knn_program(&ml_size, 5),
                "kmeans" => ml::kmeans_program(&ml_size),
                "svm" => ml::svm_program(&ml_size),
                other => match net(other) {
                    Some(net) => nets::build_program(&net, *batch),
                    None => return Err(err(format!("unknown workload `{other}`"))),
                },
            };
            built.map_err(|e| err(e.to_string()))
        }
    }
}

/// The builtin net `name` names, if any.
fn net(name: &str) -> Option<nets::NetDef> {
    match name {
        "vgg16" => Some(nets::vgg16()),
        "resnet152" => Some(nets::resnet152()),
        "alexnet" => Some(nets::alexnet()),
        "mlp3" => Some(nets::mlp3()),
        _ => None,
    }
}

/// The extent key (`order` or `batch`) whose value makes builtin
/// `name`'s external memory overflow `u64` bytes, if any.
fn overflowing_extent(name: &str, batch: usize, order: usize) -> Option<&'static str> {
    let (key, elements) = match (name, net(name)) {
        ("matmul", _) => ("order", nets::matmul_elements(order)),
        (_, Some(net)) => ("batch", net.program_elements(batch)),
        _ => return None,
    };
    elements.and_then(|n| n.checked_mul(cf_tensor::ELEM_BYTES)).is_none().then_some(key)
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The underlying grammar error, unwrapping [`ManifestError::BadLine`].
    fn reason(err: &ManifestError) -> &ManifestError {
        match err {
            ManifestError::BadLine { reason, .. } => reason,
            other => other,
        }
    }

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
    fn default_keys_describe_the_same_job() {
        let bare = parse_manifest("workload=matmul label=m").unwrap();
        for key in DEFAULT_KEYS {
            let spelled = parse_manifest(&format!("workload=matmul label=m {key}")).unwrap();
            assert_eq!(spelled, bare, "{key}");
        }
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
        assert_eq!(reason(&err), &ManifestError::UnknownMachine { name: "f2".into(), line: 1 });
        let msg = err.to_string();
        assert!(msg.contains("f1, f100, embedded, tiny"), "{msg}");
    }

    #[test]
    fn grammar_errors_carry_line_numbers() {
        assert_eq!(
            reason(&parse_manifest("workload=matmul\nbogus\n").unwrap_err()),
            &ManifestError::UnknownKey { key: "bogus".into(), line: 2 }
        );
        assert_eq!(
            reason(&parse_manifest("workload=matmul repeat=x\n").unwrap_err()),
            &ManifestError::BadValue { key: "repeat".into(), value: "x".into(), line: 1 }
        );
        assert_eq!(
            reason(&parse_manifest("machine=f1\n").unwrap_err()),
            &ManifestError::BadSource { line: 1 }
        );
        assert_eq!(
            reason(&parse_manifest("workload=matmul program=x.cfasm\n").unwrap_err()),
            &ManifestError::BadSource { line: 1 }
        );
        assert_eq!(
            reason(&parse_manifest("workload=nope\n").unwrap_err()),
            &ManifestError::UnknownWorkload { name: "nope".into(), line: 1 }
        );
    }

    #[test]
    fn exec_footprint_is_capped_and_simulate_is_not() {
        let check = |line: &str| {
            let specs = parse_manifest(line).unwrap();
            let program = resolve_program(&specs[0].source).unwrap();
            check_exec_footprint(&specs[0], &program)
        };
        // The largest exec spec the repo runs passes.
        assert_eq!(check("workload=svm size=paper mode=exec"), Ok(()));
        assert_eq!(check("workload=matmul order=200000"), Ok(()));
        assert_eq!(
            check("\nworkload=matmul order=200000 mode=exec"),
            Err(ManifestError::ExecTooLarge { bytes: 480_000_000_000, line: 2 })
        );
    }

    #[test]
    fn zero_dimensions_are_rejected_before_any_generator_runs() {
        for key in ["order", "batch"] {
            let err = parse_manifest(&format!("workload=vgg16\nworkload=matmul label=m {key}=0\n"))
                .unwrap_err();
            assert_eq!(reason(&err), &ManifestError::ZeroDimension { key: key.into(), line: 2 });
            assert!(err.to_string().contains(&format!("`{key}` must be at least 1")), "{err}");
        }
        assert_eq!(
            reason(&parse_manifest("workload=knn size=0\n").unwrap_err()),
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
            reason(&err),
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
            reason(&parse_manifest("workload=matmul profile=maybe\n").unwrap_err()),
            &ManifestError::BadValue { key: "profile".into(), value: "maybe".into(), line: 1 }
        );
        // Profiling is a simulate-mode concept.
        assert_eq!(
            reason(&parse_manifest("workload=knn mode=exec profile=1\n").unwrap_err()),
            &ManifestError::BadValue { key: "profile".into(), value: "exec".into(), line: 1 }
        );
    }

    #[test]
    fn program_files_over_the_size_cap_are_refused() {
        let path =
            std::env::temp_dir().join(format!("cf-manifest-cap-{}.cfasm", std::process::id()));
        let program = ".tensor a [2x2]\n.tensor c [2x2]\nMatMul a, a -> c\n";
        let at_cap = program.to_string() + &";".repeat(MAX_PROGRAM_BYTES as usize - program.len());
        std::fs::write(&path, &at_cap).unwrap();
        let source = ProgramSource::File(path.to_string_lossy().into_owned());
        // A file of exactly the cap is read (one instruction, then a comment).
        assert!(resolve_program(&source).is_ok());
        std::fs::write(&path, at_cap + ";").unwrap();
        let err = resolve_program(&source).unwrap_err();
        assert!(err.to_string().contains("-byte program limit"), "{err}");
        std::fs::remove_file(&path).ok();
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
    fn overflowing_extents_are_rejected_before_any_generator_runs() {
        for (line, key) in [
            ("workload=matmul order=4294967296 machine=f1", "order"),
            ("workload=mlp3 batch=18446744073709551615", "batch"),
        ] {
            let err = parse_manifest(&format!("workload=mlp3\n{line}\n")).unwrap_err();
            assert_eq!(reason(&err), &ManifestError::ExtentOverflow { key: key.into(), line: 2 });
        }
        // The bound is the element count itself, not a guessed cap:
        // 3·order²·4 bytes fits up to order 1,239,850,262.
        assert_eq!(overflowing_extent("matmul", 1, 1_239_850_262), None);
        assert_eq!(overflowing_extent("matmul", 1, 1_239_850_263), Some("order"));
        // A batch extent is ignored where no generator reads it.
        assert_eq!(overflowing_extent("knn", usize::MAX, 1), None);
        for name in ["vgg16", "resnet152", "alexnet", "mlp3"] {
            let elements = |batch| net(name).and_then(|net| net.program_elements(batch)).unwrap();
            let (per_item, fixed) = (elements(2) - elements(1), 2 * elements(1) - elements(2));
            let largest = ((u64::MAX / cf_tensor::ELEM_BYTES - fixed) / per_item) as usize;
            assert_eq!(overflowing_extent(name, largest, 1), None, "{name}");
            assert_eq!(overflowing_extent(name, largest + 1, 1), Some("batch"), "{name}");
        }
    }

    #[test]
    fn programs_without_instructions_are_refused() {
        // Unit tests run from the crate root.
        let source = ProgramSource::File("../../assets/empty.cfasm".into());
        let err = resolve_program(&source).unwrap_err();
        assert!(err.to_string().contains("holds no instructions"), "{err}");
    }

    #[test]
    fn machine_names_all_resolve() {
        for name in MACHINE_NAMES {
            assert!(machine_by_name(name).is_some(), "{name}");
        }
        assert!(machine_by_name("gpu").is_none());
    }
}
