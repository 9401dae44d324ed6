//! The traced pass's in-process half: times each layer's public entry
//! point — request parsing, program resolution, journal append, plan-cache
//! lookup, simulation and functional execution — over the run's own job
//! sequence, and measures how much simulation work the jobs that one
//! backend process served share.

use std::collections::hash_map::Entry;
use std::collections::{HashMap, HashSet};
use std::hint::black_box;
use std::path::Path;
use std::sync::Arc;
use std::time::{Duration, Instant};

use cambricon_f::core::Machine;
use cambricon_f::runtime::api::{parse_request, DEFAULT_MAX_BODY_BYTES};
use cambricon_f::runtime::cache::{CacheKey, CacheLookup, PlanCache};
use cambricon_f::runtime::journal::{JobEntry, Journal, RunHeader, JOURNAL_VERSION};
use cambricon_f::runtime::manifest::{self, JobKind};
use cambricon_f::tensor::gen::DataGen;
use cambricon_f::tensor::{Memory, Shape};

use crate::gen::Spec;
use crate::http::post_jobs_request;
use crate::oracle::Oracle;
use crate::spans::Recorder;

/// Parses per timed sample: one parse takes a few microseconds.
const PARSE_REPS: u32 = 64;

/// Threads `simulate_parallel` may fan out to (the box's core count).
const SIM_THREADS: usize = 2;

/// One (level, opcode, operand shapes) simulator signature.
type Signature = (usize, String, String);

/// A job as the fleet ran it: its spec, its fleet start (window) and the
/// backend the router sent it to.
#[derive(Debug, Clone, Copy)]
pub struct Placed<'a> {
    pub spec: &'a Spec,
    pub window: usize,
    pub backend: usize,
}

/// Per-call samples (microseconds) and simulator counters.
#[derive(Debug, Default)]
pub struct Layers {
    pub jobs: usize,
    pub parse_us: Vec<f64>,
    pub resolve_us: Vec<f64>,
    pub append_us: Vec<f64>,
    pub cache_get_us: Vec<f64>,
    pub simulate_us: Vec<f64>,
    pub machine_run_us: Vec<f64>,
    pub shape_memo_hits: u64,
    pub shape_memo_misses: u64,
    pub parallel_tasks: Vec<f64>,
    pub outcome_memo_hits: u64,
    pub outcome_memo_misses: u64,
    /// Per simulate job: the share of its signatures that the backend
    /// process serving it had already simulated on the same machine
    /// (see [`sig_shares`]).
    pub sig_share: Vec<f64>,
}

fn us(since: Instant) -> f64 {
    since.elapsed().as_secs_f64() * 1e6
}

/// The signatures `Machine::simulate_profiled` visits for `line` (a
/// manifest line), with the parsed machine's name; `None` for exec jobs.
fn signatures(line: &str) -> Result<Option<(String, HashSet<Signature>)>, String> {
    let parsed = manifest::parse_manifest(line).map_err(|e| e.to_string())?.remove(0);
    if !matches!(parsed.kind, JobKind::Simulate) {
        return Ok(None);
    }
    let program = manifest::resolve_program(&parsed.source).map_err(|e| e.to_string())?;
    let machine = manifest::machine_by_name(&parsed.machine)
        .ok_or_else(|| format!("unknown machine in {line}"))?;
    let (_, profile) =
        Machine::new(machine).simulate_profiled(&program, usize::MAX).map_err(|e| e.to_string())?;
    let sigs = profile.signatures.into_iter().map(|s| (s.level, s.op, s.detail)).collect();
    Ok(Some((parsed.machine, sigs)))
}

/// Adds the signatures of every simulate spec of `placed` that `known`
/// lacks.
fn add_signatures(
    known: &mut HashMap<String, (String, HashSet<Signature>)>,
    placed: &[Placed],
) -> Result<(), String> {
    for p in placed {
        if let Entry::Vacant(slot) = known.entry(p.spec.line()) {
            if let Some(sigs) = signatures(slot.key())? {
                slot.insert(sigs);
            }
        }
    }
    Ok(())
}

/// For each simulate job of `jobs`, in order: the share of its signatures
/// that the backend process serving it had already simulated on the same
/// machine, in its window's set-up warm-up (`warm`) or for an earlier job
/// of the same window. Each window is a fresh fleet, so nothing carries
/// over from one window to the next. `sigs` maps a job's spec line to its
/// machine and signatures (`None` for exec jobs).
pub fn sig_shares<'a>(
    warm: &[Placed],
    jobs: &[Placed],
    sigs: impl Fn(&str) -> Option<&'a (String, HashSet<Signature>)>,
) -> Vec<f64> {
    let mut seen: HashMap<(usize, usize, &str), HashSet<&Signature>> = HashMap::new();
    let mut shares = Vec::new();
    for (index, p) in warm.iter().chain(jobs).enumerate() {
        let Some((machine, job_sigs)) = sigs(&p.spec.line()) else { continue };
        let earlier = seen.entry((p.window, p.backend, machine.as_str())).or_default();
        if index >= warm.len() && !job_sigs.is_empty() {
            let shared = job_sigs.iter().filter(|s| earlier.contains(s)).count();
            shares.push(shared as f64 / job_sigs.len() as f64);
        }
        earlier.extend(job_sigs);
    }
    shares
}

/// Walks `jobs` in order until `budget` is spent (at least one job),
/// journaling into a file under `dir`. `warm` holds each window's set-up
/// warm-up specs, placed like `jobs`. The signature share covers every
/// job, whatever the budget, so it depends on the seed only.
pub fn measure(
    jobs: &[Placed],
    warm: &[Placed],
    oracle: &Oracle,
    dir: &Path,
    budget: Duration,
    rec: &mut Recorder,
) -> Result<Layers, String> {
    let began = Instant::now();
    let path = dir.join("layers.wal");
    let header = RunHeader {
        version: JOURNAL_VERSION,
        manifest: 0,
        machines: 0,
        fault_seed: None,
        fault_spec: 0,
        jobs: jobs.len() as u64,
    };
    let mut journal = Journal::create(&path, &header).map_err(|e| e.to_string())?;
    let cache = PlanCache::new(256);
    let mut warm_sigs = HashMap::new();
    add_signatures(&mut warm_sigs, warm)?;
    let mut job_sigs: HashMap<String, (String, HashSet<Signature>)> = HashMap::new();
    let mut out = Layers::default();

    for (index, &Placed { spec, .. }) in jobs.iter().enumerate() {
        if index > 0 && began.elapsed() > budget {
            break;
        }
        let line = spec.line();
        let job_started = Instant::now();
        let job_span = rec.open();

        let raw = post_jobs_request(&spec.json());
        let t = Instant::now();
        for _ in 0..PARSE_REPS {
            let _ = black_box(parse_request(black_box(raw.as_bytes()), DEFAULT_MAX_BODY_BYTES));
        }
        out.parse_us.push(us(t) / f64::from(PARSE_REPS));
        rec.record(Some(job_span), "api::parse_request", t, Vec::new());

        let parsed = manifest::parse_manifest(&line).map_err(|e| e.to_string())?.remove(0);
        let t = Instant::now();
        let program = manifest::resolve_program(&parsed.source).map_err(|e| e.to_string())?;
        out.resolve_us.push(us(t));
        rec.record(Some(job_span), "manifest::resolve_program", t, Vec::new());
        let machine = manifest::machine_by_name(&parsed.machine)
            .ok_or_else(|| format!("unknown machine in {line}"))?;

        match parsed.kind {
            JobKind::Simulate => {
                let key = CacheKey::new(&machine, &program);
                let t = Instant::now();
                let hit = matches!(cache.get_verified(&key), CacheLookup::Hit(_));
                out.cache_get_us.push(us(t));
                rec.record(
                    Some(job_span),
                    "PlanCache::get_verified",
                    t,
                    vec![("hit", hit.to_string())],
                );

                if !job_sigs.contains_key(&line) {
                    let m = Machine::new(machine.clone());
                    let t = Instant::now();
                    let report = m.simulate(&program).map_err(|e| e.to_string())?;
                    out.simulate_us.push(us(t));
                    rec.record(Some(job_span), "Machine::simulate", t, Vec::new());

                    let t = Instant::now();
                    let (_, cold) =
                        m.simulate_parallel(&program, SIM_THREADS).map_err(|e| e.to_string())?;
                    out.shape_memo_hits += cold.shape_memo_hits;
                    out.shape_memo_misses += cold.shape_memo_misses;
                    out.parallel_tasks.push(cold.parallel_tasks as f64);
                    rec.record(Some(job_span), "Machine::simulate_parallel", t, Vec::new());

                    let t = Instant::now();
                    let (_, profile) =
                        m.simulate_profiled(&program, usize::MAX).map_err(|e| e.to_string())?;
                    out.outcome_memo_hits += profile.memo_hits();
                    out.outcome_memo_misses += profile.memo_misses();
                    rec.record(Some(job_span), "Machine::simulate_profiled", t, Vec::new());

                    if !hit {
                        cache.insert(key, Arc::new(report));
                    }
                    let sigs = profile.signatures.into_iter().map(|s| (s.level, s.op, s.detail));
                    job_sigs.insert(line.clone(), (parsed.machine.clone(), sigs.collect()));
                }
            }
            JobKind::Exec { seed } => {
                // Seeded exactly as the scheduler seeds an exec job.
                let elems = program.extern_elems() as usize;
                let mut mem = Memory::new(elems);
                let data = DataGen::new(seed).uniform(Shape::new(vec![elems]), -1.0, 1.0);
                mem.as_mut_slice().copy_from_slice(data.data());
                let t = Instant::now();
                Machine::new(machine).run(&program, &mut mem).map_err(|e| e.to_string())?;
                out.machine_run_us.push(us(t));
                rec.record(Some(job_span), "Machine::run", t, Vec::new());
            }
        }

        let reference = oracle.get(spec).ok_or_else(|| format!("no reference for {line}"))?;
        let entry = JobEntry {
            index: index as u64,
            label: reference.label.clone(),
            machine: reference.machine.clone(),
            mode: reference.mode,
            outcome: Ok(reference.output.clone()),
        };
        let t = Instant::now();
        journal.append(&entry).map_err(|e| e.to_string())?;
        out.append_us.push(us(t));
        rec.record(Some(job_span), "Journal::append", t, Vec::new());

        rec.close(job_span, None, "job", job_started, vec![("spec", line)]);
        out.jobs += 1;
    }
    drop(journal);
    let _ = std::fs::remove_file(&path);
    add_signatures(&mut job_sigs, &jobs[out.jobs..])?;
    out.sig_share =
        sig_shares(warm, jobs, |line| job_sigs.get(line).or_else(|| warm_sigs.get(line)));
    Ok(out)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::gen::hot_specs;

    #[test]
    fn sig_share_counts_only_the_serving_process_history() {
        let specs = hot_specs();
        let (a, b, c) = (&specs[0], &specs[1], &specs[2]);
        let sig = |n: usize| (n, "op".to_string(), String::new());
        let table: HashMap<String, (String, HashSet<Signature>)> = [
            (a, "f1", vec![sig(1), sig(2)]),
            (b, "f1", vec![sig(1), sig(2), sig(3), sig(4)]),
            (c, "f100", vec![sig(1), sig(2)]),
        ]
        .into_iter()
        .map(|(spec, machine, s)| (spec.line(), (machine.to_string(), s.into_iter().collect())))
        .collect();
        let at = |spec, window, backend| Placed { spec, window, backend };
        let jobs = [
            at(a, 0, 0), // nothing seen yet
            at(b, 0, 0), // shares 1 and 2 with a
            at(b, 0, 1), // another process
            at(c, 0, 0), // another machine
            at(b, 1, 0), // a fresh fleet: only its warm-up counts
        ];
        let warm = [at(c, 1, 0), at(a, 1, 1)];
        let shares = sig_shares(&warm, &jobs, |line| table.get(line));
        assert_eq!(shares, vec![0.0, 0.5, 0.0, 0.0, 0.0]);
        let warm = [at(a, 1, 0)];
        assert_eq!(sig_shares(&warm, &jobs, |line| table.get(line))[4], 0.5);
    }
}
