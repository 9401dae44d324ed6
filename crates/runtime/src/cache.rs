//! The plan/report cache: an LRU over finished [`PerfReport`]s keyed by
//! `(machine fingerprint, program content hash)`.
//!
//! Performance simulation is a pure function of machine structure and
//! program content — the planner consults only shapes, capacities and
//! latencies, never data values or wall-clock state — so a cached report
//! is *exactly* the report a cold run would produce. Repeated simulation
//! of the same workload (the dominant pattern in design sweeps and in
//! serving) therefore skips the planner and pipeline model entirely.
//!
//! Functional-execution jobs are **not** cached here: their output depends
//! on the contents of external memory, which is not part of the key (see
//! DESIGN.md §6).
//!
//! The key also defines *identity* beyond the cache: it is the
//! scheduler's single-flight, under which a job whose key is already
//! queued or running parks until that job settles and then reads its
//! fill — one cold computation for manifest repeats and concurrent
//! `POST /jobs` duplicates alike, each with its own job id (see
//! DESIGN.md §6 and §9).

use std::collections::HashMap;
use std::sync::Mutex;

use cf_core::{MachineConfig, PerfReport};
use cf_isa::Program;
use std::sync::Arc;

use crate::fault::fnv1a;
use crate::obs::{SpanKind, Stage, Tracer};
use crate::sync;

/// Cache key: machine-structure fingerprint plus program content hash,
/// both stable across processes (see [`cf_tensor::fingerprint`]).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct CacheKey {
    /// [`MachineConfig::fingerprint`] of the target machine.
    pub machine: u64,
    /// [`Program::content_hash`] of the workload.
    pub program: u64,
}

impl CacheKey {
    /// The key for simulating `program` on `machine`.
    pub fn new(machine: &MachineConfig, program: &Program) -> Self {
        CacheKey { machine: machine.fingerprint(), program: program.content_hash() }
    }

    /// A single-`u64` digest of the key, used as the span token for
    /// cache trace events.
    pub(crate) fn digest(&self) -> u64 {
        self.machine ^ self.program.rotate_left(32)
    }
}

/// FNV-1a content checksum of a report, stored next to every cache entry
/// and re-verified on each hit so corrupted entries are detected instead
/// of served.
pub(crate) fn report_checksum(report: &PerfReport) -> u64 {
    // `Debug` for floats round-trips exactly, so the rendering is a
    // faithful (if verbose) content encoding.
    fnv1a(format!("{report:?}").as_bytes())
}

/// What a verifying lookup found.
#[derive(Debug)]
pub enum CacheLookup {
    /// A verified entry.
    Hit(Arc<PerfReport>),
    /// No entry under the key.
    Miss,
    /// The entry's checksum did not match its content; it has been
    /// evicted and the caller should recompute.
    Corrupt,
}

#[derive(Debug)]
struct Entry {
    value: Arc<PerfReport>,
    checksum: u64,
    last_used: u64,
}

#[derive(Debug, Default)]
struct Inner {
    map: HashMap<CacheKey, Entry>,
    tick: u64,
}

/// A thread-safe LRU report cache.
///
/// Eviction scans for the least-recently-used entry, which is O(capacity);
/// capacities are small (hundreds of distinct (machine, program) pairs at
/// most in any realistic sweep), so the scan is cheaper than maintaining
/// an intrusive recency list under a lock.
#[derive(Debug)]
pub struct PlanCache {
    inner: Mutex<Inner>,
    capacity: usize,
    tracer: Arc<Tracer>,
}

impl PlanCache {
    /// A cache holding at most `capacity` reports. Capacity 0 disables
    /// caching (every lookup misses, inserts are dropped).
    pub fn new(capacity: usize) -> Self {
        PlanCache::with_tracer(capacity, Arc::new(Tracer::disabled()))
    }

    /// [`new`](PlanCache::new) with a shared tracer: verifying lookups
    /// emit hit/miss/corrupt span events and lookup-latency samples.
    pub(crate) fn with_tracer(capacity: usize, tracer: Arc<Tracer>) -> Self {
        PlanCache { inner: Mutex::new(Inner::default()), capacity, tracer }
    }

    /// The configured capacity.
    pub(crate) fn capacity(&self) -> usize {
        self.capacity
    }

    /// Number of cached reports.
    pub(crate) fn len(&self) -> usize {
        sync::lock(&self.inner).map.len()
    }

    /// Whether the cache is empty.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Looks up a report and re-verifies its content checksum. A mismatch
    /// evicts the entry and reports [`CacheLookup::Corrupt`] so the
    /// caller can count the detection and recompute.
    pub fn get_verified(&self, key: &CacheKey) -> CacheLookup {
        let t0 = std::time::Instant::now();
        let lookup = self.lookup(key);
        if self.tracer.enabled() {
            let elapsed = t0.elapsed();
            self.tracer.observe(Stage::CacheLookup, elapsed);
            let kind = match &lookup {
                CacheLookup::Hit(_) => SpanKind::CacheHit,
                CacheLookup::Miss => SpanKind::CacheMiss,
                CacheLookup::Corrupt => SpanKind::CacheCorrupt,
            };
            self.tracer.record(kind, key.digest(), Some(elapsed), String::new);
        }
        lookup
    }

    fn lookup(&self, key: &CacheKey) -> CacheLookup {
        let mut inner = sync::lock(&self.inner);
        inner.tick += 1;
        let tick = inner.tick;
        let Some(e) = inner.map.get_mut(key) else {
            return CacheLookup::Miss;
        };
        if report_checksum(&e.value) != e.checksum {
            inner.map.remove(key);
            return CacheLookup::Corrupt;
        }
        e.last_used = tick;
        CacheLookup::Hit(Arc::clone(&e.value))
    }

    /// Inserts (or refreshes) a report, evicting the least-recently-used
    /// entry if the cache is full.
    pub fn insert(&self, key: CacheKey, value: Arc<PerfReport>) {
        let checksum = report_checksum(&value);
        self.insert_with_checksum(key, value, checksum);
    }

    /// [`insert`](PlanCache::insert) with an explicit stored checksum —
    /// the fault-injection layer passes a wrong one to model a corrupted
    /// fill that the next [`get_verified`](PlanCache::get_verified) must
    /// catch.
    pub(crate) fn insert_with_checksum(
        &self,
        key: CacheKey,
        value: Arc<PerfReport>,
        checksum: u64,
    ) {
        if self.capacity == 0 {
            return;
        }
        let mut inner = sync::lock(&self.inner);
        inner.tick += 1;
        let tick = inner.tick;
        if !inner.map.contains_key(&key) && inner.map.len() >= self.capacity {
            if let Some(victim) = inner.map.iter().min_by_key(|(_, e)| e.last_used).map(|(k, _)| *k)
            {
                inner.map.remove(&victim);
            }
        }
        inner.map.insert(key, Entry { value, checksum, last_used: tick });
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use cf_core::Machine;
    use cf_isa::{Opcode, ProgramBuilder};

    fn matmul(n: usize) -> Program {
        let mut b = ProgramBuilder::new();
        let a = b.alloc("a", vec![n, n]);
        let w = b.alloc("w", vec![n, n]);
        b.apply(Opcode::MatMul, [a, w]).unwrap();
        b.build()
    }

    fn report(n: usize) -> Arc<PerfReport> {
        Arc::new(Machine::new(MachineConfig::cambricon_f1()).simulate(&matmul(n)).unwrap())
    }

    fn key(n: u64) -> CacheKey {
        CacheKey { machine: 1, program: n }
    }

    #[test]
    fn hit_returns_same_arc() {
        let cache = PlanCache::new(4);
        let r = report(64);
        let cfg = MachineConfig::cambricon_f1();
        let k = CacheKey::new(&cfg, &matmul(64));
        assert!(matches!(cache.get_verified(&k), CacheLookup::Miss));
        cache.insert(k, Arc::clone(&r));
        let CacheLookup::Hit(hit) = cache.get_verified(&k) else { panic!("expected a hit") };
        assert!(Arc::ptr_eq(&hit, &r));
    }

    #[test]
    fn lru_evicts_least_recently_used() {
        let cache = PlanCache::new(2);
        let r = report(32);
        cache.insert(key(1), Arc::clone(&r));
        cache.insert(key(2), Arc::clone(&r));
        // Touch 1 so 2 becomes the LRU victim.
        assert!(matches!(cache.get_verified(&key(1)), CacheLookup::Hit(_)));
        cache.insert(key(3), Arc::clone(&r));
        assert_eq!(cache.len(), 2);
        assert!(matches!(cache.get_verified(&key(1)), CacheLookup::Hit(_)));
        assert!(matches!(cache.get_verified(&key(2)), CacheLookup::Miss));
        assert!(matches!(cache.get_verified(&key(3)), CacheLookup::Hit(_)));
    }

    #[test]
    fn reinsert_refreshes_instead_of_evicting() {
        let cache = PlanCache::new(2);
        let r = report(32);
        cache.insert(key(1), Arc::clone(&r));
        cache.insert(key(2), Arc::clone(&r));
        cache.insert(key(2), Arc::clone(&r));
        assert_eq!(cache.len(), 2);
        assert!(matches!(cache.get_verified(&key(1)), CacheLookup::Hit(_)));
    }

    #[test]
    fn zero_capacity_disables_caching() {
        let cache = PlanCache::new(0);
        cache.insert(key(1), report(32));
        assert!(cache.is_empty());
        assert!(matches!(cache.get_verified(&key(1)), CacheLookup::Miss));
    }

    #[test]
    fn corrupt_entry_detected_then_healed_by_reinsert() {
        let cache = PlanCache::new(4);
        let r = report(32);
        cache.insert_with_checksum(key(1), Arc::clone(&r), 0xBAD);
        assert!(matches!(cache.get_verified(&key(1)), CacheLookup::Corrupt));
        // The corrupt entry was evicted: further lookups are plain misses.
        assert!(matches!(cache.get_verified(&key(1)), CacheLookup::Miss));
        // A clean re-insert heals the key.
        cache.insert(key(1), r);
        assert!(matches!(cache.get_verified(&key(1)), CacheLookup::Hit(_)));
    }

    #[test]
    fn checksum_is_content_stable() {
        let a = report(48);
        let b = report(48);
        assert_eq!(report_checksum(&a), report_checksum(&b));
        assert_ne!(report_checksum(&a), report_checksum(&report(64)));
    }

    #[test]
    fn distinct_machines_distinct_keys() {
        let p = matmul(64);
        let a = CacheKey::new(&MachineConfig::cambricon_f1(), &p);
        let b = CacheKey::new(&MachineConfig::cambricon_f100(), &p);
        assert_ne!(a, b);
        let c = CacheKey::new(&MachineConfig::cambricon_f1(), &matmul(64));
        assert_eq!(a, c);
    }
}
