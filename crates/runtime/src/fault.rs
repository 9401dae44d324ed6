//! cf-fault: deterministic, seeded fault injection — the one fault model
//! of the serving stack, for job faults and wire faults alike.
//!
//! A [`FaultPlan`] decides, purely from a hash of `(seed, site, token,
//! attempt, op)`, whether a given fault site fires. Decisions are
//! **stateless**: they depend only on the plan's seed and the identity of
//! the decision point, never on wall-clock time, thread interleaving or
//! how many faults fired before. That is what makes chaos runs
//! reproducible — the same manifest under the same seed panics the same
//! jobs at the same attempts on every run, regardless of worker count.
//!
//! Job sites (see [`FaultSite`]; `cfserve --fault-spec`, parsed by
//! [`FaultSpec::parse`]):
//!
//! * **WorkerPanic** — the job body panics on a worker (keyed by job
//!   token and attempt, so a retried attempt draws a fresh decision);
//! * **JobLatency** — the job body sleeps an extra [`FaultSpec::latency`]
//!   before running (timing-only; never changes results);
//! * **CacheCorrupt** — the plan-cache entry filled under a key is
//!   corrupted (keyed by the *cache key*, so a poisoned workload
//!   reproduces exactly; detected by the cache's FNV checksum and
//!   recomputed);
//! * **DeadlineExpiry** — the job behaves as if its deadline passed
//!   (retryable, since a fault-free rerun would have made it);
//! * **MemFault** — a DMA transfer inside the functional executor fails
//!   transiently (keyed per transfer, threaded through
//!   [`cf_core::fault::DmaFaultHook`]);
//! * **WorkerKill** — the worker loop itself panics *after* completing a
//!   job, exercising the supervisor's respawn path.
//!
//! Wire sites (`cfrouter --netfault-spec`, parsed by
//! [`FaultSpec::parse_wire`]) — **Refuse**, **ConnectLatency**,
//! **Trickle**, **Tear**, **Garbage** and **WireCorrupt** — are drawn by
//! [`crate::netfault`] once per router↔backend exchange, keyed on the
//! request's stable identity.

use std::time::Duration;

/// Where a fault can be injected.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum FaultSite {
    /// Panic inside the job body.
    WorkerPanic,
    /// Artificial latency before the job body.
    JobLatency,
    /// Corrupt the plan-cache fill for a key.
    CacheCorrupt,
    /// Pretend the job's deadline expired.
    DeadlineExpiry,
    /// Fail one DMA transfer inside `cf-core` functional execution.
    MemFault,
    /// Panic the worker loop after a job completes (respawn test).
    WorkerKill,
    /// Refuse a router↔backend connect outright.
    Refuse,
    /// Stall the connect / first response byte.
    ConnectLatency,
    /// Trickle the response bytes out slowly (slow-loris).
    Trickle,
    /// Tear the connection mid-body (truncated reply).
    Tear,
    /// Overwrite the reply's status line with garbage.
    Garbage,
    /// Flip one deterministic reply body byte.
    WireCorrupt,
}

impl FaultSite {
    /// Decision-hash tag; job and wire tags are disjoint so a shared
    /// seed never correlates job and wire faults.
    fn tag(self) -> u64 {
        match self {
            FaultSite::WorkerPanic => 0x01,
            FaultSite::JobLatency => 0x02,
            FaultSite::CacheCorrupt => 0x03,
            FaultSite::DeadlineExpiry => 0x04,
            FaultSite::MemFault => 0x05,
            FaultSite::WorkerKill => 0x06,
            FaultSite::Refuse => 0x11,
            FaultSite::ConnectLatency => 0x12,
            FaultSite::Trickle => 0x13,
            FaultSite::Tear => 0x14,
            FaultSite::Garbage => 0x15,
            FaultSite::WireCorrupt => 0x16,
        }
    }
}

/// Per-site injection rates (each a probability in `[0, 1]`) plus the
/// timing-fault durations.
#[derive(Debug, Clone, PartialEq)]
pub struct FaultSpec {
    /// Rate of injected job-body panics (per attempt).
    pub panic_rate: f64,
    /// Rate of injected artificial latency (per attempt).
    pub latency_rate: f64,
    /// How long an injected latency fault sleeps.
    pub latency: Duration,
    /// Rate of corrupted cache fills (per cache key).
    pub corrupt_rate: f64,
    /// Rate of injected deadline expiries (per attempt).
    pub expire_rate: f64,
    /// Rate of transient DMA faults (per transfer — keep small).
    pub mem_rate: f64,
    /// Rate of worker-loop kills (per completed job).
    pub kill_rate: f64,
    /// Rate of refused connects (per exchange).
    pub refuse_rate: f64,
    /// Rate of stalled connects (per exchange).
    pub connect_latency_rate: f64,
    /// How long a stalled connect waits.
    pub connect_latency: Duration,
    /// Rate of trickled responses (per exchange).
    pub trickle_rate: f64,
    /// Total extra time a trickled response takes to deliver.
    pub trickle: Duration,
    /// Rate of mid-body connection tears (per exchange).
    pub tear_rate: f64,
    /// Rate of garbage status lines (per exchange).
    pub garbage_rate: f64,
    /// Rate of single-byte reply body corruption (per exchange).
    pub wire_corrupt_rate: f64,
}

/// What one spec key sets.
#[derive(Clone, Copy)]
enum Key {
    /// A site's rate, in `[0, 1]`.
    Rate(fn(&mut FaultSpec) -> &mut f64),
    /// A duration, in whole milliseconds.
    Millis(fn(&mut FaultSpec) -> &mut Duration),
}

/// One fault flag's grammar: the name its errors use and its keys, in
/// canonical order. The two flags need separate tables because they
/// give `corrupt` and `latency_ms` different meanings.
struct Grammar {
    flag: &'static str,
    keys: &'static [(&'static str, Key)],
}

/// `cfserve --fault-spec`: the job sites.
const JOB_KEYS: Grammar = Grammar {
    flag: "fault",
    keys: &[
        ("panic", Key::Rate(|s| &mut s.panic_rate)),
        ("latency", Key::Rate(|s| &mut s.latency_rate)),
        ("latency_ms", Key::Millis(|s| &mut s.latency)),
        ("corrupt", Key::Rate(|s| &mut s.corrupt_rate)),
        ("expire", Key::Rate(|s| &mut s.expire_rate)),
        ("mem", Key::Rate(|s| &mut s.mem_rate)),
        ("kill", Key::Rate(|s| &mut s.kill_rate)),
    ],
};

/// `cfrouter --netfault-spec`: the wire sites.
const WIRE_KEYS: Grammar = Grammar {
    flag: "netfault",
    keys: &[
        ("refuse", Key::Rate(|s| &mut s.refuse_rate)),
        ("connect_latency", Key::Rate(|s| &mut s.connect_latency_rate)),
        ("latency_ms", Key::Millis(|s| &mut s.connect_latency)),
        ("trickle", Key::Rate(|s| &mut s.trickle_rate)),
        ("trickle_ms", Key::Millis(|s| &mut s.trickle)),
        ("tear", Key::Rate(|s| &mut s.tear_rate)),
        ("garbage", Key::Rate(|s| &mut s.garbage_rate)),
        ("corrupt", Key::Rate(|s| &mut s.wire_corrupt_rate)),
    ],
};

impl FaultSpec {
    /// All rates zero: a plan that never fires.
    pub fn none() -> Self {
        FaultSpec {
            panic_rate: 0.0,
            latency_rate: 0.0,
            latency: Duration::from_millis(1),
            corrupt_rate: 0.0,
            expire_rate: 0.0,
            mem_rate: 0.0,
            kill_rate: 0.0,
            refuse_rate: 0.0,
            connect_latency_rate: 0.0,
            connect_latency: Duration::from_millis(25),
            trickle_rate: 0.0,
            trickle: Duration::from_millis(50),
            tear_rate: 0.0,
            garbage_rate: 0.0,
            wire_corrupt_rate: 0.0,
        }
    }

    /// The chaos-test mix from the acceptance criteria: 10 % worker
    /// panics, 5 % cache corruption.
    pub fn chaos() -> Self {
        FaultSpec { panic_rate: 0.10, corrupt_rate: 0.05, ..FaultSpec::none() }
    }

    /// Parses a `--fault-spec` string: comma-separated `site=rate` pairs,
    /// e.g. `panic=0.1,corrupt=0.05,latency=0.02,mem=0.001,expire=0.01,kill=0.005`.
    /// `latency_ms=N` sets the injected latency duration.
    ///
    /// # Errors
    ///
    /// A message naming the unparseable pair or out-of-range rate.
    pub fn parse(text: &str) -> Result<Self, String> {
        parse_with(&JOB_KEYS, text)
    }

    /// Parses a `--netfault-spec` string: comma-separated `site=rate`
    /// pairs, e.g.
    /// `refuse=0.1,connect_latency=0.05,latency_ms=25,trickle=0.1,trickle_ms=50,tear=0.1,garbage=0.05,corrupt=0.1`.
    ///
    /// # Errors
    ///
    /// A message naming the unparseable pair or out-of-range rate.
    pub fn parse_wire(text: &str) -> Result<Self, String> {
        parse_with(&WIRE_KEYS, text)
    }

    /// The canonical `--fault-spec` text of the job sites: every key, in
    /// a fixed order, so [`FaultSpec::parse`] reads it back unchanged.
    /// The journal fingerprints this text, not the struct's layout.
    pub(crate) fn render(&self) -> String {
        let mut spec = self.clone();
        let pairs: Vec<String> = JOB_KEYS
            .keys
            .iter()
            .map(|&(name, key)| match key {
                Key::Rate(slot) => format!("{name}={}", slot(&mut spec)),
                Key::Millis(slot) => format!("{name}={}", slot(&mut spec).as_millis()),
            })
            .collect();
        pairs.join(",")
    }

    fn rate(&self, site: FaultSite) -> f64 {
        match site {
            FaultSite::WorkerPanic => self.panic_rate,
            FaultSite::JobLatency => self.latency_rate,
            FaultSite::CacheCorrupt => self.corrupt_rate,
            FaultSite::DeadlineExpiry => self.expire_rate,
            FaultSite::MemFault => self.mem_rate,
            FaultSite::WorkerKill => self.kill_rate,
            FaultSite::Refuse => self.refuse_rate,
            FaultSite::ConnectLatency => self.connect_latency_rate,
            FaultSite::Trickle => self.trickle_rate,
            FaultSite::Tear => self.tear_rate,
            FaultSite::Garbage => self.garbage_rate,
            FaultSite::WireCorrupt => self.wire_corrupt_rate,
        }
    }
}

/// The one spec parser: reads `key=value` pairs against `grammar`, then
/// range-checks every rate key the grammar names.
fn parse_with(grammar: &Grammar, text: &str) -> Result<FaultSpec, String> {
    let flag = grammar.flag;
    let mut spec = FaultSpec::none();
    for pair in text.split(',').map(str::trim).filter(|p| !p.is_empty()) {
        let (name, value) =
            pair.split_once('=').ok_or_else(|| format!("bad {flag}-spec item `{pair}`"))?;
        let bad = || format!("bad {flag}-spec value `{value}` for `{name}`");
        match grammar.keys.iter().find(|(key, _)| *key == name) {
            Some((_, Key::Rate(slot))) => *slot(&mut spec) = value.parse().map_err(|_| bad())?,
            Some((_, Key::Millis(slot))) => {
                *slot(&mut spec) = Duration::from_millis(value.parse().map_err(|_| bad())?);
            }
            None => return Err(format!("unknown {flag} site `{name}`")),
        }
    }
    for &(name, key) in grammar.keys {
        if let Key::Rate(slot) = key {
            let rate = *slot(&mut spec);
            if !(0.0..=1.0).contains(&rate) {
                return Err(format!("{flag} rate `{name}` must be in [0, 1], got {rate}"));
            }
        }
    }
    Ok(spec)
}

/// A seeded, stateless fault decider (see the module docs for the
/// determinism argument).
#[derive(Debug, Clone, PartialEq)]
pub struct FaultPlan {
    seed: u64,
    spec: FaultSpec,
}

impl FaultPlan {
    /// A plan that injects per `spec`, decided by hashing against `seed`.
    pub fn new(seed: u64, spec: FaultSpec) -> Self {
        FaultPlan { seed, spec }
    }

    /// The plan's seed.
    pub(crate) fn seed(&self) -> u64 {
        self.seed
    }

    /// The per-site rates.
    pub(crate) fn spec(&self) -> &FaultSpec {
        &self.spec
    }

    /// Whether `site` fires for decision point `(token, attempt, op)`.
    ///
    /// `token` identifies the job (its submission id), for
    /// [`FaultSite::CacheCorrupt`] the cache key, and for a wire site
    /// the exchange (backend address and request identity, see
    /// [`crate::netfault`]); `attempt` is the retry attempt (0-based);
    /// `op` numbers sub-decisions inside one attempt (the DMA transfer
    /// index for [`FaultSite::MemFault`], 0 elsewhere).
    pub(crate) fn fires_at(&self, site: FaultSite, token: u64, attempt: u32, op: u64) -> bool {
        let rate = self.spec.rate(site);
        if rate <= 0.0 {
            return false;
        }
        if rate >= 1.0 {
            return true;
        }
        let h = mix(mix(mix(mix(self.seed, site.tag()), token), u64::from(attempt)), op);
        // Map the hash to [0, 1) with 53 bits of precision.
        let unit = (h >> 11) as f64 / (1u64 << 53) as f64;
        unit < rate
    }

    /// `fires_at` with `op = 0` — the common
    /// per-attempt decision.
    pub fn fires(&self, site: FaultSite, token: u64, attempt: u32) -> bool {
        self.fires_at(site, token, attempt, 0)
    }

    /// Deterministic jitter in `[0, 1)` for backoff randomisation, keyed
    /// like a fault decision so retried attempts spread out reproducibly.
    pub(crate) fn jitter(&self, token: u64, attempt: u32) -> f64 {
        let h = mix(mix(mix(self.seed, 0x6A), token), u64::from(attempt));
        (h >> 11) as f64 / (1u64 << 53) as f64
    }
}

/// SplitMix64-style finalizing mix: uniformly scrambles `state ⊕ value`.
pub(crate) fn mix(state: u64, value: u64) -> u64 {
    let mut z = state ^ value.wrapping_mul(0x9E37_79B9_7F4A_7C15);
    z = z.wrapping_add(0x9E37_79B9_7F4A_7C15);
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// FNV-1a over a byte slice — the content checksum the plan cache stores
/// next to every entry (corrupt hits fail the comparison and fall back to
/// recomputation).
pub(crate) fn fnv1a(bytes: &[u8]) -> u64 {
    let mut h: u64 = 0xCBF2_9CE4_8422_2325;
    for &b in bytes {
        h ^= u64::from(b);
        h = h.wrapping_mul(0x0000_0100_0000_01B3);
    }
    h
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn decisions_are_deterministic_and_seed_sensitive() {
        let a = FaultPlan::new(7, FaultSpec::chaos());
        let b = FaultPlan::new(7, FaultSpec::chaos());
        let c = FaultPlan::new(8, FaultSpec::chaos());
        let mut diverged = false;
        for token in 0..200 {
            for attempt in 0..3 {
                let d = a.fires(FaultSite::WorkerPanic, token, attempt);
                assert_eq!(d, b.fires(FaultSite::WorkerPanic, token, attempt));
                diverged |= d != c.fires(FaultSite::WorkerPanic, token, attempt);
            }
        }
        assert!(diverged, "different seeds never diverged across 600 decisions");
    }

    #[test]
    fn rate_is_respected_empirically() {
        let plan = FaultPlan::new(42, FaultSpec::chaos());
        let fired = (0..10_000).filter(|&t| plan.fires(FaultSite::WorkerPanic, t, 0)).count();
        // 10 % nominal; allow generous slack, this is a hash not an RNG test.
        assert!((700..=1300).contains(&fired), "fired {fired}/10000 at nominal 10%");
    }

    #[test]
    fn zero_and_full_rates_short_circuit() {
        let none = FaultPlan::new(1, FaultSpec::none());
        assert!(!none.fires(FaultSite::MemFault, 0, 0));
        let mut all = FaultSpec::none();
        all.panic_rate = 1.0;
        let all = FaultPlan::new(1, all);
        assert!(all.fires(FaultSite::WorkerPanic, 123, 4));
    }

    #[test]
    fn spec_parses_and_rejects() {
        let spec = FaultSpec::parse("panic=0.1, corrupt=0.05,latency=0.2,latency_ms=7").unwrap();
        assert_eq!(spec.panic_rate, 0.1);
        assert_eq!(spec.corrupt_rate, 0.05);
        assert_eq!(spec.latency_rate, 0.2);
        assert_eq!(spec.latency, Duration::from_millis(7));
        assert!(FaultSpec::parse("bogus=1").is_err());
        assert!(FaultSpec::parse("panic=2.0").is_err());
        assert!(FaultSpec::parse("panic").is_err());
        assert_eq!(FaultSpec::parse("").unwrap(), FaultSpec::none());
        assert_eq!(FaultSpec::parse("refuse=0.1").unwrap_err(), "unknown fault site `refuse`");
        assert_eq!(
            FaultSpec::parse("latency_ms=x").unwrap_err(),
            "bad fault-spec value `x` for `latency_ms`"
        );
        assert_eq!(
            FaultSpec::parse("kill=-0.5").unwrap_err(),
            "fault rate `kill` must be in [0, 1], got -0.5"
        );
    }

    #[test]
    fn render_round_trips_in_canonical_key_order() {
        let full = FaultSpec::parse(
            "panic=0.1,latency=0.25,latency_ms=7,corrupt=0.05,expire=0.01,mem=0.001,kill=0.005",
        )
        .unwrap();
        for spec in [FaultSpec::none(), FaultSpec::chaos(), full] {
            assert_eq!(FaultSpec::parse(&spec.render()).unwrap(), spec);
        }
        assert_eq!(
            FaultSpec::chaos().render(),
            "panic=0.1,latency=0,latency_ms=1,corrupt=0.05,expire=0,mem=0,kill=0"
        );
    }

    #[test]
    fn fnv1a_matches_known_vectors() {
        // Standard FNV-1a 64-bit test vectors.
        assert_eq!(fnv1a(b""), 0xCBF2_9CE4_8422_2325);
        assert_eq!(fnv1a(b"a"), 0xAF63_DC4C_8601_EC8C);
        assert_eq!(fnv1a(b"foobar"), 0x85944171F73967E8);
    }

    #[test]
    fn jitter_is_in_unit_range() {
        let plan = FaultPlan::new(9, FaultSpec::none());
        for t in 0..100 {
            let j = plan.jitter(t, (t % 5) as u32);
            assert!((0.0..1.0).contains(&j));
        }
    }
}
