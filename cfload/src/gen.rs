//! Seeded input generation: the four traffic mixes, their job-key
//! families and the open-loop Poisson arrival schedule.
//!
//! Everything here is a pure function of `(workload, seed, seconds)`, so
//! one seed always produces the same jobs at the same intended send
//! times, and the fleet under test receives only the generated specs.

use std::collections::HashSet;

/// SplitMix64: a small, full-period generator with well-mixed output.
#[derive(Debug, Clone)]
pub struct Rng(u64);

impl Rng {
    pub fn new(seed: u64) -> Rng {
        Rng(seed)
    }

    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut x = self.0;
        x = (x ^ (x >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        x = (x ^ (x >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        x ^ (x >> 31)
    }

    /// Uniform in `[0, 1)` with 53 bits of precision.
    pub fn unit(&mut self) -> f64 {
        (self.next_u64() >> 11) as f64 / (1u64 << 53) as f64
    }

    /// Uniform in `0..n` (`n > 0`).
    pub fn below(&mut self, n: usize) -> usize {
        (self.next_u64() % n as u64) as usize
    }
}

/// One spec field value: rendered as a JSON string or number.
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
enum Val {
    Str(&'static str),
    Num(u64),
}

/// One job spec, renderable both as the `POST /jobs` JSON object and as
/// the equivalent manifest line (the in-process reference's input).
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub struct Spec {
    fields: Vec<(&'static str, Val)>,
}

impl Spec {
    fn new(workload: &'static str, machine: &'static str) -> Spec {
        Spec { fields: vec![("workload", Val::Str(workload)), ("machine", Val::Str(machine))] }
    }

    fn with(mut self, key: &'static str, value: Val) -> Spec {
        self.fields.push((key, value));
        self
    }

    /// The `POST /jobs` body.
    pub fn json(&self) -> String {
        let parts: Vec<String> = self
            .fields
            .iter()
            .map(|(k, v)| match v {
                Val::Str(s) => format!("\"{k}\":\"{s}\""),
                Val::Num(n) => format!("\"{k}\":{n}"),
            })
            .collect();
        format!("{{{}}}", parts.join(","))
    }

    /// The manifest line describing the same job; also the job's key.
    pub fn line(&self) -> String {
        let parts: Vec<String> = self
            .fields
            .iter()
            .map(|(k, v)| match v {
                Val::Str(s) => format!("{k}={s}"),
                Val::Num(n) => format!("{k}={n}"),
            })
            .collect();
        parts.join(" ")
    }
}

/// The benchmark's traffic mixes.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    /// Repeats of 12 specs warmed during set-up: every job is a plan-cache
    /// hit, so latency is HTTP, routing and admission overhead only.
    Hot,
    /// Never-seen network keys in blocks of one (net, machine) lane, so a
    /// key shares most layer shapes with the keys just before it.
    ColdShared,
    /// Never-seen large matmuls with little cross-job sharing.
    ColdUnique,
    /// 8-spec arrays mixing hot, coalescing and exec jobs.
    Burst,
}

impl Workload {
    pub const ALL: [Workload; 4] =
        [Workload::Hot, Workload::ColdShared, Workload::ColdUnique, Workload::Burst];

    pub fn name(self) -> &'static str {
        match self {
            Workload::Hot => "hot",
            Workload::ColdShared => "cold-shared",
            Workload::ColdUnique => "cold-unique",
            Workload::Burst => "burst",
        }
    }

    pub fn parse(name: &str) -> Option<Workload> {
        Workload::ALL.into_iter().find(|w| w.name() == name)
    }

    /// Offered rate in requests per second: calibrated so a 20 s run
    /// carries at least 200 jobs while the generator's send lag stays far
    /// under 5 ms on a 2-core box.
    pub fn rate(self) -> f64 {
        match self {
            Workload::Hot => 15.0,
            Workload::ColdShared => 10.0,
            Workload::ColdUnique => 10.0,
            Workload::Burst => 4.0,
        }
    }

    /// Fixed per-workload salt mixed into `--seed`, so two workloads run
    /// with the same seed still draw independent streams.
    fn salt(self) -> u64 {
        match self {
            Workload::Hot => 0x484F_5400,
            Workload::ColdShared => 0x4353_4800,
            Workload::ColdUnique => 0x4355_4E00,
            Workload::Burst => 0x4255_5200,
        }
    }
}

/// The 12 hot specs: warmed during set-up and disjoint from every cold
/// key family, so a hot job is always a plan-cache hit.
pub fn hot_specs() -> Vec<Spec> {
    let mut specs = Vec::new();
    for machine in ["f1", "f100", "embedded"] {
        for order in [256, 512, 1024] {
            specs.push(Spec::new("matmul", machine).with("order", Val::Num(order)));
        }
    }
    for workload in ["knn", "kmeans", "svm"] {
        specs.push(Spec::new(workload, "f1").with("size", Val::Str("small")));
    }
    specs
}

/// `cold-shared` lanes: (net, machine, largest batch). Each lane's batch
/// range is capped where one cold simulation stays under ~45 ms on a
/// 2-core x86 box (costs rise smoothly with batch below these caps);
/// every (net, machine, batch) key is drawn at most once.
const SHARED_LANES: [(&str, &str, u64); 10] = [
    ("vgg16", "f100", 128),
    ("resnet152", "f1", 40),
    ("resnet152", "f100", 128),
    ("resnet152", "embedded", 32),
    ("alexnet", "f1", 96),
    ("alexnet", "f100", 128),
    ("alexnet", "embedded", 48),
    ("mlp3", "f1", 128),
    ("mlp3", "f100", 128),
    ("mlp3", "embedded", 128),
];

/// Consecutive `cold-shared` jobs drawn from one lane before the next lane
/// takes over. Keys of one lane share most of their layer shapes, but
/// keys of different lanes share almost none, and a fleet lives for one
/// window (about 5 jobs, split over 2 backends). Blocks of 20 put several
/// same-lane jobs on each backend in most windows, so a per-process
/// simulation cache could reuse them; the lane mix of a run is still
/// fixed (each lane gets one block per 200 jobs).
const SHARED_BLOCK: usize = 20;

/// `cold-unique` matmul orders on `f1`: one plateau of cold cost, about
/// 9 ms each on an idle 2-core x86 box, so the simulator is a steady
/// third or more of each job's latency. Just above it the cost jumps to
/// about 22 ms, and the box's CPU-speed swings would then swamp the
/// latency (under a noisy neighbour the simulator runs up to 2x slower).
const UNIQUE_ORDERS: (u64, u64) = (2018, 2336);

/// `burst`'s fresh coalescing matmul orders on `f1` (disjoint from both
/// the hot specs and `cold-unique`).
const BURST_ORDERS: (u64, u64) = (1025, 1535);

/// Visits `0..n` once each in a seeded, evenly spread order: a
/// bit-reversed counter XOR a seeded mask, skipping values `>= n`. Any
/// prefix samples the range evenly, so a short run draws nearly the same
/// cost mix as a long one whatever the seed.
#[derive(Debug, Clone)]
struct Spread {
    n: u64,
    bits: u32,
    mask: u64,
    next: u64,
}

impl Spread {
    fn new(n: u64, rng: &mut Rng) -> Spread {
        let bits = 64 - (n.max(2) - 1).leading_zeros();
        Spread { n, bits, mask: rng.next_u64() & ((1 << bits) - 1), next: 0 }
    }

    fn next(&mut self) -> Option<u64> {
        while self.next < 1 << self.bits {
            let v = (self.next.reverse_bits() >> (64 - self.bits)) ^ self.mask;
            self.next += 1;
            if v < self.n {
                return Some(v);
            }
        }
        None
    }
}

/// Draws the specs of successive requests for one workload.
#[derive(Debug)]
struct KeyGen {
    workload: Workload,
    hot: Vec<Spec>,
    /// `cold-shared`: lane visiting order, each lane's batch stream, and
    /// the number of keys drawn so far.
    lane_order: Vec<usize>,
    lanes: Vec<Spread>,
    drawn: usize,
    /// `cold-unique` / `burst`: the matmul order stream.
    order_base: u64,
    orders: Spread,
    exec_seed: u64,
}

impl KeyGen {
    fn new(workload: Workload, rng: &mut Rng) -> KeyGen {
        let mut lane_order: Vec<usize> = (0..SHARED_LANES.len()).collect();
        for i in (1..lane_order.len()).rev() {
            lane_order.swap(i, rng.below(i + 1));
        }
        let lanes = SHARED_LANES.iter().map(|&(_, _, max)| Spread::new(max, rng)).collect();
        let (lo, hi) = match workload {
            Workload::Burst => BURST_ORDERS,
            _ => UNIQUE_ORDERS,
        };
        KeyGen {
            workload,
            hot: hot_specs(),
            lane_order,
            lanes,
            drawn: 0,
            order_base: lo,
            orders: Spread::new(hi - lo + 1, rng),
            exec_seed: rng.next_u64() >> 16,
        }
    }

    fn fresh_order(&mut self) -> u64 {
        self.order_base
            + self.orders.next().expect("run length is capped below the order family's size")
    }

    /// Blocks of [`SHARED_BLOCK`] keys from one lane, the lanes taking
    /// turns in a seeded order; an exhausted lane hands its draws to the
    /// next one.
    fn fresh_shared(&mut self) -> Spec {
        let block = self.drawn / SHARED_BLOCK;
        self.drawn += 1;
        for step in 0..self.lanes.len() {
            let lane = self.lane_order[(block + step) % self.lane_order.len()];
            if let Some(b) = self.lanes[lane].next() {
                let (net, machine, _) = SHARED_LANES[lane];
                return Spec::new(net, machine).with("batch", Val::Num(b + 1));
            }
        }
        panic!("run length is capped below the cold-shared family's size");
    }

    fn next(&mut self, rng: &mut Rng) -> Vec<Spec> {
        match self.workload {
            Workload::Hot => vec![self.hot[rng.below(self.hot.len())].clone()],
            Workload::ColdShared => vec![self.fresh_shared()],
            Workload::ColdUnique => {
                vec![Spec::new("matmul", "f1").with("order", Val::Num(self.fresh_order()))]
            }
            Workload::Burst => {
                let mut specs: Vec<Spec> =
                    (0..4).map(|_| self.hot[rng.below(self.hot.len())].clone()).collect();
                let cold = Spec::new("matmul", "f1").with("order", Val::Num(self.fresh_order()));
                specs.push(cold.clone());
                specs.push(cold);
                for _ in 0..2 {
                    let workload = ["knn", "kmeans", "svm"][rng.below(3)];
                    self.exec_seed += 1;
                    specs.push(
                        Spec::new(workload, "f1")
                            .with("size", Val::Str("small"))
                            .with("mode", Val::Str("exec"))
                            .with("seed", Val::Num(self.exec_seed)),
                    );
                }
                specs
            }
        }
    }
}

/// One request of the schedule: its intended send time, in seconds from
/// its window's start, and the specs it carries (one, or `burst`'s 8).
#[derive(Debug, Clone, PartialEq)]
pub struct Arrival {
    pub at: f64,
    pub specs: Vec<Spec>,
}

impl Arrival {
    /// The `POST /jobs` body: one spec object, or an array of them.
    pub fn body(&self) -> String {
        match self.specs.as_slice() {
            [one] => one.json(),
            many => format!("[{}]", many.iter().map(Spec::json).collect::<Vec<_>>().join(",")),
        }
    }
}

/// The longest run the key families support without repeating a key
/// (`cold-unique` has 319 orders at 10 req/s).
pub const MAX_SECONDS: f64 = 30.0;

/// Arrival times of a Poisson process at `rate` over `[0, seconds)`,
/// conditioned on its expected count: that many independent uniform
/// times, sorted. Fixing the count keeps the job mix of every seed alike
/// while the gaps stay exponential.
fn arrival_times(rng: &mut Rng, rate: f64, seconds: f64) -> Vec<f64> {
    let n = (rate * seconds).round() as usize;
    let mut times: Vec<f64> = (0..n).map(|_| rng.unit() * seconds).collect();
    times.sort_by(f64::total_cmp);
    times
}

/// The open-loop schedule of one run: Poisson arrivals at the workload's
/// rate over `seconds`, cut into `windows` consecutive windows (one per
/// fleet start). Keys are drawn in time order across windows, so no cold
/// key repeats anywhere in the run.
pub fn schedule(workload: Workload, seed: u64, seconds: f64, windows: usize) -> Vec<Vec<Arrival>> {
    let mut rng = Rng::new(seed ^ workload.salt());
    let mut keys = KeyGen::new(workload, &mut rng);
    let window = seconds / windows as f64;
    let mut out: Vec<Vec<Arrival>> = vec![Vec::new(); windows];
    for t in arrival_times(&mut rng, workload.rate(), seconds) {
        let w = ((t / window) as usize).min(windows - 1);
        out[w].push(Arrival { at: t - w as f64 * window, specs: keys.next(&mut rng) });
    }
    out
}

/// Distinct specs in first-appearance order.
pub fn distinct<'a>(specs: impl IntoIterator<Item = &'a Spec>) -> Vec<&'a Spec> {
    let mut seen = HashSet::new();
    specs.into_iter().filter(|s| seen.insert(s.line())).collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    fn keys(workload: Workload, seed: u64, seconds: f64) -> Vec<String> {
        schedule(workload, seed, seconds, 5)
            .iter()
            .flatten()
            .flat_map(|a| a.specs.iter().map(Spec::line))
            .collect()
    }

    #[test]
    fn same_seed_same_schedule_other_seed_other_schedule() {
        for w in Workload::ALL {
            let a = schedule(w, 7, 20.0, 5);
            assert_eq!(a, schedule(w, 7, 20.0, 5), "{}", w.name());
            assert_ne!(a, schedule(w, 8, 20.0, 5), "{}", w.name());
            assert!(a.iter().all(|win| !win.is_empty()), "{}", w.name());
        }
    }

    #[test]
    fn arrivals_are_poisson_at_the_target_rate_over_10k_draws() {
        for rate in [2.0, 10.0, 15.0] {
            let times = arrival_times(&mut Rng::new(99), rate, 10_000.0 / rate);
            assert_eq!(times.len(), 10_000);
            let gaps: Vec<f64> = times.windows(2).map(|w| w[1] - w[0]).collect();
            let mean = gaps.iter().sum::<f64>() / gaps.len() as f64;
            assert!((1.0 / mean / rate - 1.0).abs() < 0.03, "rate {rate}: measured {}", 1.0 / mean);
            // Exponential gaps: standard deviation equal to the mean.
            let var = gaps.iter().map(|g| (g - mean).powi(2)).sum::<f64>() / gaps.len() as f64;
            assert!(
                (var.sqrt() / mean - 1.0).abs() < 0.05,
                "rate {rate}: cv {}",
                var.sqrt() / mean
            );
        }
    }

    #[test]
    fn no_cold_key_repeats_within_a_run() {
        for seed in 0..4 {
            for w in [Workload::ColdShared, Workload::ColdUnique] {
                let all = keys(w, seed, MAX_SECONDS);
                let unique: HashSet<&String> = all.iter().collect();
                assert_eq!(unique.len(), all.len(), "{} seed {seed}", w.name());
            }
            // Burst: each array's cold matmul is fresh (its two copies
            // excepted), and every exec seed is fresh.
            let burst = schedule(Workload::Burst, seed, MAX_SECONDS, 5);
            let fresh: Vec<String> =
                burst.iter().flatten().flat_map(|a| a.specs[5..8].iter().map(Spec::line)).collect();
            let unique: HashSet<&String> = fresh.iter().collect();
            assert_eq!(unique.len(), fresh.len(), "burst seed {seed}");
            assert!(burst.iter().flatten().all(|a| a.specs[4] == a.specs[5]));
        }
    }

    #[test]
    fn hot_keys_never_collide_with_cold_families() {
        let hot: HashSet<String> = hot_specs().iter().map(Spec::line).collect();
        assert_eq!(hot.len(), 12);
        for w in [Workload::ColdShared, Workload::ColdUnique] {
            assert!(keys(w, 3, MAX_SECONDS).iter().all(|k| !hot.contains(k)), "{}", w.name());
        }
    }

    #[test]
    fn spread_visits_every_value_once() {
        for n in [1, 5, 10, 128, 511, 1537] {
            let mut s = Spread::new(n, &mut Rng::new(n));
            let mut seen: Vec<u64> = std::iter::from_fn(|| s.next()).collect();
            seen.sort_unstable();
            assert_eq!(seen, (0..n).collect::<Vec<_>>(), "n={n}");
        }
    }

    #[test]
    fn specs_render_as_json_and_manifest_line() {
        let s = Spec::new("matmul", "f1").with("order", Val::Num(2048));
        assert_eq!(s.json(), r#"{"workload":"matmul","machine":"f1","order":2048}"#);
        assert_eq!(s.line(), "workload=matmul machine=f1 order=2048");
    }
}
