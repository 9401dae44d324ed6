//! The fleet under test: two `cfserve` backends behind one `cfrouter`,
//! built from this checkout's sources, started fresh per window and torn
//! down — killed, reaped, journals removed — by a `Drop` guard on
//! success, error and panic alike.

use std::io::{BufRead, BufReader};
use std::path::{Path, PathBuf};
use std::process::{Child, Command, Stdio};
use std::sync::mpsc;
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

use cambricon_f::runtime::api::routing_fingerprint;
use cambricon_f::runtime::router::{Ring, RouterConfig};

use crate::http;

/// Backends per fleet.
pub const BACKENDS: usize = 2;

/// How long a process gets to announce its address, and the fleet to
/// report every backend up.
const START_TIMEOUT: Duration = Duration::from_secs(30);

/// Per-exchange patience for set-up probes and `/stats` scrapes.
const PROBE_TIMEOUT: Duration = Duration::from_secs(5);

/// Paths of the built fleet binaries.
#[derive(Debug, Clone)]
pub struct Bins {
    pub cfserve: PathBuf,
    pub cfrouter: PathBuf,
}

/// Builds `cfserve` and `cfrouter` from the checkout at `root` with the
/// same cargo that built this benchmark, honouring `CARGO_TARGET_DIR`.
pub fn build(root: &Path) -> Result<Bins, String> {
    let cargo = std::env::var("CARGO").unwrap_or_else(|_| "cargo".to_string());
    let status = Command::new(&cargo)
        .args(["build", "--release", "--quiet", "--bin", "cfserve", "--bin", "cfrouter"])
        .current_dir(root)
        .stdout(Stdio::null())
        .status()
        .map_err(|e| format!("{cargo}: {e}"))?;
    if !status.success() {
        return Err(format!("building cfserve and cfrouter failed ({status})"));
    }
    let target = match std::env::var_os("CARGO_TARGET_DIR") {
        Some(dir) => root.join(dir),
        None => root.join("target"),
    };
    let bins = Bins {
        cfserve: target.join("release").join("cfserve"),
        cfrouter: target.join("release").join("cfrouter"),
    };
    for bin in [&bins.cfserve, &bins.cfrouter] {
        if !bin.is_file() {
            return Err(format!("{} was not built", bin.display()));
        }
    }
    Ok(bins)
}

/// One spawned process and the thread draining its stderr.
#[derive(Debug)]
struct Proc {
    child: Child,
    drain: Option<JoinHandle<()>>,
}

/// A running fleet. Dropping it kills and reaps every process and
/// removes its journal directory.
#[derive(Debug)]
pub struct Fleet {
    procs: Vec<Proc>,
    dir: PathBuf,
    pub router: String,
    backends: Vec<String>,
    /// The router's consistent-hash ring over `backends` (default flags).
    ring: Ring,
}

/// Router and backend CPU time, in milliseconds.
#[derive(Debug, Clone, Copy, Default)]
pub struct Cpu {
    pub router_ms: f64,
    pub backends_ms: f64,
}

impl Fleet {
    /// Starts the fleet with its journals under `dir` and waits until the
    /// router answers `/healthz` with every backend `up` in `/ring`.
    pub fn start(bins: &Bins, dir: PathBuf) -> Result<Fleet, String> {
        std::fs::create_dir_all(&dir).map_err(|e| format!("{}: {e}", dir.display()))?;
        let mut fleet = Fleet {
            procs: Vec::new(),
            dir,
            router: String::new(),
            backends: Vec::new(),
            ring: Ring::new(&[], 1),
        };
        for i in 0..BACKENDS {
            let journal = fleet.dir.join(format!("b{i}.wal"));
            let args = [
                "-".to_string(),
                "--status-port".to_string(),
                "0".to_string(),
                "--workers".to_string(),
                "1".to_string(),
                "--journal".to_string(),
                journal.display().to_string(),
            ];
            let addr = fleet.spawn(&bins.cfserve, &args, "cfserve: status on http://")?;
            fleet.backends.push(addr);
        }
        let args: Vec<String> =
            fleet.backends.iter().flat_map(|b| ["--backend".to_string(), b.clone()]).collect();
        fleet.ring = Ring::new(&fleet.backends, RouterConfig::default().vnodes);
        fleet.router = fleet.spawn(&bins.cfrouter, &args, "cfrouter: routing ")?;
        fleet.wait_ready()?;
        Ok(fleet)
    }

    /// Spawns `bin` and returns the `http://` address its first stderr
    /// line starting with `announce` carries.
    fn spawn(&mut self, bin: &Path, args: &[String], announce: &str) -> Result<String, String> {
        let mut command = Command::new(bin);
        command.args(args).stdin(Stdio::null()).stdout(Stdio::null()).stderr(Stdio::piped());
        die_with_parent(&mut command);
        let mut child = command.spawn().map_err(|e| format!("spawn {}: {e}", bin.display()))?;
        let stderr = child.stderr.take().expect("stderr is piped");
        let (tx, rx) = mpsc::channel();
        let announce = announce.to_string();
        let drain = std::thread::spawn(move || {
            for line in BufReader::new(stderr).lines().map_while(Result::ok) {
                if line.starts_with(&announce) {
                    let _ = tx.send(line);
                }
            }
        });
        self.procs.push(Proc { child, drain: Some(drain) });
        let line = rx
            .recv_timeout(START_TIMEOUT)
            .map_err(|_| format!("{} did not announce its address", bin.display()))?;
        line.split("http://")
            .nth(1)
            .and_then(|rest| rest.split_whitespace().next())
            .map(str::to_string)
            .ok_or_else(|| format!("no address in `{line}`"))
    }

    fn wait_ready(&self) -> Result<(), String> {
        let deadline = Instant::now() + START_TIMEOUT;
        while Instant::now() < deadline {
            let healthy =
                http::get(&self.router, "/healthz", PROBE_TIMEOUT).is_ok_and(|r| r.status == 200);
            let ring = http::get(&self.router, "/ring", PROBE_TIMEOUT);
            if healthy
                && ring.is_ok_and(|r| r.body.matches("\"health\":\"up\"").count() == BACKENDS)
            {
                return Ok(());
            }
            std::thread::sleep(Duration::from_millis(5));
        }
        Err("the fleet never reported every backend up".to_string())
    }

    /// Cumulative CPU time of the router (spawned last) and the backends.
    pub fn cpu(&self) -> Result<Cpu, String> {
        let mut cpu = Cpu::default();
        for (i, p) in self.procs.iter().enumerate() {
            let ms = cpu_ms(p.child.id())?;
            if i < BACKENDS {
                cpu.backends_ms += ms;
            } else {
                cpu.router_ms += ms;
            }
        }
        Ok(cpu)
    }

    /// The backend (index into the `--backend` list) the router sends a
    /// fault-free `POST /jobs` with this body to: the primary on its ring.
    pub fn route(&self, body: &str) -> usize {
        self.ring.primary(routing_fingerprint(body)).expect("the ring has backends")
    }

    /// Jobs the router has booked on each backend, from its `/stats`.
    pub fn routed(&self) -> Result<Vec<u64>, String> {
        let reply = http::get(&self.router, "/stats", PROBE_TIMEOUT)
            .map_err(|e| format!("{}: {e}", self.router))?;
        let stats: serde_json::Value =
            serde_json::from_str(&reply.body).map_err(|e| format!("router /stats: {e}"))?;
        stats
            .get("backends")
            .and_then(|b| b.as_array())
            .and_then(|rows| rows.iter().map(|r| r.get("jobs")?.as_u64()).collect())
            .ok_or_else(|| "router /stats has no per-backend job counts".to_string())
    }

    /// Counters from the router's and every backend's `/stats`.
    pub fn counters(&self) -> Result<Counters, String> {
        let scrape = |addr: &str| -> Result<serde_json::Value, String> {
            let reply =
                http::get(addr, "/stats", PROBE_TIMEOUT).map_err(|e| format!("{addr}: {e}"))?;
            serde_json::from_str(&reply.body).map_err(|e| format!("{addr} /stats: {e}"))
        };
        let count =
            |v: &serde_json::Value, key: &str| v.get(key).and_then(|n| n.as_u64()).unwrap_or(0);
        let router = scrape(&self.router)?;
        let mut c = Counters {
            failovers: count(&router, "failovers"),
            hedges: count(&router, "hedges"),
            ..Counters::default()
        };
        for addr in &self.backends {
            let backend = scrape(addr)?;
            c.coalesced += count(&backend, "api_coalesced");
            c.shed += count(&backend, "api_shed");
        }
        Ok(c)
    }
}

/// Fleet counters that a fault-free run keeps at zero (`coalesced`
/// excepted: burst arrays coalesce on purpose).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct Counters {
    pub coalesced: u64,
    pub shed: u64,
    pub failovers: u64,
    pub hedges: u64,
}

impl Counters {
    /// The counts accrued since `earlier`.
    pub fn since(self, earlier: Counters) -> Counters {
        Counters {
            coalesced: self.coalesced - earlier.coalesced,
            shed: self.shed - earlier.shed,
            failovers: self.failovers - earlier.failovers,
            hedges: self.hedges - earlier.hedges,
        }
    }
}

impl Drop for Fleet {
    fn drop(&mut self) {
        for p in &mut self.procs {
            let _ = p.child.kill();
        }
        for p in &mut self.procs {
            let _ = p.child.wait();
            if let Some(drain) = p.drain.take() {
                let _ = drain.join();
            }
        }
        let _ = std::fs::remove_dir_all(&self.dir);
    }
}

/// CPU time `pid` has used, in milliseconds: the process CPU-time clock,
/// which counts every thread — exited ones included — at nanosecond
/// resolution (the 10 ms ticks of `/proc/<pid>/stat` are too coarse for
/// half-second windows).
#[cfg(target_os = "linux")]
fn cpu_ms(pid: u32) -> Result<f64, String> {
    #[repr(C)]
    struct Timespec {
        tv_sec: i64,
        tv_nsec: i64,
    }
    extern "C" {
        fn clock_getcpuclockid(pid: i32, clock_id: *mut i32) -> i32;
        fn clock_gettime(clock_id: i32, tp: *mut Timespec) -> i32;
    }
    let pid = i32::try_from(pid).map_err(|_| format!("pid {pid} out of range"))?;
    let mut clock = 0i32;
    // SAFETY: `clock` is a valid, writable clockid_t (an `int` on Linux).
    let rc = unsafe { clock_getcpuclockid(pid, &mut clock) };
    if rc != 0 {
        return Err(format!("no CPU clock for pid {pid} (error {rc})"));
    }
    let mut ts = Timespec { tv_sec: 0, tv_nsec: 0 };
    // SAFETY: `ts` matches the 64-bit Linux `struct timespec` layout and
    // is valid for writes.
    if unsafe { clock_gettime(clock, &mut ts) } != 0 {
        return Err(format!(
            "reading the CPU clock of pid {pid}: {}",
            std::io::Error::last_os_error()
        ));
    }
    Ok(ts.tv_sec as f64 * 1e3 + ts.tv_nsec as f64 / 1e6)
}

#[cfg(not(target_os = "linux"))]
fn cpu_ms(_pid: u32) -> Result<f64, String> {
    Err("per-process CPU time needs Linux".to_string())
}

/// Asks the kernel to SIGKILL the child when the thread that spawned it
/// exits, so a benchmark killed from outside (where `Drop` never runs)
/// still leaves no fleet behind. Fleets are spawned from the main thread
/// only, which lives as long as the benchmark.
#[cfg(target_os = "linux")]
fn die_with_parent(command: &mut Command) {
    use std::os::unix::process::CommandExt;
    extern "C" {
        fn prctl(option: i32, arg2: u64, arg3: u64, arg4: u64, arg5: u64) -> i32;
    }
    const PR_SET_PDEATHSIG: i32 = 1;
    const SIGKILL: u64 = 9;
    // SAFETY: the hook runs in the forked child before exec, where only
    // async-signal-safe calls are allowed; `prctl` is a plain system call
    // that touches no memory of ours.
    unsafe {
        command.pre_exec(|| {
            prctl(PR_SET_PDEATHSIG, SIGKILL, 0, 0, 0);
            Ok(())
        });
    }
}

#[cfg(not(target_os = "linux"))]
fn die_with_parent(_command: &mut Command) {}
