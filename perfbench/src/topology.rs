//! The daemons under test, launched through their real command lines.
//!
//! Every daemon runs `--workers 1` (predictd also `--engine evented`), so a
//! 2-vCPU host has one core for the server side and one for the
//! generator. A daemon is ready once it has printed its listening address
//! and answered a `stats` request. Stopping sends `shutdown` and waits for
//! the process to exit; a daemon that does not is killed, and a [`Daemon`]
//! dropped on an error path is killed and reaped too, so no run leaves a
//! process behind.
//!
//! With two or more CPUs, [`Placement`] keeps the daemons on one CPU and
//! the generator on another, so the scheduler can neither co-locate them
//! nor migrate them mid-run; that placement noise would otherwise show as
//! run-to-run spread. [`Frozen`] holds daemons stopped while the host
//! probe runs.

use std::io::{BufRead, BufReader};
use std::net::SocketAddr;
use std::path::{Path, PathBuf};
use std::process::{Child, ChildStdout, Command, Stdio};
use std::time::{Duration, Instant};

use predictd::Client;
use proto::{Request, Response};

use crate::workload::Topology;

/// Clock ticks per second in `/proc/<pid>/stat` (`USER_HZ`, 100 on Linux).
pub const TICKS_PER_SEC: f64 = 100.0;

/// CPU placement: the daemons on one CPU, the generator on another.
#[derive(Debug, Clone, Copy, Default)]
pub struct Placement {
    daemons: Option<usize>,
    generator: Option<usize>,
}

extern "C" {
    fn sched_getaffinity(pid: i32, size: usize, mask: *mut u64) -> i32;
    fn sched_setaffinity(pid: i32, size: usize, mask: *const u64) -> i32;
    fn kill(pid: i32, sig: i32) -> i32;
}

/// `SIGCONT` and `SIGSTOP`, as numbered on x86 and ARM Linux.
const SIGCONT: i32 = 18;
const SIGSTOP: i32 = 19;

/// How long a process may take to stop: a thread inside a system call
/// (an `fdatasync`, say) stops only when the call returns.
const STOP_TIMEOUT: Duration = Duration::from_secs(5);

fn signal(pid: u32, sig: i32) -> Result<(), String> {
    let id = i32::try_from(pid).map_err(|_| format!("pid {pid} out of range"))?;
    // SAFETY: `kill` takes two integers and touches no memory of ours.
    if unsafe { kill(id, sig) } == 0 {
        Ok(())
    } else {
        Err(format!("signal {sig} to pid {pid}: {}", std::io::Error::last_os_error()))
    }
}

/// Processes held stopped (`SIGSTOP`); dropping the guard resumes them
/// (`SIGCONT`).
pub struct Frozen {
    pids: Vec<u32>,
}

impl Frozen {
    /// Stops every process of `pids` and waits until each of their
    /// threads is off the CPU.
    pub fn new(pids: &[u32]) -> Result<Frozen, String> {
        let mut frozen = Frozen { pids: Vec::with_capacity(pids.len()) };
        for &pid in pids {
            signal(pid, SIGSTOP)?;
            frozen.pids.push(pid);
        }
        let deadline = Instant::now() + STOP_TIMEOUT;
        for &pid in pids {
            while !stopped(pid)? {
                if Instant::now() > deadline {
                    return Err(format!("pid {pid} did not stop within {STOP_TIMEOUT:?}"));
                }
                std::thread::yield_now();
            }
        }
        Ok(frozen)
    }
}

impl Drop for Frozen {
    fn drop(&mut self) {
        for &pid in &self.pids {
            let _ = signal(pid, SIGCONT);
        }
    }
}

/// The fields of a `/proc/.../stat` line after the parenthesized command
/// name, which may hold spaces: state first, then ppid and so on.
fn stat_fields(stat: &str) -> Vec<&str> {
    stat.rsplit_once(')').map_or_else(Vec::new, |(_, rest)| rest.split_whitespace().collect())
}

/// Whether every thread of process `pid` is stopped (or exiting).
fn stopped(pid: u32) -> Result<bool, String> {
    let dir = format!("/proc/{pid}/task");
    let tasks = std::fs::read_dir(&dir).map_err(|e| format!("{dir}: {e}"))?;
    for task in tasks {
        let path = task.map_err(|e| format!("{dir}: {e}"))?.path().join("stat");
        // A thread that exits between the listing and the read is gone.
        let Ok(stat) = std::fs::read_to_string(&path) else { continue };
        if !matches!(stat_fields(&stat).first(), Some(&("T" | "t" | "Z" | "X"))) {
            return Ok(false);
        }
    }
    Ok(true)
}

/// A `cpu_set_t`: 1024 bits.
type CpuSet = [u64; 16];

/// Pins the calling thread to `cpu`; false if the kernel refused.
pub(crate) fn pin_to(cpu: usize) -> bool {
    let mut set: CpuSet = [0; 16];
    if cpu >= 64 * set.len() {
        return false;
    }
    set[cpu / 64] |= 1 << (cpu % 64);
    // SAFETY: `set` is a live, initialized buffer of exactly the size
    // passed; pid 0 names the calling thread.
    unsafe { sched_setaffinity(0, std::mem::size_of::<CpuSet>(), set.as_ptr()) == 0 }
}

impl Placement {
    /// The first two CPUs the process may run on; no pinning with fewer.
    pub fn detect() -> Placement {
        let mut set: CpuSet = [0; 16];
        // SAFETY: the kernel writes at most `size_of::<CpuSet>()` bytes
        // into `set`, which is that large; pid 0 names the calling thread.
        let ok =
            unsafe { sched_getaffinity(0, std::mem::size_of::<CpuSet>(), set.as_mut_ptr()) } == 0;
        if !ok {
            return Placement::default();
        }
        let mut cpus = (0..64 * set.len()).filter(|&c| set[c / 64] & (1 << (c % 64)) != 0);
        match (cpus.next(), cpus.next()) {
            (Some(d), Some(g)) => Placement { daemons: Some(d), generator: Some(g) },
            _ => Placement::default(),
        }
    }

    /// The daemons' CPU.
    pub fn daemon_cpu(&self) -> Option<usize> {
        self.daemons
    }

    /// Moves the calling thread, which drives the load, to the
    /// generator's CPU.
    pub fn pin_generator(&self) {
        if let Some(cpu) = self.generator {
            pin_to(cpu);
        }
    }

    /// Runs `f`, which starts daemons, with the calling thread on the
    /// daemons' CPU (processes inherit their parent thread's CPU set),
    /// then moves the calling thread, which drives the load, to the
    /// generator's CPU.
    pub fn start_daemons<R>(&self, f: impl FnOnce() -> R) -> R {
        if let Some(cpu) = self.daemons {
            pin_to(cpu);
        }
        let r = f();
        self.pin_generator();
        r
    }
}

/// Paths of the two daemon executables.
#[derive(Debug, Clone)]
pub struct Bins {
    /// The predictd executable.
    pub predictd: PathBuf,
    /// The predictgw executable.
    pub predictgw: PathBuf,
}

impl Bins {
    /// The first of `dirs` that holds both executables.
    pub fn locate(dirs: &[PathBuf]) -> Result<Bins, String> {
        for dir in dirs {
            let bins = Bins { predictd: dir.join("predictd"), predictgw: dir.join("predictgw") };
            if bins.predictd.is_file() && bins.predictgw.is_file() {
                return Ok(bins);
            }
        }
        Err(format!(
            "no predictd/predictgw executables in {dirs:?}; build them with \
             `cargo build --release -p predictd -p predictgw` at the repository root"
        ))
    }
}

/// One running daemon.
pub struct Daemon {
    /// What runs: `predictd` or `predictgw`.
    pub name: &'static str,
    /// Where it listens.
    pub addr: SocketAddr,
    child: Child,
    /// Held open so the daemon never writes into a closed pipe.
    _stdout: BufReader<ChildStdout>,
}

impl Daemon {
    /// Starts a predictd with the benchmark's engine settings.
    pub fn predictd(bins: &Bins) -> Result<Daemon, String> {
        let args =
            ["--listen", "127.0.0.1:0", "--engine", "evented", "--workers", "1"].map(String::from);
        Daemon::spawn("predictd", &bins.predictd, &args)
    }

    fn spawn(name: &'static str, bin: &Path, args: &[String]) -> Result<Daemon, String> {
        let mut child = Command::new(bin)
            .args(args)
            .stdin(Stdio::null())
            .stdout(Stdio::piped())
            .stderr(Stdio::inherit())
            .spawn()
            .map_err(|e| format!("cannot start {}: {e}", bin.display()))?;
        let Some(stdout) = child.stdout.take() else {
            let _ = child.kill();
            let _ = child.wait();
            return Err(format!("{name}: no stdout pipe"));
        };
        let mut daemon = Daemon {
            name,
            addr: SocketAddr::from(([127, 0, 0, 1], 0)),
            child,
            _stdout: BufReader::new(stdout),
        };
        // "listening on 127.0.0.1:PORT (...)"
        let mut line = String::new();
        daemon._stdout.read_line(&mut line).map_err(|e| format!("{name}: {e}"))?;
        daemon.addr = line
            .strip_prefix("listening on ")
            .and_then(|rest| rest.split_whitespace().next())
            .and_then(|a| a.parse().ok())
            .ok_or_else(|| format!("{name} did not announce an address (got {line:?})"))?;
        Ok(daemon)
    }

    /// The process id.
    pub fn pid(&self) -> u32 {
        self.child.id()
    }

    /// Sends one request on a fresh binary connection.
    pub fn request(&self, req: &Request) -> Result<Response, String> {
        let mut c = Client::connect_binary(self.addr).map_err(|e| format!("{}: {e}", self.name))?;
        c.request(req).map_err(|e| format!("{}: {e}", self.name))
    }

    /// Sends `shutdown` and waits for the process to exit, killing it if
    /// it has not within 5 s.
    pub fn stop(&mut self) -> Result<(), String> {
        let asked = self.request(&Request::Shutdown);
        let deadline = Instant::now() + Duration::from_secs(5);
        loop {
            match self.child.try_wait() {
                Ok(Some(_)) => return asked.map(|_| ()),
                Ok(None) if Instant::now() < deadline => {
                    std::thread::sleep(Duration::from_millis(2))
                }
                _ => {
                    let _ = self.child.kill();
                    let _ = self.child.wait();
                    return Err(format!("{} did not exit after shutdown; killed", self.name));
                }
            }
        }
    }
}

impl Drop for Daemon {
    fn drop(&mut self) {
        if let Ok(None) = self.child.try_wait() {
            let _ = self.child.kill();
            let _ = self.child.wait();
        }
    }
}

/// A workload's daemons.
pub struct Cluster {
    /// Where clients connect: the gateway, or the lone predictd.
    pub entry: SocketAddr,
    /// The gateway, when the topology has one.
    pub gateway: Option<Daemon>,
    /// The predictd processes.
    pub backends: Vec<Daemon>,
}

impl Cluster {
    /// Starts `topology` and waits until every daemon answers `stats`.
    /// `journal` is the gateway's journal path for journaling topologies.
    pub fn start(
        bins: &Bins,
        topology: Topology,
        journal: Option<&Path>,
    ) -> Result<Cluster, String> {
        let backends = match topology {
            Topology::Mono => 1,
            Topology::Gateway { .. } => 2,
        };
        let backends =
            (0..backends).map(|_| Daemon::predictd(bins)).collect::<Result<Vec<_>, _>>()?;
        let gateway = match topology {
            Topology::Mono => None,
            Topology::Gateway { journal: with_journal } => {
                // One health probe at start-up, then none during the run:
                // the checker compares a backend's report count with a
                // replication cursor read after the probe's reply, so under
                // load it can mistake in-flight broadcasts for a restart and
                // replay reports the backend already holds.
                let mut args: Vec<String> =
                    ["--listen", "127.0.0.1:0", "--workers", "1", "--health-interval-ms", "600000"]
                        .map(String::from)
                        .to_vec();
                for b in &backends {
                    args.push("--backend".to_string());
                    args.push(b.addr.to_string());
                }
                if with_journal {
                    let path = journal.ok_or("a journaling topology needs a journal path")?;
                    args.push("--journal".to_string());
                    args.push(path.display().to_string());
                }
                Some(Daemon::spawn("predictgw", &bins.predictgw, &args)?)
            }
        };
        let cluster = Cluster {
            entry: gateway.as_ref().map_or(backends[0].addr, |g| g.addr),
            gateway,
            backends,
        };
        for d in cluster.daemons() {
            match d.request(&Request::Stats)? {
                Response::Stats(_) | Response::GwStats(_) => {}
                other => return Err(format!("{} answered stats with {}", d.name, other.kind())),
            }
        }
        Ok(cluster)
    }

    /// Every daemon, gateway first.
    pub fn daemons(&self) -> impl Iterator<Item = &Daemon> {
        self.gateway.iter().chain(&self.backends)
    }

    /// Every daemon's process id.
    pub fn pids(&self) -> Vec<u32> {
        self.daemons().map(Daemon::pid).collect()
    }

    /// Stops every daemon, gateway first, and waits for each to exit.
    pub fn stop(mut self) -> Result<(), String> {
        let mut first_err = Ok(());
        for d in self.gateway.iter_mut().chain(self.backends.iter_mut()) {
            let r = d.stop();
            if first_err.is_ok() {
                first_err = r;
            }
        }
        first_err
    }
}

/// User plus system CPU time of a process so far, in clock ticks.
pub fn cpu_ticks(pid: u32) -> Result<u64, String> {
    let stat = std::fs::read_to_string(format!("/proc/{pid}/stat"))
        .map_err(|e| format!("/proc/{pid}/stat: {e}"))?;
    // State is field 3, utime 14, stime 15.
    let fields = stat_fields(&stat);
    let field = |i: usize| -> Result<u64, String> {
        fields
            .get(i)
            .and_then(|f| f.parse().ok())
            .ok_or_else(|| format!("/proc/{pid}/stat: no field {}", i + 3))
    };
    Ok(field(11)? + field(12)?)
}

/// Peak resident set size of a process (`VmHWM`), KiB.
pub fn peak_rss_kib(pid: u32) -> Result<u64, String> {
    let status = std::fs::read_to_string(format!("/proc/{pid}/status"))
        .map_err(|e| format!("/proc/{pid}/status: {e}"))?;
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse().ok())
        .ok_or_else(|| format!("/proc/{pid}/status: no VmHWM"))
}
