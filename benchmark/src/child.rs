//! The server under test: this binary's own `serve` subcommand, run as a
//! child process so its CPU and memory can be read apart from the load
//! generator's.

use std::io::{BufRead, BufReader, Read, Write};
use std::net::SocketAddr;
use std::process::{Child, Command, Stdio};
use std::sync::{mpsc, OnceLock};
use std::time::Duration;

use gc_core::{GcConfig, QueryBudget, ShardedGraphCache};
use gc_graph::LabeledGraph;
use gc_server::{serve, CacheClient, CacheService};
use gc_subiso::{Algorithm, MethodM};

/// How long the parent waits for the child to announce its port.
const SPAWN_TIMEOUT: Duration = Duration::from_secs(30);

/// The service configuration every run uses, pinned here instead of read
/// from the machine or the environment: serial Method M and serial hit
/// probing, so the server never has more runnable threads than it has
/// connections and a 2-core sandbox is not oversubscribed.
pub fn server_config(shards: usize, trace: bool) -> GcConfig {
    GcConfig {
        method: MethodM::new(Algorithm::Vf2),
        probe_parallelism: 1,
        shards,
        metrics: false,
        trace,
        budget: QueryBudget::UNLIMITED,
        ..GcConfig::default()
    }
}

pub fn build_cache(dataset: Vec<LabeledGraph>, shards: usize) -> ShardedGraphCache {
    ShardedGraphCache::new(server_config(shards, false), dataset, shards)
}

pub fn build_service(dataset: Vec<LabeledGraph>, shards: usize) -> CacheService {
    let config = server_config(shards, false);
    CacheService::new(
        build_cache(dataset, shards),
        config.max_inflight,
        config.budget,
    )
}

/// The C-library calls std does not wrap. std links the C library on Linux
/// already, so declaring them adds no dependency to the build.
mod sys {
    use std::ffi::{c_int, c_long};

    extern "C" {
        pub fn sched_getaffinity(pid: c_int, size: usize, mask: *mut u64) -> c_int;
        pub fn sched_setaffinity(pid: c_int, size: usize, mask: *const u64) -> c_int;
        pub fn sysconf(name: c_int) -> c_long;
    }

    pub const SC_CLK_TCK: c_int = 2;

    /// Words of a `cpu_set_t` (1024 CPUs).
    pub const MASK_WORDS: usize = 16;
}

/// The CPUs this process was given at start, before it pinned anything.
fn allowed_cpus() -> &'static [usize] {
    static ALLOWED: OnceLock<Vec<usize>> = OnceLock::new();
    ALLOWED.get_or_init(|| {
        let mut mask = [0u64; sys::MASK_WORDS];
        // SAFETY: the kernel writes at most `size_of_val(&mask)` bytes
        let rc =
            unsafe { sys::sched_getaffinity(0, std::mem::size_of_val(&mask), mask.as_mut_ptr()) };
        let cpus: Vec<usize> = (0..64 * sys::MASK_WORDS)
            .filter(|cpu| rc == 0 && mask[cpu / 64] >> (cpu % 64) & 1 == 1)
            .collect();
        if cpus.is_empty() {
            vec![0]
        } else {
            cpus
        }
    })
}

/// Restricts thread `tid` (0 = the caller) to `cpus`.
fn set_affinity(tid: u32, cpus: &[usize]) -> Result<(), String> {
    let mut mask = [0u64; sys::MASK_WORDS];
    for &cpu in cpus {
        mask[cpu / 64] |= 1 << (cpu % 64);
    }
    // SAFETY: the kernel reads `size_of_val(&mask)` bytes from a live array
    let rc =
        unsafe { sys::sched_setaffinity(tid as i32, std::mem::size_of_val(&mask), mask.as_ptr()) };
    if rc == 0 {
        Ok(())
    } else {
        Err(format!(
            "cannot pin thread {tid} to CPU {cpus:?}: {}",
            std::io::Error::last_os_error()
        ))
    }
}

/// Where the load generator and the server child run: connection `c`'s
/// generator thread and the server thread that serves it share one CPU.
///
/// A closed-loop connection is a ping-pong between two threads that are
/// never runnable together. Left alone, the scheduler sometimes keeps the
/// pair on one core and sometimes on two, and on this 2-vCPU sandbox the
/// second placement doubles the round trip (every hop becomes a cross-CPU
/// wake-up of an idle vCPU): measured 48 µs vs 111 µs `query_p50_us` on
/// `hot_zipf`, flipping between runs. So each pair is pinned to one CPU —
/// the placement a scheduler that knew the threads alternate would pick —
/// and two connections use two CPUs. A run that cannot pin fails: pinned
/// and floating runs are never compared under one metric name.
pub struct Placement {
    /// CPU of each connection.
    cpus: Vec<usize>,
}

impl Placement {
    pub fn for_connections(conns: usize) -> Placement {
        let allowed = allowed_cpus();
        // from the last CPU down: interrupts tend to land on the first
        let cpus = (0..conns)
            .map(|c| allowed[allowed.len() - 1 - c % allowed.len()])
            .collect();
        Placement { cpus }
    }

    pub fn connections(&self) -> usize {
        self.cpus.len()
    }

    /// For the detail line: which CPU each connection was given.
    pub fn describe(&self) -> String {
        let cpus: Vec<String> = self.cpus.iter().map(|c| c.to_string()).collect();
        format!("pinned: connection i on cpu [{}]", cpus.join(", "))
    }

    /// Lets the calling thread run on the placement's CPUs and nowhere
    /// else; a child process it starts afterwards inherits exactly that.
    pub fn hold_this_thread(&self) -> Result<(), String> {
        set_affinity(0, &self.cpus)
    }

    /// Moves the calling thread next to connection `conn`.
    pub fn pin_this_thread(&self, conn: usize) -> Result<(), String> {
        set_affinity(0, &[self.cpus[conn]])
    }
}

/// Child side of `gc_benchmark serve`: serve the population on an
/// ephemeral loopback port, announce it, and stop when stdin closes —
/// which also happens if the parent dies without running its guard.
pub fn serve_main(graphs: usize, shards: usize) -> std::io::Result<()> {
    let service = build_service(crate::workload::dataset(graphs), shards);
    let handle = serve(service, 0, None)?;
    let mut out = std::io::stdout().lock();
    writeln!(out, "PORT {}", handle.addr().port())?;
    out.flush()?;
    drop(out);
    let mut sink = Vec::new();
    let _ = std::io::stdin().lock().read_to_end(&mut sink);
    handle.shutdown();
    Ok(())
}

fn ticks_per_second() -> u64 {
    // SAFETY: sysconf takes no pointers
    let ticks = unsafe { sys::sysconf(sys::SC_CLK_TCK) };
    if ticks > 0 {
        ticks as u64
    } else {
        100
    }
}

/// A running server child. Dropping it kills and reaps the process, so a
/// panic or early return in the parent cannot leave a server behind.
pub struct ServerChild {
    child: Child,
    pub addr: SocketAddr,
}

impl ServerChild {
    /// Starts the child on the CPUs the calling thread may use (see
    /// [`Placement::hold_this_thread`]).
    pub fn spawn(graphs: usize, shards: usize) -> Result<ServerChild, String> {
        let exe = std::env::current_exe().map_err(|e| format!("current_exe: {e}"))?;
        let mut child = Command::new(exe)
            .args([
                "serve",
                "--graphs",
                &graphs.to_string(),
                "--shards",
                &shards.to_string(),
            ])
            .stdin(Stdio::piped())
            .stdout(Stdio::piped())
            .stderr(Stdio::inherit())
            .spawn()
            .map_err(|e| format!("spawn server child: {e}"))?;
        let stdout = child.stdout.take().expect("stdout was piped");
        // guard first: every error path below must still reap the child
        let mut server = ServerChild {
            child,
            addr: SocketAddr::from(([127, 0, 0, 1], 0)),
        };
        let (tx, rx) = mpsc::channel();
        let reader = std::thread::spawn(move || {
            let mut line = String::new();
            let _ = BufReader::new(stdout).read_line(&mut line);
            let _ = tx.send(line);
        });
        let line = rx
            .recv_timeout(SPAWN_TIMEOUT)
            .map_err(|_| "server child did not announce a port in time".to_string());
        if line.is_err() {
            // unblock the reader before joining it
            let _ = server.child.kill();
        }
        let _ = reader.join();
        let line = line?;
        let port: u16 = line
            .trim()
            .strip_prefix("PORT ")
            .and_then(|p| p.parse().ok())
            .ok_or_else(|| format!("server child announced '{}'", line.trim()))?;
        server.addr.set_port(port);
        Ok(server)
    }

    fn threads(&self) -> Result<Vec<u32>, String> {
        let path = format!("/proc/{}/task", self.child.id());
        let dir = std::fs::read_dir(&path).map_err(|e| format!("{path}: {e}"))?;
        Ok(dir
            .filter_map(|entry| entry.ok()?.file_name().to_str()?.parse().ok())
            .collect())
    }

    /// Opens connection `conn` and, when the placement spreads the
    /// connections over several CPUs, moves the server thread that serves
    /// it next to its generator. (With one CPU for all, the whole child
    /// inherited it at start.) The server is thread-per-connection, so the
    /// thread that appears when the connection opens is the one.
    pub fn connect(&self, conn: usize, placement: &Placement) -> Result<CacheClient, String> {
        let before = self.threads()?;
        let mut client = CacheClient::connect(self.addr);
        // connecting is lazy: the first request opens the stream
        client
            .health()
            .map_err(|e| format!("connection {conn}: {e}"))?;
        if placement.cpus.iter().any(|&cpu| cpu != placement.cpus[0]) {
            let new: Vec<u32> = self
                .threads()?
                .into_iter()
                .filter(|tid| !before.contains(tid))
                .collect();
            match new[..] {
                [tid] => set_affinity(tid, &[placement.cpus[conn]])?,
                _ => {
                    return Err(format!(
                        "connection {conn}: expected one new server thread, found {}",
                        new.len()
                    ))
                }
            }
        }
        Ok(client)
    }

    /// CPU the child has used so far, in microseconds: utime + stime of
    /// `/proc/<pid>/stat`, which counts every thread, in clock ticks
    /// (10 ms on Linux).
    pub fn cpu_us(&self) -> Result<u64, String> {
        let path = format!("/proc/{}/stat", self.child.id());
        let stat = std::fs::read_to_string(&path).map_err(|e| format!("{path}: {e}"))?;
        // the command name may hold spaces: fields are counted after ')'
        let rest = stat.rsplit_once(')').map(|(_, r)| r).unwrap_or("");
        let fields: Vec<&str> = rest.split_whitespace().collect();
        let tick = |i: usize| fields.get(i).and_then(|f| f.parse::<u64>().ok());
        match (tick(11), tick(12)) {
            (Some(utime), Some(stime)) => Ok((utime + stime) * 1_000_000 / ticks_per_second()),
            _ => Err(format!("{path}: unexpected layout")),
        }
    }

    /// The child's peak resident set (`VmHWM`) in KiB.
    pub fn peak_rss_kib(&self) -> Result<u64, String> {
        let path = format!("/proc/{}/status", self.child.id());
        let status = std::fs::read_to_string(&path).map_err(|e| format!("{path}: {e}"))?;
        status
            .lines()
            .find_map(|l| l.strip_prefix("VmHWM:"))
            .and_then(|v| v.trim().trim_end_matches("kB").trim().parse().ok())
            .ok_or_else(|| format!("{path}: no VmHWM"))
    }
}

impl Drop for ServerChild {
    fn drop(&mut self) {
        if !matches!(self.child.try_wait(), Ok(Some(_))) {
            let _ = self.child.kill();
            let _ = self.child.wait();
        }
    }
}
