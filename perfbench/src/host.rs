//! Host speed, measured between windows by a fixed reference exchange.
//!
//! On a shared virtual host the same code runs up to twice as slow from
//! one minute to the next: system calls, the loopback network stack and
//! cross-CPU wake-ups all slow down together while other tenants load the
//! machine, in spells that last from a fraction of a second to minutes.
//! Measured raw, every end-to-end number moves with them, by far more
//! than any bound worth gating on.
//!
//! So every measurement window is bracketed by a probe: a fixed exchange
//! shaped like the benchmark's own traffic that runs none of the code
//! under test —
//!
//! * [`LOCAL_TRIPS`] loopback TCP round trips between two sockets of one
//!   thread pinned to the daemons' CPU: the network-stack cost a daemon
//!   pays per request;
//! * [`CROSS_TRIPS`] round trips from the generator's thread, busy-polling
//!   as it does under load, to a thread blocked in `read` on the daemons'
//!   CPU: the wake-up every request pays.
//!
//! A window's host factor is the mean of the probes before and after it
//! over [`NOMINAL_NS`], the probe's time on an unloaded host. Times are
//! divided by the factor and rates multiplied by it, so the benchmark
//! reports what the window would have measured at nominal host speed.
//! Raw values are printed beside the scaled ones.
//!
//! The daemons are stopped (`SIGSTOP`) while a probe runs. Otherwise the
//! code under test could move its own yardstick: CPU a daemon spent
//! during the probe — a background thread, work deferred past the end of
//! a window — would slow the probe, raise the factor, and read as a
//! faster daemon. Stopped, a daemon's extra work can only land in the
//! windows, where it counts against it.

use std::io::{self, Read, Write};
use std::net::{TcpListener, TcpStream};
use std::sync::mpsc::{channel, Receiver, Sender};
use std::thread::{self, JoinHandle};
use std::time::Instant;

use crate::topology::{pin_to, Frozen};

/// The probe's time on an unloaded host (2-vCPU Xeon VM, ~5th percentile
/// of the probes seen there), nanoseconds.
pub const NOMINAL_NS: f64 = 1_250_000.0;

/// Round trips within the daemons' CPU per probe.
pub const LOCAL_TRIPS: usize = 150;

/// Round trips between the generator's CPU and the daemons' per probe.
pub const CROSS_TRIPS: usize = 60;

/// Bytes per probe message, about one request frame.
const MSG: usize = 48;

fn elapsed_ns(start: Instant) -> u64 {
    u64::try_from(start.elapsed().as_nanos()).unwrap_or(u64::MAX)
}

/// Two connected loopback sockets.
fn socket_pair() -> io::Result<(TcpStream, TcpStream)> {
    let listener = TcpListener::bind("127.0.0.1:0")?;
    let a = TcpStream::connect(listener.local_addr()?)?;
    let (b, _) = listener.accept()?;
    a.set_nodelay(true)?;
    b.set_nodelay(true)?;
    Ok((a, b))
}

/// [`LOCAL_TRIPS`] round trips between the two sockets of `local`, timed.
fn local_trips(local: &mut (TcpStream, TcpStream)) -> io::Result<u64> {
    let mut msg = [0u8; MSG];
    let start = Instant::now();
    for _ in 0..LOCAL_TRIPS {
        local.0.write_all(&msg)?;
        local.1.read_exact(&mut msg)?;
        local.1.write_all(&msg)?;
        local.0.read_exact(&mut msg)?;
    }
    Ok(elapsed_ns(start))
}

/// Echoes [`CROSS_TRIPS`] messages on `far`.
fn echo(far: &mut TcpStream) -> io::Result<()> {
    let mut msg = [0u8; MSG];
    for _ in 0..CROSS_TRIPS {
        far.read_exact(&mut msg)?;
        far.write_all(&msg)?;
    }
    Ok(())
}

/// The probe: a helper thread on the daemons' CPU and the generator's end
/// of the cross-CPU exchange.
pub struct HostProbe {
    ask: Option<Sender<()>>,
    local_ns: Receiver<io::Result<u64>>,
    near: TcpStream,
    helper: Option<JoinHandle<()>>,
}

impl HostProbe {
    /// Starts the helper, pinned to `cpu` when given.
    pub fn start(cpu: Option<usize>) -> Result<HostProbe, String> {
        let err = |e: io::Error| format!("host probe: {e}");
        let (near, mut far) = socket_pair().map_err(err)?;
        let mut local = socket_pair().map_err(err)?;
        near.set_nonblocking(true).map_err(err)?;
        let (ask, asked) = channel::<()>();
        let (reply, local_ns) = channel();
        let helper = thread::spawn(move || {
            if let Some(cpu) = cpu {
                pin_to(cpu);
            }
            while asked.recv().is_ok() {
                let r = local_trips(&mut local);
                let failed = r.is_err();
                if reply.send(r).is_err() || failed || echo(&mut far).is_err() {
                    return;
                }
            }
        });
        Ok(HostProbe { ask: Some(ask), local_ns, near, helper: Some(helper) })
    }

    /// Runs one probe with the processes of `daemons` stopped, and
    /// returns its time, nanoseconds.
    pub fn measure(&mut self, daemons: &[u32]) -> Result<u64, String> {
        let _frozen = Frozen::new(daemons)?;
        let gone = || "host probe: the helper thread stopped".to_string();
        self.ask.as_ref().ok_or_else(gone)?.send(()).map_err(|_| gone())?;
        let local =
            self.local_ns.recv().map_err(|_| gone())?.map_err(|e| format!("host probe: {e}"))?;
        let mut msg = [0u8; MSG];
        let start = Instant::now();
        for _ in 0..CROSS_TRIPS {
            self.near.write_all(&msg).map_err(|e| format!("host probe: {e}"))?;
            let mut got = 0;
            // Busy-poll like the generator does.
            while got < MSG {
                match self.near.read(&mut msg[got..]) {
                    Ok(0) => return Err(gone()),
                    Ok(n) => got += n,
                    Err(e)
                        if matches!(
                            e.kind(),
                            io::ErrorKind::WouldBlock | io::ErrorKind::Interrupted
                        ) => {}
                    Err(e) => return Err(format!("host probe: {e}")),
                }
            }
        }
        Ok(local + elapsed_ns(start))
    }
}

impl Drop for HostProbe {
    fn drop(&mut self) {
        // Closing the channel ends the helper's loop; closing the socket
        // ends an echo cut short by an error.
        self.ask = None;
        let _ = self.near.shutdown(std::net::Shutdown::Both);
        if let Some(h) = self.helper.take() {
            let _ = h.join();
        }
    }
}

/// The host factor of a window between probes `before` and `after`.
pub fn factor(before: u64, after: u64) -> f64 {
    (before + after) as f64 / 2.0 / NOMINAL_NS
}

#[cfg(test)]
mod tests {
    use std::process::{Child, Command};
    use std::time::Duration;

    use super::*;
    use crate::topology::{cpu_ticks, Placement};

    /// A process that burns CPU until dropped.
    struct Spinner(Child);

    impl Drop for Spinner {
        fn drop(&mut self) {
            let _ = self.0.kill();
            let _ = self.0.wait();
        }
    }

    #[test]
    fn probes_take_time_and_the_helper_stops_on_drop() {
        let mut probe = HostProbe::start(None).expect("probe starts");
        let a = probe.measure(&[]).expect("first probe");
        let b = probe.measure(&[]).expect("second probe");
        // Each probe makes LOCAL_TRIPS + CROSS_TRIPS loopback round trips,
        // none of them under a microsecond.
        assert!(a > 1_000 * CROSS_TRIPS as u64 && b > 1_000 * CROSS_TRIPS as u64, "{a} ns, {b} ns");
        drop(probe);
        assert_eq!(factor(1_000_000, 1_500_000), 1_250_000.0 / NOMINAL_NS);
    }

    #[test]
    fn a_daemon_that_keeps_spinning_cannot_run_during_a_probe() {
        // Stands in for a daemon that burns CPU after every window, on the
        // CPU the probe measures.
        let place = Placement::detect();
        let spinner = place
            .start_daemons(|| Command::new("sh").args(["-c", "while :; do :; done"]).spawn())
            .map(Spinner)
            .expect("sh starts");
        let pid = spinner.0.id();
        let mut probe = HostProbe::start(place.daemon_cpu()).expect("probe starts");
        let mut ticks_over_probes = |daemons: &[u32]| {
            let before = cpu_ticks(pid).expect("spinner ticks");
            let start = Instant::now();
            while start.elapsed() < Duration::from_millis(400) {
                probe.measure(daemons).expect("probe");
            }
            cpu_ticks(pid).expect("spinner ticks") - before
        };
        let running = ticks_over_probes(&[]);
        let frozen = ticks_over_probes(&[pid]);
        // Left running, the spinner takes a good share of 0.4 s (40 ticks
        // at 100 Hz for a whole CPU); held stopped, it runs only in the
        // moments between probes.
        assert!(running >= 8, "running spinner: {running} ticks");
        assert!(frozen <= 2, "frozen spinner: {frozen} ticks");
    }
}
