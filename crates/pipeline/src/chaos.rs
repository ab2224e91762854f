//! Deterministic network chaos: an in-process TCP proxy that injects
//! delay, throttling, mid-frame disconnects, partitions, and byte
//! corruption between a serve client and a worker.
//!
//! The design mirrors [`crate::store::FaultStore`]: every fault
//! decision is a pure function of `(seed, connection, direction,
//! window)`, where a *window* is a fixed 4 KiB slice of the byte
//! stream in one direction. The proxy re-chunks whatever read sizes
//! the kernel hands it into exact windows, so decisions depend only on
//! byte positions — never on TCP segmentation or scheduling. Replaying
//! with the same seed against the same traffic reproduces the same
//! delays, the same flipped byte, the same mid-frame cut.
//!
//! Faults compose: a single plan can throttle every window, delay some,
//! and cut the connection at a deterministic point. Corruption flips
//! one byte per selected window; the framed serve protocol's CRC
//! catches it downstream, turning the corruption into a connection
//! error the client's failover path must absorb — exactly the
//! end-to-end property the chaos tests assert.

use crate::serve::{accept_until, wake_acceptor};
use presto_telemetry::doc;
pub use presto_telemetry::fleet::ChaosEvent;
use presto_telemetry::fleet::{mono_ns, ChaosLog};
use std::io::{self, Read, Write};
use std::net::{Shutdown, SocketAddr, TcpListener, TcpStream};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Arc, Mutex};
use std::time::Duration;

/// Stream window size in bytes: the granularity of fault decisions.
pub const WINDOW_BYTES: usize = 4096;

/// Cap on retained [`ChaosEvent`]s; overflow bumps a dropped counter
/// instead of growing without bound under a long throttled run.
pub const CHAOS_EVENT_CAP: usize = 16_384;

/// Bounded, timestamped log of injected faults.
#[derive(Default)]
struct EventLog {
    events: Mutex<Vec<ChaosEvent>>,
    dropped: AtomicU64,
}

impl EventLog {
    fn push(&self, event: ChaosEvent) {
        let mut events = self.events.lock().unwrap();
        if events.len() >= CHAOS_EVENT_CAP {
            self.dropped.fetch_add(1, Ordering::Relaxed);
        } else {
            events.push(event);
        }
    }
}

/// One kind of injected misbehavior. Probabilities are evaluated
/// per-window from the deterministic decision hash.
#[derive(Debug, Clone, PartialEq)]
pub enum ChaosFault {
    /// Pause before forwarding a selected window — a latency spike.
    /// With `probability` 1.0, a fixed per-window delay.
    Delay {
        /// Fraction of windows delayed.
        probability: f64,
        /// Pause per selected window.
        hold: Duration,
    },
    /// Cap forwarding speed by sleeping `window / bytes_per_sec` after
    /// every window in both directions.
    Throttle {
        /// Ceiling on per-direction forwarding speed.
        bytes_per_sec: u64,
    },
    /// Forward half of a selected window, then cut both directions —
    /// a mid-frame connection loss.
    Disconnect {
        /// Fraction of windows that cut the connection.
        probability: f64,
    },
    /// Hold a selected window without forwarding anything; the peer's
    /// read timeout decides what happens next.
    Partition {
        /// Fraction of windows partitioned.
        probability: f64,
        /// How long the partition lasts.
        hold: Duration,
    },
    /// XOR one hash-selected byte of a selected window. The serve
    /// protocol's frame CRC turns this into a decode error.
    Corrupt {
        /// Fraction of windows with one byte flipped.
        probability: f64,
    },
}

/// Counters of what the proxy actually injected; see
/// [`ChaosProxy::injected`].
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct ChaosStats {
    /// Connections accepted.
    pub connections: u64,
    /// Windows forwarded (both directions).
    pub windows: u64,
    /// Bytes forwarded (both directions).
    pub bytes: u64,
    /// Delay faults fired.
    pub delays: u64,
    /// Disconnect faults fired.
    pub disconnects: u64,
    /// Partition faults fired.
    pub partitions: u64,
    /// Bytes corrupted.
    pub corruptions: u64,
}

#[derive(Default)]
struct StatsCells {
    connections: AtomicU64,
    windows: AtomicU64,
    bytes: AtomicU64,
    delays: AtomicU64,
    disconnects: AtomicU64,
    partitions: AtomicU64,
    corruptions: AtomicU64,
}

/// Direction of a proxied byte stream.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Direction {
    /// Client → worker (requests, credits).
    Upstream,
    /// Worker → client (batches). Where most bytes flow.
    Downstream,
}

/// SplitMix64 finalizer — same mixer the fault store uses.
fn mix(mut x: u64) -> u64 {
    x = x.wrapping_add(0x9E3779B97F4A7C15);
    x = (x ^ (x >> 30)).wrapping_mul(0xBF58476D1CE4E5B9);
    x = (x ^ (x >> 27)).wrapping_mul(0x94D049BB133111EB);
    x ^ (x >> 31)
}

/// The decision word for one (connection, direction, window) triple.
/// Everything the proxy injects derives from this value alone.
fn decision(seed: u64, conn: u64, direction: Direction, window: u64) -> u64 {
    let dir_tag = match direction {
        Direction::Upstream => 0x55,
        Direction::Downstream => 0xAA,
    };
    mix(seed ^ mix(conn ^ mix(dir_tag ^ mix(window))))
}

/// Map a decision word to a uniform fraction in `[0, 1)`.
fn unit(word: u64) -> f64 {
    (word >> 11) as f64 * (1.0 / (1u64 << 53) as f64)
}

/// A deterministic chaos proxy in front of one upstream address.
///
/// Listens on an ephemeral local port; every accepted connection gets
/// a sequential id and two forwarding threads (one per direction)
/// that apply the fault plan window by window. Aimed at tests and
/// drills: point a serve client at [`ChaosProxy::addr`] instead of
/// the worker and the whole protocol runs through the chaos layer.
pub struct ChaosProxy {
    addr: SocketAddr,
    stop: Arc<AtomicBool>,
    stats: Arc<StatsCells>,
    log: Arc<EventLog>,
    accept: Option<std::thread::JoinHandle<()>>,
    conns: Arc<Mutex<Vec<TcpStream>>>,
}

impl std::fmt::Debug for ChaosProxy {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("ChaosProxy")
            .field("addr", &self.addr)
            .finish()
    }
}

impl ChaosProxy {
    /// Start a proxy forwarding to `upstream` with the given fault
    /// plan. `seed` fully determines which windows get which faults.
    pub fn start(upstream: &str, seed: u64, faults: Vec<ChaosFault>) -> io::Result<ChaosProxy> {
        let listener = TcpListener::bind("127.0.0.1:0")?;
        let addr = listener.local_addr()?;
        let stop = Arc::new(AtomicBool::new(false));
        let stats = Arc::new(StatsCells::default());
        let log = Arc::new(EventLog::default());
        let conns = Arc::new(Mutex::new(Vec::new()));
        let upstream = upstream.to_string();
        let accept = {
            let stop = Arc::clone(&stop);
            let stats = Arc::clone(&stats);
            let log = Arc::clone(&log);
            let conns = Arc::clone(&conns);
            std::thread::Builder::new()
                .name("presto-chaos-accept".into())
                .spawn(move || {
                    let mut next_conn = 0u64;
                    let mut handles = Vec::new();
                    // The wake-up connection of a stop is never served:
                    // it opens no upstream and is not counted.
                    accept_until(listener, &stop, |client| {
                        let conn = next_conn;
                        next_conn += 1;
                        stats.connections.fetch_add(1, Ordering::Relaxed);
                        match TcpStream::connect(&upstream) {
                            Ok(server) => {
                                track(&conns, &client, &server);
                                handles.push(spawn_pair(
                                    client,
                                    server,
                                    conn,
                                    seed,
                                    faults.clone(),
                                    Arc::clone(&stats),
                                    Arc::clone(&log),
                                    Arc::clone(&stop),
                                ));
                            }
                            Err(_) => {
                                // Upstream down: drop the client;
                                // it sees a refused connection.
                                let _ = client.shutdown(Shutdown::Both);
                            }
                        }
                    });
                    for handle in handles {
                        for h in handle {
                            let _ = h.join();
                        }
                    }
                })?
        };
        Ok(ChaosProxy {
            addr,
            stop,
            stats,
            log,
            accept: Some(accept),
            conns,
        })
    }

    /// The proxy's listen address — point clients here.
    pub fn addr(&self) -> SocketAddr {
        self.addr
    }

    /// What has been injected so far.
    pub fn injected(&self) -> ChaosStats {
        ChaosStats {
            connections: self.stats.connections.load(Ordering::Acquire),
            windows: self.stats.windows.load(Ordering::Acquire),
            bytes: self.stats.bytes.load(Ordering::Acquire),
            delays: self.stats.delays.load(Ordering::Acquire),
            disconnects: self.stats.disconnects.load(Ordering::Acquire),
            partitions: self.stats.partitions.load(Ordering::Acquire),
            corruptions: self.stats.corruptions.load(Ordering::Acquire),
        }
    }

    /// The injected-fault event log so far (bounded at
    /// [`CHAOS_EVENT_CAP`]), plus how many events overflowed the cap.
    pub fn events(&self) -> (Vec<ChaosEvent>, u64) {
        (
            self.log.events.lock().unwrap().clone(),
            self.log.dropped.load(Ordering::Acquire),
        )
    }

    /// Render the event log as the stable `presto.chaos.v1` JSON
    /// document [`presto_telemetry::fleet::merge_chrome_trace`]
    /// accepts for the chaos track of a merged fleet trace.
    pub fn events_json(&self) -> String {
        let (events, dropped_events) = self.events();
        doc::write(ChaosLog {
            dropped_events,
            events,
        })
    }

    /// Stop accepting, sever all proxied connections, join threads.
    pub fn stop(mut self) {
        self.shutdown();
    }

    fn shutdown(&mut self) {
        if !self.stop.swap(true, Ordering::AcqRel) {
            for stream in self.conns.lock().unwrap().drain(..) {
                let _ = stream.shutdown(Shutdown::Both);
            }
            wake_acceptor(self.addr);
        }
        if let Some(handle) = self.accept.take() {
            let _ = handle.join();
        }
    }
}

impl Drop for ChaosProxy {
    fn drop(&mut self) {
        self.shutdown();
    }
}

fn track(conns: &Arc<Mutex<Vec<TcpStream>>>, client: &TcpStream, server: &TcpStream) {
    let mut held = conns.lock().unwrap();
    if let Ok(c) = client.try_clone() {
        held.push(c);
    }
    if let Ok(s) = server.try_clone() {
        held.push(s);
    }
}

#[allow(clippy::too_many_arguments)]
fn spawn_pair(
    client: TcpStream,
    server: TcpStream,
    conn: u64,
    seed: u64,
    faults: Vec<ChaosFault>,
    stats: Arc<StatsCells>,
    log: Arc<EventLog>,
    stop: Arc<AtomicBool>,
) -> Vec<std::thread::JoinHandle<()>> {
    let up = {
        let (read, write) = (client.try_clone(), server.try_clone());
        let faults = faults.clone();
        let stats = Arc::clone(&stats);
        let log = Arc::clone(&log);
        let stop = Arc::clone(&stop);
        std::thread::spawn(move || {
            if let (Ok(read), Ok(write)) = (read, write) {
                forward(
                    read,
                    write,
                    conn,
                    seed,
                    Direction::Upstream,
                    &faults,
                    &stats,
                    &log,
                    &stop,
                );
            }
        })
    };
    let down = std::thread::spawn(move || {
        forward(
            server,
            client,
            conn,
            seed,
            Direction::Downstream,
            &faults,
            &stats,
            &log,
            &stop,
        );
    });
    vec![up, down]
}

/// Forward one direction window by window, applying the fault plan.
#[allow(clippy::too_many_arguments)]
fn forward(
    mut read: TcpStream,
    mut write: TcpStream,
    conn: u64,
    seed: u64,
    direction: Direction,
    faults: &[ChaosFault],
    stats: &StatsCells,
    log: &EventLog,
    stop: &AtomicBool,
) {
    // Idle flush: forward a partial window once the link has been
    // quiet this long. Must be small relative to the faults injected —
    // request/response exchanges (HELLO, the serve clock handshake)
    // never fill a window, so this re-chunking latency would otherwise
    // masquerade as injected delay in the peer's wait-state gauges.
    let _ = read.set_read_timeout(Some(Duration::from_millis(2)));
    let mut window = vec![0u8; WINDOW_BYTES];
    let mut filled = 0usize;
    let mut index = 0u64;
    loop {
        if stop.load(Ordering::Acquire) {
            break;
        }
        match read.read(&mut window[filled..]) {
            Ok(0) => {
                // Clean EOF: flush the partial window and stop.
                if filled > 0 {
                    let _ = emit(
                        &mut write,
                        &mut window[..filled],
                        conn,
                        seed,
                        direction,
                        index,
                        faults,
                        stats,
                        log,
                    );
                }
                break;
            }
            Ok(n) => {
                filled += n;
                if filled == WINDOW_BYTES {
                    let keep_going = emit(
                        &mut write,
                        &mut window[..WINDOW_BYTES],
                        conn,
                        seed,
                        direction,
                        index,
                        faults,
                        stats,
                        log,
                    );
                    filled = 0;
                    index += 1;
                    if !keep_going {
                        break;
                    }
                }
            }
            Err(e)
                if e.kind() == io::ErrorKind::WouldBlock || e.kind() == io::ErrorKind::TimedOut =>
            {
                // Idle link: forward what we have so the peer is not
                // starved by re-chunking, then keep listening. Partial
                // windows advance the index so decisions stay
                // position-independent per flush.
                if filled > 0 {
                    let keep_going = emit(
                        &mut write,
                        &mut window[..filled],
                        conn,
                        seed,
                        direction,
                        index,
                        faults,
                        stats,
                        log,
                    );
                    filled = 0;
                    index += 1;
                    if !keep_going {
                        break;
                    }
                }
            }
            Err(_) => break,
        }
    }
    let _ = write.shutdown(Shutdown::Both);
    let _ = read.shutdown(Shutdown::Both);
}

/// Apply the fault plan to one window and forward it. Returns false
/// when the connection was deliberately cut.
#[allow(clippy::too_many_arguments)]
fn emit(
    write: &mut TcpStream,
    window: &mut [u8],
    conn: u64,
    seed: u64,
    direction: Direction,
    index: u64,
    faults: &[ChaosFault],
    stats: &StatsCells,
    log: &EventLog,
) -> bool {
    let word = decision(seed, conn, direction, index);
    stats.windows.fetch_add(1, Ordering::Relaxed);
    let dir = match direction {
        Direction::Upstream => "up",
        Direction::Downstream => "down",
    };
    let event = |kind: &str, t_ns: u64, dur_ns: u64| ChaosEvent {
        kind: kind.to_string(),
        conn,
        dir: dir.to_string(),
        window: index,
        t_ns,
        dur_ns,
    };
    for (slot, fault) in faults.iter().enumerate() {
        // Each fault draws from its own remix so stacking faults
        // doesn't correlate their decisions.
        let draw = mix(word ^ (slot as u64).wrapping_mul(0xD1B54A32D192ED03));
        match fault {
            ChaosFault::Delay { probability, hold } => {
                if unit(draw) < *probability {
                    stats.delays.fetch_add(1, Ordering::Relaxed);
                    let t0 = mono_ns();
                    std::thread::sleep(*hold);
                    log.push(event("delay", t0, mono_ns().saturating_sub(t0)));
                }
            }
            ChaosFault::Throttle { bytes_per_sec } => {
                let secs = window.len() as f64 / (*bytes_per_sec).max(1) as f64;
                let t0 = mono_ns();
                std::thread::sleep(Duration::from_secs_f64(secs));
                log.push(event("throttle", t0, mono_ns().saturating_sub(t0)));
            }
            ChaosFault::Partition { probability, hold } => {
                if unit(draw) < *probability {
                    stats.partitions.fetch_add(1, Ordering::Relaxed);
                    let t0 = mono_ns();
                    std::thread::sleep(*hold);
                    log.push(event("partition", t0, mono_ns().saturating_sub(t0)));
                }
            }
            ChaosFault::Corrupt { probability } => {
                if unit(draw) < *probability {
                    let at = (draw >> 7) as usize % window.len();
                    window[at] ^= 0x40;
                    stats.corruptions.fetch_add(1, Ordering::Relaxed);
                    log.push(event("corrupt", mono_ns(), 0));
                }
            }
            ChaosFault::Disconnect { probability } => {
                if unit(draw) < *probability {
                    stats.disconnects.fetch_add(1, Ordering::Relaxed);
                    log.push(event("disconnect", mono_ns(), 0));
                    let half = window.len() / 2;
                    if half > 0 && write.write_all(&window[..half]).is_ok() {
                        stats.bytes.fetch_add(half as u64, Ordering::Relaxed);
                    }
                    let _ = write.shutdown(Shutdown::Both);
                    return false;
                }
            }
        }
    }
    if write.write_all(window).is_err() {
        return false;
    }
    stats
        .bytes
        .fetch_add(window.len() as u64, Ordering::Relaxed);
    true
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::io::{Read, Write};
    use std::net::TcpListener;

    /// An echo server that doubles as a byte sink; returns its addr.
    fn echo_server() -> (SocketAddr, std::thread::JoinHandle<()>) {
        let listener = TcpListener::bind("127.0.0.1:0").unwrap();
        let addr = listener.local_addr().unwrap();
        let handle = std::thread::spawn(move || {
            if let Ok((mut stream, _)) = listener.accept() {
                let mut buf = [0u8; 1024];
                loop {
                    match stream.read(&mut buf) {
                        Ok(0) | Err(_) => break,
                        Ok(n) => {
                            if stream.write_all(&buf[..n]).is_err() {
                                break;
                            }
                        }
                    }
                }
            }
        });
        (addr, handle)
    }

    #[test]
    fn clean_proxy_is_transparent() {
        let (addr, server) = echo_server();
        let proxy = ChaosProxy::start(&addr.to_string(), 1, vec![]).unwrap();
        let mut stream = TcpStream::connect(proxy.addr()).unwrap();
        let payload: Vec<u8> = (0..10_000u32).map(|i| (i % 251) as u8).collect();
        stream.write_all(&payload).unwrap();
        let mut back = vec![0u8; payload.len()];
        stream.read_exact(&mut back).unwrap();
        assert_eq!(back, payload);
        // The byte counter lands just after the forwarding write; give
        // the proxy threads a moment to settle before asserting.
        let deadline = std::time::Instant::now() + Duration::from_secs(2);
        while proxy.injected().bytes < 2 * payload.len() as u64
            && std::time::Instant::now() < deadline
        {
            std::thread::sleep(Duration::from_millis(5));
        }
        let stats = proxy.injected();
        assert_eq!(stats.connections, 1);
        assert!(stats.bytes >= 2 * payload.len() as u64, "{stats:?}");
        assert_eq!(stats.corruptions + stats.disconnects, 0);
        drop(stream);
        proxy.stop();
        let _ = server.join();
    }

    #[test]
    fn an_idle_proxy_stops_without_serving_its_wake_up() {
        let upstream = TcpListener::bind("127.0.0.1:0").unwrap();
        let upstream_addr = upstream.local_addr().unwrap();
        let proxy = ChaosProxy::start(&upstream_addr.to_string(), 1, vec![]).unwrap();
        let stats = Arc::clone(&proxy.stats);
        let (done, stopped) = std::sync::mpsc::channel();
        std::thread::spawn(move || {
            proxy.stop();
            let _ = done.send(());
        });
        stopped
            .recv_timeout(Duration::from_secs(60))
            .expect("stop() of a proxy that never saw a client must return");
        assert_eq!(stats.connections.load(Ordering::Acquire), 0);
        // Had the wake-up opened an upstream, it would be queued ahead
        // of this probe.
        let probe = TcpStream::connect(upstream_addr).unwrap();
        let (first, _) = upstream.accept().unwrap();
        assert_eq!(first.peer_addr().unwrap(), probe.local_addr().unwrap());
        drop(ChaosProxy::start(&upstream_addr.to_string(), 1, vec![]).unwrap());
    }

    #[test]
    fn corruption_flips_exactly_the_chosen_bytes() {
        let (addr, server) = echo_server();
        let proxy = ChaosProxy::start(
            &addr.to_string(),
            7,
            vec![ChaosFault::Corrupt { probability: 1.0 }],
        )
        .unwrap();
        let mut stream = TcpStream::connect(proxy.addr()).unwrap();
        let payload = vec![0u8; WINDOW_BYTES];
        stream.write_all(&payload).unwrap();
        let mut back = vec![0u8; WINDOW_BYTES];
        stream.read_exact(&mut back).unwrap();
        // Corrupted on the way up AND on the way back (both windows
        // selected at probability 1), so up to two bytes differ; the
        // same seed must reproduce the identical diff.
        let diff: Vec<usize> = (0..back.len()).filter(|&i| back[i] != 0).collect();
        assert!(!diff.is_empty());
        assert!(proxy.injected().corruptions >= 1);
        proxy.stop();
        let _ = server.join();

        // Replay: identical seed, identical flipped positions.
        let (addr2, server2) = echo_server();
        let proxy2 = ChaosProxy::start(
            &addr2.to_string(),
            7,
            vec![ChaosFault::Corrupt { probability: 1.0 }],
        )
        .unwrap();
        let mut stream2 = TcpStream::connect(proxy2.addr()).unwrap();
        stream2.write_all(&payload).unwrap();
        let mut back2 = vec![0u8; WINDOW_BYTES];
        stream2.read_exact(&mut back2).unwrap();
        assert_eq!(back, back2, "same seed must corrupt the same bytes");
        proxy2.stop();
        let _ = server2.join();
    }

    #[test]
    fn disconnect_cuts_mid_window() {
        let (addr, server) = echo_server();
        let proxy = ChaosProxy::start(
            &addr.to_string(),
            3,
            vec![ChaosFault::Disconnect { probability: 1.0 }],
        )
        .unwrap();
        let mut stream = TcpStream::connect(proxy.addr()).unwrap();
        let payload = vec![7u8; WINDOW_BYTES];
        // The write may or may not error depending on timing; the read
        // must end early either way.
        let _ = stream.write_all(&payload);
        let mut back = Vec::new();
        let _ = stream.read_to_end(&mut back);
        assert!(
            back.len() < payload.len(),
            "got {} bytes back through a cut link",
            back.len()
        );
        assert!(proxy.injected().disconnects >= 1);
        proxy.stop();
        let _ = server.join();
    }

    #[test]
    fn event_log_records_fired_faults_as_chaos_v1_json() {
        let (addr, server) = echo_server();
        let proxy = ChaosProxy::start(
            &addr.to_string(),
            11,
            vec![ChaosFault::Delay {
                probability: 1.0,
                hold: Duration::from_millis(2),
            }],
        )
        .unwrap();
        let mut stream = TcpStream::connect(proxy.addr()).unwrap();
        let payload = vec![9u8; 2 * WINDOW_BYTES];
        stream.write_all(&payload).unwrap();
        let mut back = vec![0u8; payload.len()];
        stream.read_exact(&mut back).unwrap();
        drop(stream);
        let (events, dropped) = proxy.events();
        assert_eq!(dropped, 0);
        assert!(
            events.iter().any(|e| e.kind == "delay" && e.dur_ns > 0),
            "no delay event logged: {events:?}"
        );
        assert_eq!(events.len() as u64, proxy.injected().delays);
        let doc = proxy.events_json();
        assert!(doc.contains("presto.chaos.v1"));
        // The document must be exactly what the fleet merge accepts
        // for its chaos track.
        let fleet = presto_telemetry::fleet::fleet_json(
            &presto_telemetry::Telemetry::new()
                .begin_epoch(&["s".into()], 1, 0)
                .snapshot(),
            &Default::default(),
            &Default::default(),
        );
        let merged =
            presto_telemetry::fleet::merge_chrome_trace(&fleet, Some(&doc)).expect("merge");
        assert!(merged.contains("chaos-proxy"));
        assert!(merged.contains("\"delay\""));
        proxy.stop();
        let _ = server.join();
    }

    #[test]
    fn decisions_are_pure_functions_of_the_key() {
        let a = decision(9, 2, Direction::Downstream, 14);
        let b = decision(9, 2, Direction::Downstream, 14);
        assert_eq!(a, b);
        assert_ne!(a, decision(9, 2, Direction::Upstream, 14));
        assert_ne!(a, decision(9, 2, Direction::Downstream, 15));
        assert_ne!(a, decision(9, 3, Direction::Downstream, 14));
        assert_ne!(a, decision(8, 2, Direction::Downstream, 14));
    }

    #[test]
    fn throttle_slows_the_link() {
        let (addr, server) = echo_server();
        let proxy = ChaosProxy::start(
            &addr.to_string(),
            5,
            vec![ChaosFault::Throttle {
                bytes_per_sec: 64 * 1024,
            }],
        )
        .unwrap();
        let mut stream = TcpStream::connect(proxy.addr()).unwrap();
        let payload = vec![1u8; 8 * WINDOW_BYTES];
        let started = std::time::Instant::now();
        stream.write_all(&payload).unwrap();
        let mut back = vec![0u8; payload.len()];
        stream.read_exact(&mut back).unwrap();
        // 32 KiB each way at 64 KiB/s ≥ ~1 s nominal; accept half to
        // stay robust on loaded machines.
        assert!(
            started.elapsed() >= Duration::from_millis(500),
            "throttle had no effect"
        );
        assert_eq!(back, payload);
        proxy.stop();
        let _ = server.join();
    }
}
