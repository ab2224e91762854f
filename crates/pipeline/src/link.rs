//! The upstream side of the serve protocol, written once for its two
//! callers: the client's links ([`crate::serve::serve_stream`]) and
//! `fleetd`'s relay ([`crate::tenant`]). A [`Link`] owns one connection
//! to a worker: it dials lazily, registers the socket in a [`Conns`]
//! registry (so hanging up severs it), runs the HELLO exchange — and,
//! when asked, the client's PING burst and REGISTER — then sends one
//! ASSIGN per list of shards, keeps a standing [`CreditWindow`], and
//! reads until every assigned shard's EOF. It ends each assignment in
//! one [`Outcome`], and keeps a healthy connection for the next one.
//!
//! The callers differ only in their [`Sink`], which takes each BATCH2
//! (the client decodes and hashes it in place, the relay keeps it
//! opaque) and commits a shard at its EOF, and in the [`RetryPolicy`]
//! their [`Failover`] rule runs.

use crate::fault::RetryPolicy;
use crate::real::fnv64;
use crate::serve::{
    check_payload, handshake, read_frame, read_unchecked, write_frame, Batch2Head, ConnEntry,
    Conns, CreditWindow, Frame, ServeError, TenantSpec, ASSIGN_WANT_STATS, PROTOCOL_VERSION,
};
use presto_telemetry::fleet::mono_ns;
use presto_telemetry::{FleetProgress, ServeProgress};
use std::io::{BufRead, BufReader, Read};
use std::net::{TcpStream, ToSocketAddrs};
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Condvar, Mutex, PoisonError};
use std::time::{Duration, Instant};

/// PINGs sent per connection handshake; the minimum-RTT sample wins.
const PING_BURST: u32 = 5;

/// Where a link's receive buffers come from, and go back to once the
/// frame read into one is decoded.
pub(crate) trait Buffers {
    fn take(&mut self) -> Vec<u8>;
    fn give(&mut self, buffer: Vec<u8>);
}

/// What a caller does with an assignment's BATCH2s and EOFs.
pub(crate) trait Sink: Buffers {
    /// Take a BATCH2 of one of the assignment's shards, `head.shard`:
    /// its payload (type byte first), read without a check, and the CRC
    /// stored after it. The check is the sink's; an error drops the
    /// connection.
    fn batch(&mut self, head: Batch2Head, payload: Vec<u8>, stored: u32) -> Result<(), ServeError>;

    /// The ASSIGN is on the wire.
    fn assigned(&mut self) {}

    /// Shard `index` arrived whole; `last` when no shard of the
    /// assignment is left. False when the caller hung up.
    fn commit(&mut self, _index: usize, _last: bool) -> bool {
        true
    }
}

/// One frame off an upstream connection: a BATCH2, unchecked, with its
/// head and stored CRC, or any other frame, checked and decoded.
pub(crate) enum Incoming {
    Batch(Batch2Head, Vec<u8>, u32),
    Frame(Frame),
}

/// Read one frame into a buffer from `buffers`, filled without
/// zero-filling it first. A BATCH2 is handed over unchecked, for its
/// sink to check in the pass it makes anyway; any other frame is checked
/// in one pass and decoded, and its buffer goes back. `Ok(None)` is a
/// clean close at a frame boundary.
pub(crate) fn receive(
    reader: &mut impl Read,
    buffers: &mut impl Buffers,
) -> Result<Option<Incoming>, ServeError> {
    let mut payload = buffers.take();
    let stored = match read_unchecked(reader, &mut payload) {
        Ok(Some(stored)) => stored,
        other => {
            buffers.give(payload);
            return other.map(|_| None);
        }
    };
    if let Some(head) = Batch2Head::parse(&payload) {
        return Ok(Some(Incoming::Batch(head, payload, stored)));
    }
    let frame = check_payload(&payload, stored).and_then(|()| Frame::decode_payload(&payload));
    buffers.give(payload);
    frame.map(|frame| Some(Incoming::Frame(frame)))
}

/// How a [`Link`] dials, and what it says before its first ASSIGN.
pub(crate) struct Dial<'a> {
    pub(crate) connect_timeout: Duration,
    /// A worker silent this long is a lost connection.
    pub(crate) read_timeout: Duration,
    /// BATCH credits each ASSIGN grants: the standing window.
    pub(crate) credits: u32,
    pub(crate) trace: Option<Trace<'a>>,
    /// Sent as REGISTER after the handshake; ADMIT is awaited.
    pub(crate) tenant: Option<&'a TenantSpec>,
}

/// Fleet tracing on a link: the PING burst at handshake, STATS after
/// each assignment, and the gap/stream meter on every frame read.
pub(crate) struct Trace<'a> {
    pub(crate) fleet: &'a FleetProgress,
    pub(crate) trace_id: u64,
    /// The fleet entry's `conn`: which of the client's links this is.
    pub(crate) conn: u32,
    /// Where the gap/stream wait of each frame read goes.
    pub(crate) meter: &'a ServeProgress,
}

/// How one assignment on a [`Link`] ended.
pub(crate) enum Outcome {
    /// Every shard committed; the connection stays open.
    Done,
    /// The connection ended first: a refused dial, a timeout, a close, a
    /// damaged or unexpected frame. `started`: the ASSIGN went out.
    /// `life`: a shard committed or a batch streamed on it.
    Lost { started: bool, life: bool },
    /// The worker's ERR, a REJECT, or a peer from another build: trying
    /// again does not help.
    Fatal { started: bool, why: String },
    /// The caller hung up.
    Stopped,
}

/// One upstream connection, for as long as it is healthy.
pub(crate) struct Link<'a> {
    addr: &'a str,
    conns: &'a Conns,
    dial: Dial<'a>,
    conn: Option<Upstream<'a>>,
}

struct Upstream<'a> {
    writer: TcpStream,
    reader: BufReader<TcpStream>,
    _entry: ConnEntry<'a>,
}

impl<'a> Link<'a> {
    pub(crate) fn new(addr: &'a str, conns: &'a Conns, dial: Dial<'a>) -> Link<'a> {
        Link {
            addr,
            conns,
            dial,
            conn: None,
        }
    }

    /// Run one assignment of `shards`, dialling first when the link has
    /// no connection. Any end but [`Outcome::Done`] closes it; a panic
    /// while driving it is a lost connection like any other.
    pub(crate) fn assign(
        &mut self,
        epoch_seed: u64,
        shards: Vec<String>,
        sink: &mut impl Sink,
    ) -> Outcome {
        let drive = AssertUnwindSafe(|| self.drive(epoch_seed, shards, sink));
        let panicked = Outcome::Lost {
            started: true,
            life: false,
        };
        match catch_unwind(drive).unwrap_or(Err(panicked)) {
            Ok(()) => Outcome::Done,
            Err(outcome) => {
                self.conn = None;
                outcome
            }
        }
    }

    fn drive(
        &mut self,
        epoch_seed: u64,
        shards: Vec<String>,
        sink: &mut impl Sink,
    ) -> Result<(), Outcome> {
        let lost = |life| Outcome::Lost {
            started: true,
            life,
        };
        let mut open = vec![true; shards.len()];
        if self.conn.is_none() {
            self.conn = Some(self.open(shards.len() as u32)?);
        }
        let conn = self.conn.as_mut().expect("connected above");
        let trace = self.dial.trace.as_ref();
        let credits = self.dial.credits.max(1);
        let assign = Frame::Assign {
            epoch_seed,
            credits,
            shards,
            trace_id: trace.map_or(0, |t| t.trace_id),
            parent_span: trace.map_or(0, |t| t.trace_id ^ fnv64(self.addr)),
            flags: trace.map_or(0, |_| ASSIGN_WANT_STATS),
        };
        write_frame(&mut conn.writer, &assign).map_err(|_| Outcome::Lost {
            started: false,
            life: false,
        })?;
        sink.assigned();
        let meter = trace.map(|t| t.meter);
        let (mut window, mut left, mut life) = (CreditWindow::new(credits), open.len(), false);
        while left > 0 {
            // Clean close, damage, a timeout, a shard that is not open:
            // the connection is unusable, and what it did not commit is
            // the caller's to put back.
            match metered(&mut conn.reader, sink, meter) {
                Ok(Some(Incoming::Batch(head, payload, stored))) => {
                    if open.get(head.shard as usize) != Some(&true) {
                        return Err(lost(life));
                    }
                    sink.batch(head, payload, stored).map_err(|_| lost(life))?;
                    life = true;
                    if let Some(n) = window.drained() {
                        write_frame(&mut conn.writer, &Frame::Credit { n })
                            .map_err(|_| lost(life))?;
                    }
                }
                Ok(Some(Incoming::Frame(Frame::Eof { shard }))) => {
                    let index = shard as usize;
                    if open.get(index) != Some(&true) {
                        return Err(lost(life));
                    }
                    open[index] = false;
                    left -= 1;
                    if !sink.commit(index, left == 0) {
                        return Err(Outcome::Stopped);
                    }
                    life = true;
                }
                Ok(Some(Incoming::Frame(Frame::Err { message }))) => {
                    let why = format!("worker {} failed: {message}", self.addr);
                    return Err(Outcome::Fatal { started: true, why });
                }
                // A stray PONG (duplicate handshake reply) is harmless.
                Ok(Some(Incoming::Frame(Frame::Pong { .. }))) => {}
                _ => return Err(lost(life)),
            }
        }
        // The worker's STATS frame trails the final EOF. Best effort:
        // a worker that dies here has delivered everything, but its
        // connection is not kept.
        let Some(trace) = trace else { return Ok(()) };
        let stats = loop {
            match read_frame(&mut conn.reader) {
                Ok(Some(Frame::Stats { entry })) => break Some(entry),
                Ok(Some(_)) => continue,
                _ => break None,
            }
        };
        match stats {
            Some(mut entry) => {
                entry.addr = self.addr.to_string();
                entry.conn = trace.conn;
                entry.peer_version = PROTOCOL_VERSION;
                trace.fleet.record_stats(*entry);
            }
            None => self.conn = None,
        }
        Ok(())
    }

    /// Dial, greet and, when the link has a tenant, register it
    /// declaring `declared` shards: a connection ready for ASSIGN.
    fn open(&self, declared: u32) -> Result<Upstream<'a>, Outcome> {
        let lost = || Outcome::Lost {
            started: false,
            life: false,
        };
        let fatal = |why| Outcome::Fatal {
            started: false,
            why,
        };
        let target = self
            .addr
            .to_socket_addrs()
            .ok()
            .and_then(|mut addrs| addrs.next())
            .ok_or_else(lost)?;
        let stream =
            TcpStream::connect_timeout(&target, self.dial.connect_timeout).map_err(|_| lost())?;
        // Registered until the connection closes; once the caller hung
        // up the registry refuses it.
        let entry = self.conns.enter(&stream).ok_or(Outcome::Stopped)?;
        let _ = stream.set_nodelay(true);
        stream
            .set_read_timeout(Some(self.dial.read_timeout))
            .map_err(|_| lost())?;
        let mut writer = stream.try_clone().map_err(|_| lost())?;
        let mut reader = BufReader::new(stream);
        let trace = self.dial.trace.as_ref();
        handshake(&mut writer, &mut reader, trace.map_or(0, |t| t.trace_id)).map_err(|e| {
            // A worker from another build does not get better on retry;
            // a broken link is a dead connection like any other.
            match e {
                ServeError::Protocol(_) => fatal(format!("worker {}: {e}", self.addr)),
                _ => lost(),
            }
        })?;
        if let Some(trace) = trace {
            let (offset, rtt) = ping_burst(&mut writer, &mut reader).ok_or_else(lost)?;
            let fleet = trace.fleet;
            fleet.record_handshake(self.addr, trace.conn, PROTOCOL_VERSION, offset, rtt);
        }
        if let Some(tenant) = self.dial.tenant {
            let register = Frame::Register {
                tenant: tenant.name.clone(),
                weight: tenant.weight.max(1),
                shards: declared,
            };
            write_frame(&mut writer, &register).map_err(|_| lost())?;
            match read_frame(&mut reader) {
                Ok(Some(Frame::Admit { .. })) => {}
                // Policy, not a fault: retrying elsewhere would dodge
                // the admission controller.
                Ok(Some(Frame::Reject { reason, .. })) => {
                    let (name, addr) = (&tenant.name, self.addr);
                    return Err(fatal(format!(
                        "tenant '{name}' rejected by {addr}: {reason}"
                    )));
                }
                _ => return Err(lost()),
            }
        }
        Ok(Upstream {
            writer,
            reader,
            _entry: entry,
        })
    }
}

/// [`receive`], metered when tracing. Waiting for a frame's first byte
/// (the `fill_buf`) means the wire was idle — nothing to receive, the
/// `gap` bucket; the rest of reading the frame means bytes were in
/// flight — the `stream` bucket. An idle-dominated connection is starved
/// of production; a stream-dominated one is throttled in transfer — the
/// first fork of the `diagnose_fleet` decision tree.
fn metered(
    reader: &mut BufReader<TcpStream>,
    buffers: &mut impl Buffers,
    meter: Option<&ServeProgress>,
) -> Result<Option<Incoming>, ServeError> {
    let Some(meter) = meter else {
        return receive(reader, buffers);
    };
    let t_gap = Instant::now();
    let waited = reader.fill_buf().map(|_| ());
    let t_stream = Instant::now();
    meter.gap_wait((t_stream - t_gap).as_nanos() as u64);
    waited?;
    let received = receive(reader, buffers);
    meter.stream_read(t_stream.elapsed().as_nanos() as u64);
    received
}

/// The NTP-style clock-offset estimate over [`PING_BURST`] PINGs: the
/// minimum-RTT PING's midpoint is the least-delayed view of the worker
/// clock. `(offset, rtt)`, or `None` when the connection broke.
fn ping_burst(writer: &mut TcpStream, reader: &mut impl Read) -> Option<(i64, u64)> {
    let (mut best_rtt, mut offset) = (u64::MAX, 0i64);
    for seq in 0..PING_BURST {
        let t0 = mono_ns();
        write_frame(writer, &Frame::Ping { t0, seq }).ok()?;
        let Ok(Some(Frame::Pong {
            t0: echo,
            t_worker,
            seq: echo_seq,
        })) = read_frame(reader)
        else {
            return None;
        };
        if (echo, echo_seq) != (t0, seq) {
            return None;
        }
        let rtt = mono_ns().saturating_sub(t0);
        if rtt < best_rtt {
            best_rtt = rtt;
            offset = t_worker as i64 - (t0 + rtt / 2) as i64;
        }
    }
    Some((offset, best_rtt))
}

/// The failover rule of one link, the same for the client and the
/// relay: it counts *consecutive lifeless* connection lifecycles. A
/// lifecycle that committed a shard or streamed a batch before it died
/// proves the worker alive — a flaky link, not a corpse — so the count
/// restarts at that one failure; only `max_attempts` lifecycles in a
/// row without a sign of life, or the policy's `deadline`, write a link
/// off. Time is passed in, so the rule runs without a clock.
pub(crate) struct Failover {
    policy: RetryPolicy,
    /// Consecutive lifeless lifecycles; 0 while the link is healthy.
    tried: u32,
}

impl Failover {
    pub(crate) fn new(policy: RetryPolicy) -> Failover {
        Failover { policy, tried: 0 }
    }

    /// The link failed and has not delivered since.
    pub(crate) fn failing(&self) -> bool {
        self.tried > 0
    }

    /// A lifecycle delivered its assignment: true when it came back
    /// after failing — a rejoin, whose failure budget is restored.
    pub(crate) fn delivered(&mut self) -> bool {
        std::mem::take(&mut self.tried) > 0
    }

    /// A lifecycle was lost; `life` when it showed a sign of life.
    pub(crate) fn failed(&mut self, life: bool) {
        self.tried = if life {
            1
        } else {
            self.tried.saturating_add(1)
        };
    }

    /// Whether a failing link is written off, `elapsed` after the epoch
    /// started.
    pub(crate) fn written_off(&self, elapsed: Duration) -> bool {
        let late = self.policy.deadline.is_some_and(|d| elapsed >= d);
        self.failing() && (self.tried >= self.policy.max_attempts.max(1) || late)
    }

    /// The pause before a failing link's next try: the policy's backoff,
    /// jittered by `seed` (the epoch seed and the worker's address).
    pub(crate) fn backoff(&self, seed: u64) -> Option<Duration> {
        self.failing()
            .then(|| self.policy.backoff(self.tried, seed))
    }
}

/// Wait `wait`, or less once `stop` is raised: whoever raises it
/// notifies `changed` holding `lock`.
pub(crate) fn pause<T>(lock: &Mutex<T>, changed: &Condvar, stop: &AtomicBool, wait: Duration) {
    let guard = lock.lock().unwrap_or_else(PoisonError::into_inner);
    let _ = changed.wait_timeout_while(guard, wait, |_| !stop.load(Ordering::Acquire));
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::tenant::RELAY_RECONNECT;

    fn client(max_attempts: u32, deadline: Option<Duration>) -> Failover {
        Failover::new(RetryPolicy {
            max_attempts,
            deadline,
            ..RetryPolicy::default()
        })
    }

    const EARLY: Duration = Duration::ZERO;

    #[test]
    fn lifeless_lifecycles_write_a_link_off_at_max_attempts() {
        let mut rule = client(3, None);
        assert!(!rule.failing() && !rule.written_off(EARLY));
        assert_eq!(rule.backoff(7), None, "a healthy link does not wait");
        for _ in 0..2 {
            rule.failed(false);
            assert!(rule.failing() && !rule.written_off(EARLY));
        }
        rule.failed(false);
        assert!(rule.written_off(EARLY));
        // `RetryPolicy::none` drops a link on its first failure.
        let mut none = Failover::new(RetryPolicy::none());
        none.failed(false);
        assert!(none.written_off(EARLY));
    }

    #[test]
    fn a_sign_of_life_resets_the_count_to_one() {
        let mut rule = client(3, None);
        rule.failed(false);
        rule.failed(false);
        rule.failed(true);
        let first = rule.backoff(7);
        assert!(first.is_some() && !rule.written_off(EARLY));
        assert_eq!(first, client_after(&[false]).backoff(7), "back to one");
        rule.failed(false);
        assert!(!rule.written_off(EARLY));
        rule.failed(false);
        assert!(rule.written_off(EARLY));
    }

    fn client_after(failures: &[bool]) -> Failover {
        let mut rule = client(3, None);
        failures.iter().for_each(|&life| rule.failed(life));
        rule
    }

    #[test]
    fn the_deadline_writes_a_link_off_whatever_the_count() {
        let deadline = Duration::from_secs(1);
        let mut rule = client(1_000, Some(deadline));
        rule.failed(true);
        assert!(!rule.written_off(deadline - Duration::from_nanos(1)));
        assert!(rule.written_off(deadline));
        // A healthy link is not written off by the clock.
        assert!(!client(1_000, Some(deadline)).written_off(deadline * 2));
    }

    #[test]
    fn a_delivery_after_a_failure_is_one_rejoin_and_restores_the_budget() {
        let mut rule = client(2, None);
        assert!(!rule.delivered(), "a healthy delivery is no rejoin");
        rule.failed(false);
        assert!(rule.delivered());
        assert!(!rule.delivered(), "one rejoin per comeback");
        assert!(!rule.failing() && rule.backoff(7).is_none());
        rule.failed(false);
        assert!(!rule.written_off(EARLY), "the whole budget is back");
        rule.failed(false);
        assert!(rule.written_off(EARLY));
    }

    #[test]
    fn the_relay_never_writes_a_backend_off_and_caps_its_backoff_at_a_second() {
        let mut rule = Failover::new(RELAY_RECONNECT);
        rule.failed(false);
        let first = rule.backoff(7).unwrap();
        assert!(first >= Duration::from_millis(25) && first <= Duration::from_millis(50));
        for failure in 2..10_000u32 {
            rule.failed(failure % 7 == 0);
            assert!(!rule.written_off(Duration::MAX), "failure {failure}");
            let wait = rule.backoff(u64::from(failure)).unwrap();
            assert!(
                wait <= Duration::from_secs(1),
                "failure {failure}: {wait:?}"
            );
        }
        let mut lifeless = Failover::new(RELAY_RECONNECT);
        (0..40).for_each(|_| lifeless.failed(false));
        let capped = lifeless.backoff(7).unwrap();
        assert!(capped >= Duration::from_millis(500) && capped <= Duration::from_secs(1));
    }
}
