//! The one server behind `serve-worker` and `fleetd`: they speak one
//! wire protocol ([`crate::serve`]) to their clients and differ only in
//! where a shard's batches come from.
//!
//! ```text
//! train-client ──┐                  ┌─ local source: process_shard here   (serve-worker)
//! train-client ──┼── server (DRR) ──┤
//! train-client ──┘                  └─ relay source: a dispatcher per     (fleetd)
//!                                      backend, one ASSIGN per shard ──► serve-worker
//! ```
//!
//! Everything that faces the client is written once: the accept loop,
//! the connection registry, the conversation (HELLO, then an optional
//! REGISTER, then any number of ASSIGNs), admission, scheduling, the
//! per-tenant writer and STATS. A
//! [`ServeWorker`](crate::serve::ServeWorker) runs one local
//! dispatcher — the node's fixed capacity, shared by its clients — and
//! [`FleetDaemon`] one relay dispatcher per backend.
//!
//! - **Admission.** REGISTER names a tenant (name + DRR weight) and is
//!   admitted or rejected (max concurrent jobs, per-tenant shard
//!   quota). An ASSIGN without one opens an *implicit tenant*: weight 1,
//!   the same checks, never matched by a same-name rejoin and not booked
//!   in the tenants registry. A worker admits everyone.
//! - **Deficit round robin over delivered samples.** Each tenant
//!   accrues `quantum × weight` deficit when the scheduler tops up and
//!   is charged the samples its completed shards delivered, so competing
//!   tenants see throughput proportional to their weights.
//! - **Cache-affinity routing.** A dispatcher asking for work prefers
//!   shards it served before, whose artifacts are warm on its backend.
//!   Per-shard RNG seeding ([`crate::shard_rng_seed`]) keeps any
//!   placement bit-identical per tenant.
//! - **In flight until delivered.** A shard holds one of its tenant's
//!   `max_inflight` slots until its EOF is written to the client, so a
//!   stalled client holds at most that many shards here. A worker has
//!   one slot per client: it makes a client's next shard once the
//!   current one is on the wire.
//! - **Per-tenant isolation.** Every tenant has its own outbox, credit
//!   gate and fault budget. A stalled client blocks only its own writer;
//!   a backend dying mid-shard requeues the shard against the *owning*
//!   tenant's budget ([`AdmissionPolicy::max_requeues`]), and a tenant
//!   out of budget gets an ERR while everyone else keeps streaming.
//!
//! Every BATCH2 takes one path: source → `complete_task` → the
//! tenant's outbox → its writer, which takes a credit and writes the
//! frame with the client's head (its shard index, trace fields 0). A
//! block — relayed, or a local batch compressed just before it is sent —
//! is gather-written as `[record header, head, block, CRC]`, the frame
//! CRC combined from the block's by
//! [`Crc32::combine`](presto_codecs::checksum::Crc32::combine). An
//! uncompressed local batch is never copied into a block: it is
//! gather-written from the samples where they lie (`write_batch`), the
//! frame CRC folded from its record CRCs.
//!
//! A relay dispatcher drives its backend with the client's upstream
//! driver (`link::Link`), one ASSIGN per shard on a connection kept
//! across shards, and its own sink (`Relayed`): it checks each backend
//! BATCH2 once, as `combine(crc(head), crc(block), len(block))`, never
//! decodes it, and is **shard-atomic**: it hands a shard on only at the
//! backend's EOF, so a backend that dies mid-shard leaves no trace with
//! the client. After a lost shard it backs off under the client's
//! failover rule (`link::Failover`) with one policy of its own,
//! `RELAY_RECONNECT`, that never writes a backend off.
//!
//! Accounting lands in the attached
//! [`TenantsProgress`](presto_telemetry::TenantsProgress) registry:
//! `/tenants.json` (the `presto.tenants.v1` document) and per-tenant
//! labeled `/metrics` series.

use crate::dataplane::BufferPool;
use crate::error::PipelineError;
use crate::fault::{FaultCounters, RetryPolicy};
use crate::link::{pause, Buffers, Dial, Failover, Link, Outcome, Sink};
use crate::real::fnv64;
use crate::sample::Sample;
use crate::serve::{
    accept_until, encode_batch, handshake, read_frame, reject, wake_acceptor, write_batch,
    write_frame, write_record, Batch2Head, Conns, CreditGate, Frame, Local, ServeError,
    ASSIGN_WANT_STATS, BATCH2_HEAD, STATS_SPAN_CAP,
};
use presto_codecs::checksum::Crc32;
use presto_codecs::Codec;
use presto_telemetry::{
    EpochRecorder, RemoteWorker, ServeProgress, Telemetry, TenantsProgress, PHASE_HANDOFF,
    PHASE_QUEUE_WAIT,
};
use std::collections::{HashMap, VecDeque};
use std::io::{BufReader, Write};
use std::net::{Shutdown, SocketAddr, TcpListener, TcpStream, ToSocketAddrs};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::mpsc::{self, Sender};
use std::sync::{Arc, Condvar, Mutex, PoisonError};
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

/// Admission-controller policy: what the daemon lets in and how much
/// failure it absorbs per tenant.
#[derive(Debug, Clone)]
pub struct AdmissionPolicy {
    /// Maximum concurrently admitted jobs; further REGISTERs get
    /// REJECT until someone finishes.
    pub max_jobs: usize,
    /// Maximum shards one tenant may declare at REGISTER.
    pub shard_quota: u32,
    /// Per-tenant fault budget: shard requeues (backend deaths while
    /// serving that tenant's shard) tolerated before the tenant is
    /// failed with an ERR frame. One tenant's requeues never count
    /// against another's budget.
    pub max_requeues: u64,
}

impl Default for AdmissionPolicy {
    fn default() -> Self {
        AdmissionPolicy {
            max_jobs: 8,
            shard_quota: 1024,
            max_requeues: 16,
        }
    }
}

/// Daemon tuning knobs.
#[derive(Debug, Clone)]
pub struct FleetDaemonConfig {
    /// Admission policy.
    pub policy: AdmissionPolicy,
    /// Credits granted to a backend per shard assignment (backend
    /// flow control; client flow control is the client's own credits).
    pub backend_credits: u32,
    /// Deficit-round-robin quantum, in samples. Each top-up grants a
    /// tenant `quantum × weight` samples of scheduling headroom.
    pub quantum: u64,
    /// Shards of one tenant in flight at once, each from dispatch until
    /// its EOF is written to the client. 1 serializes a tenant
    /// (strictest fairness); higher overlaps its shards across
    /// backends.
    pub max_inflight: usize,
    /// Backend connect timeout.
    pub connect_timeout: Duration,
    /// Socket read timeout on backend connections — a backend silent
    /// this long is treated as dead. Client connections have none: a
    /// client waiting for its next batch sends nothing, and one that is
    /// gone shows up as a close or a failed write.
    pub read_timeout: Duration,
}

impl Default for FleetDaemonConfig {
    fn default() -> Self {
        FleetDaemonConfig {
            policy: AdmissionPolicy::default(),
            backend_credits: 8,
            quantum: 32,
            max_inflight: 2,
            connect_timeout: Duration::from_secs(5),
            read_timeout: Duration::from_secs(30),
        }
    }
}

/// One shard of one tenant's assignment.
#[derive(Debug, Clone)]
struct Task {
    /// Shard blob name (what the backend's ASSIGN carries).
    shard: String,
    /// Index into the ASSIGN shard list it came in — BATCH2/EOF frames
    /// to the client carry this index.
    index: u32,
    /// That ASSIGN's epoch seed.
    epoch_seed: u64,
}

/// What one connection's conversation thread acts on, in order: the
/// client's frames, from its reader thread, and what the sources and
/// the scheduler queue for the client.
enum Out {
    /// A client frame other than CREDIT, which goes straight to the gate.
    Request(Frame),
    /// The client closed the connection or broke the stream.
    Hangup,
    /// A frame to send; after an ERR the conversation ends.
    Frame(Frame),
    /// A BATCH2 of the client's shard `index`.
    Batch(u32, Pending),
    /// Shard `index` is complete: its EOF, after which its in-flight
    /// slot is free.
    Eof(u32),
    /// The assignment with these books is delivered: seal them, and
    /// send STATS if its ASSIGN asked. The books ride along because the
    /// client may already have sent its next ASSIGN, which replaces the
    /// connection's.
    Finish(Arc<Books>),
}

/// One assignment's books, kept where the work happens: the source adds
/// produce time, the writer credit waits and what it sent; a local
/// source's recorder, fault counters and bytes read make the worker's
/// epoch record and the STATS frame's steps and spans.
pub(crate) struct Books {
    pub(crate) rec: Arc<EpochRecorder>,
    pub(crate) counters: FaultCounters,
    pub(crate) bytes_read: AtomicU64,
    /// The STATS entry's totals so far.
    totals: Mutex<RemoteWorker>,
    want_stats: bool,
    started: Instant,
}

impl Books {
    fn new(rec: Arc<EpochRecorder>, want_stats: bool) -> Books {
        let totals = RemoteWorker {
            assign_start_mono_ns: presto_telemetry::fleet::mono_ns(),
            ..RemoteWorker::default()
        };
        Books {
            rec,
            counters: FaultCounters::default(),
            bytes_read: AtomicU64::new(0),
            totals: Mutex::new(totals),
            want_stats,
            started: Instant::now(),
        }
    }

    fn add(&self, book: impl FnOnce(&mut RemoteWorker)) {
        book(&mut self.totals.lock().unwrap());
    }

    /// Close the assignment: seal the recorder's epoch and, when the
    /// ASSIGN asked, make the STATS entry.
    fn seal(&self) -> Option<RemoteWorker> {
        let elapsed = self.started.elapsed();
        let mut entry = self.totals.lock().unwrap().clone();
        entry.epoch.elapsed_ns = elapsed.as_nanos() as u64;
        let (retries, skipped, lost) = self.counters.snapshot();
        let bytes_read = self.bytes_read.load(Ordering::Relaxed);
        let degraded = skipped > 0 || lost > 0;
        let rec = &self.rec;
        rec.finish(
            elapsed,
            entry.epoch.samples,
            bytes_read,
            retries,
            skipped,
            lost,
            degraded,
        );
        if !self.want_stats {
            return None;
        }
        if rec.is_enabled() {
            let snapshot = rec.snapshot();
            let epoch = &mut entry.epoch;
            epoch.dropped_spans = snapshot.dropped_spans;
            epoch.steps = snapshot.steps;
            epoch.spans = snapshot.spans;
            if epoch.spans.len() > STATS_SPAN_CAP {
                epoch.dropped_spans += (epoch.spans.len() - STATS_SPAN_CAP) as u64;
                epoch.spans.truncate(STATS_SPAN_CAP);
            }
        }
        Some(entry)
    }
}

/// One admitted tenant's scheduling state.
struct Tenant {
    /// REGISTER's name; `None` for an implicit tenant.
    name: Option<String>,
    weight: u32,
    /// An ASSIGN arrived. Until then the tenant only occupies an
    /// admission slot.
    assigned: bool,
    /// Shards not yet handed to a dispatcher.
    queue: VecDeque<Task>,
    /// Shards dispatched whose EOF is not yet written to the client.
    inflight: usize,
    /// DRR deficit, in samples. Eligible to dispatch while > 0.
    deficit: i64,
    /// Fault-budget consumption (requeued shards).
    requeues: u64,
    shards_total: usize,
    /// Shards their source completed.
    shards_done: usize,
    /// The current assignment's books.
    books: Arc<Books>,
    /// The conversation's inbox. Dispatchers send finished shards here
    /// and never block on client I/O.
    outbox: Sender<Out>,
    /// Client credits; the writer blocks here before each BATCH2.
    gate: Arc<CreditGate>,
    /// Cleared when the client connection dies or the tenant fails;
    /// dispatchers drop the tenant's work on the next visit. Also the
    /// entry's identity: a same-name rejoin is another tenant.
    alive: Arc<AtomicBool>,
}

impl Tenant {
    /// Has a shard a dispatcher may take now (deficit aside).
    fn dispatchable(&self, max_inflight: usize) -> bool {
        self.alive.load(Ordering::Acquire) && !self.queue.is_empty() && self.inflight < max_inflight
    }

    fn is(&self, alive: &Arc<AtomicBool>) -> bool {
        Arc::ptr_eq(&self.alive, alive)
    }
}

/// Scheduler state shared by client connections and dispatchers.
#[derive(Default)]
struct Sched {
    tenants: Vec<Tenant>,
    /// shard name → dispatcher that last completed it. Cache affinity
    /// only; correctness never depends on placement.
    affinity: HashMap<String, usize>,
    /// Round-robin cursor over tenants for deficit top-up order.
    cursor: usize,
}

impl Sched {
    fn active_jobs(&self) -> usize {
        self.tenants
            .iter()
            .filter(|t| t.alive.load(Ordering::Acquire))
            .count()
    }

    fn find(&mut self, alive: &Arc<AtomicBool>) -> Option<&mut Tenant> {
        self.tenants.iter_mut().find(|t| t.is(alive))
    }

    /// Drop tenants whose client vanished, whose budget failed them, or
    /// whose assignment is delivered.
    fn prune(&mut self, tenants: &TenantsProgress) {
        self.tenants.retain(|t| {
            let alive = t.alive.load(Ordering::Acquire);
            let done = t.assigned
                && t.shards_done >= t.shards_total
                && t.queue.is_empty()
                && t.inflight == 0;
            if let (false, false, Some(name)) = (alive, done, &t.name) {
                // Client gone mid-epoch: record the failure once.
                tenants.failed(name);
            }
            alive && !done
        });
    }

    /// DRR top-up: while every dispatchable tenant has exhausted its
    /// deficit, every tenant with queued shards gets another
    /// `quantum × weight`. Charging happens at completion, in delivered
    /// samples, so a shard larger than the quantum leaves its tenant
    /// more than one round short; the rounds are handed out back to
    /// back, because a dispatcher that finds no tenant in credit goes
    /// to sleep on the condvar and nothing but another tenant's
    /// completion (or the poll timeout) would wake it. Terminates:
    /// weights are ≥ 1 (clamped at REGISTER). No-op when nothing can be
    /// dispatched.
    fn top_up(&mut self, quantum: u64, max_inflight: usize) {
        if !self.tenants.iter().any(|t| t.dispatchable(max_inflight)) {
            return;
        }
        while !self
            .tenants
            .iter()
            .any(|t| t.dispatchable(max_inflight) && t.deficit > 0)
        {
            for t in self.tenants.iter_mut() {
                if t.alive.load(Ordering::Acquire) && !t.queue.is_empty() {
                    t.deficit += (quantum.max(1) * u64::from(t.weight)) as i64;
                }
            }
        }
    }
}

/// Where a shard's batches come from.
pub(crate) enum Source {
    /// `process_shard` in this process, on one dispatcher: a worker.
    Local(Box<Local>),
    /// These backends, one dispatcher each: the fleet daemon.
    Relay(Vec<String>),
}

struct Shared {
    source: Source,
    config: FleetDaemonConfig,
    sched: Mutex<Sched>,
    cv: Condvar,
    stop: AtomicBool,
    tenants: Arc<TenantsProgress>,
    /// The serve gauges the writers feed: a worker's telemetry's, or a
    /// private set for a daemon — it is a relay, not a worker.
    progress: Arc<ServeProgress>,
    /// Open client connections and their credit gates, severed on stop.
    conns: Conns,
    /// Buffers BATCH2 blocks are made or read into; the writers hand
    /// them back once written.
    pool: BufferPool,
    batches_sent: AtomicU64,
    /// The listener's address, for the wake-up connection on stop.
    addr: SocketAddr,
}

impl Shared {
    fn wake_all(&self) {
        self.cv.notify_all();
    }

    /// Stop accepting, wake every dispatcher and sever every
    /// connection. Idempotent.
    fn crash(&self) {
        if self.stop.swap(true, Ordering::AcqRel) {
            return;
        }
        // Under the lock, so a dispatcher about to wait in a backoff
        // pause sees the flag or gets the wake-up.
        drop(self.sched.lock().unwrap_or_else(PoisonError::into_inner));
        self.wake_all();
        self.conns.sever();
        wake_acceptor(self.addr);
    }
}

/// The running server: an accept loop, one thread pair per client and
/// the source's dispatchers. Dropping it stops and joins everything.
pub(crate) struct Server {
    shared: Arc<Shared>,
    /// The accept loop's thread, then the dispatchers'.
    threads: Vec<JoinHandle<()>>,
}

impl Server {
    /// Bind `bind` and serve `source` to every client that dials it.
    pub(crate) fn spawn(
        bind: &str,
        source: Source,
        config: FleetDaemonConfig,
        tenants: Arc<TenantsProgress>,
        progress: Arc<ServeProgress>,
        pool: BufferPool,
    ) -> Result<Server, PipelineError> {
        let listener =
            TcpListener::bind(bind).map_err(|e| PipelineError::Io(format!("bind {bind}: {e}")))?;
        let addr = listener
            .local_addr()
            .map_err(|e| PipelineError::Io(e.to_string()))?;
        tenants.begin(
            config.policy.max_jobs as u64,
            u64::from(config.policy.shard_quota),
        );
        let dispatchers = match &source {
            Source::Local(_) => 1,
            Source::Relay(backends) => backends.len(),
        };
        let shared = Arc::new(Shared {
            source,
            config,
            sched: Mutex::new(Sched::default()),
            cv: Condvar::new(),
            stop: AtomicBool::new(false),
            tenants,
            progress,
            conns: Conns::default(),
            pool,
            batches_sent: AtomicU64::new(0),
            addr,
        });
        let accept_shared = Arc::clone(&shared);
        let accept = std::thread::Builder::new()
            .name("presto-serve-accept".into())
            .spawn(move || {
                let mut handles: Vec<JoinHandle<()>> = Vec::new();
                accept_until(listener, &accept_shared.stop, |stream| {
                    handles.retain(|handle| !handle.is_finished());
                    let shared = Arc::clone(&accept_shared);
                    handles.push(std::thread::spawn(move || converse(&shared, stream)));
                });
                for handle in handles {
                    let _ = handle.join();
                }
            })
            .map_err(|e| PipelineError::Io(e.to_string()))?;
        let mut threads = vec![accept];
        for dispatcher in 0..dispatchers {
            let shared = Arc::clone(&shared);
            threads.push(std::thread::spawn(move || {
                dispatcher_loop(&shared, dispatcher)
            }));
        }
        Ok(Server { shared, threads })
    }

    /// The bound address (port `0` resolved).
    pub(crate) fn addr(&self) -> SocketAddr {
        self.shared.addr
    }

    /// Stop accepting, wake every dispatcher and sever every
    /// connection. Idempotent; the drop joins the threads.
    pub(crate) fn stop(&self) {
        self.shared.crash();
    }

    /// True once stopped, explicitly or by a kill switch.
    pub(crate) fn is_stopped(&self) -> bool {
        self.shared.stop.load(Ordering::Acquire)
    }

    /// Wait until no client connection is registered, or `timeout`
    /// passes; returns how many still are.
    #[cfg(test)]
    pub(crate) fn wait_conns_empty(&self, timeout: Duration) -> usize {
        self.shared.conns.wait_empty(timeout)
    }

    /// BATCH2 frames written to clients so far.
    pub(crate) fn batches_sent(&self) -> u64 {
        self.shared.batches_sent.load(Ordering::Acquire)
    }

    /// Wait for the accept loop to return.
    #[cfg(test)]
    pub(crate) fn join_accept(&mut self) {
        self.threads.remove(0).join().unwrap();
    }
}

impl Drop for Server {
    fn drop(&mut self) {
        self.stop();
        for handle in self.threads.drain(..) {
            let _ = handle.join();
        }
    }
}

/// The running daemon: the [`Server`] with one relay dispatcher per
/// backend worker. Dropping the handle stops everything.
pub struct FleetDaemon {
    server: Server,
}

impl FleetDaemon {
    /// Bind `bind` for clients and start one dispatcher per backend
    /// address. Backends are plain [`ServeWorker`](crate::serve::ServeWorker)s;
    /// connections to them are made lazily as work arrives.
    pub fn spawn(
        bind: &str,
        backends: &[String],
        config: FleetDaemonConfig,
        telemetry: Option<Arc<Telemetry>>,
    ) -> Result<FleetDaemon, PipelineError> {
        if backends.is_empty() {
            return Err(PipelineError::Other(
                "fleetd needs at least one backend worker".into(),
            ));
        }
        for addr in backends {
            addr.to_socket_addrs()
                .map_err(|e| PipelineError::Other(format!("bad backend address '{addr}': {e}")))?;
        }
        let tenants = telemetry.map_or_else(Default::default, |t| t.tenants());
        // A backend has up to its credit window of batches in flight
        // toward the relay; idle buffers beyond that many per backend
        // are freed.
        let pool =
            BufferPool::with_shelf_cap(backends.len() * config.backend_credits.max(1) as usize);
        let source = Source::Relay(backends.to_vec());
        let server = Server::spawn(bind, source, config, tenants, Default::default(), pool)?;
        Ok(FleetDaemon { server })
    }

    /// The bound client-facing address (port `0` resolved).
    pub fn addr(&self) -> SocketAddr {
        self.server.addr()
    }

    /// Stop accepting, wake every dispatcher, and sever client
    /// connections. Idempotent.
    pub fn stop(&self) {
        self.server.stop();
    }
}

/// Serve one client connection, for either source: the HELLO
/// exchange, then an optional REGISTER and any number of ASSIGNs, with
/// PING and CREDIT frames at any point after HELLO. This thread owns
/// the socket's write side; a reader thread hands it the client's
/// frames through the same inbox the dispatchers queue finished shards
/// in, and puts credits straight into the gate.
fn converse(shared: &Arc<Shared>, stream: TcpStream) {
    let _ = stream.set_nodelay(true);
    let gate = Arc::new(CreditGate::new());
    // Registered until this function returns; a stopped server's
    // registry refuses the connection and it is dropped unserved.
    let Some(_entry) = shared.conns.enter(&stream) else {
        return;
    };
    let Ok(mut writer) = stream.try_clone() else {
        return;
    };
    let mut reader = BufReader::new(stream);
    if handshake(&mut writer, &mut reader, 0).is_err() {
        let _ = writer.shutdown(Shutdown::Both);
        return;
    }
    let (outbox, inbox) = mpsc::channel();
    let reading = {
        let (outbox, gate) = (outbox.clone(), Arc::clone(&gate));
        std::thread::spawn(move || {
            loop {
                match read_frame(&mut reader) {
                    Ok(Some(Frame::Credit { n })) => gate.add(u64::from(n)),
                    Ok(Some(frame)) => {
                        if outbox.send(Out::Request(frame)).is_err() {
                            break;
                        }
                    }
                    // A clean close or a broken stream ends the
                    // conversation.
                    _ => break,
                }
            }
            gate.close();
            let _ = outbox.send(Out::Hangup);
        })
    };
    let mut conn = Conn {
        alive: Arc::new(AtomicBool::new(true)),
        gate,
        outbox,
        name: None,
        weight: 1,
        opened: false,
        books: Arc::new(Books::new(EpochRecorder::noop(), false)),
    };
    while let Ok(out) = inbox.recv() {
        if !conn.handle(shared, &mut writer, out) {
            break;
        }
    }
    // Every way out lands here, so an admission slot never leaks.
    conn.alive.store(false, Ordering::Release);
    conn.gate.close();
    shared.sched.lock().unwrap().prune(&shared.tenants);
    shared.wake_all();
    // Half-close: the client reads what was sent, an ERR above all, and
    // hangs up, which ends the reader. Shutting the read side too would
    // answer its unread CREDITs with a reset that can discard the ERR.
    let _ = writer.shutdown(Shutdown::Write);
    let _ = reading.join();
}

/// ERR text for a well-formed frame the server has no use for at this
/// point of the conversation.
const UNEXPECTED_FRAME: &str = "unexpected frame: HELLO is sent once, as the first frame, and \
     only PING, REGISTER, ASSIGN and CREDIT may follow it";

/// One client connection's side of the conversation.
struct Conn {
    /// The identity of this connection's scheduler entry; cleared when
    /// the connection ends, a rejoin evicts it or its tenant fails.
    alive: Arc<AtomicBool>,
    gate: Arc<CreditGate>,
    outbox: Sender<Out>,
    /// REGISTER's tenant name; `None` for an implicit tenant.
    name: Option<String>,
    weight: u32,
    /// A REGISTER or an ASSIGN came: REGISTER may not follow.
    opened: bool,
    /// The current assignment's books.
    books: Arc<Books>,
}

impl Conn {
    /// Act on one inbox entry; false ends the conversation.
    fn handle(&mut self, shared: &Shared, writer: &mut TcpStream, out: Out) -> bool {
        let sent = match out {
            Out::Request(Frame::Ping { t0, seq }) => write_frame(writer, &Frame::pong(t0, seq)),
            Out::Request(Frame::Register {
                tenant,
                weight,
                shards,
            }) if !self.opened => {
                self.opened = true;
                self.name = Some(tenant.clone());
                self.weight = weight.max(1);
                let admitted = self.admit(shared, &mut shared.sched.lock().unwrap(), shards);
                let Err(reason) = admitted else {
                    let quota = shared.config.policy.shard_quota;
                    return write_frame(writer, &Frame::Admit { tenant, quota }).is_ok();
                };
                let _ = write_frame(writer, &Frame::Reject { tenant, reason });
                return false;
            }
            Out::Request(Frame::Assign {
                epoch_seed,
                credits,
                shards,
                flags,
                ..
            }) => {
                self.opened = true;
                let Err(message) = self.assign(shared, epoch_seed, shards, flags) else {
                    self.gate.add(u64::from(credits.max(1)));
                    return true;
                };
                let _ = write_frame(writer, &Frame::Err { message });
                return false;
            }
            // A second HELLO or REGISTER, or a frame only a server sends.
            Out::Request(_) => {
                let _ = reject(writer, UNEXPECTED_FRAME);
                return false;
            }
            Out::Hangup => return false,
            Out::Frame(frame) => {
                let fatal = matches!(frame, Frame::Err { .. });
                return write_frame(writer, &frame).is_ok() && !fatal;
            }
            Out::Batch(index, batch) => return self.send_batch(shared, writer, index, batch),
            Out::Eof(shard) => {
                let sent = write_frame(writer, &Frame::Eof { shard });
                // Delivered: the shard's in-flight slot is free.
                if let Some(t) = shared.sched.lock().unwrap().find(&self.alive) {
                    t.inflight = t.inflight.saturating_sub(1);
                }
                shared.wake_all();
                sent
            }
            Out::Finish(books) => match books.seal() {
                Some(entry) => write_frame(
                    writer,
                    &Frame::Stats {
                        entry: Box::new(entry),
                    },
                ),
                None => return true,
            },
        };
        sent.is_ok()
    }

    /// Admission: the verdict on this connection's tenant declaring
    /// `declared` shards, and on a pass its scheduler entry. A
    /// same-name entry is a *rejoin* (the chaos path: a client
    /// reconnecting after a cut): the stale entry is evicted — latest
    /// wins — rather than rejected, so a half-dead connection cannot
    /// lock its own tenant out. An implicit tenant matches no one.
    fn admit(&self, shared: &Shared, sched: &mut Sched, declared: u32) -> Result<(), String> {
        if let Some(name) = &self.name {
            for stale in sched
                .tenants
                .iter()
                .filter(|t| t.name.as_ref() == Some(name))
            {
                stale.alive.store(false, Ordering::Release);
                stale.gate.close();
            }
        }
        sched.prune(&shared.tenants);
        let policy = &shared.config.policy;
        if declared > policy.shard_quota {
            shared.tenants.rejected();
            return Err(format!(
                "{declared} shards over quota {}",
                policy.shard_quota
            ));
        }
        if sched.active_jobs() >= policy.max_jobs {
            shared.tenants.rejected();
            return Err(format!("max concurrent jobs ({}) reached", policy.max_jobs));
        }
        // Admitted: the tenant occupies a job slot from this moment —
        // a client that registers and stalls before ASSIGN still counts
        // against `max_jobs` (and is reaped when it hangs up).
        sched.tenants.push(Tenant {
            name: self.name.clone(),
            weight: self.weight,
            assigned: false,
            queue: VecDeque::new(),
            inflight: 0,
            deficit: 0,
            requeues: 0,
            shards_total: 0,
            shards_done: 0,
            books: Arc::clone(&self.books),
            outbox: self.outbox.clone(),
            gate: Arc::clone(&self.gate),
            alive: Arc::clone(&self.alive),
        });
        if let Some(name) = &self.name {
            shared
                .tenants
                .admitted(name, self.weight, u64::from(declared));
        }
        Ok(())
    }

    /// Queue an ASSIGN's shards on this connection's tenant, admitting
    /// it first when it has no entry: an implicit tenant, or one whose
    /// last assignment is delivered. The ERR text on refusal.
    fn assign(
        &mut self,
        shared: &Shared,
        epoch_seed: u64,
        shards: Vec<String>,
        flags: u8,
    ) -> Result<(), String> {
        let quota = shared.config.policy.shard_quota;
        if shards.len() > quota as usize {
            let count = shards.len();
            return Err(format!(
                "assignment of {count} shards exceeds quota {quota}"
            ));
        }
        if !self.alive.load(Ordering::Acquire) {
            return Err("the tenant rejoined on another connection or failed".into());
        }
        let rec = match &shared.source {
            Source::Local(local) => local.recorder(epoch_seed),
            Source::Relay(_) => EpochRecorder::noop(),
        };
        self.books = Arc::new(Books::new(rec, flags & ASSIGN_WANT_STATS != 0));
        let count = shards.len();
        let mut sched = shared.sched.lock().unwrap();
        if sched.find(&self.alive).is_none() {
            self.admit(shared, &mut sched, count as u32)?;
        }
        let t = sched.find(&self.alive).expect("admitted above");
        t.assigned = true;
        t.queue
            .extend(shards.into_iter().enumerate().map(|(index, shard)| Task {
                shard,
                index: index as u32,
                epoch_seed,
            }));
        t.shards_total += count;
        t.books = Arc::clone(&self.books);
        drop(sched);
        if count == 0 {
            let _ = self.outbox.send(Out::Finish(Arc::clone(&self.books)));
        }
        shared.wake_all();
        Ok(())
    }

    /// Send one BATCH2 as the client's shard `index`: take a credit
    /// (queue-wait), sleep a local source's pace (produce), then
    /// (hand-off) gather-write uncompressed local samples from where
    /// they lie, or encode compressed ones into a block and forward it
    /// as a relayed block is forwarded. False when the client is gone or
    /// the kill switch fired.
    fn send_batch(
        &self,
        shared: &Shared,
        writer: &mut TcpStream,
        index: u32,
        batch: Pending,
    ) -> bool {
        let (books, rec) = (&self.books, &self.books.rec);
        let t_gate = rec.begin();
        let Some(stall_ns) = self.gate.take(&shared.progress) else {
            return false; // gate closed: the client is gone
        };
        books.add(|e| e.serve.credit_wait_ns += stall_ns);
        if let Some(t0) = t_gate {
            rec.phase_done(0, PHASE_QUEUE_WAIT, t0);
        }
        let (pace, kill_after) = match &shared.source {
            Source::Local(local) => (local.config.batch_pace, local.config.fail_after_batches),
            Source::Relay(_) => (Duration::ZERO, None),
        };
        if !pace.is_zero() {
            let t_pace = Instant::now();
            std::thread::sleep(pace);
            let ns = t_pace.elapsed().as_nanos() as u64;
            books.add(|e| e.serve.produce_ns += ns);
            shared.progress.produce_time(ns);
        }
        let t_send = rec.begin();
        let (sent, count) = match batch {
            Pending::Local(samples, Codec::None) => {
                (write_batch(writer, index, &samples), samples.len() as u32)
            }
            Pending::Local(samples, codec) => {
                let batch = encode_batch(&samples, codec, &shared.pool, rec);
                forward(shared, writer, index, batch)
            }
            Pending::Relayed(batch) => forward(shared, writer, index, batch),
        };
        if let Some(t0) = t_send {
            rec.phase_done(0, PHASE_HANDOFF, t0);
        }
        let Ok(wire_bytes) = sent else {
            return false;
        };
        shared.progress.batch_sent(wire_bytes);
        books.add(|e| {
            e.epoch.samples += u64::from(count);
            e.serve.batches_sent += 1;
        });
        let total = shared.batches_sent.fetch_add(1, Ordering::AcqRel) + 1;
        if kill_after.is_some_and(|limit| total >= limit) {
            // Simulated crash: drop everything mid-epoch.
            shared.crash();
            return false;
        }
        true
    }
}

/// Address `batch` to the client's shard `index`, write it, and give its
/// buffer back to the pool: what was written, and the samples it held.
fn forward(
    shared: &Shared,
    writer: &mut TcpStream,
    index: u32,
    mut batch: Batch,
) -> (Result<u64, ServeError>, u32) {
    batch.readdress(index);
    let sent = batch.write_to(writer);
    shared.pool.put_bytes(batch.payload);
    (sent, batch.count)
}

/// What `next_task` hands a dispatcher.
struct Dispatch {
    task: Task,
    outbox: Sender<Out>,
    alive: Arc<AtomicBool>,
    books: Arc<Books>,
}

/// Pick the next shard for `dispatcher`: deficit round robin over
/// tenants, cache-affine shards first. Blocks until work exists or
/// the server stops.
fn next_task(shared: &Shared, dispatcher: usize) -> Option<Dispatch> {
    let mut sched = shared.sched.lock().unwrap();
    loop {
        if shared.stop.load(Ordering::Acquire) {
            return None;
        }
        sched.prune(&shared.tenants);
        let max_inflight = shared.config.max_inflight;
        let eligible = |t: &Tenant| t.dispatchable(max_inflight);
        if sched.tenants.iter().any(eligible) {
            sched.top_up(shared.config.quantum, max_inflight);
            // Prefer a tenant holding a shard affine to this dispatcher;
            // break ties (and the no-affinity case) by largest deficit,
            // then by round-robin order so equals alternate.
            let len = sched.tenants.len();
            let cursor = sched.cursor;
            let mut best: Option<(bool, i64, usize)> = None; // (affine, deficit, slot)
            for offset in 0..len {
                let slot = (cursor + offset) % len;
                let t = &sched.tenants[slot];
                if !eligible(t) || t.deficit <= 0 {
                    continue;
                }
                let affine = t
                    .queue
                    .iter()
                    .any(|task| sched.affinity.get(&task.shard) == Some(&dispatcher));
                let better = match &best {
                    None => true,
                    Some((b_affine, b_deficit, _)) => (affine, t.deficit) > (*b_affine, *b_deficit),
                };
                if better {
                    best = Some((affine, t.deficit, slot));
                }
            }
            if let Some((_, _, slot)) = best {
                sched.cursor = (slot + 1) % len;
                let affinity = &sched.affinity;
                let t = &sched.tenants[slot];
                let pick = t
                    .queue
                    .iter()
                    .position(|task| affinity.get(&task.shard) == Some(&dispatcher))
                    .unwrap_or(0);
                let t = &mut sched.tenants[slot];
                let task = t.queue.remove(pick).expect("picked index in bounds");
                t.inflight += 1;
                return Some(Dispatch {
                    task,
                    outbox: t.outbox.clone(),
                    alive: Arc::clone(&t.alive),
                    books: Arc::clone(&t.books),
                });
            }
        }
        let (guard, _) = shared
            .cv
            .wait_timeout(sched, Duration::from_millis(100))
            .unwrap();
        sched = guard;
    }
}

/// One dispatcher: pull tasks, have the source make their batches, and
/// record completions (affinity + DRR charge) or failures.
fn dispatcher_loop(shared: &Shared, dispatcher: usize) {
    let local = match &shared.source {
        Source::Local(local) => local,
        Source::Relay(backends) => return relay(shared, dispatcher, &backends[dispatcher]),
    };
    while let Some(dispatch) = next_task(shared, dispatcher) {
        let t_produce = Instant::now();
        let task = &dispatch.task;
        let made = local.produce(&task.shard, task.epoch_seed, &dispatch.books);
        produced(shared, &dispatch, t_produce);
        match made {
            Ok(batches) => complete_task(shared, dispatcher, &dispatch, batches),
            Err(fatal) => fail_task(shared, &dispatch, fatal.to_string()),
        }
    }
}

/// `fleetd`'s failover policy for its backend links: exponential backoff
/// from 50 ms, capped at 1 s and jittered, and no write-off — the relay
/// never asks, and a backend that comes back is used again.
pub(crate) const RELAY_RECONNECT: RetryPolicy = RetryPolicy {
    max_attempts: u32::MAX,
    base_backoff: Duration::from_millis(50),
    max_backoff: Duration::from_secs(1),
    jitter: true,
    deadline: None,
};

/// The relay source's dispatcher: run each task's shard on the backend
/// at `addr`, one ASSIGN per shard over one [`Link`] kept across them,
/// and hand the batches on at the shard's EOF. The link re-credits the
/// backend as each batch arrives, a standing window: client backpressure
/// is absorbed by the tenant's outbox and gate, never by stalling the
/// shared backend. A lost shard goes back on its tenant's queue, and the
/// dispatcher backs off before it asks for more work, so a dead backend
/// does not spin through the queue.
fn relay(shared: &Shared, dispatcher: usize, addr: &str) {
    let config = &shared.config;
    let dial = Dial {
        connect_timeout: config.connect_timeout,
        read_timeout: config.read_timeout,
        credits: config.backend_credits,
        trace: None,
        tenant: None,
    };
    let mut link = Link::new(addr, &shared.conns, dial);
    let mut failover = Failover::new(RELAY_RECONNECT);
    while let Some(dispatch) = next_task(shared, dispatcher) {
        let t_produce = Instant::now();
        let mut relayed = Relayed {
            pool: &shared.pool,
            batches: Vec::new(),
        };
        let (shard, seed) = (dispatch.task.shard.clone(), dispatch.task.epoch_seed);
        let outcome = link.assign(seed, vec![shard], &mut relayed);
        produced(shared, &dispatch, t_produce);
        // A shard the backend never started costs nothing: a refused
        // connection is this backend's problem, not the tenant's. A
        // shard that died mid-stream, or that the backend failed with an
        // ERR, consumed backend time under this tenant's name — that is
        // the budget the admission policy meters.
        let (started, life) = match outcome {
            Outcome::Done => {
                failover.delivered();
                let batches = relayed.batches.into_iter().map(Pending::Relayed);
                complete_task(shared, dispatcher, &dispatch, batches.collect());
                continue;
            }
            Outcome::Stopped => return,
            Outcome::Lost { started, life } => (started, life),
            Outcome::Fatal { started, .. } => (started, false),
        };
        requeue_task(shared, &dispatch, started);
        failover.failed(life);
        if let Some(wait) = failover.backoff(seed ^ fnv64(addr)) {
            pause(&shared.sched, &shared.cv, &shared.stop, wait);
        }
    }
}

/// Book a task's produce time, from `since`.
fn produced(shared: &Shared, dispatch: &Dispatch, since: Instant) {
    let produce_ns = since.elapsed().as_nanos() as u64;
    dispatch.books.add(|e| e.serve.produce_ns += produce_ns);
    shared.progress.produce_time(produce_ns);
}

/// A shard's batch as its source hands it over.
pub(crate) enum Pending {
    /// Relayed from a backend: checked, with its block CRC.
    Relayed(Batch),
    /// Made here: samples and the wire codec the writer encodes them
    /// with, just before it sends them, so the block goes out while it
    /// is in cache.
    Local(Vec<Sample>, Codec),
}

impl Pending {
    /// Samples in the batch (the DRR charge), and their payload bytes.
    fn size(&self) -> (u64, u64) {
        match self {
            Pending::Relayed(batch) => (u64::from(batch.count), batch.block().len() as u64),
            Pending::Local(samples, _) => {
                let bytes = samples.iter().map(Sample::nbytes).sum::<usize>();
                (samples.len() as u64, bytes as u64)
            }
        }
    }
}

/// A BATCH2 on its way to a client: the block, in a pooled buffer, with
/// its CRC kept, so that once the client's head is written the frame
/// CRC follows by [`Crc32::combine`] with no pass over the block.
pub(crate) struct Batch {
    /// The block is `payload[at..]`: a relayed payload keeps the
    /// backend's head in front of it.
    payload: Vec<u8>,
    at: usize,
    /// Samples in the block: the DRR charge.
    count: u32,
    codec: u8,
    block_crc: u32,
    /// The client's head and the frame CRC, once addressed.
    head: [u8; BATCH2_HEAD],
    crc: u32,
}

impl Batch {
    /// A block a local source made, of `count` samples under wire codec
    /// `codec`, whose CRC is `block_crc`.
    pub(crate) fn local(block: Vec<u8>, count: u32, codec: u8, block_crc: u32) -> Batch {
        Batch {
            payload: block,
            at: 0,
            count,
            codec,
            block_crc,
            head: [0; BATCH2_HEAD],
            crc: 0,
        }
    }

    fn block(&self) -> &[u8] {
        &self.payload[self.at..]
    }

    /// Address the batch to the client's shard `index` — a BATCH2 from
    /// this server carries `span_id` and `t_send` 0 — and derive the
    /// frame CRC.
    fn readdress(&mut self, index: u32) {
        let frame = Frame::Batch2 {
            shard: index,
            count: self.count,
            codec: self.codec,
            span_id: 0,
            t_send: 0,
            block: Vec::new(),
        };
        let mut head = Vec::with_capacity(BATCH2_HEAD);
        frame.encode_head(&mut head);
        self.head.copy_from_slice(&head);
        let block_len = self.block().len() as u64;
        self.crc = Crc32::combine(Crc32::checksum(&head), self.block_crc, block_len);
    }

    /// Send the frame as one record, gathered from where it lies.
    fn write_to(&self, writer: &mut impl Write) -> Result<u64, ServeError> {
        write_record(writer, &self.head, self.block(), self.crc)
    }
}

/// The relay's [`Sink`]: each backend BATCH2 is checked once and kept
/// as it lies in a buffer from the pool, with its block CRC. All of a
/// shard's batches or none go on, once the link reports the shard done:
/// the client's connection survives a backend death, so a requeued
/// shard is served again from scratch (bit-identically, thanks to
/// [`crate::shard_rng_seed`]) and anything already forwarded would have
/// doubled its samples.
struct Relayed<'a> {
    pool: &'a BufferPool,
    batches: Vec<Batch>,
}

impl Buffers for Relayed<'_> {
    fn take(&mut self) -> Vec<u8> {
        self.pool.get_bytes(0).0
    }

    fn give(&mut self, buffer: Vec<u8>) {
        self.pool.put_bytes(buffer);
    }
}

impl Sink for Relayed<'_> {
    /// The backend's shard index and trace context are its own;
    /// `complete_task` rewrites them for the client.
    fn batch(&mut self, head: Batch2Head, payload: Vec<u8>, stored: u32) -> Result<(), ServeError> {
        let block = &payload[BATCH2_HEAD..];
        let block_crc = Crc32::checksum(block);
        let head_crc = Crc32::checksum(&payload[..BATCH2_HEAD]);
        if Crc32::combine(head_crc, block_crc, block.len() as u64) != stored {
            self.pool.put_bytes(payload);
            return Err(ServeError::BadPayload);
        }
        self.batches.push(Batch {
            at: BATCH2_HEAD,
            ..Batch::local(payload, head.count, head.codec, block_crc)
        });
        Ok(())
    }
}

/// Record a completed shard (affinity, DRR charge, completion), then
/// hand it to the tenant's outbox, batches, EOF and — after its last
/// shard — the end of the assignment. The books are closed *before*
/// the frames are released: a client that has read its last EOF finds
/// its tenant entry already `done` with every shard counted.
fn complete_task(shared: &Shared, dispatcher: usize, dispatch: &Dispatch, batches: Vec<Pending>) {
    let mut sched = shared.sched.lock().unwrap();
    sched
        .affinity
        .insert(dispatch.task.shard.clone(), dispatcher);
    // Identity match, not name: a same-name rejoin starts a fresh
    // incarnation whose accounting a stale dispatch must not touch.
    let Some(t) = sched
        .find(&dispatch.alive)
        .filter(|t| t.alive.load(Ordering::Acquire))
    else {
        return;
    };
    let sizes: Vec<(u64, u64)> = batches.iter().map(Pending::size).collect();
    t.deficit -= sizes
        .iter()
        .map(|&(samples, _)| samples as i64)
        .sum::<i64>();
    t.shards_done += 1;
    // This shard still holds its slot, until its EOF is written.
    let finished = t.shards_done >= t.shards_total && t.queue.is_empty();
    if let Some(name) = &t.name {
        for (samples, bytes) in sizes {
            shared.tenants.delivered(name, samples, 1, bytes);
        }
        shared.tenants.shard_done(name);
        if finished {
            shared.tenants.finished(name);
        }
    }
    let index = dispatch.task.index;
    for batch in batches {
        let _ = dispatch.outbox.send(Out::Batch(index, batch));
    }
    let _ = dispatch.outbox.send(Out::Eof(index));
    if finished {
        let _ = dispatch
            .outbox
            .send(Out::Finish(Arc::clone(&dispatch.books)));
    }
}

/// Put a shard the relay lost back on its owner's queue and, when
/// `charged`, debit the owner's fault budget — failing the tenant if
/// the budget is gone. No other tenant's budget or credits are ever
/// touched.
///
/// `charged` is false for failures that never reached started work
/// (connect refused, dead handshake): those are fleet problems, not
/// the tenant's, and requeue for free so a down backend can't drain
/// every tenant's budget with connection errors.
fn requeue_task(shared: &Shared, dispatch: &Dispatch, charged: bool) {
    let mut sched = shared.sched.lock().unwrap();
    let Some(t) = sched.find(&dispatch.alive) else {
        return;
    };
    if charged {
        t.requeues += 1;
        if let Some(name) = &t.name {
            shared.tenants.requeued(name, 1);
        }
        let budget = shared.config.policy.max_requeues;
        if t.requeues > budget {
            let name = t.name.clone().unwrap_or_default();
            drop(sched);
            let message = format!("tenant '{name}' exhausted its fault budget ({budget} requeues)");
            return fail_task(shared, dispatch, message);
        }
    }
    t.inflight = t.inflight.saturating_sub(1);
    // Front of the queue: the shard was next in line when it failed;
    // keep its delivery order close to the original.
    t.queue.push_front(dispatch.task.clone());
    drop(sched);
    shared.wake_all();
}

/// Fail the dispatch's tenant with an ERR frame carrying `message`.
fn fail_task(shared: &Shared, dispatch: &Dispatch, message: String) {
    let mut sched = shared.sched.lock().unwrap();
    if let Some(t) = sched.find(&dispatch.alive) {
        t.inflight = t.inflight.saturating_sub(1);
        // The gate stays open: the conversation ends after the ERR frame
        // is on the wire. Closing it here would end it at the first
        // BATCH2 still queued ahead of the ERR, and the client would
        // wait out its read timeout instead of hearing why it failed.
        let _ = t.outbox.send(Out::Frame(Frame::Err { message }));
        t.alive.store(false, Ordering::Release);
        if let Some(name) = &t.name {
            shared.tenants.failed(name);
        }
    }
    drop(sched);
    shared.wake_all();
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::link::{receive, Incoming};

    fn tenant(name: &str, weight: u32, queued: usize, inflight: usize, deficit: i64) -> Tenant {
        Tenant {
            name: Some(name.into()),
            weight,
            assigned: true,
            queue: (0..queued)
                .map(|i| Task {
                    shard: format!("{name}-{i}"),
                    index: i as u32,
                    epoch_seed: 0,
                })
                .collect(),
            inflight,
            deficit,
            requeues: 0,
            shards_total: queued + inflight,
            shards_done: 0,
            books: Arc::new(Books::new(EpochRecorder::noop(), false)),
            outbox: mpsc::channel().0,
            gate: Arc::new(CreditGate::new()),
            alive: Arc::new(AtomicBool::new(true)),
        }
    }

    fn deficits(sched: &Sched) -> Vec<i64> {
        sched.tenants.iter().map(|t| t.deficit).collect()
    }

    #[test]
    fn top_up_hands_out_rounds_until_a_shard_can_go() {
        // `b` was charged three 64-sample shards against quanta of 32
        // and is the only tenant a dispatcher may serve: `a` sits at the
        // in-flight cap. One call must leave `b` dispatchable — a single
        // round would have sent the dispatcher to sleep on its condvar.
        let mut sched = Sched::default();
        sched.tenants.push(tenant("a", 2, 3, 2, 0));
        sched.tenants.push(tenant("b", 1, 2, 0, -96));
        sched.top_up(32, 2);
        assert_eq!(deficits(&sched), [4 * 64, 32]);
        // Somebody can go already: nothing is handed out.
        sched.top_up(32, 2);
        assert_eq!(deficits(&sched), [4 * 64, 32]);
    }

    #[test]
    fn ended_connections_leave_the_registry() {
        // A daemon whose backend is never dialled: no client gets as far
        // as ASSIGN. The worker's side of the shared server is checked
        // by the test of the same name in `serve`.
        let daemon = FleetDaemon::spawn(
            "127.0.0.1:0",
            &["127.0.0.1:9".to_string()],
            FleetDaemonConfig::default(),
            None,
        )
        .unwrap();
        for _ in 0..200 {
            let mut stream = TcpStream::connect(daemon.server.addr()).unwrap();
            let mut reader = stream.try_clone().unwrap();
            handshake(&mut stream, &mut reader, 0).unwrap();
        }
        // Each connection thread deregisters as it ends; the wait is on
        // that signal, bounded only so a leak fails instead of hanging.
        let left = daemon.server.wait_conns_empty(Duration::from_secs(60));
        assert_eq!(left, 0);
    }

    /// BATCH2 frames as a backend sends them: shard 5 with trace
    /// context, an uncompressed block of real samples, the same block
    /// gzipped, an empty block, and 16 × 37 632-byte image tensors.
    fn backend_batches() -> Vec<Frame> {
        use crate::sample::Sample;
        use presto_codecs::{Codec, Level};
        use presto_tensor::{RecordWriter, Tensor};
        let block = |samples: &[Sample]| {
            let mut block = RecordWriter::new();
            for sample in samples {
                block.write_pieces(sample.nbytes(), |sink| sample.encode_to(sink));
            }
            block.finish()
        };
        let batch = |count: usize, codec: Codec, block: Vec<u8>| Frame::Batch2 {
            shard: 5,
            count: count as u32,
            codec: crate::serve::wire_codec_tag(codec),
            span_id: 77,
            t_send: 999,
            block,
        };
        let small: Vec<Sample> = (0..3u64)
            .map(|key| Sample::from_bytes(key, vec![key as u8; 40 + key as usize]))
            .collect();
        let images: Vec<Sample> = (0..16u64)
            .map(|key| {
                let pixels = (0..37_632u64).map(|i| (i * 31 + key) as u8).collect();
                let tensor = Tensor::from_vec(vec![112, 112, 3], pixels).unwrap();
                Sample::from_tensors(key, vec![tensor])
            })
            .collect();
        let gzip = Codec::Gzip(Level::FAST);
        vec![
            batch(small.len(), Codec::None, block(&small)),
            batch(small.len(), gzip, gzip.compress(&block(&small))),
            batch(0, Codec::None, Vec::new()),
            batch(images.len(), Codec::None, block(&images)),
        ]
    }

    fn wire(frame: &Frame) -> Vec<u8> {
        let mut wire = Vec::new();
        write_frame(&mut wire, frame).unwrap();
        wire
    }

    /// The relay's read of one backend frame: the one frame read of a
    /// link, and a BATCH2 through the relay's sink.
    fn relay_read(wire: &[u8], pool: &BufferPool) -> Result<Option<Batch>, ServeError> {
        let mut relayed = Relayed {
            pool,
            batches: Vec::new(),
        };
        match receive(&mut &wire[..], &mut relayed)? {
            Some(Incoming::Batch(head, payload, stored)) => {
                relayed.batch(head, payload, stored)?;
                Ok(relayed.batches.pop())
            }
            _ => Ok(None),
        }
    }

    /// A backend BATCH2 through the relay's read, re-address and write
    /// puts on the client's wire exactly what `write_frame` makes of
    /// the frame with the client's shard index and trace fields 0, the
    /// block untouched — and so does the same block as a local source
    /// hands it over.
    #[test]
    fn relayed_batches_put_the_rebuilt_frames_bytes_on_the_wire() {
        let pool = BufferPool::with_shelf_cap(4);
        for frame in backend_batches() {
            let Some(mut batch) = relay_read(&wire(&frame), &pool).unwrap() else {
                panic!("a BATCH2 is relayed opaque: {frame:?}");
            };
            batch.readdress(2);
            let mut out = Vec::new();
            let sent = batch.write_to(&mut out).unwrap();
            let Frame::Batch2 {
                count,
                codec,
                block,
                ..
            } = frame
            else {
                unreachable!("backend_batches are BATCH2s")
            };
            let mut local = Batch::local(block.clone(), count, codec, Crc32::checksum(&block));
            let rebuilt = Frame::Batch2 {
                shard: 2,
                count,
                codec,
                span_id: 0,
                t_send: 0,
                block,
            };
            assert!(out == wire(&rebuilt), "count {count}, codec {codec}");
            assert_eq!(sent, out.len() as u64);
            local.readdress(2);
            let mut out = Vec::new();
            local.write_to(&mut out).unwrap();
            assert!(out == wire(&rebuilt), "local: count {count}, codec {codec}");
        }
    }

    /// Every cut and every single-bit flip of a backend frame is a typed
    /// error on the relay's read path, which hands nothing on and puts
    /// its buffer back.
    #[test]
    fn the_relay_read_answers_cuts_and_flips_with_typed_errors() {
        let pool = BufferPool::with_shelf_cap(4);
        // The image batch is left out: 4.8M flips of it say nothing new.
        let mut frames = backend_batches();
        frames.truncate(3);
        frames.push(Frame::Eof { shard: 5 });
        for frame in &frames {
            let wire = wire(frame);
            assert!(matches!(relay_read(&wire[..0], &pool), Ok(None)));
            for cut in 1..wire.len() {
                let got = relay_read(&wire[..cut], &pool);
                assert!(
                    matches!(got, Err(ServeError::Truncated)),
                    "{frame:?} cut at {cut}"
                );
            }
            for bit in 0..wire.len() * 8 {
                let mut flipped = wire.clone();
                flipped[bit / 8] ^= 1 << (bit % 8);
                let got = relay_read(&flipped, &pool);
                assert!(
                    matches!(got, Err(ServeError::BadHeader | ServeError::BadPayload)),
                    "{frame:?} bit {bit}"
                );
            }
        }
        let (buffer, reused) = pool.get_bytes(0);
        assert!(
            reused && buffer.capacity() > 0,
            "failed reads return their buffer"
        );
    }

    #[test]
    fn top_up_leaves_a_scheduler_with_nothing_to_dispatch_alone() {
        let mut sched = Sched::default();
        sched.top_up(32, 2);
        sched.tenants.push(tenant("capped", 1, 4, 2, -10));
        sched.tenants.push(tenant("drained", 1, 0, 1, -10));
        sched.tenants.push(tenant("gone", 1, 4, 0, -10));
        sched.tenants[2].alive.store(false, Ordering::Release);
        sched.top_up(32, 2);
        assert_eq!(deficits(&sched), [-10, -10, -10]);
    }
}
