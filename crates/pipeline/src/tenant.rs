//! Multi-tenant preprocessing fleet: one daemon, many training jobs.
//!
//! The serve layer ([`crate::serve`]) runs one job per epoch: a
//! `train-client` talks straight to its workers. That leaves a fleet
//! idle whenever its one job stalls, which is exactly the economics
//! the disaggregation papers warn about — preprocessing capacity only
//! pays for itself when it is *shared*. This module promotes the
//! worker pool into a shared service:
//!
//! ```text
//! train-client ──┐                       ┌── serve-worker
//! train-client ──┼── fleetd (scheduler) ──┤
//! train-client ──┘                       └── serve-worker
//! ```
//!
//! [`FleetDaemon`] speaks the same wire protocol on both sides.
//! Clients REGISTER a tenant (name + DRR weight), pass the
//! **admission controller** (max concurrent jobs, per-tenant shard
//! quota), then ASSIGN their shards exactly as they would against a
//! plain worker. The daemon splits every assignment into shard tasks
//! and schedules them over its backends:
//!
//! - **Deficit round robin over delivered samples.** Each tenant
//!   accrues `quantum × weight` deficit when the scheduler tops up and
//!   is charged the samples its completed shards actually delivered,
//!   so concurrent tenants see sample throughput proportional to their
//!   weights while they compete (the fairness the CI gate measures).
//! - **Cache-affinity routing.** A completed shard remembers which
//!   backend served it; when that backend asks for work again, shards
//!   affine to it are preferred — its [`BufferPool`](crate::BufferPool)
//!   bundles and decoded artifacts are already warm. Idle backends
//!   asking for work *is* the least-loaded fallback: whoever is free
//!   pulls next. Placement is a pure performance choice — per-shard
//!   RNG seeding ([`crate::shard_rng_seed`]) keeps any placement
//!   bit-identical per tenant.
//! - **Per-tenant isolation.** Every tenant has its own outbox,
//!   credit gate and fault budget. A stalled client blocks only its
//!   own writer thread; a backend dying mid-shard requeues the shard
//!   against the *owning* tenant's budget ([`AdmissionPolicy::
//!   max_requeues`]); one tenant exhausting its budget gets an ERR
//!   frame while everyone else keeps streaming.
//!
//! The relay forwards verified payloads opaque, never decoding them. Each
//! backend BATCH2 is read into a pooled buffer and checked once, as
//! `combine(crc(head), crc(block), len(block))`; the block's CRC is
//! kept. When the shard's EOF arrives, the head is rewritten in place
//! for the client (its shard index, trace fields cleared), the frame
//! CRC re-derived from the kept block CRC by
//! [`Crc32::combine`](presto_codecs::checksum::Crc32::combine), and
//! the writer thread sends `[record header, payload, CRC]` by
//! gather-write and hands the buffer back to the pool.
//!
//! Accounting lands in the attached
//! [`TenantsProgress`](presto_telemetry::TenantsProgress) registry:
//! `/tenants.json` (the `presto.tenants.v1` document) and per-tenant
//! labeled `/metrics` series.

use crate::dataplane::BufferPool;
use crate::error::PipelineError;
use crate::serve::{
    accept_until, check_payload, handshake, read_frame, read_unchecked, reject, wake_acceptor,
    write_frame, write_record, Batch2Head, Conns, CreditGate, Frame, ServeError, ASSIGN_WANT_STATS,
    BATCH2_HEAD, PROTOCOL_VERSION, UNEXPECTED_FRAME,
};
use presto_codecs::checksum::Crc32;
use presto_telemetry::{FleetWorkerEntry, ServeProgress, Telemetry, TenantsProgress};
use std::collections::{HashMap, VecDeque};
use std::io::{BufReader, Read, Write};
use std::net::{SocketAddr, TcpListener, TcpStream, ToSocketAddrs};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::mpsc::{self, Sender};
use std::sync::{Arc, Condvar, Mutex};
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
    /// Shards of one tenant in flight at once. 1 serializes a tenant
    /// (strictest fairness); higher overlaps its shards across
    /// backends.
    pub max_inflight: usize,
    /// Backend connect timeout.
    pub connect_timeout: Duration,
    /// Socket read timeout on both client and backend connections —
    /// a peer silent this long is treated as dead.
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
    /// Index into the owning client's ASSIGN shard list — BATCH2/EOF
    /// frames relayed to the client are rewritten to this index.
    index: u32,
}

/// Frames queued for one tenant's writer thread, plus the control
/// message that ends the stream.
enum Out {
    Frame(Frame),
    /// A relayed BATCH2, already addressed to the client.
    Batch(RelayedBatch),
    /// All shards delivered: write the final STATS (if the ASSIGN
    /// asked) and let the client close.
    Finish,
}

/// One admitted tenant's scheduling state.
struct Tenant {
    name: String,
    weight: u32,
    epoch_seed: u64,
    /// The ASSIGN arrived and filled `queue`/`shards_total`. Until
    /// then the tenant only occupies an admission slot.
    assigned: bool,
    /// Shards not yet handed to a dispatcher.
    queue: VecDeque<Task>,
    /// Shards currently on a backend.
    inflight: usize,
    /// DRR deficit, in samples. Eligible to dispatch while > 0.
    deficit: i64,
    /// Fault-budget consumption (requeued shards).
    requeues: u64,
    shards_total: usize,
    shards_done: usize,
    /// Samples delivered (for the synthesized STATS frame).
    samples: u64,
    batches: u64,
    started: Instant,
    /// The client asked for a STATS frame after the last EOF.
    want_stats: bool,
    /// Writer-thread inbox. Dispatchers send relayed frames here and
    /// never block on client I/O.
    outbox: Sender<Out>,
    /// Client credits; the writer blocks here before each BATCH2.
    gate: Arc<CreditGate>,
    /// Cleared when the client connection dies or the tenant fails;
    /// dispatchers drop the tenant's work on the next visit.
    alive: Arc<AtomicBool>,
}

impl Tenant {
    /// Has a shard a dispatcher may take now (deficit aside).
    fn dispatchable(&self, max_inflight: usize) -> bool {
        self.alive.load(Ordering::Acquire) && !self.queue.is_empty() && self.inflight < max_inflight
    }
}

/// Scheduler state shared by client connections and dispatchers.
#[derive(Default)]
struct Sched {
    tenants: Vec<Tenant>,
    /// shard name → backend index that last completed it. Cache
    /// affinity only; correctness never depends on placement.
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

    /// Drop tenants whose client vanished or whose budget failed them.
    fn prune(&mut self, tenants: &TenantsProgress) {
        self.tenants.retain(|t| {
            let alive = t.alive.load(Ordering::Acquire);
            let done = t.assigned
                && t.shards_done >= t.shards_total
                && t.queue.is_empty()
                && t.inflight == 0;
            if !alive && !done {
                // Client gone mid-epoch: record the failure once.
                tenants.failed(&t.name);
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

struct DaemonShared {
    backends: Vec<String>,
    config: FleetDaemonConfig,
    sched: Mutex<Sched>,
    cv: Condvar,
    stop: AtomicBool,
    tenants: Arc<TenantsProgress>,
    /// Dummy progress sink for the client-side credit gates (fleetd's
    /// own serve gauges stay untouched — it is a relay, not a worker).
    gate_progress: ServeProgress,
    /// Open client connections and their credit gates, for shutdown.
    conns: Conns,
    /// Buffers relayed BATCH2 payloads are read into; the tenant
    /// writer threads hand them back once written.
    relay_pool: BufferPool,
}

impl DaemonShared {
    fn wake_all(&self) {
        self.cv.notify_all();
    }
}

/// The running daemon: an accept loop for clients plus one dispatcher
/// thread per backend worker. Dropping the handle stops everything.
pub struct FleetDaemon {
    addr: SocketAddr,
    shared: Arc<DaemonShared>,
    accept: Option<JoinHandle<()>>,
    dispatchers: Vec<JoinHandle<()>>,
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
        let listener = TcpListener::bind(bind)
            .map_err(|e| PipelineError::Other(format!("fleetd bind {bind}: {e}")))?;
        let addr = listener
            .local_addr()
            .map_err(|e| PipelineError::Other(format!("fleetd local_addr: {e}")))?;
        let tenants = telemetry
            .as_ref()
            .map(|t| t.tenants())
            .unwrap_or_else(|| Arc::new(TenantsProgress::default()));
        tenants.begin(
            config.policy.max_jobs as u64,
            u64::from(config.policy.shard_quota),
        );
        let shared = Arc::new(DaemonShared {
            backends: backends.to_vec(),
            sched: Mutex::new(Sched::default()),
            cv: Condvar::new(),
            stop: AtomicBool::new(false),
            tenants,
            gate_progress: ServeProgress::default(),
            conns: Conns::default(),
            // A backend has up to its credit window of batches in
            // flight toward the relay; idle buffers beyond that many
            // per backend are freed.
            relay_pool: BufferPool::with_shelf_cap(
                backends.len() * config.backend_credits.max(1) as usize,
            ),
            config,
        });
        let accept_shared = Arc::clone(&shared);
        let accept = std::thread::spawn(move || {
            accept_until(listener, &accept_shared.stop, |stream| {
                let conn_shared = Arc::clone(&accept_shared);
                std::thread::spawn(move || handle_tenant_client(&conn_shared, stream));
            });
        });
        let dispatchers = (0..shared.backends.len())
            .map(|backend| {
                let shared = Arc::clone(&shared);
                std::thread::spawn(move || dispatcher_loop(&shared, backend))
            })
            .collect();
        Ok(FleetDaemon {
            addr,
            shared,
            accept: Some(accept),
            dispatchers,
        })
    }

    /// The bound client-facing address (port `0` resolved).
    pub fn addr(&self) -> SocketAddr {
        self.addr
    }

    /// Stop accepting, wake every dispatcher, and sever client
    /// connections. Idempotent.
    pub fn stop(&self) {
        if self.shared.stop.swap(true, Ordering::AcqRel) {
            return;
        }
        self.shared.wake_all();
        self.shared.conns.sever();
        wake_acceptor(self.addr);
    }
}

impl Drop for FleetDaemon {
    fn drop(&mut self) {
        self.stop();
        if let Some(accept) = self.accept.take() {
            let _ = accept.join();
        }
        for handle in self.dispatchers.drain(..) {
            let _ = handle.join();
        }
    }
}

/// Serve one client connection, then close it.
fn handle_tenant_client(shared: &Arc<DaemonShared>, stream: TcpStream) {
    let _ = stream.set_nodelay(true);
    let _ = stream.set_read_timeout(Some(shared.config.read_timeout));
    // The client's credit gate, registered with its socket so a stop
    // severs both; both leave the registry when this function returns.
    let gate = Arc::new(CreditGate::new());
    let Some(_entry) = shared.conns.enter(&stream, &gate) else {
        return;
    };
    if let Ok(writer) = stream.try_clone() {
        let mut reader = BufReader::new(stream);
        tenant_conversation(shared, &mut reader, writer, gate);
    }
}

/// The client's next frame that is not a clock probe (those are
/// answered here, before and after admission alike). `None` once the
/// connection is gone.
fn next_request(reader: &mut BufReader<TcpStream>, writer: &mut TcpStream) -> Option<Frame> {
    loop {
        match read_frame(reader) {
            Ok(Some(Frame::Ping { t0, seq })) => {
                write_frame(writer, &Frame::pong(t0, seq)).ok()?;
            }
            Ok(Some(frame)) => return Some(frame),
            _ => return None,
        }
    }
}

/// The conversation with one client: HELLO → REGISTER (admission) →
/// ASSIGN (enqueue shard tasks) → relay CREDIT/PING until the epoch
/// finishes or either side dies.
fn tenant_conversation(
    shared: &Arc<DaemonShared>,
    mut reader: &mut BufReader<TcpStream>,
    mut writer: TcpStream,
    gate: Arc<CreditGate>,
) {
    if handshake(&mut writer, &mut reader, 0).is_err() {
        return;
    }
    let (name, weight, declared) = match next_request(reader, &mut writer) {
        Some(Frame::Register {
            tenant,
            weight,
            shards,
        }) => (tenant, weight.max(1), shards),
        Some(_) => {
            let _ = reject(&mut writer, UNEXPECTED_FRAME);
            return;
        }
        None => return,
    };
    // Admission. Same-name re-registration is a *rejoin* (the chaos
    // path: a client reconnecting after a cut): the stale entry is
    // evicted — latest wins — rather than rejected, so a half-dead
    // connection cannot lock its own tenant out.
    {
        let mut sched = shared.sched.lock().unwrap();
        sched.prune(&shared.tenants);
        for stale in sched.tenants.iter().filter(|t| t.name == name) {
            stale.alive.store(false, Ordering::Release);
            stale.gate.close();
        }
        sched.prune(&shared.tenants);
        let verdict = if declared > shared.config.policy.shard_quota {
            Err(format!(
                "{declared} shards over quota {}",
                shared.config.policy.shard_quota
            ))
        } else if sched.active_jobs() >= shared.config.policy.max_jobs {
            Err(format!(
                "max concurrent jobs ({}) reached",
                shared.config.policy.max_jobs
            ))
        } else {
            Ok(())
        };
        match verdict {
            Ok(()) => {}
            Err(reason) => {
                shared.tenants.rejected();
                drop(sched);
                let _ = write_frame(
                    &mut writer,
                    &Frame::Reject {
                        tenant: name,
                        reason,
                    },
                );
                return;
            }
        }
        // Admitted: the tenant occupies a job slot from this moment —
        // a client that registers and stalls before ASSIGN still
        // counts against `max_jobs` (and is reaped when it hangs up).
        let (out_tx, out_rx) = mpsc::channel::<Out>();
        let alive = Arc::new(AtomicBool::new(true));
        sched.tenants.push(Tenant {
            name: name.clone(),
            weight,
            epoch_seed: 0,
            assigned: false,
            queue: VecDeque::new(),
            inflight: 0,
            deficit: 0,
            requeues: 0,
            shards_total: 0,
            shards_done: 0,
            samples: 0,
            batches: 0,
            started: Instant::now(),
            want_stats: false,
            outbox: out_tx,
            gate: Arc::clone(&gate),
            alive: Arc::clone(&alive),
        });
        shared.tenants.admitted(&name, weight, u64::from(declared));
        drop(sched);
        if write_frame(
            &mut writer,
            &Frame::Admit {
                tenant: name.clone(),
                quota: shared.config.policy.shard_quota,
            },
        )
        .is_ok()
        {
            serve_admitted(shared, reader, writer, out_rx, &gate, &alive);
        }
        // Unified cleanup: every exit after admission lands here, so a
        // slot can never leak (ADMIT write failure, death before
        // ASSIGN, normal epoch end — all of them).
        alive.store(false, Ordering::Release);
        gate.close();
        shared.sched.lock().unwrap().prune(&shared.tenants);
        shared.wake_all();
    }
}
/// Post-admission protocol for one tenant: wait for the ASSIGN, fill
/// the tenant's scheduler entry, spawn the writer thread, then relay
/// credits and clock probes until the client closes. The caller owns
/// cleanup — every return path here is covered by it.
fn serve_admitted(
    shared: &Arc<DaemonShared>,
    mut reader: &mut BufReader<TcpStream>,
    mut writer: TcpStream,
    out_rx: mpsc::Receiver<Out>,
    gate: &Arc<CreditGate>,
    alive: &Arc<AtomicBool>,
) {
    // The assignment: turn the shard list into scheduled tasks.
    let (epoch_seed, credits, shards, flags) = match next_request(reader, &mut writer) {
        Some(Frame::Assign {
            epoch_seed,
            credits,
            shards,
            flags,
            ..
        }) => (epoch_seed, credits, shards, flags),
        Some(_) => {
            let _ = reject(&mut writer, UNEXPECTED_FRAME);
            return;
        }
        None => return,
    };
    if shards.len() as u32 > shared.config.policy.shard_quota {
        let _ = write_frame(
            &mut writer,
            &Frame::Err {
                message: format!(
                    "assignment of {} shards exceeds quota {}",
                    shards.len(),
                    shared.config.policy.shard_quota
                ),
            },
        );
        return;
    }
    gate.add(u64::from(credits.max(1)));
    {
        let mut sched = shared.sched.lock().unwrap();
        // Locate this connection's own entry by identity, not name —
        // a same-name rejoin may already have replaced it, and that
        // newcomer's queue is not ours to touch.
        let Some(t) = sched
            .tenants
            .iter_mut()
            .find(|t| Arc::ptr_eq(&t.alive, alive))
        else {
            return; // evicted by a rejoin before assigning
        };
        t.epoch_seed = epoch_seed;
        t.assigned = true;
        t.queue = shards
            .iter()
            .enumerate()
            .map(|(i, shard)| Task {
                shard: shard.clone(),
                index: i as u32,
            })
            .collect();
        t.shards_total = shards.len();
        t.started = Instant::now();
        t.want_stats = flags & ASSIGN_WANT_STATS != 0;
    }
    shared.wake_all();
    // Writer thread: drains the outbox toward the client, blocking on
    // the tenant's own credit gate before each BATCH2. Nothing another
    // tenant does can stall this thread.
    let writer_shared = Arc::clone(shared);
    let writer_alive = Arc::clone(alive);
    let writer_gate = Arc::clone(gate);
    let writer_handle = std::thread::spawn(move || {
        while let Ok(out) = out_rx.recv() {
            match out {
                Out::Batch(batch) => {
                    if !writer_gate.take(&writer_shared.gate_progress) {
                        break; // gate closed: client is gone
                    }
                    let written = batch.write_to(&mut writer);
                    writer_shared.relay_pool.put_bytes(batch.payload);
                    if written.is_err() {
                        break;
                    }
                }
                Out::Frame(frame) => {
                    let fatal = matches!(frame, Frame::Err { .. });
                    if write_frame(&mut writer, &frame).is_err() || fatal {
                        break;
                    }
                }
                Out::Finish => return, // leave the socket open for STATS/close
            }
        }
        writer_alive.store(false, Ordering::Release);
        writer_gate.close();
        writer_shared.wake_all();
    });
    // Reader loop: client credits and clock probes until it closes.
    // Replies are routed through the outbox: the writer thread owns
    // the socket now.
    let to_client = |frame: Frame| {
        if alive.load(Ordering::Acquire) {
            let outbox = {
                let sched = shared.sched.lock().unwrap();
                sched
                    .tenants
                    .iter()
                    .find(|t| Arc::ptr_eq(&t.alive, alive))
                    .map(|t| t.outbox.clone())
            };
            if let Some(outbox) = outbox {
                let _ = outbox.send(Out::Frame(frame));
            }
        }
    };
    loop {
        match read_frame(&mut reader) {
            Ok(Some(Frame::Credit { n })) => gate.add(u64::from(n)),
            Ok(Some(Frame::Ping { t0, seq })) => to_client(Frame::pong(t0, seq)),
            Ok(Some(_)) => {
                to_client(Frame::Err {
                    message: UNEXPECTED_FRAME.into(),
                });
                break;
            }
            _ => break,
        }
    }
    // Unblock the writer before joining it; the caller prunes.
    alive.store(false, Ordering::Release);
    gate.close();
    shared.wake_all();
    let _ = writer_handle.join();
}

/// What `next_task` hands a dispatcher.
struct Dispatch {
    task: Task,
    tenant: String,
    epoch_seed: u64,
    outbox: Sender<Out>,
    alive: Arc<AtomicBool>,
}

/// Pick the next shard for `backend`: deficit round robin over
/// tenants, cache-affine shards first. Blocks until work exists or
/// the daemon stops.
fn next_task(shared: &DaemonShared, backend: usize) -> Option<Dispatch> {
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
            // Prefer a tenant holding a shard affine to this backend;
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
                    .any(|task| sched.affinity.get(&task.shard) == Some(&backend));
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
                    .position(|task| affinity.get(&task.shard) == Some(&backend))
                    .unwrap_or(0);
                let t = &mut sched.tenants[slot];
                let task = t.queue.remove(pick).expect("picked index in bounds");
                t.inflight += 1;
                return Some(Dispatch {
                    task,
                    tenant: t.name.clone(),
                    epoch_seed: t.epoch_seed,
                    outbox: t.outbox.clone(),
                    alive: Arc::clone(&t.alive),
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

/// One backend's dispatcher: pull tasks, relay their batches, record
/// completions (affinity + DRR charge) and requeue on failure.
fn dispatcher_loop(shared: &Arc<DaemonShared>, backend: usize) {
    let addr = shared.backends[backend].clone();
    let mut conn: Option<(TcpStream, BufReader<TcpStream>)> = None;
    let mut consecutive_failures = 0u32;
    while let Some(dispatch) = next_task(shared, backend) {
        match serve_task(shared, &addr, &mut conn, &dispatch) {
            Ok(buffered) => {
                consecutive_failures = 0;
                complete_task(shared, backend, &dispatch, buffered);
            }
            Err(failure) => {
                conn = None;
                consecutive_failures += 1;
                // A shard the backend never started costs nothing: a
                // refused connection is this backend's problem, not
                // the tenant's. A shard that died mid-stream consumed
                // backend time under this tenant's name — that is the
                // budget the admission policy meters.
                requeue_task(shared, &dispatch, failure.started);
                // A dead backend should not spin through the queue;
                // back off before asking for more work.
                let pause = Duration::from_millis(50 * u64::from(consecutive_failures.min(20)));
                std::thread::sleep(pause);
            }
        }
    }
}

/// Why a shard task failed: whether the backend had started it.
struct TaskFailure {
    /// The ASSIGN reached the backend: the failure interrupted real
    /// work, so it charges the owning tenant's fault budget.
    started: bool,
}

/// A backend's BATCH2 as the relay holds it: the payload as it crossed
/// the wire, in a buffer from the relay pool, checked on arrival and
/// never decoded. The block's CRC is kept, so that once the head is
/// rewritten for the client the frame CRC follows by
/// [`Crc32::combine`] with no second pass over the block.
struct RelayedBatch {
    payload: Vec<u8>,
    /// The fixed fields, from the checked head; `count` is the DRR
    /// charge.
    head: Batch2Head,
    block_crc: u32,
    /// CRC of `payload` as it stands.
    crc: u32,
}

impl RelayedBatch {
    fn block_len(&self) -> usize {
        self.payload.len() - BATCH2_HEAD
    }

    /// Address the batch to the client's shard `index` with the
    /// backend's trace context cleared — a relayed BATCH2 carries
    /// `span_id` and `t_send` 0 — and re-derive the frame CRC.
    fn readdress(&mut self, index: u32) {
        let relayed = Frame::Batch2 {
            shard: index,
            count: self.head.count,
            codec: self.head.codec,
            span_id: 0,
            t_send: 0,
            block: Vec::new(),
        };
        let mut head = Vec::with_capacity(BATCH2_HEAD);
        relayed.encode_head(&mut head);
        self.payload[..BATCH2_HEAD].copy_from_slice(&head);
        self.crc = Crc32::combine(
            Crc32::checksum(&head),
            self.block_crc,
            self.block_len() as u64,
        );
    }

    /// Send the payload as one record, gathered from where it lies.
    fn write_to(&self, writer: &mut impl Write) -> Result<u64, ServeError> {
        let (head, block) = self.payload.split_at(BATCH2_HEAD);
        write_record(writer, head, block, self.crc)
    }
}

/// One frame from a backend, as the relay takes it.
enum FromBackend {
    Batch(RelayedBatch),
    Frame(Frame),
}

/// Read one backend frame into a buffer from `pool`, filled without
/// zero-filling it first, and check it once. A BATCH2 is checked as
/// `combine(crc(head), crc(block), len(block))` and kept as it lies,
/// with its block CRC; any other frame is checked in one pass and
/// decoded, and its buffer goes back to the pool. `Ok(None)` is a clean
/// close at a frame boundary; every violation is a typed
/// [`ServeError`] and hands nothing on.
fn read_from_backend(
    reader: &mut impl Read,
    pool: &BufferPool,
) -> Result<Option<FromBackend>, ServeError> {
    let (mut payload, _) = pool.get_bytes(0);
    let stored = match read_unchecked(reader, &mut payload) {
        Ok(Some(stored)) => stored,
        other => {
            pool.put_bytes(payload);
            return other.map(|_| None);
        }
    };
    if let Some(head) = Batch2Head::parse(&payload) {
        let block = &payload[BATCH2_HEAD..];
        let block_crc = Crc32::checksum(block);
        let head_crc = Crc32::checksum(&payload[..BATCH2_HEAD]);
        let crc = Crc32::combine(head_crc, block_crc, block.len() as u64);
        if crc != stored {
            pool.put_bytes(payload);
            return Err(ServeError::BadPayload);
        }
        return Ok(Some(FromBackend::Batch(RelayedBatch {
            payload,
            head,
            block_crc,
            crc,
        })));
    }
    let frame = check_payload(&payload, stored).and_then(|()| Frame::decode_payload(&payload));
    pool.put_bytes(payload);
    frame.map(|frame| Some(FromBackend::Frame(frame)))
}

/// Run one shard on the backend and buffer it for the tenant's client.
///
/// The relay forwards verified payloads opaque: each BATCH2 is checked
/// once on arrival ([`read_from_backend`]) and held in its pooled
/// buffer, never decoded into a [`Frame`]. The relay is
/// **shard-atomic**: batches are buffered here and only flushed to the
/// tenant outbox (by [`complete_task`]) once the backend's EOF arrives.
/// The client's connection to the daemon survives a backend death, so a
/// half-streamed shard must leave no trace — the requeued shard will be
/// served again from scratch (bit-identically, thanks to
/// [`crate::shard_rng_seed`]) and anything already forwarded would have
/// doubled its samples. Returns the shard's batches.
fn serve_task(
    shared: &DaemonShared,
    addr: &str,
    conn: &mut Option<(TcpStream, BufReader<TcpStream>)>,
    dispatch: &Dispatch,
) -> Result<Vec<RelayedBatch>, TaskFailure> {
    let unstarted = |_: ServeError| TaskFailure { started: false };
    let started = |_: ServeError| TaskFailure { started: true };
    if conn.is_none() {
        let target: SocketAddr = addr
            .to_socket_addrs()
            .ok()
            .and_then(|mut addrs| addrs.next())
            .ok_or_else(|| unstarted(ServeError::Protocol(format!("unresolvable '{addr}'"))))?;
        let stream = TcpStream::connect_timeout(&target, shared.config.connect_timeout)
            .map_err(|e| unstarted(e.into()))?;
        stream.set_nodelay(true).map_err(|e| unstarted(e.into()))?;
        stream
            .set_read_timeout(Some(shared.config.read_timeout))
            .map_err(|e| unstarted(e.into()))?;
        let mut writer = stream.try_clone().map_err(|e| unstarted(e.into()))?;
        let mut reader = BufReader::new(stream);
        handshake(&mut writer, &mut reader, 0).map_err(unstarted)?;
        *conn = Some((writer, reader));
    }
    let (writer, reader) = conn.as_mut().expect("connection established above");
    write_frame(
        writer,
        &Frame::Assign {
            epoch_seed: dispatch.epoch_seed,
            credits: shared.config.backend_credits.max(1),
            shards: vec![dispatch.task.shard.clone()],
            trace_id: 0,
            parent_span: 0,
            flags: 0,
        },
    )
    .map_err(unstarted)?;
    let mut buffered: Vec<RelayedBatch> = Vec::new();
    loop {
        // The backend's shard index and trace context are its own;
        // `complete_task` rewrites them for the client.
        match read_from_backend(reader, &shared.relay_pool) {
            Ok(Some(FromBackend::Batch(batch))) => buffered.push(batch),
            Ok(Some(FromBackend::Frame(Frame::Eof { .. }))) => break,
            // Backend ERR, an unexpected frame, a close mid-shard or a
            // damaged frame: the shard is lost on this backend.
            _ => return Err(TaskFailure { started: true }),
        }
        // Re-credit the backend immediately: client backpressure is
        // absorbed by the tenant's outbox + gate, never by stalling
        // the shared backend.
        write_frame(writer, &Frame::Credit { n: 1 }).map_err(started)?;
    }
    Ok(buffered)
}

/// Record a completed shard (affinity, DRR charge, epoch completion),
/// then flush it to the tenant's outbox atomically. The books are
/// closed *before* the frames are released: a client that has read its
/// last EOF finds its tenant entry already `done` with every shard
/// counted.
fn complete_task(
    shared: &DaemonShared,
    backend: usize,
    dispatch: &Dispatch,
    buffered: Vec<RelayedBatch>,
) {
    let samples: u64 = buffered.iter().map(|b| u64::from(b.head.count)).sum();
    let batches = buffered.len() as u64;
    let mut sched = shared.sched.lock().unwrap();
    sched.affinity.insert(dispatch.task.shard.clone(), backend);
    let deliver = dispatch.alive.load(Ordering::Acquire);
    if deliver {
        for batch in &buffered {
            let (count, bytes) = (u64::from(batch.head.count), batch.block_len() as u64);
            shared.tenants.delivered(&dispatch.tenant, count, 1, bytes);
        }
        shared.tenants.shard_done(&dispatch.tenant);
    }
    // Identity match, not name: a same-name rejoin starts a fresh
    // incarnation whose accounting a stale dispatch must not touch.
    let mut trailer: Vec<Out> = Vec::new();
    if let Some(t) = sched
        .tenants
        .iter_mut()
        .find(|t| Arc::ptr_eq(&t.alive, &dispatch.alive))
    {
        t.inflight = t.inflight.saturating_sub(1);
        t.deficit -= samples as i64;
        t.samples += samples;
        t.batches += batches;
        t.shards_done += 1;
        if t.shards_done >= t.shards_total && t.queue.is_empty() && t.inflight == 0 {
            if t.want_stats {
                let entry = FleetWorkerEntry {
                    samples: t.samples,
                    batches: t.batches,
                    elapsed_ns: t.started.elapsed().as_nanos() as u64,
                    peer_version: PROTOCOL_VERSION,
                    ..FleetWorkerEntry::default()
                };
                trailer.push(Out::Frame(Frame::Stats {
                    entry: Box::new(entry),
                }));
            }
            trailer.push(Out::Finish);
            shared.tenants.finished(&t.name);
        }
    }
    if deliver {
        for mut batch in buffered {
            batch.readdress(dispatch.task.index);
            let _ = dispatch.outbox.send(Out::Batch(batch));
        }
        let _ = dispatch.outbox.send(Out::Frame(Frame::Eof {
            shard: dispatch.task.index,
        }));
    } else {
        for batch in buffered {
            shared.relay_pool.put_bytes(batch.payload);
        }
    }
    for out in trailer {
        let _ = dispatch.outbox.send(out);
    }
    drop(sched);
    shared.wake_all();
}

/// Put a failed shard back on its owner's queue and, when `charged`,
/// debit the owner's fault budget — failing the tenant if the budget
/// is gone. No other tenant's budget or credits are ever touched.
///
/// `charged` is false for failures that never reached started work
/// (connect refused, dead handshake): those are fleet problems, not
/// the tenant's, and requeue for free so a down backend can't drain
/// every tenant's budget with connection errors.
fn requeue_task(shared: &DaemonShared, dispatch: &Dispatch, charged: bool) {
    let mut sched = shared.sched.lock().unwrap();
    if let Some(t) = sched
        .tenants
        .iter_mut()
        .find(|t| Arc::ptr_eq(&t.alive, &dispatch.alive))
    {
        t.inflight = t.inflight.saturating_sub(1);
        if !charged {
            t.queue.push_front(dispatch.task.clone());
            drop(sched);
            shared.wake_all();
            return;
        }
        t.requeues += 1;
        shared.tenants.requeued(&t.name, 1);
        if t.requeues > shared.config.policy.max_requeues {
            let _ = t.outbox.send(Out::Frame(Frame::Err {
                message: format!(
                    "tenant '{}' exhausted its fault budget ({} requeues)",
                    t.name, shared.config.policy.max_requeues
                ),
            }));
            // The gate stays open: the writer thread closes it after
            // the ERR frame is on the wire. Closing it here would make
            // the writer quit at the first relayed BATCH still queued
            // ahead of the ERR, and the client would wait out its read
            // timeout instead of hearing why it failed.
            t.alive.store(false, Ordering::Release);
            shared.tenants.failed(&t.name);
        } else {
            // Front of the queue: the shard was next in line when it
            // failed; keep its delivery order close to the original.
            t.queue.push_front(dispatch.task.clone());
        }
    }
    drop(sched);
    shared.wake_all();
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tenant(name: &str, weight: u32, queued: usize, inflight: usize, deficit: i64) -> Tenant {
        Tenant {
            name: name.into(),
            weight,
            epoch_seed: 0,
            assigned: true,
            queue: (0..queued)
                .map(|i| Task {
                    shard: format!("{name}-{i}"),
                    index: i as u32,
                })
                .collect(),
            inflight,
            deficit,
            requeues: 0,
            shards_total: queued + inflight,
            shards_done: 0,
            samples: 0,
            batches: 0,
            started: Instant::now(),
            want_stats: false,
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
        // The backend is never dialled: no client gets as far as ASSIGN.
        let daemon = FleetDaemon::spawn(
            "127.0.0.1:0",
            &["127.0.0.1:9".to_string()],
            FleetDaemonConfig::default(),
            None,
        )
        .unwrap();
        for _ in 0..200 {
            let mut stream = TcpStream::connect(daemon.addr()).unwrap();
            let mut reader = stream.try_clone().unwrap();
            handshake(&mut stream, &mut reader, 0).unwrap();
        }
        // Each connection thread deregisters as it ends; the wait is on
        // that signal, bounded only so a leak fails instead of hanging.
        assert_eq!(daemon.shared.conns.wait_empty(Duration::from_secs(60)), 0);
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

    /// A backend BATCH2 through the relay's read, re-address and write
    /// puts on the client's wire exactly what `write_frame` makes of
    /// the frame the daemon used to rebuild: the client's shard index,
    /// trace fields 0, the block untouched.
    #[test]
    fn relayed_batches_put_the_rebuilt_frames_bytes_on_the_wire() {
        let pool = BufferPool::with_shelf_cap(4);
        for frame in backend_batches() {
            let Some(FromBackend::Batch(mut batch)) =
                read_from_backend(&mut &wire(&frame)[..], &pool).unwrap()
            else {
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
            assert!(matches!(
                read_from_backend(&mut &wire[..0], &pool),
                Ok(None)
            ));
            for cut in 1..wire.len() {
                let got = read_from_backend(&mut &wire[..cut], &pool);
                assert!(
                    matches!(got, Err(ServeError::Truncated)),
                    "{frame:?} cut at {cut}"
                );
            }
            for bit in 0..wire.len() * 8 {
                let mut flipped = wire.clone();
                flipped[bit / 8] ^= 1 << (bit % 8);
                let got = read_from_backend(&mut &flipped[..], &pool);
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
