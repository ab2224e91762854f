//! Disaggregated preprocessing over TCP: a **worker** process runs the
//! online phase of a strategy and streams encoded sample batches; a
//! **client** consumes from one or more workers and feeds a training
//! loop — the paper's "preprocessing as a service" deployment, made
//! real with actual sockets instead of the simulator's fan-out model
//! ([`crate::distributed`]).
//!
//! The protocol is a dependency-free length-prefixed binary framing
//! layered on [`std::net`], reusing the CRC record framing from
//! [`presto_tensor::record`] for every frame and the sample wire
//! encoding from [`crate::sample`] for payloads. This table is the
//! authoritative one; `docs/distributed.md` repeats it:
//!
//! | frame    | tag | direction       | body                                            |
//! |----------|-----|-----------------|-------------------------------------------------|
//! | HELLO    | 1   | both, first     | `version: u32`, `trace_id: u64`                 |
//! | ASSIGN   | 2   | client → worker | `epoch_seed: u64`, `credits: u32`, `count: u32`, `count` × (`len: u32`, UTF-8 shard name), `trace_id: u64`, `parent_span: u64`, `flags: u8` |
//! | CREDIT   | 4   | client → worker | `n: u32`                                        |
//! | EOF      | 5   | worker → client | `shard: u32` (shard complete, commit it)        |
//! | ERR      | 6   | either → peer   | UTF-8 message (fatal, the connection is over)   |
//! | PING     | 7   | client → worker | `t0: u64`, `seq: u32` (traced connections)      |
//! | PONG     | 8   | worker → client | `t0: u64`, `t_worker: u64`, `seq: u32`          |
//! | STATS    | 9   | worker → client | worker totals + span timeline (after the EOFs, when ASSIGN asked) |
//! | BATCH2   | 10  | worker → client | `shard: u32`, `count: u32`, `codec: u8`, `span_id: u64`, `t_send: u64`, block |
//! | REGISTER | 11  | client → worker | `len: u32` + tenant name, `weight: u32`, `shards: u32` |
//! | ADMIT    | 12  | worker → client | `len: u32` + tenant name, `quota: u32`          |
//! | REJECT   | 13  | worker → client | `len: u32` + tenant name, `len: u32` + reason   |
//!
//! **One version, exact match.** There is one protocol version,
//! [`PROTOCOL_VERSION`]. Each side sends HELLO as its first frame and
//! requires the peer's first frame to be a HELLO carrying the same
//! version (`handshake`); any other first frame, or a second HELLO
//! later, is answered with ERR and a close, and on the dialing side it
//! is a [`ServeError::Protocol`] that fails the epoch — a peer from
//! another build does not get better on retry. Bodies are **strict**:
//! a missing field, or a byte left over after the last field of a
//! fixed-layout frame, is a decode error. Tag 3 (the retired untraced
//! BATCH) and every tag not listed are unknown frame types.
//!
//! **Fleet tracing**: the client stamps every connection with a
//! trace id, estimates the per-connection clock offset from a burst of
//! PINGs at handshake time (NTP-style, minimum-RTT sample wins), and
//! collects each worker's remote stats + span timeline from the STATS
//! frame it sends after its final EOF. The result lands in
//! [`presto_telemetry::FleetProgress`] and feeds `/fleet.json` and the
//! merged Chrome trace
//! ([`presto_telemetry::fleet::merge_chrome_trace`]).
//!
//! Flow control is credit-based: a worker may only send a BATCH after
//! taking one credit; the client grants `credits` up front in ASSIGN
//! and keeps a standing window, handing back `max(1, credits/2)` each
//! time it has drained that many (`CreditWindow`), bounding
//! worker-side in-flight data the same way the in-process prefetch
//! channel bounds [`crate::real::EpochStream`]. Stall time waiting for
//! credits is a [`presto_telemetry::ServeProgress`] gauge on `/metrics`.
//!
//! Each payload byte takes 3 user-space passes from a worker's finished
//! samples to the consumer, 4 through `fleetd` (`tests/ledger.rs` pins
//! them): the worker gathers an uncompressed BATCH2 from the samples
//! where they lie (`write_batch`), the record CRC its one pass; the
//! client reads into a recycled buffer without zero-filling it, checks
//! each record's CRC and hashes it for the [`MultisetChecksum`] while it
//! is in cache.
//!
//! The client is an [`EpochStream`] ([`serve_stream`]): one *link*
//! thread per worker drives its connection with the upstream driver
//! `fleetd`'s relay drives too (`link::Link`), decodes each BATCH2 in
//! place, commits a shard only on its EOF, and then hands it to the
//! caller through the link's ring lane. Failover: when a connection dies
//! mid-shard (worker killed, timeout), its uncommitted shards go back on
//! one pending queue, which idle links pull from, and the failed link
//! retries under the failover rule the relay shares (`link::Failover`).
//! Because online-step RNG is seeded per *shard*
//! ([`crate::real::shard_rng_seed`]), a reassigned shard reproduces
//! bit-identical samples on any worker, so a degraded epoch still
//! delivers the exact same sample multiset — which [`MultisetChecksum`]
//! proves, order-insensitively.

use crate::dataplane::{self, BufferPool, SampleBundle};
use crate::error::PipelineError;
use crate::fault::{FaultPolicy, Resilience, RetryPolicy};
use crate::link::{pause, Buffers, Dial, Failover, Link, Outcome, Sink, Trace};
use crate::pipeline::Pipeline;
use crate::real::{
    executable_steps, fnv64, process_shard, Deliver, EpochStats, EpochStream, Feed, Lane,
    Materialized,
};
use crate::sample::Sample;
use crate::store::BlobStore;
use crate::tenant::{AdmissionPolicy, Batch, Books, FleetDaemonConfig, Pending, Server, Source};
use bytes::Bytes;
use presto_codecs::checksum::Crc32;
use presto_codecs::{Codec, Level};
use presto_telemetry::fleet::mono_ns;
use presto_telemetry::{
    EpochRecorder, FleetProgress, FleetWorkerEntry, ServeProgress, Telemetry, BUILTIN_PHASES,
    PHASE_HANDOFF,
};
use presto_tensor::record::{fold_record, record_header, record_trailer, RECORD_OVERHEAD};
use presto_tensor::{Pieces, RecordReader, RecordWriter};
use std::collections::{HashMap, VecDeque};
use std::io::{self, IoSlice, Read, Write};
use std::net::{Ipv4Addr, Ipv6Addr, Shutdown, SocketAddr, TcpListener, TcpStream};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Arc, Condvar, Mutex, MutexGuard, PoisonError};
use std::time::{Duration, Instant};

/// The protocol version this build speaks. A peer whose HELLO carries
/// any other number is refused (see `handshake`).
pub const PROTOCOL_VERSION: u32 = 2;

/// Remote span events carried in one STATS frame at most; the rest
/// are counted into the entry's `dropped_spans`.
pub(crate) const STATS_SPAN_CAP: usize = 8192;

/// ASSIGN flag bit: the client wants a STATS frame after the final EOF.
pub const ASSIGN_WANT_STATS: u8 = 1;

/// Upper bound on one frame's payload — a desynced or hostile peer
/// cannot make us allocate more than this.
pub const MAX_FRAME_LEN: u64 = 64 << 20;

/// Wire-protocol failure: framing, CRC, or semantic violations.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum ServeError {
    /// Connection closed mid-frame.
    Truncated,
    /// Length header failed its CRC — a garbage or desynced stream.
    BadHeader,
    /// Frame payload failed its CRC.
    BadPayload,
    /// Declared frame length exceeds [`MAX_FRAME_LEN`].
    TooLarge(u64),
    /// Well-framed but semantically invalid message.
    Protocol(String),
    /// Socket-level failure.
    Io(String),
}

impl std::fmt::Display for ServeError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ServeError::Truncated => write!(f, "stream truncated mid-frame"),
            ServeError::BadHeader => write!(f, "frame length header failed CRC"),
            ServeError::BadPayload => write!(f, "frame payload failed CRC"),
            ServeError::TooLarge(n) => {
                write!(f, "frame of {n} bytes exceeds cap of {MAX_FRAME_LEN}")
            }
            ServeError::Protocol(why) => write!(f, "protocol violation: {why}"),
            ServeError::Io(why) => write!(f, "socket error: {why}"),
        }
    }
}

impl std::error::Error for ServeError {}

impl From<io::Error> for ServeError {
    fn from(e: io::Error) -> Self {
        match e.kind() {
            io::ErrorKind::UnexpectedEof => ServeError::Truncated,
            _ => ServeError::Io(e.to_string()),
        }
    }
}

impl From<ServeError> for PipelineError {
    fn from(e: ServeError) -> Self {
        PipelineError::Other(format!("serve: {e}"))
    }
}

/// One protocol message. See the module docs for the frame table.
#[derive(Debug, Clone, PartialEq)]
pub enum Frame {
    /// Version handshake; first frame in each direction, sent once.
    Hello {
        /// The speaker's [`PROTOCOL_VERSION`].
        version: u32,
        /// Fleet trace id (0 when untraced).
        trace_id: u64,
    },
    /// Client asks the worker to serve these shards of an epoch.
    Assign {
        /// Epoch seed for online-step RNG (per-shard derived).
        epoch_seed: u64,
        /// Initial BATCH credits granted.
        credits: u32,
        /// Shard blob names; BATCH/EOF reference them by index.
        shards: Vec<String>,
        /// Fleet trace id (0 when untraced).
        trace_id: u64,
        /// Client-side span this assignment nests under (0 when
        /// untraced).
        parent_span: u64,
        /// Assignment flags: [`ASSIGN_WANT_STATS`].
        flags: u8,
    },
    /// Client grants `n` more BATCH credits.
    Credit {
        /// Credits granted.
        n: u32,
    },
    /// All batches of `shard` sent; the client may commit it.
    Eof {
        /// Index into the ASSIGN shard list.
        shard: u32,
    },
    /// Fatal worker-side error; the connection is dead after this.
    Err {
        /// Human-readable cause.
        message: String,
    },
    /// Clock-offset probe (client → worker, handshake only).
    Ping {
        /// Client-clock [`mono_ns`] at send time, echoed back.
        t0: u64,
        /// Probe sequence number, echoed back.
        seq: u32,
    },
    /// Clock-offset reply (worker → client).
    Pong {
        /// The PING's `t0`, echoed.
        t0: u64,
        /// Worker-clock [`mono_ns`] when the PING was answered.
        t_worker: u64,
        /// The PING's `seq`, echoed.
        seq: u32,
    },
    /// End-of-assignment worker stats + span timeline (sent after
    /// the final EOF when the ASSIGN asked for it). The entry's
    /// client-local fields (`addr`, `conn`, handshake estimates) are
    /// not on the wire; the client fills them on receipt.
    Stats {
        /// The worker's contribution to the fleet picture.
        entry: Box<FleetWorkerEntry>,
    },
    /// One batch of encoded samples from one shard, with its tracing
    /// context: worker-side span id and worker-clock send timestamp
    /// (both 0 on a relayed frame, see [`crate::tenant`]).
    Batch2 {
        /// Index into the ASSIGN shard list.
        shard: u32,
        /// Samples in the block.
        count: u32,
        /// Wire compression tag (see [`wire_codec`]).
        codec: u8,
        /// Worker-side span id of the producing batch.
        span_id: u64,
        /// Worker-clock [`mono_ns`] when the frame was written.
        t_send: u64,
        /// Record-framed [`Sample::encode`] payloads, compressed.
        block: Vec<u8>,
    },
    /// Tenant registration (client → daemon/worker, after HELLO and
    /// before ASSIGN). Declares the job so the receiver can admit or
    /// reject it before any shard work starts.
    Register {
        /// Tenant (job) name; the key for quotas, fairness and metrics.
        tenant: String,
        /// Deficit-round-robin weight (≥ 1) for the fair-share split.
        weight: u32,
        /// Shards the job intends to ASSIGN — checked against the
        /// per-tenant shard quota at admission time.
        shards: u32,
    },
    /// Registration accepted (daemon/worker → client).
    Admit {
        /// The registered tenant name, echoed.
        tenant: String,
        /// Effective per-tenant shard quota (`u32::MAX` = unlimited).
        quota: u32,
    },
    /// Registration refused (daemon/worker → client). The
    /// connection is useless for ASSIGN after this.
    Reject {
        /// The registered tenant name, echoed.
        tenant: String,
        /// Human-readable admission-policy cause.
        reason: String,
    },
}

const FRAME_HELLO: u8 = 1;
const FRAME_ASSIGN: u8 = 2;
const FRAME_CREDIT: u8 = 4;
const FRAME_EOF: u8 = 5;
const FRAME_ERR: u8 = 6;
const FRAME_PING: u8 = 7;
const FRAME_PONG: u8 = 8;
const FRAME_STATS: u8 = 9;
const FRAME_BATCH2: u8 = 10;
const FRAME_REGISTER: u8 = 11;
const FRAME_ADMIT: u8 = 12;
const FRAME_REJECT: u8 = 13;

/// Encode a length-prefixed string (`len u32` + UTF-8 bytes).
fn push_str(out: &mut Vec<u8>, s: &str) {
    out.extend_from_slice(&(s.len() as u32).to_le_bytes());
    out.extend_from_slice(s.as_bytes());
}

/// Read cursor over a frame body. Every getter checks bounds, and
/// [`Body::end`] refuses bytes left over after the last field, so a
/// body is accepted only when it is exactly the fields of its frame.
struct Body<'a>(&'a [u8]);

impl<'a> Body<'a> {
    fn take(&mut self, n: usize) -> Result<&'a [u8], ServeError> {
        if n > self.0.len() {
            return Err(ServeError::Protocol("frame body too short".into()));
        }
        let (head, rest) = self.0.split_at(n);
        self.0 = rest;
        Ok(head)
    }

    /// Everything not yet read: the variable-length tail of BATCH2/ERR.
    fn rest(&mut self) -> &'a [u8] {
        std::mem::take(&mut self.0)
    }

    fn u8(&mut self) -> Result<u8, ServeError> {
        Ok(self.take(1)?[0])
    }

    fn u32(&mut self) -> Result<u32, ServeError> {
        let bytes = self.take(4)?.try_into().expect("took 4 bytes");
        Ok(u32::from_le_bytes(bytes))
    }

    fn u64(&mut self) -> Result<u64, ServeError> {
        let bytes = self.take(8)?.try_into().expect("took 8 bytes");
        Ok(u64::from_le_bytes(bytes))
    }

    /// A length-prefixed string (`len u32` + UTF-8 bytes).
    fn str(&mut self, what: &str) -> Result<String, ServeError> {
        let len = self.u32()? as usize;
        let bytes = self
            .take(len)
            .map_err(|_| ServeError::Protocol(format!("{what} overruns frame")))?;
        let text = std::str::from_utf8(bytes)
            .map_err(|_| ServeError::Protocol(format!("{what} is not UTF-8")))?;
        Ok(text.to_string())
    }

    fn end(self) -> Result<(), ServeError> {
        match self.0.len() {
            0 => Ok(()),
            extra => Err(ServeError::Protocol(format!(
                "{extra} trailing bytes after the last field"
            ))),
        }
    }
}

/// BATCH2's fixed fields, ahead of its block. One parser for
/// [`Frame::decode_payload`], the client's in-place path and the relay.
pub(crate) struct Batch2Head {
    pub(crate) shard: u32,
    pub(crate) count: u32,
    pub(crate) codec: u8,
    pub(crate) span_id: u64,
    pub(crate) t_send: u64,
}

/// Bytes of a BATCH2 payload ahead of its block: the type byte and the
/// fixed fields of [`Batch2Head`].
pub(crate) const BATCH2_HEAD: usize = 26;

impl Batch2Head {
    fn read(body: &mut Body<'_>) -> Result<Batch2Head, ServeError> {
        Ok(Batch2Head {
            shard: body.u32()?,
            count: body.u32()?,
            codec: body.u8()?,
            span_id: body.u64()?,
            t_send: body.u64()?,
        })
    }

    /// The head of a BATCH2 payload (type byte first), or `None` when
    /// `payload` is not one or is too short to hold the fields.
    pub(crate) fn parse(payload: &[u8]) -> Option<Batch2Head> {
        match payload.split_first() {
            Some((&FRAME_BATCH2, body)) => Batch2Head::read(&mut Body(body)).ok(),
            _ => None,
        }
    }
}

/// Wire tag for a phase-kind label in STATS step entries.
fn kind_tag(label: &str) -> u8 {
    match label {
        "io" => 0,
        "cpu" => 1,
        "deliver" => 2,
        _ => 3,
    }
}

/// Inverse of [`kind_tag`].
fn kind_label(tag: u8) -> &'static str {
    match tag {
        0 => "io",
        1 => "cpu",
        2 => "deliver",
        _ => "step",
    }
}

/// Map a BATCH wire-codec tag to the codec used to unpack the block.
pub fn wire_codec(tag: u8) -> Result<Codec, ServeError> {
    match tag {
        0 => Ok(Codec::None),
        1 => Ok(Codec::Gzip(Level::FAST)),
        2 => Ok(Codec::Zlib(Level::FAST)),
        other => Err(ServeError::Protocol(format!(
            "unknown wire codec tag {other}"
        ))),
    }
}

/// The wire tag for a codec (levels are not part of the wire format —
/// decompression does not need them).
pub fn wire_codec_tag(codec: Codec) -> u8 {
    match codec {
        Codec::None => 0,
        Codec::Gzip(_) => 1,
        Codec::Zlib(_) => 2,
    }
}

impl Frame {
    /// The PONG answering a PING, stamped with this process's clock.
    pub(crate) fn pong(t0: u64, seq: u32) -> Frame {
        Frame::Pong {
            t0,
            t_worker: mono_ns(),
            seq,
        }
    }

    /// Serialize to a frame payload (type byte + body, no framing).
    pub fn encode_payload(&self) -> Vec<u8> {
        let mut out = Vec::new();
        let tail = self.encode_head(&mut out);
        out.extend_from_slice(tail);
        out
    }

    /// Append the payload to `out`, all of it but a variable-length
    /// tail — BATCH2's block, ERR's text — which is returned instead,
    /// so that [`write_frame`] can send it from where it lies.
    pub(crate) fn encode_head<'a>(&'a self, out: &mut Vec<u8>) -> &'a [u8] {
        match self {
            Frame::Hello { version, trace_id } => {
                out.push(FRAME_HELLO);
                out.extend_from_slice(&version.to_le_bytes());
                out.extend_from_slice(&trace_id.to_le_bytes());
            }
            Frame::Assign {
                epoch_seed,
                credits,
                shards,
                trace_id,
                parent_span,
                flags,
            } => {
                out.push(FRAME_ASSIGN);
                out.extend_from_slice(&epoch_seed.to_le_bytes());
                out.extend_from_slice(&credits.to_le_bytes());
                out.extend_from_slice(&(shards.len() as u32).to_le_bytes());
                for shard in shards {
                    push_str(out, shard);
                }
                out.extend_from_slice(&trace_id.to_le_bytes());
                out.extend_from_slice(&parent_span.to_le_bytes());
                out.push(*flags);
            }
            Frame::Credit { n } => {
                out.push(FRAME_CREDIT);
                out.extend_from_slice(&n.to_le_bytes());
            }
            Frame::Eof { shard } => {
                out.push(FRAME_EOF);
                out.extend_from_slice(&shard.to_le_bytes());
            }
            Frame::Err { .. } => out.push(FRAME_ERR),
            Frame::Ping { t0, seq } => {
                out.push(FRAME_PING);
                out.extend_from_slice(&t0.to_le_bytes());
                out.extend_from_slice(&seq.to_le_bytes());
            }
            Frame::Pong { t0, t_worker, seq } => {
                out.push(FRAME_PONG);
                out.extend_from_slice(&t0.to_le_bytes());
                out.extend_from_slice(&t_worker.to_le_bytes());
                out.extend_from_slice(&seq.to_le_bytes());
            }
            Frame::Stats { entry } => {
                out.push(FRAME_STATS);
                for value in [
                    entry.assign_start_mono_ns,
                    entry.elapsed_ns,
                    entry.samples,
                    entry.batches,
                    entry.produce_ns,
                    entry.credit_wait_ns,
                    entry.dropped_spans,
                ] {
                    out.extend_from_slice(&value.to_le_bytes());
                }
                out.extend_from_slice(&(entry.steps.len() as u32).to_le_bytes());
                for (name, kind, busy_ns) in &entry.steps {
                    push_str(out, name);
                    out.push(kind_tag(kind));
                    out.extend_from_slice(&busy_ns.to_le_bytes());
                }
                out.extend_from_slice(&(entry.spans.len() as u32).to_le_bytes());
                for span in &entry.spans {
                    out.extend_from_slice(&span.worker.to_le_bytes());
                    out.extend_from_slice(&span.phase.to_le_bytes());
                    out.extend_from_slice(&span.start_ns.to_le_bytes());
                    out.extend_from_slice(&span.dur_ns.to_le_bytes());
                }
            }
            Frame::Batch2 {
                shard,
                count,
                codec,
                span_id,
                t_send,
                ..
            } => {
                out.push(FRAME_BATCH2);
                out.extend_from_slice(&shard.to_le_bytes());
                out.extend_from_slice(&count.to_le_bytes());
                out.push(*codec);
                out.extend_from_slice(&span_id.to_le_bytes());
                out.extend_from_slice(&t_send.to_le_bytes());
            }
            Frame::Register {
                tenant,
                weight,
                shards,
            } => {
                out.push(FRAME_REGISTER);
                push_str(out, tenant);
                out.extend_from_slice(&weight.to_le_bytes());
                out.extend_from_slice(&shards.to_le_bytes());
            }
            Frame::Admit { tenant, quota } => {
                out.push(FRAME_ADMIT);
                push_str(out, tenant);
                out.extend_from_slice(&quota.to_le_bytes());
            }
            Frame::Reject { tenant, reason } => {
                out.push(FRAME_REJECT);
                push_str(out, tenant);
                push_str(out, reason);
            }
        }
        match self {
            Frame::Err { message } => message.as_bytes(),
            Frame::Batch2 { block, .. } => block,
            _ => &[],
        }
    }

    /// Parse a frame payload produced by [`Frame::encode_payload`].
    /// Strict: the body must be exactly the frame's fields — a short
    /// body, or bytes after the last field, is an error.
    pub fn decode_payload(payload: &[u8]) -> Result<Frame, ServeError> {
        let (&kind, body) = payload
            .split_first()
            .ok_or_else(|| ServeError::Protocol("empty frame payload".into()))?;
        let mut body = Body(body);
        let frame = match kind {
            FRAME_HELLO => Frame::Hello {
                version: body.u32()?,
                trace_id: body.u64()?,
            },
            FRAME_ASSIGN => {
                let epoch_seed = body.u64()?;
                let credits = body.u32()?;
                let count = body.u32()? as usize;
                let mut shards = Vec::with_capacity(count.min(1024));
                for _ in 0..count {
                    shards.push(body.str("shard name")?);
                }
                Frame::Assign {
                    epoch_seed,
                    credits,
                    shards,
                    trace_id: body.u64()?,
                    parent_span: body.u64()?,
                    flags: body.u8()?,
                }
            }
            FRAME_CREDIT => Frame::Credit { n: body.u32()? },
            FRAME_EOF => Frame::Eof { shard: body.u32()? },
            FRAME_ERR => Frame::Err {
                message: String::from_utf8_lossy(body.rest()).into_owned(),
            },
            FRAME_PING => Frame::Ping {
                t0: body.u64()?,
                seq: body.u32()?,
            },
            FRAME_PONG => Frame::Pong {
                t0: body.u64()?,
                t_worker: body.u64()?,
                seq: body.u32()?,
            },
            FRAME_STATS => {
                let mut entry = FleetWorkerEntry {
                    assign_start_mono_ns: body.u64()?,
                    elapsed_ns: body.u64()?,
                    samples: body.u64()?,
                    batches: body.u64()?,
                    produce_ns: body.u64()?,
                    credit_wait_ns: body.u64()?,
                    dropped_spans: body.u64()?,
                    ..FleetWorkerEntry::default()
                };
                for _ in 0..body.u32()? {
                    let name = body.str("step name")?;
                    let kind = kind_label(body.u8()?).to_string();
                    entry.steps.push((name, kind, body.u64()?));
                }
                let span_count = body.u32()? as usize;
                if span_count > STATS_SPAN_CAP {
                    return Err(ServeError::Protocol(format!(
                        "STATS declares {span_count} spans, cap is {STATS_SPAN_CAP}"
                    )));
                }
                for _ in 0..span_count {
                    entry.spans.push(presto_telemetry::SpanEvent {
                        worker: body.u32()?,
                        phase: body.u32()?,
                        start_ns: body.u64()?,
                        dur_ns: body.u64()?,
                    });
                }
                Frame::Stats {
                    entry: Box::new(entry),
                }
            }
            FRAME_BATCH2 => {
                let head = Batch2Head::read(&mut body)?;
                Frame::Batch2 {
                    shard: head.shard,
                    count: head.count,
                    codec: head.codec,
                    span_id: head.span_id,
                    t_send: head.t_send,
                    block: body.rest().to_vec(),
                }
            }
            FRAME_REGISTER => Frame::Register {
                tenant: body.str("tenant name")?,
                weight: body.u32()?,
                shards: body.u32()?,
            },
            FRAME_ADMIT => Frame::Admit {
                tenant: body.str("tenant name")?,
                quota: body.u32()?,
            },
            FRAME_REJECT => Frame::Reject {
                tenant: body.str("tenant name")?,
                reason: body.str("reject reason")?,
            },
            other => return Err(ServeError::Protocol(format!("unknown frame type {other}"))),
        };
        body.end()?;
        Ok(frame)
    }
}

/// Write one frame in record framing; returns the bytes put on the wire.
///
/// The record header and the frame's fixed fields are assembled in a
/// small scratch buffer; the variable-length tail (a BATCH2 block) is
/// not copied but handed to the writer as it lies, gathered with the
/// header and the trailing CRC into `write_vectored` calls.
pub fn write_frame(writer: &mut impl Write, frame: &Frame) -> Result<u64, ServeError> {
    let mut head = Vec::with_capacity(64);
    let tail = frame.encode_head(&mut head);
    let mut crc = Crc32::new();
    crc.update(&head);
    crc.update(tail);
    write_record(writer, &head, tail, crc.finish())
}

/// Send the payload `head ‖ tail`, whose CRC is `crc`, as one record:
/// `[header, head, tail, trailer]` in `write_vectored` calls, neither
/// part copied. Returns the bytes put on the wire.
pub(crate) fn write_record(
    writer: &mut impl Write,
    head: &[u8],
    tail: &[u8],
    crc: u32,
) -> Result<u64, ServeError> {
    let header = record_header((head.len() + tail.len()) as u64);
    let trailer = record_trailer(crc);
    write_parts(writer, &[&header[..], head, tail, &trailer[..]])
}

/// Write `parts`, in order, in `write_vectored` calls, and flush.
/// Returns the bytes written.
fn write_parts(writer: &mut impl Write, parts: &[&[u8]]) -> Result<u64, ServeError> {
    let wire_len = parts.iter().map(|part| part.len() as u64).sum();
    let mut slices: Vec<IoSlice<'_>> = parts.iter().map(|part| IoSlice::new(part)).collect();
    let mut rest = &mut slices[..];
    while !rest.is_empty() {
        match writer.write_vectored(rest) {
            Ok(0) => return Err(io::Error::from(io::ErrorKind::WriteZero).into()),
            Ok(written) => IoSlice::advance_slices(&mut rest, written),
            Err(e) if e.kind() == io::ErrorKind::Interrupted => {}
            Err(e) => return Err(e.into()),
        }
    }
    writer.flush()?;
    Ok(wire_len)
}

/// Send `samples` as an uncompressed BATCH2 of the client's shard
/// `index` (trace fields 0), gathered from where the bytes lie: the
/// frame's and records' headers and trailers and the samples' small
/// pieces go into one scratch buffer, and each sample's own bytes
/// (tensor data, a byte payload) are handed to `write_vectored` as they
/// are. Each record's CRC is the one pass over its sample's pieces; the
/// frame CRC is folded from the record CRCs ([`fold_record`]). The wire
/// bytes are those of the block [`RecordWriter`] makes of the samples.
/// Returns the bytes put on the wire.
pub(crate) fn write_batch(
    writer: &mut impl Write,
    index: u32,
    samples: &[Sample],
) -> Result<u64, ServeError> {
    let mut gather = Gather::default();
    gather.scratch(&[0; 12]); // the frame header, once the length is known
    let mut head = Vec::with_capacity(BATCH2_HEAD);
    Frame::Batch2 {
        shard: index,
        count: samples.len() as u32,
        codec: wire_codec_tag(Codec::None),
        span_id: 0,
        t_send: 0,
        block: Vec::new(),
    }
    .encode_head(&mut head);
    gather.scratch(&head);
    let mut frame_crc = Crc32::checksum(&head);
    let mut payload_len = head.len() as u64;
    for sample in samples {
        let at = gather.bytes.len();
        gather.scratch(&[0; 12]);
        (gather.crc, gather.len) = (Crc32::new(), 0);
        sample.encode_pieces(&mut gather);
        let (len, crc) = (gather.len, gather.crc.finish());
        gather.bytes[at..at + 12].copy_from_slice(&record_header(len));
        gather.scratch(&record_trailer(crc));
        frame_crc = fold_record(frame_crc, len, crc);
        payload_len += len + RECORD_OVERHEAD as u64;
    }
    gather.bytes[..12].copy_from_slice(&record_header(payload_len));
    gather.scratch(&record_trailer(frame_crc));
    let parts: Vec<&[u8]> = (gather.parts.iter())
        .map(|part| match *part {
            Part::Scratch(start, end) => &gather.bytes[start..end],
            Part::Borrowed(piece) => piece,
        })
        .collect();
    write_parts(writer, &parts)
}

/// A frame being gathered: its bytes in wire order, each part a run of
/// the scratch `bytes` or a piece borrowed from a sample; and the CRC
/// and length of the record whose pieces are coming in.
#[derive(Default)]
struct Gather<'a> {
    bytes: Vec<u8>,
    parts: Vec<Part<'a>>,
    crc: Crc32,
    len: u64,
}

enum Part<'a> {
    Scratch(usize, usize),
    Borrowed(&'a [u8]),
}

impl Gather<'_> {
    /// Copy a small piece into the scratch bytes, extending the last
    /// part when it is the run that ends there.
    fn scratch(&mut self, piece: &[u8]) {
        presto_codecs::touch::copy(piece.len());
        let start = self.bytes.len();
        self.bytes.extend_from_slice(piece);
        let end = self.bytes.len();
        match self.parts.last_mut() {
            Some(Part::Scratch(_, last)) if *last == start => *last = end,
            _ => self.parts.push(Part::Scratch(start, end)),
        }
    }
}

impl<'a> Pieces<'a> for Gather<'a> {
    fn borrowed(&mut self, piece: &'a [u8]) {
        self.crc.update(piece);
        self.len += piece.len() as u64;
        self.parts.push(Part::Borrowed(piece));
    }

    fn temporary(&mut self, piece: &[u8]) {
        self.crc.update(piece);
        self.len += piece.len() as u64;
        self.scratch(piece);
    }
}

/// Fill `buf`, distinguishing a clean close before any byte
/// (`Ok(false)`) from mid-buffer truncation (`Err(Truncated)`).
fn read_exact_or_closed(reader: &mut impl Read, buf: &mut [u8]) -> Result<bool, ServeError> {
    let mut filled = 0;
    while filled < buf.len() {
        match reader.read(&mut buf[filled..]) {
            Ok(0) if filled == 0 => return Ok(false),
            Ok(0) => return Err(ServeError::Truncated),
            Ok(n) => filled += n,
            Err(e) if e.kind() == io::ErrorKind::Interrupted => {}
            Err(e) => return Err(ServeError::from(e)),
        }
    }
    Ok(true)
}

/// Read one frame's payload (type byte + body) into `payload`, with
/// its header CRC and length cap checked, and return the CRC stored
/// after it — *not* yet checked against the payload: that is the
/// caller's, by [`check_payload`] or by a fold. `payload` is cleared
/// and filled from its spare capacity, without zero-filling it first.
/// `Ok(None)` is a clean close at a frame boundary; every violation is
/// a typed [`ServeError`].
pub(crate) fn read_unchecked<R: Read>(
    reader: &mut R,
    payload: &mut Vec<u8>,
) -> Result<Option<u32>, ServeError> {
    let mut header = [0u8; 12];
    if !read_exact_or_closed(reader, &mut header)? {
        return Ok(None);
    }
    let len = u64::from_le_bytes(header[..8].try_into().unwrap());
    if header != record_header(len) {
        return Err(ServeError::BadHeader);
    }
    if len > MAX_FRAME_LEN {
        return Err(ServeError::TooLarge(len));
    }
    payload.clear();
    payload.reserve(len as usize);
    presto_codecs::touch::read_into::<R>(len as usize);
    let read = reader.take(len).read_to_end(payload)?;
    let mut trailer = [0u8; 4];
    if read as u64 != len || !read_exact_or_closed(reader, &mut trailer)? {
        return Err(ServeError::Truncated);
    }
    Ok(Some(u32::from_le_bytes(trailer)))
}

/// The one-pass frame check: `payload` against the CRC stored after it.
pub(crate) fn check_payload(payload: &[u8], stored: u32) -> Result<(), ServeError> {
    if Crc32::checksum(payload) == stored {
        Ok(())
    } else {
        Err(ServeError::BadPayload)
    }
}

/// Read one frame's payload with every check done. `Ok(None)` is a
/// clean close at a frame boundary.
fn read_payload(reader: &mut impl Read) -> Result<Option<Vec<u8>>, ServeError> {
    let mut payload = Vec::new();
    match read_unchecked(reader, &mut payload)? {
        Some(stored) => check_payload(&payload, stored).map(|()| Some(payload)),
        None => Ok(None),
    }
}

/// Read one frame. `Ok(None)` is a clean close at a frame boundary;
/// every CRC/length violation is a typed [`ServeError`].
pub fn read_frame(reader: &mut impl Read) -> Result<Option<Frame>, ServeError> {
    match read_payload(reader)? {
        Some(payload) => Frame::decode_payload(&payload).map(Some),
        None => Ok(None),
    }
}

/// A received BATCH2, decoded where it lies: its fixed fields, and the
/// record stream its samples alias — the received payload itself under
/// [`Codec::None`], the unpacked block under any other wire codec.
struct ReceivedBatch {
    head: Batch2Head,
    /// Block bytes as they crossed the wire.
    wire_len: usize,
    /// The record stream, in a buffer the client recycles once the
    /// samples aliasing it are gone.
    records: Bytes,
    /// Set while the frame check is still to be folded from the record
    /// CRCs; `None` once the frame was checked in one pass.
    deferred: Option<Deferred>,
}

/// A BATCH2's frame check, left for [`ReceivedBatch::decode_into`].
struct Deferred {
    /// CRC of the type byte and the fixed fields.
    head_crc: u32,
    /// The frame CRC as stored on the wire.
    stored: u32,
}

impl ReceivedBatch {
    /// Take a BATCH2 payload (type byte first), whose CRC as stored on
    /// the wire is `stored`, over without copying it. An uncompressed
    /// block defers the frame check to [`ReceivedBatch::decode_into`];
    /// anything else is checked here, before it is parsed, and unpacked
    /// into a buffer from `spare`, where the payload then goes.
    fn parse(
        payload: Vec<u8>,
        stored: u32,
        spare: &mut Vec<Vec<u8>>,
    ) -> Result<ReceivedBatch, ServeError> {
        let head = Batch2Head::parse(&payload);
        let defer = matches!(&head, Some(head) if head.codec == wire_codec_tag(Codec::None));
        if !defer {
            check_payload(&payload, stored)?;
        }
        let head = head.ok_or_else(|| ServeError::Protocol("BATCH2 head too short".into()))?;
        let wire_len = payload.len() - BATCH2_HEAD;
        let (records, deferred) = match wire_codec(head.codec)? {
            Codec::None => {
                let head_crc = Crc32::checksum(&payload[..BATCH2_HEAD]);
                let records = Bytes::from(payload).slice(BATCH2_HEAD..);
                (records, Some(Deferred { head_crc, stored }))
            }
            codec => {
                let mut records = spare.pop().unwrap_or_default();
                let unpacked = codec.decompress_into(&payload[BATCH2_HEAD..], &mut records);
                spare.push(payload);
                unpacked.map_err(|e| ServeError::Protocol(format!("BATCH2 block: {e}")))?;
                (Bytes::from(records), None)
            }
        };
        Ok(ReceivedBatch {
            head,
            wire_len,
            records,
            deferred,
        })
    }

    /// Append the batch's samples to `out`, each aliasing the record
    /// stream, and fold them into `sum`: exactly `head.count` of them,
    /// or an error and `out` and `sum` as they were. Each record is
    /// hashed right after its CRC check, while its bytes are in cache; a
    /// record that is not its sample's canonical encoding is refused, so
    /// the hash is the sample's. A deferred frame check is done here:
    /// the CRC of the head is extended by each record's header, verified
    /// payload CRC and trailer ([`fold_record`]), and the frame is
    /// accepted only when that is the stored CRC — else it is
    /// [`ServeError::BadPayload`], the answer of the one-pass check.
    fn decode_into(
        &self,
        out: &mut Vec<Sample>,
        sum: &mut MultisetChecksum,
    ) -> Result<(), ServeError> {
        let start = out.len();
        let mut batch_sum = MultisetChecksum::default();
        let mut folded = self.deferred.as_ref().map(|d| d.head_crc);
        let mut records = RecordReader::new(&self.records);
        let failure = loop {
            let (record, crc) = match records.next_with_crc() {
                None => break None,
                Some(Err(e)) => break Some(e.to_string()),
                Some(Ok(pair)) => pair,
            };
            if let Some(folded) = &mut folded {
                *folded = fold_record(*folded, record.len() as u64, crc);
            }
            batch_sum.add_encoded(record);
            match Sample::decode_shared(&self.records, record) {
                Ok((sample, _)) if sample.encoded_len() == record.len() => out.push(sample),
                Ok(_) => break Some("a record is not its sample's canonical encoding".into()),
                Err(e) => break Some(e.to_string()),
            }
        };
        let (got, count) = (out.len() - start, self.head.count as usize);
        let failure = failure
            .or_else(|| (got != count).then(|| format!("{got} samples in a block of {count}")));
        let error = match (failure, &self.deferred) {
            (None, Some(deferred)) if folded != Some(deferred.stored) => ServeError::BadPayload,
            (None, _) => {
                sum.merge(batch_sum);
                return Ok(());
            }
            // The records did not decode, so there is no fold to end:
            // whether the frame is damaged takes the one pass.
            (Some(_), Some(deferred))
                if Crc32::combine(
                    deferred.head_crc,
                    Crc32::checksum(&self.records),
                    self.records.len() as u64,
                ) != deferred.stored =>
            {
                ServeError::BadPayload
            }
            (Some(why), _) => ServeError::Protocol(format!("BATCH2 block: {why}")),
        };
        out.truncate(start);
        Err(error)
    }
}

/// End a conversation the peer broke: tell it why in an ERR frame
/// (best effort — it may already be gone) and hand back the typed
/// error for the caller to return.
pub(crate) fn reject(writer: &mut impl Write, why: &str) -> ServeError {
    let _ = write_frame(
        writer,
        &Frame::Err {
            message: why.into(),
        },
    );
    ServeError::Protocol(why.into())
}

/// The version rule, the same on the dialing and the accepting side:
/// send HELLO, then require the peer's *first* frame to be a HELLO
/// carrying exactly [`PROTOCOL_VERSION`]. Any other well-formed first
/// frame is [`reject`]ed; a transport failure (close, CRC, timeout)
/// comes back as the error it was, so callers can tell a peer from
/// another build ([`ServeError::Protocol`], no point retrying) from a
/// broken link.
pub(crate) fn handshake(
    writer: &mut impl Write,
    reader: &mut impl Read,
    trace_id: u64,
) -> Result<(), ServeError> {
    write_frame(
        writer,
        &Frame::Hello {
            version: PROTOCOL_VERSION,
            trace_id,
        },
    )?;
    match read_frame(reader)? {
        Some(Frame::Hello { version, .. }) if version == PROTOCOL_VERSION => Ok(()),
        Some(Frame::Hello { version, .. }) => Err(reject(
            writer,
            &format!(
                "peer speaks protocol version {version}, this build speaks {PROTOCOL_VERSION}"
            ),
        )),
        Some(_) => Err(reject(writer, "the first frame must be HELLO")),
        None => Err(ServeError::Truncated),
    }
}

/// Order-insensitive fingerprint of a sample multiset: the wrapping sum
/// of per-sample hashes over the [`Sample::encode`] byte stream, plus
/// the count. Two epochs delivered the same samples (in any order,
/// across any worker assignment) iff their checksums match. The values
/// compare runs of one build; they are not a stored format.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct MultisetChecksum {
    /// Samples folded in.
    pub count: u64,
    /// Wrapping sum of per-sample hashes.
    pub sum: u64,
}

impl MultisetChecksum {
    /// Fold one sample in. The sample's bytes are hashed where they
    /// lie; nothing is encoded or allocated.
    pub fn add(&mut self, sample: &Sample) {
        let mut hasher = StripeHasher::default();
        sample.encode_to(|piece| hasher.write(piece));
        self.fold(hasher);
    }

    /// Fold in the sample whose [`Sample::encode`] bytes are `encoded`:
    /// the same as [`MultisetChecksum::add`] of that sample.
    pub(crate) fn add_encoded(&mut self, encoded: &[u8]) {
        let mut hasher = StripeHasher::default();
        hasher.write(encoded);
        self.fold(hasher);
    }

    fn fold(&mut self, hasher: StripeHasher) {
        self.count += 1;
        self.sum = self.sum.wrapping_add(hasher.finish());
    }

    /// Fold another checksum in (disjoint multiset union).
    pub fn merge(&mut self, other: MultisetChecksum) {
        self.count += other.count;
        self.sum = self.sum.wrapping_add(other.sum);
    }

    /// A single comparable digest mixing count and sum.
    pub fn digest(&self) -> u64 {
        mix64(self.sum ^ self.count.wrapping_mul(0x9E3779B97F4A7C15))
    }
}

/// SplitMix64 finalizer: a bijection on `u64` that spreads every input
/// bit over the whole word.
fn mix64(mut z: u64) -> u64 {
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58476D1CE4E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D049BB133111EB);
    z ^ (z >> 31)
}

/// The per-sample hash behind [`MultisetChecksum`]: 64 bits over a byte
/// stream, a function of the bytes alone (not of how `write` calls cut
/// them, nor of the host's endianness).
///
/// The stream is read as 32-byte stripes of four little-endian `u64`
/// words; word `i` of a stripe goes into lane `i` by
/// `lane = rotl(lane ^ word, 27) * M` with `M` odd. The four lanes do
/// not depend on one another, so one multiply covers 8 bytes and four
/// are in flight. A final partial stripe is zero-padded; the lanes are
/// then rotated apart, summed, xored with the stream length times an
/// odd constant, and finalized. Every step is a bijection of the lane
/// it touches, so flipping one bit (one lane changes), or adding or
/// removing zero bytes inside the last stripe (only the length
/// changes), always changes the result. A cut that removes non-zero
/// bytes changes lanes and length together; those cancel with
/// probability about 2^-64, like any other pair of unequal streams.
#[derive(Default)]
struct StripeHasher {
    lanes: [u64; 4],
    /// The bytes of an incomplete stripe, `pending_len` of them.
    pending: [u8; 32],
    pending_len: usize,
    total_len: u64,
}

impl StripeHasher {
    /// xxHash64's second prime.
    const MULTIPLIER: u64 = 0xC2B2_AE3D_27D4_EB4F;

    fn write(&mut self, mut bytes: &[u8]) {
        presto_codecs::touch::hash(bytes.len());
        self.total_len += bytes.len() as u64;
        if self.pending_len > 0 {
            let take = bytes.len().min(32 - self.pending_len);
            self.pending[self.pending_len..][..take].copy_from_slice(&bytes[..take]);
            self.pending_len += take;
            bytes = &bytes[take..];
            if self.pending_len < 32 {
                return;
            }
            self.lanes = Self::absorb(self.lanes, &self.pending);
        }
        let mut lanes = self.lanes;
        let mut stripes = bytes.chunks_exact(32);
        for stripe in &mut stripes {
            lanes = Self::absorb(lanes, stripe.try_into().expect("32-byte chunk"));
        }
        self.lanes = lanes;
        let rest = stripes.remainder();
        self.pending[..rest.len()].copy_from_slice(rest);
        self.pending_len = rest.len();
    }

    fn absorb(mut lanes: [u64; 4], stripe: &[u8; 32]) -> [u64; 4] {
        for (lane, word) in lanes.iter_mut().zip(stripe.chunks_exact(8)) {
            let word = u64::from_le_bytes(word.try_into().expect("8-byte chunk"));
            *lane = (*lane ^ word)
                .rotate_left(27)
                .wrapping_mul(Self::MULTIPLIER);
        }
        lanes
    }

    fn finish(mut self) -> u64 {
        if self.pending_len > 0 {
            self.pending[self.pending_len..].fill(0);
            self.lanes = Self::absorb(self.lanes, &self.pending);
        }
        let [a, b, c, d] = self.lanes;
        let folded = a
            .rotate_left(1)
            .wrapping_add(b.rotate_left(7))
            .wrapping_add(c.rotate_left(12))
            .wrapping_add(d.rotate_left(18));
        mix64(folded ^ self.total_len.wrapping_mul(0x9E3779B97F4A7C15))
    }
}

/// Credit gate: a server's writer blocks here before each BATCH until
/// the client grants more credits (or the connection/server dies).
pub(crate) struct CreditGate {
    state: Mutex<(u64, bool)>, // (credits, closed)
    cv: Condvar,
}

impl CreditGate {
    pub(crate) fn new() -> Self {
        CreditGate {
            state: Mutex::new((0, false)),
            cv: Condvar::new(),
        }
    }

    pub(crate) fn add(&self, n: u64) {
        let mut state = self.state.lock().unwrap();
        state.0 += n;
        self.cv.notify_all();
    }

    pub(crate) fn close(&self) {
        self.state.lock().unwrap().1 = true;
        self.cv.notify_all();
    }

    /// Take one credit, blocking as needed; counts at most one stall
    /// per call. Returns the nanoseconds stalled, or `None` once closed.
    /// Purely notification-driven: the condvar is signalled on every
    /// credit grant and on close (connection end, server stop and kill
    /// switch all end the connection's reader, which closes the gate),
    /// so there is no poll interval — stall time and wakeup count land
    /// in [`ServeProgress::credit_wait`], which is how tests prove the
    /// absence of a busy-wait.
    pub(crate) fn take(&self, progress: &ServeProgress) -> Option<u64> {
        let mut state = self.state.lock().unwrap();
        let mut stalled: Option<Instant> = None;
        let mut wakes = 0u64;
        let granted = loop {
            if state.1 {
                break false;
            }
            if state.0 > 0 {
                state.0 -= 1;
                break true;
            }
            if stalled.is_none() {
                stalled = Some(Instant::now());
                progress.credit_stall();
            }
            state = self.cv.wait(state).unwrap();
            wakes += 1;
        };
        let stall_ns = stalled.map_or(0, |since| since.elapsed().as_nanos() as u64);
        if stalled.is_some() {
            progress.credit_wait(stall_ns, wakes);
        }
        granted.then_some(stall_ns)
    }
}

/// Serve `listener` until `stop` is raised: block in `accept`, hand
/// each connection to `serve`, and return — dropping the listener, so
/// later dials are refused — as soon as an `accept` returns with the
/// flag up. That first connection is never served: whoever raises the
/// flag makes it with [`wake_acceptor`]. A failed `accept` (a full fd
/// table, a peer that aborted while queued) is not the listener's end;
/// the loop backs off [`ACCEPT_RETRY`] and goes on, so a full fd table
/// — where every retry fails at once — does not spin a core that the
/// connection threads freeing those fds need.
pub(crate) fn accept_until(
    listener: TcpListener,
    stop: &AtomicBool,
    mut serve: impl FnMut(TcpStream),
) {
    loop {
        let accepted = listener.accept();
        if stop.load(Ordering::Acquire) {
            return;
        }
        match accepted {
            Ok((stream, _)) => serve(stream),
            Err(_) => std::thread::sleep(ACCEPT_RETRY),
        }
    }
}

/// How long [`accept_until`] waits after a failed `accept`.
const ACCEPT_RETRY: Duration = Duration::from_millis(5);

/// Unblock the [`accept_until`] loop listening on `addr`, whose stop
/// flag the caller has already raised: one connection to it, which the
/// loop drops unserved. Call it once per loop — after the loop has
/// gone, the port may belong to someone else.
pub(crate) fn wake_acceptor(addr: SocketAddr) {
    let mut target = addr;
    if target.ip().is_unspecified() {
        target.set_ip(match addr {
            SocketAddr::V4(_) => Ipv4Addr::LOCALHOST.into(),
            SocketAddr::V6(_) => Ipv6Addr::LOCALHOST.into(),
        });
    }
    let _ = TcpStream::connect_timeout(&target, Duration::from_secs(5));
}

/// The open connections of one listener, so that stop and the kill
/// switch can sever them: each entry is a clone of the socket, and
/// leaves when its connection ends (see [`ConnEntry`]). A severed
/// connection's reader sees the close and closes its credit gate, which
/// wakes a writer blocked on it. Once [`Conns::sever`]ed, the registry
/// refuses newcomers, so a connection accepted just before a stop
/// cannot slip in after the sweep.
#[derive(Default)]
pub(crate) struct Conns {
    state: Mutex<ConnsState>,
    /// Signalled whenever an entry leaves.
    left: Condvar,
}

#[derive(Default)]
struct ConnsState {
    next_id: u64,
    open: HashMap<u64, TcpStream>,
    severed: bool,
}

impl Conns {
    /// Register a connection for as long as the returned entry lives;
    /// `None` once severed (the caller drops the connection unserved).
    pub(crate) fn enter(&self, stream: &TcpStream) -> Option<ConnEntry<'_>> {
        let clone = stream.try_clone().ok()?;
        let mut state = self.state.lock().unwrap();
        if state.severed {
            return None;
        }
        let id = state.next_id;
        state.next_id += 1;
        state.open.insert(id, clone);
        Some(ConnEntry { conns: self, id })
    }

    /// Shut every open socket and refuse newcomers.
    pub(crate) fn sever(&self) {
        let mut state = self.state.lock().unwrap();
        state.severed = true;
        for stream in state.open.values() {
            let _ = stream.shutdown(Shutdown::Both);
        }
    }

    /// Wait until no connection is registered, or `timeout` passes;
    /// returns how many still are.
    #[cfg(test)]
    pub(crate) fn wait_empty(&self, timeout: Duration) -> usize {
        let state = self.state.lock().unwrap();
        let (state, _) = self
            .left
            .wait_timeout_while(state, timeout, |state| !state.open.is_empty())
            .unwrap();
        state.open.len()
    }
}

/// A connection's place in [`Conns`], given up on drop.
pub(crate) struct ConnEntry<'a> {
    conns: &'a Conns,
    id: u64,
}

impl Drop for ConnEntry<'_> {
    fn drop(&mut self) {
        self.conns.state.lock().unwrap().open.remove(&self.id);
        self.conns.left.notify_all();
    }
}

/// Tuning and fault-injection knobs for a [`ServeWorker`].
#[derive(Debug, Clone)]
pub struct ServeWorkerConfig {
    /// Samples per BATCH frame.
    pub batch_samples: usize,
    /// Compression applied to BATCH blocks on the wire.
    pub wire_codec: Codec,
    /// Sleep before each BATCH frame, modeling a preprocessing node
    /// whose online phase is slower than this synthetic workload's.
    /// Tests and CI smoke runs use it to steer scheduling, so that
    /// weighted tenants' batches interleave within one epoch and a
    /// live endpoint is still serving when it is read.
    pub batch_pace: Duration,
    /// Test/CI kill switch: after this many BATCH frames total the
    /// worker drops every connection and stops accepting — a simulated
    /// mid-epoch crash for failover tests.
    pub fail_after_batches: Option<u64>,
}

impl Default for ServeWorkerConfig {
    fn default() -> Self {
        ServeWorkerConfig {
            batch_samples: 16,
            wire_codec: Codec::None,
            batch_pace: Duration::ZERO,
            fail_after_batches: None,
        }
    }
}

/// A running serve worker: the one server of [`crate::tenant`] with a
/// local source. It accepts client connections on a TCP listener and
/// streams the online phase of its materialized dataset. Drop (or
/// [`ServeWorker::stop`]) shuts it down and joins all threads.
pub struct ServeWorker {
    pub(crate) server: Server,
}

impl std::fmt::Debug for ServeWorker {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("ServeWorker")
            .field("addr", &self.addr())
            .finish()
    }
}

impl ServeWorker {
    /// Bind `bind` (e.g. `127.0.0.1:0` for an ephemeral port) and serve
    /// the online phase of `dataset` through `pipeline`'s post-split
    /// steps. Shard fetches go through `resilience` exactly like the
    /// in-process engine — injected [`crate::store::FaultStore`] faults
    /// apply end-to-end.
    pub fn spawn(
        bind: &str,
        pipeline: &Pipeline,
        dataset: &Materialized,
        store: Arc<dyn BlobStore>,
        resilience: Resilience,
        telemetry: Option<Arc<Telemetry>>,
        config: ServeWorkerConfig,
    ) -> Result<ServeWorker, PipelineError> {
        let steps = executable_steps(pipeline, dataset.split)?;
        let step_names = steps.iter().map(|(name, _)| name.clone()).collect();
        let progress = telemetry
            .as_ref()
            .map_or_else(Default::default, |t| t.serve());
        progress.begin(1);
        let local = Local {
            steps,
            step_names,
            dataset: dataset.clone(),
            store,
            resilience,
            telemetry,
            config,
        };
        // One dispatcher is the node's fixed capacity: concurrent
        // clients share it instead of multiplying it (this is what makes
        // measured fan-out saturate like
        // [`crate::distributed::fan_out`] predicts). Everyone is
        // admitted. A client's next shard is made once its current one
        // is on the wire: made sooner, `serve-direct` measured slower
        // and held a shard more per client.
        let config = FleetDaemonConfig {
            policy: AdmissionPolicy {
                max_jobs: usize::MAX,
                shard_quota: u32::MAX,
                ..AdmissionPolicy::default()
            },
            max_inflight: 1,
            ..FleetDaemonConfig::default()
        };
        let source = Source::Local(Box::new(local));
        let server = Server::spawn(
            bind,
            source,
            config,
            Default::default(),
            progress,
            BufferPool::new(),
        )?;
        Ok(ServeWorker { server })
    }

    /// The bound address (resolves port `0` to the real port).
    pub fn addr(&self) -> SocketAddr {
        self.server.addr()
    }

    /// True once the worker has stopped (explicitly, or because the
    /// [`ServeWorkerConfig::fail_after_batches`] kill switch fired).
    pub fn is_stopped(&self) -> bool {
        self.server.is_stopped()
    }

    /// BATCH frames sent across all connections so far.
    pub fn batches_sent(&self) -> u64 {
        self.server.batches_sent()
    }

    /// Stop accepting, drop connections, and join all threads.
    pub fn stop(self) {
        drop(self);
    }
}

/// The local source: a worker's materialized dataset, run through the
/// online steps in this process ([`process_shard`]), exactly like the
/// in-process engine.
pub(crate) struct Local {
    steps: Vec<(String, Arc<dyn crate::step::Step>)>,
    step_names: Vec<String>,
    dataset: Materialized,
    store: Arc<dyn BlobStore>,
    resilience: Resilience,
    telemetry: Option<Arc<Telemetry>>,
    pub(crate) config: ServeWorkerConfig,
}

impl Local {
    /// The recorder of one assignment: an epoch of the worker's
    /// telemetry when it has one, so each assignment's STATS carry its
    /// own steps and spans.
    pub(crate) fn recorder(&self, epoch_seed: u64) -> Arc<EpochRecorder> {
        let Some(telemetry) = &self.telemetry else {
            return EpochRecorder::noop();
        };
        let rec = telemetry.begin_epoch(&self.step_names, 1, 0);
        rec.set_epoch_seed(epoch_seed);
        rec
    }

    /// Run `shard`: its samples, in batches of
    /// [`ServeWorkerConfig::batch_samples`] that the writer gathers
    /// ([`write_batch`]) or compresses ([`encode_batch`]) as it sends
    /// them. `Err` is a fault the resilience policy would not absorb.
    pub(crate) fn produce(
        &self,
        shard: &str,
        epoch_seed: u64,
        books: &Books,
    ) -> Result<Vec<Pending>, PipelineError> {
        let rec = &books.rec;
        let mut samples = Vec::new();
        let mut deliver = |sample: Sample| {
            let t0 = rec.begin();
            samples.push(sample);
            if let Some(t0) = t0 {
                rec.phase_done(0, PHASE_HANDOFF, t0);
            }
            Deliver::Delivered
        };
        process_shard(
            self.store.as_ref(),
            shard,
            self.dataset.codec,
            &self.steps,
            &self.resilience,
            &books.counters,
            rec,
            0,
            epoch_seed,
            &books.bytes_read,
            None,
            &mut deliver,
        )?;
        let size = self.config.batch_samples.max(1);
        let mut samples = samples.into_iter();
        let batch = || Some(samples.by_ref().take(size).collect::<Vec<_>>());
        let batches = std::iter::from_fn(batch).take_while(|batch| !batch.is_empty());
        let codec = self.config.wire_codec;
        Ok(batches.map(|batch| Pending::Local(batch, codec)).collect())
    }
}

/// Encode `samples` into a block from `pool` and pack it under wire
/// codec `codec`, which compresses: an uncompressed batch is never
/// copied into a block, but gathered from its samples ([`write_batch`]).
pub(crate) fn encode_batch(
    samples: &[Sample],
    codec: Codec,
    pool: &BufferPool,
    rec: &EpochRecorder,
) -> Batch {
    debug_assert!(codec != Codec::None, "an uncompressed batch is gathered");
    let (scratch, hit) = pool.get_bytes(0);
    if hit {
        rec.pool_hits(1);
    } else {
        rec.pool_misses(1);
    }
    let mut block = RecordWriter::with_buffer(scratch);
    for sample in samples {
        block.write_pieces(sample.nbytes() + 64, |sink| sample.encode_to(sink));
    }
    let encoded = block.finish();
    let packed = codec.compress(&encoded);
    pool.put_bytes(encoded);
    let crc = Crc32::checksum(&packed);
    Batch::local(packed, samples.len() as u32, wire_codec_tag(codec), crc)
}

/// Client-side tuning: credits bound worker-side in-flight batches,
/// the policy decides what happens when every worker is gone, the
/// timeouts turn a hung worker into a failover, and the reconnect
/// policy decides how hard to try to re-admit a dead one.
#[derive(Debug, Clone)]
pub struct ServeClientConfig {
    /// BATCH credits granted up front per connection.
    pub credits: u32,
    /// What to do when shards remain and no worker survives.
    pub policy: FaultPolicy,
    /// Per-read socket timeout; an unresponsive worker is failed over.
    pub read_timeout: Duration,
    /// TCP connect timeout per connection attempt.
    pub connect_timeout: Duration,
    /// Reconnect schedule for failed workers, run by the failover rule
    /// `fleetd`'s relay shares (`link::Failover`): each worker's link
    /// gets `max_attempts` consecutive lifeless connection lifecycles
    /// (so [`RetryPolicy::none`] drops a worker on its first failure),
    /// with the policy's exponential backoff slept before each
    /// re-attempt and its `deadline` — measured from epoch start —
    /// capping how long dead workers keep being retried. A lifecycle
    /// that committed a shard or streamed a batch resets the count to
    /// one; a worker that completes an assignment after failing counts
    /// as a **rejoin** and gets its failure budget back.
    pub reconnect: RetryPolicy,
    /// Fleet tracing: when true (and a [`Telemetry`] handle is
    /// attached), the client records a per-shard client span timeline,
    /// runs the clock-offset PING handshake on every connection,
    /// requests end-of-assignment STATS, and meters each frame it
    /// drains into the gap/stream wait-state gauges: the wait for the
    /// frame's first byte is gap, the rest of reading it stream. Turn
    /// off to measure the bare protocol (the `serve_fanout` bench
    /// overhead gate does).
    pub tracing: bool,
    /// Fleet trace id; 0 derives one from the epoch seed.
    pub trace_id: u64,
    /// Tenant identity for multi-tenant serving: when set, the client
    /// sends REGISTER after the handshake and waits for ADMIT before
    /// assigning shards. A REJECT
    /// is fatal for the epoch — admission is policy, not a transient
    /// fault, so there is no failover.
    pub tenant: Option<TenantSpec>,
}

/// A training job's identity on the wire: the REGISTER payload.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct TenantSpec {
    /// Tenant (job) name; the key for quotas, fairness and metrics.
    pub name: String,
    /// Deficit-round-robin weight (≥ 1).
    pub weight: u32,
}

impl TenantSpec {
    /// A tenant spec with a clamped-to-valid weight.
    pub fn new(name: impl Into<String>, weight: u32) -> Self {
        TenantSpec {
            name: name.into(),
            weight: weight.max(1),
        }
    }
}

impl Default for ServeClientConfig {
    fn default() -> Self {
        ServeClientConfig {
            credits: 8,
            policy: FaultPolicy::FailFast,
            read_timeout: Duration::from_secs(30),
            connect_timeout: Duration::from_secs(5),
            reconnect: RetryPolicy::none(),
            tracing: true,
            trace_id: 0,
            tenant: None,
        }
    }
}

/// What one distributed epoch delivered: [`serve_epoch`]'s answer, and
/// the links' tallies a served stream's [`EpochStats::served`] carries.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct ServeReport {
    /// Samples delivered to the consumer.
    pub samples: u64,
    /// BATCH frames drained.
    pub batches: u64,
    /// Compressed block bytes received.
    pub bytes_received: u64,
    /// Order-insensitive fingerprint of the delivered multiset.
    pub checksum: MultisetChecksum,
    /// Shards put back for another link to take, once per requeue.
    pub reassignments: u64,
    /// Worker connections lost mid-epoch (presumed preemptions).
    pub preemptions: u64,
    /// Reconnect attempts made to previously failed workers.
    pub reconnects: u64,
    /// Workers re-admitted mid-epoch after a failure.
    pub rejoins: u64,
    /// Shards abandoned under [`FaultPolicy::Degrade`].
    pub lost_shards: u64,
    /// True when any shard was lost.
    pub degraded: bool,
    /// 1 + the most times any one shard was requeued (1 = no failover).
    pub rounds: u64,
    /// Workers the epoch started with.
    pub workers: u64,
    /// Wall-clock time.
    pub elapsed: Duration,
}

impl ServeReport {
    /// Samples per second.
    pub fn samples_per_second(&self) -> f64 {
        if self.elapsed.is_zero() {
            return 0.0;
        }
        self.samples as f64 / self.elapsed.as_secs_f64()
    }
}

/// Committed shards whose receive buffers a link holds on to, until the
/// caller drops their samples and they can be read into again. A
/// caller that drains as it goes holds two of a link's shards at most
/// (one in the lane, one being read); a shuffle window may hold more,
/// and past this bound the oldest is let go, its buffers freed by
/// whoever drops them last.
const DEFERRED_SHARDS: usize = 4;

/// A link's receive buffers: spare ones to read frames into, and the
/// record streams of committed shards, kept until the caller drops the
/// samples aliasing them and they can be read into again.
#[derive(Default)]
struct Inbound {
    spare: Vec<Vec<u8>>,
    /// Record streams of committed shards, oldest first, kept until
    /// nothing aliases them ([`DEFERRED_SHARDS`] at most).
    deferred: VecDeque<Vec<Bytes>>,
}

impl Buffers for Inbound {
    /// A spare buffer; with none left, the deferred ones the caller is
    /// done with are taken back first.
    fn take(&mut self) -> Vec<u8> {
        if self.spare.is_empty() {
            self.reclaim();
        }
        self.spare.pop().unwrap_or_default()
    }

    fn give(&mut self, buffer: Vec<u8>) {
        self.spare.push(buffer);
    }
}

impl Inbound {
    /// Keep a committed shard's record streams until the caller has
    /// dropped the samples aliasing them.
    fn defer(&mut self, frames: Vec<Bytes>) {
        if self.deferred.len() == DEFERRED_SHARDS {
            self.deferred.pop_front();
        }
        self.deferred.push_back(frames);
    }

    /// Take back as receive buffers the deferred record streams that
    /// nothing aliases any more.
    fn reclaim(&mut self) {
        for frames in &mut self.deferred {
            for frame in std::mem::take(frames) {
                match frame.try_reclaim() {
                    Ok(buffer) => self.spare.push(buffer),
                    Err(frame) => frames.push(frame),
                }
            }
        }
        self.deferred.retain(|frames| !frames.is_empty());
    }
}

/// A standing credit window, the BATCH2 receiver's side: hand back
/// `max(1, credits / 2)` credits each time that many batches are
/// drained, instead of one CREDIT per batch. The sender is granted
/// `credits` up front and never owed more than half of them, so it
/// never runs dry of credit on a receiver that keeps draining.
pub(crate) struct CreditWindow {
    step: u32,
    drained: u32,
}

impl CreditWindow {
    pub(crate) fn new(credits: u32) -> CreditWindow {
        CreditWindow {
            step: (credits / 2).max(1),
            drained: 0,
        }
    }

    /// One batch drained: the credits to send back now, if any.
    pub(crate) fn drained(&mut self) -> Option<u32> {
        self.drained += 1;
        (self.drained >= self.step).then(|| std::mem::take(&mut self.drained))
    }
}

/// SplitMix64: derive a deterministic trace id from the epoch seed.
fn derive_trace_id(seed: u64) -> u64 {
    mix64(seed.wrapping_add(0x9E3779B97F4A7C15))
}

/// Consume one epoch from `workers`, delivering every sample to
/// `consume` on the caller's thread: a drain of [`serve_stream`].
pub fn serve_epoch<F>(
    workers: &[String],
    shards: &[String],
    epoch_seed: u64,
    config: &ServeClientConfig,
    telemetry: Option<&Telemetry>,
    consume: F,
) -> Result<ServeReport, PipelineError>
where
    F: Fn(&Sample) + Send + Sync,
{
    let mut stream = serve_stream(workers, shards, epoch_seed, config, telemetry)?;
    // Errors are kept by the stream; `join` returns the first.
    for sample in (&mut stream).flatten() {
        consume(&sample);
    }
    stream.join().map(|stats| stats.served.unwrap_or_default())
}

/// Start one epoch served by `workers`: the same [`EpochStream`] the
/// local engine returns, so the caller pulls, shuffles and joins it the
/// same way, and [`EpochStats::served`] carries the links' tallies.
///
/// Each worker gets one *link*, a thread with its own ring lane, like
/// each local worker thread. A link's first assignment is its stripe
/// of `shards`, laid out as [`crate::real::RealExecutor`] stripes
/// shards across threads; it commits each shard on its EOF, sends the
/// shard's samples into its lane as one bundle, and reads on once the
/// caller has taken the shard before; it keeps a healthy connection
/// for its next assignment. A connection that
/// dies puts its uncommitted shards back on one pending queue, which
/// idle links pull from. A failed link is not dropped outright: it gets
/// [`ServeClientConfig::reconnect`] connection lifecycles (with backoff
/// slept before each re-attempt), so a preempted worker that comes back
/// on the same address rejoins mid-epoch and pulls pending shards
/// again. Only when the last link is written off with shards still
/// pending does `config.policy` decide between failing and a degraded
/// epoch. Because online-step RNG is seeded per shard, none of this
/// reordering changes the delivered multiset: the tallied checksum
/// stays equal to a single-process run's whenever the epoch completes.
/// Dropping the stream stops its links and closes their connections.
pub fn serve_stream(
    workers: &[String],
    shards: &[String],
    epoch_seed: u64,
    config: &ServeClientConfig,
    telemetry: Option<&Telemetry>,
) -> Result<EpochStream, PipelineError> {
    if workers.is_empty() {
        return Err(PipelineError::InvalidStrategy(
            "a served epoch needs at least one worker address".into(),
        ));
    }
    for addr in workers {
        addr.parse::<SocketAddr>()
            .map_err(|_| PipelineError::InvalidStrategy(format!("bad worker address '{addr}'")))?;
    }
    let progress = telemetry.map(|t| t.serve());
    if let Some(progress) = &progress {
        progress.begin(workers.len() as u64);
    }
    // Fleet tracing: a client-epoch recorder whose extra "steps" are
    // the shards themselves (one client span per shard, from
    // assignment start to EOF commit), plus the fleet registry the
    // connections fill with handshake offsets and remote stats.
    let tracing = telemetry.filter(|_| config.tracing);
    let trace_id = match config.trace_id {
        0 => derive_trace_id(epoch_seed),
        id => id,
    };
    let rec = tracing.map_or_else(EpochRecorder::noop, |t| {
        let rec = t.begin_epoch(shards, workers.len(), 0);
        rec.set_epoch_seed(epoch_seed);
        rec
    });
    let fleet = tracing.map(|t| {
        let fleet = t.fleet();
        fleet.begin(trace_id);
        fleet
    });
    let n = workers.len();
    let stripes: Vec<Vec<usize>> = (0..n)
        .map(|link| (link..shards.len()).step_by(n).collect())
        .collect();
    let links = Arc::new(Links {
        workers: workers.to_vec(),
        shards: shards.to_vec(),
        epoch_seed,
        config: config.clone(),
        started: Instant::now(),
        rec,
        fleet,
        trace_id,
        progress,
        state: Mutex::new(LinkState {
            requeues: vec![0; shards.len()],
            busy: stripes.iter().filter(|stripe| !stripe.is_empty()).count(),
            alive: n,
            ..LinkState::default()
        }),
        changed: Condvar::new(),
        stop: AtomicBool::new(false),
        conns: Conns::default(),
    });
    // A lane holds one committed shard: a double buffer behind the
    // one the caller is reading, and a link reads no further ahead.
    let (lanes, receiver) = dataplane::ring(n, 1);
    let mut stream = EpochStream::new(receiver, Arc::clone(&links) as Arc<dyn Feed>);
    for ((link, lane), stripe) in lanes.into_iter().enumerate().zip(stripes) {
        let links = Arc::clone(&links);
        stream.spawn(move || links.run(link, stripe, lane));
    }
    Ok(stream)
}

/// One served epoch, as its links share it: the pending queue failover
/// feeds and idle links pull from, the tallies, and what stops them.
struct Links {
    workers: Vec<String>,
    /// The epoch's shards; links pass them around by index.
    shards: Vec<String>,
    epoch_seed: u64,
    config: ServeClientConfig,
    started: Instant,
    /// The client-epoch recorder: when tracing, one span per shard, its
    /// phase `BUILTIN_PHASES` + the shard's index; a no-op otherwise.
    rec: Arc<EpochRecorder>,
    /// When tracing, the registry the connections fill with handshake
    /// offsets and remote stats.
    fleet: Option<Arc<FleetProgress>>,
    trace_id: u64,
    progress: Option<Arc<ServeProgress>>,
    state: Mutex<LinkState>,
    /// Signalled when shards are requeued, a link settles, or the
    /// epoch stops.
    changed: Condvar,
    stop: AtomicBool,
    /// The links' open connections, so that hanging up severs them.
    conns: Conns,
}

/// The mutable part of [`Links`].
#[derive(Default)]
struct LinkState {
    /// Shards no link holds: put back by failed connections.
    pending: VecDeque<usize>,
    /// Times each shard was put back.
    requeues: Vec<u64>,
    /// Links holding an assignment.
    busy: usize,
    /// Links not written off.
    alive: usize,
    /// The links' tallies so far.
    report: ServeReport,
}

impl Feed for Links {
    fn rec(&self) -> &EpochRecorder {
        &self.rec
    }

    fn taken(&self, _drained: Vec<Sample>) {}

    fn hang_up(&self) {
        self.stop.store(true, Ordering::Release);
        self.conns.sever();
        // Called from `Drop`: only wakes the waiters, so a poisoned lock
        // is as good as a clean one here.
        let _state = self.state.lock().unwrap_or_else(PoisonError::into_inner);
        self.changed.notify_all();
    }

    fn tally(&self, samples: u64, elapsed: Duration, caller: Duration) -> EpochStats {
        if let Some(progress) = &self.progress {
            progress.consume_time(caller.as_nanos() as u64);
            progress.finish();
        }
        let state = self.lock();
        let requeued = state.requeues.iter().max().copied().unwrap_or(0);
        let report = ServeReport {
            samples,
            degraded: state.report.lost_shards > 0,
            rounds: 1 + requeued,
            workers: self.workers.len() as u64,
            elapsed,
            ..state.report.clone()
        };
        EpochStats {
            samples,
            bytes_read: report.bytes_received,
            elapsed,
            lost_shards: report.lost_shards,
            degraded: report.degraded,
            served: Some(report),
            ..EpochStats::default()
        }
    }
}

/// Why a link's state lock can fail: a panic while it was held, which
/// only a bug in the accounting can cause.
const POISONED: &str = "a link panicked holding the served epoch's state";

impl Links {
    fn lock(&self) -> MutexGuard<'_, LinkState> {
        self.state.lock().expect(POISONED)
    }

    fn stopped(&self) -> bool {
        self.stop.load(Ordering::Acquire)
    }

    /// Link `link`'s thread: feed `lane` from worker `link`, one
    /// assignment at a time — `stripe` first, then what failover puts
    /// back — until the epoch has no shard left for it.
    fn run(&self, link: usize, stripe: Vec<usize>, lane: Lane) {
        let addr = self.workers[link].as_str();
        // Tracing takes a telemetry handle, so it has serve gauges too.
        let traced = self.fleet.as_deref().zip(self.progress.as_deref());
        let trace = traced.map(|(fleet, meter)| Trace {
            fleet,
            trace_id: self.trace_id,
            conn: link as u32,
            meter,
        });
        let dial = Dial {
            connect_timeout: self.config.connect_timeout,
            read_timeout: self.config.read_timeout,
            credits: self.config.credits,
            trace,
            tenant: self.config.tenant.as_ref(),
        };
        let mut upstream = Link::new(addr, &self.conns, dial);
        let mut failover = Failover::new(self.config.reconnect.clone());
        let mut inbound = Inbound::default();
        let mut assigned = stripe;
        let failure = loop {
            if assigned.is_empty() {
                match self.next_assignment(&failover) {
                    Ok(Some(shards)) => assigned = shards,
                    Ok(None) => return,
                    Err(e) => break e,
                }
            }
            let mut sink = Decode {
                links: self,
                link,
                lane: &lane,
                assigned: &assigned,
                inbound: &mut inbound,
                open: vec![Default::default(); assigned.len()],
                uncommitted: assigned.clone(),
                checksum: MultisetChecksum::default(),
                batches: 0,
                bytes: 0,
                t0: None,
            };
            let names = assigned.iter().map(|&i| self.shards[i].clone()).collect();
            let outcome = upstream.assign(self.epoch_seed, names, &mut sink);
            match self.settle(outcome, sink, &mut failover) {
                Ok(true) => assigned.clear(),
                Ok(false) => return,
                Err(e) => break e,
            }
            if let Some(wait) = failover.backoff(self.epoch_seed ^ fnv64(addr)) {
                pause(&self.state, &self.changed, &self.stop, wait);
            }
        };
        let _ = lane.send(Err(failure), &mut |_| {});
    }

    /// Wait for shards an idle link can take: its share of the pending
    /// queue. `None` once the epoch is over for it — nothing pending and
    /// no link holding shards that could fail back, or the caller hung
    /// up. A failing link past the reconnect deadline is written off
    /// instead.
    fn next_assignment(&self, failover: &Failover) -> Result<Option<Vec<usize>>, PipelineError> {
        let mut state = self.lock();
        loop {
            if self.stopped() {
                return Ok(None);
            }
            if !state.pending.is_empty() {
                if failover.written_off(self.started.elapsed()) {
                    return self.write_off(&mut state).map(|()| None);
                }
                if failover.failing() {
                    state.report.reconnects += 1;
                    if let Some(progress) = &self.progress {
                        progress.record_reconnect_attempt();
                    }
                }
                let take = state.pending.len().div_ceil(state.alive);
                state.busy += 1;
                return Ok(Some(state.pending.drain(..take).collect()));
            }
            if state.busy == 0 {
                return Ok(None);
            }
            state = self.changed.wait(state).expect(POISONED);
        }
    }

    /// Book one assignment's `outcome`: the sink's tallies, a rejoin or,
    /// on a loss, the shards it did not commit back on the pending queue
    /// and the failure in `failover`. `Ok(true)` when the link goes on,
    /// `Ok(false)` when it stops (hung up, or written off); a fatal
    /// outcome hangs the epoch up and is its error.
    fn settle(
        &self,
        outcome: Outcome,
        sink: Decode<'_>,
        failover: &mut Failover,
    ) -> Result<bool, PipelineError> {
        let mut state = self.lock();
        state.busy -= 1;
        self.changed.notify_all();
        state.report.batches += sink.batches;
        state.report.checksum.merge(sink.checksum);
        state.report.bytes_received += sink.bytes;
        let life = match outcome {
            Outcome::Fatal { why, .. } => {
                drop(state);
                self.hang_up();
                return Err(PipelineError::Other(why));
            }
            Outcome::Stopped => return Ok(false),
            _ if self.stopped() => return Ok(false),
            Outcome::Done => {
                if failover.delivered() {
                    state.report.rejoins += 1;
                    if let Some(progress) = &self.progress {
                        progress.record_rejoin();
                    }
                }
                return Ok(true);
            }
            Outcome::Lost { life, .. } => life,
        };
        failover.failed(life);
        let failed = sink.uncommitted;
        state.report.preemptions += 1;
        state.report.reassignments += failed.len() as u64;
        if let Some(progress) = &self.progress {
            progress.record_preemption();
            progress.record_reassignments(failed.len() as u64);
        }
        for shard in failed {
            state.requeues[shard] += 1;
            state.pending.push_back(shard);
        }
        if !failover.written_off(self.started.elapsed()) {
            return Ok(true);
        }
        self.write_off(&mut state).map(|()| false)
    }

    /// Write a link off for the rest of the epoch. The last one out with
    /// shards still pending leaves them to the fault policy: fail, or
    /// lose them within the degrade budget.
    fn write_off(&self, state: &mut LinkState) -> Result<(), PipelineError> {
        state.alive -= 1;
        if state.alive > 0 || state.pending.is_empty() {
            return Ok(());
        }
        let lost = state.pending.len() as u64;
        match &self.config.policy {
            FaultPolicy::FailFast => Err(PipelineError::LostShard {
                shard: self.shards[state.pending[0]].clone(),
            }),
            FaultPolicy::Degrade {
                max_lost_shards, ..
            } if lost > *max_lost_shards => Err(PipelineError::FaultBudgetExceeded {
                skipped_samples: 0,
                lost_shards: lost,
            }),
            FaultPolicy::Degrade { .. } => {
                state.report.lost_shards = lost;
                state.pending.clear();
                self.changed.notify_all();
                Ok(())
            }
        }
    }
}

/// The client's [`Sink`] for one assignment of link `link`: each BATCH2
/// is decoded where it lies and hashed while its bytes are in cache
/// ([`ReceivedBatch`]), a shard's samples are buffered until its EOF,
/// and then sent into the link's lane as one bundle.
struct Decode<'a> {
    links: &'a Links,
    link: usize,
    lane: &'a Lane,
    /// The assigned shards, as indices into the epoch's shard list.
    assigned: &'a [usize],
    inbound: &'a mut Inbound,
    /// Per assigned shard until its EOF: the samples, their checksum and
    /// the record streams they alias.
    open: Vec<(Vec<Sample>, MultisetChecksum, Vec<Bytes>)>,
    /// Assigned shards not committed yet: what a failure puts back.
    uncommitted: Vec<usize>,
    /// Fingerprint of the shards delivered to the lane.
    checksum: MultisetChecksum,
    batches: u64,
    bytes: u64,
    /// When tracing, the start of one client span per shard: assignment
    /// start → EOF commit.
    t0: Option<Instant>,
}

impl Buffers for Decode<'_> {
    fn take(&mut self) -> Vec<u8> {
        self.inbound.take()
    }

    fn give(&mut self, buffer: Vec<u8>) {
        self.inbound.give(buffer);
    }
}

impl Sink for Decode<'_> {
    /// Decode in place: the samples alias the received payload. The
    /// shard index is read before a deferred frame check, but a frame
    /// that fails it leaves every buffer as it was.
    fn batch(&mut self, head: Batch2Head, payload: Vec<u8>, stored: u32) -> Result<(), ServeError> {
        let batch = ReceivedBatch::parse(payload, stored, &mut self.inbound.spare)?;
        let (samples, sum, frames) = &mut self.open[head.shard as usize];
        batch.decode_into(samples, sum)?;
        self.batches += 1;
        self.bytes += batch.wire_len as u64;
        frames.push(batch.records);
        Ok(())
    }

    fn assigned(&mut self) {
        self.t0 = self.links.rec.begin();
    }

    fn commit(&mut self, index: usize, last: bool) -> bool {
        let (samples, sum, frames) = std::mem::take(&mut self.open[index]);
        if !samples.is_empty() {
            let bundle = SampleBundle::from_container(samples);
            if self.lane.send(Ok(bundle), &mut |_| {}).is_err() {
                return false;
            }
        }
        self.checksum.merge(sum);
        self.inbound.defer(frames);
        let shard = self.assigned[index];
        self.uncommitted.retain(|&s| s != shard);
        if let Some(t0) = self.t0 {
            let rec = &self.links.rec;
            rec.phase_done(self.link, BUILTIN_PHASES + shard, t0);
        }
        // Read on only once the caller has taken the shard before this
        // one: a link runs at most one committed shard ahead of it.
        last || self.lane.wait_room()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::link::Incoming;
    use std::sync::mpsc;

    /// One frame of every kind, with every string and list non-empty
    /// somewhere so each length and count field guards real bytes.
    fn frame_zoo() -> Vec<Frame> {
        let entry = FleetWorkerEntry {
            assign_start_mono_ns: 11,
            elapsed_ns: 1_000,
            samples: 64,
            batches: 4,
            produce_ns: 800,
            credit_wait_ns: 120,
            dropped_spans: 2,
            steps: vec![
                ("read".into(), "io".into(), 300),
                ("resize".into(), "step".into(), 500),
            ],
            spans: vec![presto_telemetry::SpanEvent {
                worker: 0,
                phase: 1,
                start_ns: 5,
                dur_ns: 0, // zero-duration spans must survive the wire
            }],
            ..FleetWorkerEntry::default()
        };
        vec![
            Frame::Hello {
                version: 7,
                trace_id: 0xFACE,
            },
            Frame::Assign {
                epoch_seed: 0xDEAD_BEEF,
                credits: 4,
                shards: vec!["a-shard-0000".into(), "b".into(), String::new()],
                trace_id: 42,
                parent_span: 7,
                flags: ASSIGN_WANT_STATS,
            },
            Frame::Credit { n: 1 },
            Frame::Eof { shard: 9 },
            Frame::Err {
                message: "shard fell over".into(),
            },
            Frame::Ping { t0: 123, seq: 2 },
            Frame::Pong {
                t0: 123,
                t_worker: 456,
                seq: 2,
            },
            Frame::Stats {
                entry: Box::new(entry),
            },
            Frame::Batch2 {
                shard: 1,
                count: 3,
                codec: 0,
                span_id: 77,
                t_send: 999,
                block: vec![1, 2, 3],
            },
            Frame::Batch2 {
                shard: 3,
                count: 0,
                codec: 0,
                span_id: 0,
                t_send: 0,
                block: Vec::new(),
            },
            Frame::Register {
                tenant: "résnet-50".into(), // names survive as UTF-8
                weight: 4,
                shards: 12,
            },
            Frame::Admit {
                tenant: String::new(),
                quota: u32::MAX,
            },
            Frame::Reject {
                tenant: "greedy".into(),
                reason: "12 shards over quota 8".into(),
            },
            // A block of real samples, for the client's in-place path.
            batch_of(2, &sample_zoo()[..4]),
        ]
    }

    /// A BATCH2 as a worker sends it: `samples` record-framed, no codec.
    fn batch_of(shard: u32, samples: &[Sample]) -> Frame {
        let mut block = RecordWriter::new();
        for sample in samples {
            block.write_pieces(sample.nbytes() + 64, |sink| sample.encode_to(sink));
        }
        Frame::Batch2 {
            shard,
            count: samples.len() as u32,
            codec: 0,
            span_id: 5,
            t_send: 6,
            block: block.finish(),
        }
    }

    /// The samples a BATCH2's block carries, decoded by copying — or
    /// `None` when the block is not `count` well-formed records.
    fn carried(frame: &Frame) -> Option<Vec<Sample>> {
        let Frame::Batch2 { count, block, .. } = frame else {
            return None;
        };
        let samples = RecordReader::new(block)
            .map(|record| Sample::decode(record.ok()?).ok())
            .collect::<Option<Vec<Sample>>>()?;
        (samples.len() == *count as usize).then_some(samples)
    }

    /// 16 samples of one 112×112×3 `u8` tensor each (37 632 bytes), the
    /// size of a served CV batch, and their BATCH2.
    fn image_batch() -> (Vec<Sample>, Frame) {
        use presto_tensor::Tensor;
        let samples: Vec<Sample> = (0..16u64)
            .map(|key| {
                let pixels = (0..37_632u64).map(|i| (i * 31 + key) as u8).collect();
                let tensor = Tensor::from_vec(vec![112, 112, 3], pixels).unwrap();
                Sample::from_tensors(key, vec![tensor])
            })
            .collect();
        let frame = batch_of(7, &samples);
        (samples, frame)
    }

    /// The wire bytes of `frame` as the parent construction made them:
    /// the whole payload assembled, then copied into record framing.
    fn oracle_wire(frame: &Frame) -> Vec<u8> {
        let mut rec = RecordWriter::new();
        rec.write(&frame.encode_payload());
        rec.finish()
    }

    /// The samples the client's in-place path makes of a payload that
    /// crossed the wire intact: its stored CRC is its own.
    fn receive_payload(payload: Vec<u8>) -> Result<Vec<Sample>, ServeError> {
        let stored = Crc32::checksum(&payload);
        let batch = ReceivedBatch::parse(payload, stored, &mut Vec::new())?;
        let mut samples = Vec::new();
        batch.decode_into(&mut samples, &mut MultisetChecksum::default())?;
        Ok(samples)
    }

    /// What the client makes of `wire`: one frame read as a link reads
    /// it, a BATCH2 decoded onto the end of `buffer` and folded into
    /// `sum`, as its sink decodes it. `Ok(true)` when a BATCH2 was
    /// accepted.
    fn receive_wire(
        wire: &[u8],
        buffer: &mut Vec<Sample>,
        sum: &mut MultisetChecksum,
    ) -> Result<bool, ServeError> {
        let mut inbound = Inbound::default();
        match crate::link::receive(&mut &wire[..], &mut inbound)? {
            Some(Incoming::Batch(_, payload, stored)) => {
                let batch = ReceivedBatch::parse(payload, stored, &mut inbound.spare)?;
                batch.decode_into(buffer, sum).map(|()| true)
            }
            _ => Ok(false),
        }
    }

    /// The checksum of `samples`, as a consumer takes it.
    fn checksum_of(samples: &[Sample]) -> MultisetChecksum {
        let mut sum = MultisetChecksum::default();
        samples.iter().for_each(|sample| sum.add(sample));
        sum
    }

    /// `payload` — `frame`'s, perhaps damaged — through the in-place
    /// path: a typed error, or exactly the samples `frame` carries
    /// (a damaged shard index or trace field is the transport CRC's to
    /// catch, not this path's).
    fn in_place_is_faithful(frame: &Frame, payload: Vec<u8>) -> bool {
        match receive_payload(payload) {
            Ok(samples) => Some(samples) == carried(frame),
            Err(ServeError::Protocol(_)) => true,
            Err(_) => false,
        }
    }

    /// A `Write` that keeps every slice it is handed (where it lay, how
    /// long it was) and takes at most `limit` bytes per call.
    struct Recording {
        limit: usize,
        /// Take at most the first non-empty slice of each call.
        one_slice: bool,
        slices: Vec<(*const u8, usize)>,
        bytes: Vec<u8>,
    }

    impl Recording {
        fn new(limit: usize) -> Self {
            Recording {
                limit,
                one_slice: false,
                slices: Vec::new(),
                bytes: Vec::new(),
            }
        }

        fn one_slice_per_call() -> Self {
            Recording {
                one_slice: true,
                ..Recording::new(usize::MAX)
            }
        }
    }

    impl Write for Recording {
        fn write(&mut self, buf: &[u8]) -> io::Result<usize> {
            self.write_vectored(&[IoSlice::new(buf)])
        }

        fn write_vectored(&mut self, bufs: &[IoSlice<'_>]) -> io::Result<usize> {
            let mut taken = 0;
            for buf in bufs {
                self.slices.push((buf.as_ptr(), buf.len()));
                let take = buf.len().min(self.limit - taken);
                self.bytes.extend_from_slice(&buf[..take]);
                taken += take;
                if taken == self.limit || (self.one_slice && taken > 0) {
                    break;
                }
            }
            Ok(taken)
        }

        fn flush(&mut self) -> io::Result<()> {
            Ok(())
        }
    }

    #[test]
    fn frames_round_trip_through_payload_encoding() {
        for frame in frame_zoo() {
            let payload = frame.encode_payload();
            assert_eq!(Frame::decode_payload(&payload).as_ref(), Ok(&frame));
            // Strict bodies. A cut anywhere before the variable-length
            // tail (BATCH2's block, ERR's text) is a typed error, and
            // so is a byte after the last field of a fixed layout.
            let tail = match &frame {
                Frame::Err { message } => Some(message.len()),
                Frame::Batch2 { block, .. } => Some(block.len()),
                _ => None,
            };
            for cut in 0..payload.len() - tail.unwrap_or(0) {
                let got = Frame::decode_payload(&payload[..cut]);
                assert!(
                    matches!(got, Err(ServeError::Protocol(_))),
                    "{frame:?} cut at {cut}: {got:?}"
                );
            }
            if tail.is_none() {
                let got = Frame::decode_payload(&[&payload[..], &[0]].concat());
                assert!(
                    matches!(got, Err(ServeError::Protocol(_))),
                    "{frame:?} with a trailing byte: {got:?}"
                );
            }
            // A flipped bit reads as a typed error or as some other
            // frame — never a panic, never the frame that was sent.
            // (STATS step kinds are a 4-value label: tags 3..=255 all
            // read back as "step", so a flip there can be invisible.)
            for bit in 0..payload.len() * 8 {
                let mut flipped = payload.clone();
                flipped[bit / 8] ^= 1 << (bit % 8);
                match Frame::decode_payload(&flipped) {
                    Ok(other) => assert!(
                        other != frame || matches!(frame, Frame::Stats { .. }),
                        "{frame:?} bit {bit}"
                    ),
                    Err(ServeError::Protocol(_)) => {}
                    Err(other) => panic!("{frame:?} bit {bit}: {other:?}"),
                }
            }
        }
    }

    #[test]
    fn wire_and_in_place_reads_answer_cuts_and_flips_with_typed_errors() {
        for frame in frame_zoo() {
            let payload = frame.encode_payload();
            let mut wire = Vec::new();
            write_frame(&mut wire, &frame).unwrap();
            assert_eq!(read_payload(&mut &wire[..]), Ok(Some(payload.clone())));
            // On the wire: a cut is a clean close at the boundary and
            // truncation anywhere else; a flipped bit fails the header
            // or the payload CRC.
            assert_eq!(read_payload(&mut &wire[..0]), Ok(None));
            for cut in 1..wire.len() {
                let got = read_payload(&mut &wire[..cut]);
                assert_eq!(got, Err(ServeError::Truncated), "{frame:?} cut at {cut}");
            }
            for bit in 0..wire.len() * 8 {
                let mut flipped = wire.clone();
                flipped[bit / 8] ^= 1 << (bit % 8);
                let got = read_payload(&mut &flipped[..]);
                assert!(
                    matches!(got, Err(ServeError::BadHeader | ServeError::BadPayload)),
                    "{frame:?} wire bit {bit}: {got:?}"
                );
            }
            // The client's read: an uncompressed BATCH2's frame CRC is
            // folded from its records as they decode, not checked in a
            // pass of its own. The folded check rejects every flip —
            // head, record header, payload, trailer or frame CRC — with
            // a typed error, and the shard buffer keeps what it held.
            let Frame::Batch2 { codec, .. } = frame else {
                continue;
            };
            // Accepted records are hashed as they decode, into the
            // shard's checksum; a rejected frame adds nothing to it.
            let held = sample_zoo()[4..6].to_vec();
            let held_sum = checksum_of(&held);
            let (mut buffer, mut sum) = (held.clone(), held_sum);
            let sent = carried(&frame);
            match receive_wire(&wire, &mut buffer, &mut sum) {
                Ok(true) => {
                    assert!(Some(buffer[held.len()..].to_vec()) == sent);
                    assert_eq!(sum, checksum_of(&buffer));
                }
                got => assert!(sent.is_none() && got.is_err(), "{frame:?}: {got:?}"),
            }
            assert_eq!(codec, wire_codec_tag(Codec::None));
            for bit in 0..wire.len() * 8 {
                let mut flipped = wire.clone();
                flipped[bit / 8] ^= 1 << (bit % 8);
                let (mut buffer, mut sum) = (held.clone(), held_sum);
                let got = receive_wire(&flipped, &mut buffer, &mut sum);
                assert!(
                    matches!(got, Err(ServeError::BadHeader | ServeError::BadPayload)),
                    "{frame:?} wire bit {bit}: {got:?}"
                );
                assert!(
                    buffer == held && sum == held_sum,
                    "{frame:?} wire bit {bit} left samples behind"
                );
            }
            // In place, past the CRCs: the client's BATCH2 path answers
            // every cut and flip of the payload with a typed error or
            // the samples that were sent.
            assert_eq!(receive_payload(payload.clone()).ok(), sent);
            for cut in 0..payload.len() {
                let got = receive_payload(payload[..cut].to_vec());
                assert!(
                    matches!(got, Err(ServeError::Protocol(_))),
                    "{frame:?} cut at {cut}: {got:?}"
                );
            }
            for bit in 0..payload.len() * 8 {
                let mut flipped = payload.clone();
                flipped[bit / 8] ^= 1 << (bit % 8);
                assert!(
                    in_place_is_faithful(&frame, flipped),
                    "{frame:?} payload bit {bit}"
                );
            }
        }
    }

    #[test]
    fn write_frame_puts_the_parent_constructions_bytes_on_the_wire() {
        let (_, batch) = image_batch();
        for (index, frame) in frame_zoo().iter().chain([&batch]).enumerate() {
            let oracle = oracle_wire(frame);
            // Whole writes, and a writer taking 7 bytes a call.
            for limit in [usize::MAX, 7] {
                let mut recording = Recording::new(limit);
                let sent = write_frame(&mut recording, frame).unwrap();
                assert!(recording.bytes == oracle, "frame {index}, limit {limit}");
                assert_eq!(sent, oracle.len() as u64);
            }
        }
    }

    #[test]
    fn write_frame_hands_the_block_over_where_it_lies() {
        let (_, batch) = image_batch();
        let Frame::Batch2 { block, .. } = &batch else {
            unreachable!("image_batch is a BATCH2")
        };
        let mut recording = Recording::new(usize::MAX);
        write_frame(&mut recording, &batch).unwrap();
        assert!(
            recording.slices.contains(&(block.as_ptr(), block.len())),
            "the block was copied before the write: {:?}",
            recording.slices
        );
    }

    /// The BATCH2 of `samples` for the client's shard `index` as a
    /// block copied together by [`RecordWriter`] makes it (the
    /// construction before the gather-write), trace fields 0.
    fn parent_batch(index: u32, samples: &[Sample]) -> Frame {
        let Frame::Batch2 { count, block, .. } = batch_of(index, samples) else {
            unreachable!("batch_of makes a BATCH2")
        };
        Frame::Batch2 {
            shard: index,
            count,
            codec: wire_codec_tag(Codec::None),
            span_id: 0,
            t_send: 0,
            block,
        }
    }

    #[test]
    fn gathered_batches_put_the_parent_blocks_bytes_on_the_wire() {
        let zoo = sample_zoo();
        let (images, _) = image_batch();
        let mut batches: Vec<&[Sample]> = zoo.chunks(1).collect();
        batches.extend([&zoo[..0], &zoo[..], &images[..]]);
        for (index, samples) in batches.into_iter().enumerate() {
            let oracle = oracle_wire(&parent_batch(index as u32, samples));
            // Whole writes, a byte a call, 7 bytes a call, one slice a call.
            let writers = [
                Recording::new(usize::MAX),
                Recording::new(1),
                Recording::new(7),
                Recording::one_slice_per_call(),
            ];
            for mut recording in writers {
                let (limit, one_slice) = (recording.limit, recording.one_slice);
                let sent = write_batch(&mut recording, index as u32, samples).unwrap();
                assert!(
                    recording.bytes == oracle,
                    "batch {index}, limit {limit}, one slice {one_slice}"
                );
                assert_eq!(sent, oracle.len() as u64);
            }
        }
    }

    #[test]
    fn gathered_batches_hand_the_tensor_data_over_where_it_lies() {
        let (samples, _) = image_batch();
        let mut recording = Recording::new(usize::MAX);
        write_batch(&mut recording, 7, &samples).unwrap();
        for sample in &samples {
            let crate::sample::Payload::Tensors(tensors) = &sample.payload else {
                unreachable!("image_batch samples are tensors")
            };
            let data = tensors[0].bytes();
            assert!(
                recording.slices.contains(&(data.as_ptr(), data.len())),
                "sample {} was copied before the write",
                sample.key
            );
        }
    }

    #[test]
    fn credit_windows_hand_back_half_the_window_at_a_time() {
        for (credits, step) in [(1, 1), (2, 1), (3, 1), (8, 4), (9, 4)] {
            let mut window = CreditWindow::new(credits);
            let returns: Vec<Option<u32>> = (0..2 * step).map(|_| window.drained()).collect();
            let mut want = vec![None; step as usize - 1];
            want.push(Some(step));
            assert_eq!(returns, [want.clone(), want].concat(), "credits {credits}");
        }
    }

    #[test]
    fn received_samples_alias_the_received_frame() {
        let (samples, batch) = image_batch();
        let mut wire = Vec::new();
        write_frame(&mut wire, &batch).unwrap();
        let payload = read_payload(&mut &wire[..]).unwrap().unwrap();
        let frame = payload.as_ptr() as usize..payload.as_ptr() as usize + payload.len();
        let received = receive_payload(payload).unwrap();
        assert!(received == samples);
        for sample in &received {
            let crate::sample::Payload::Tensors(tensors) = &sample.payload else {
                panic!("sample {} lost its tensor", sample.key)
            };
            for tensor in tensors {
                let at = tensor.bytes().as_ptr() as usize;
                assert!(frame.contains(&at), "sample {} was copied", sample.key);
            }
        }
    }

    #[test]
    fn deferred_receive_buffers_return_once_the_caller_drops_their_samples() {
        let mut inbound = Inbound::default();
        let frames: Vec<Bytes> = (0..2).map(|_| Bytes::from(vec![7u8; 64])).collect();
        // A sample the caller still holds, aliasing the first frame.
        let held = frames[0].slice(8..16);
        inbound.defer(frames);
        inbound.reclaim();
        assert_eq!(inbound.spare.len(), 1, "only the unaliased frame returns");
        drop(held);
        inbound.reclaim();
        assert_eq!(inbound.spare.len(), 2);
        assert!(inbound.deferred.is_empty());
        // Bounded: past DEFERRED_SHARDS the oldest shard is let go.
        let held: Vec<Bytes> = (0..=DEFERRED_SHARDS)
            .map(|_| {
                let frame = Bytes::from(vec![0u8; 8]);
                inbound.defer(vec![frame.clone()]);
                frame
            })
            .collect();
        assert_eq!(inbound.deferred.len(), DEFERRED_SHARDS);
        drop(held);
        inbound.reclaim();
        assert_eq!(inbound.spare.len(), 2 + DEFERRED_SHARDS);
    }

    #[test]
    fn a_dial_that_meets_the_stop_flag_is_closed_unserved() {
        let listener = TcpListener::bind("127.0.0.1:0").unwrap();
        let addr = listener.local_addr().unwrap();
        let stop = Arc::new(AtomicBool::new(false));
        let (served_tx, served) = mpsc::channel();
        let loop_stop = Arc::clone(&stop);
        let acceptor = std::thread::spawn(move || {
            accept_until(listener, &loop_stop, |stream| {
                served_tx.send(stream).unwrap();
            });
        });
        // Served while the flag is down...
        let _first = TcpStream::connect(addr).unwrap();
        let _kept = served.recv_timeout(Duration::from_secs(60)).unwrap();
        // ...but not once it is up. The loop owns the listener until
        // it has taken this dial, so the port is still the loop's.
        stop.store(true, Ordering::Release);
        let mut late = TcpStream::connect(addr).unwrap();
        late.set_read_timeout(Some(Duration::from_secs(60)))
            .unwrap();
        match late.read(&mut [0u8; 1]) {
            Ok(0) => {}
            Err(e) if e.kind() == io::ErrorKind::ConnectionReset => {}
            other => panic!("a dial after stop read {other:?}"),
        }
        acceptor.join().unwrap();
        assert!(served.try_recv().is_err(), "the late dial was served");
    }

    #[test]
    fn the_kill_switch_ends_the_accept_loop_on_its_own() {
        let dataset = Materialized {
            shards: Vec::new(),
            codec: Codec::None,
            sample_count: 0,
            stored_bytes: 0,
            split: 0,
        };
        let mut worker = ServeWorker::spawn(
            "127.0.0.1:0",
            &Pipeline::new("idle"),
            &dataset,
            Arc::new(crate::store::MemStore::new()),
            Resilience::default(),
            None,
            ServeWorkerConfig::default(),
        )
        .unwrap();
        // What `fail_after_batches` fires; no drop follows, yet the
        // accept thread (the listener's owner) returns.
        worker.server.stop();
        worker.server.join_accept();
        assert!(worker.is_stopped());
    }

    proptest::proptest! {
        #![proptest_config(proptest::test_runner::ProptestConfig::with_cases(4096))]

        /// Every length and count on the wire is a `u32` at some
        /// offset: overwrite any four bytes of any frame with a lie and
        /// the decoder still answers with a typed error or a frame.
        /// (That it allocates nothing for the lie: `tests/serve.rs`.)
        #[test]
        fn lying_length_and_count_fields_never_panic(
            index in proptest::arbitrary::any::<usize>(),
            at in proptest::arbitrary::any::<usize>(),
            lie in proptest::prop_oneof![
                proptest::strategy::Just(u32::MAX),
                proptest::arbitrary::any::<u32>(),
            ],
        ) {
            let zoo = frame_zoo();
            let frame = &zoo[index % zoo.len()];
            let mut payload = frame.encode_payload();
            if payload.len() >= 5 {
                let at = 1 + at % (payload.len() - 4);
                payload[at..at + 4].copy_from_slice(&lie.to_le_bytes());
            }
            let got = Frame::decode_payload(&payload);
            proptest::prop_assert!(matches!(got, Ok(_) | Err(ServeError::Protocol(_))), "{got:?}");
            if matches!(frame, Frame::Batch2 { .. }) {
                proptest::prop_assert!(in_place_is_faithful(frame, payload.clone()));
            }
            // The same lie on the wire, anywhere in the record framing:
            // the CRCs refuse it, or it changed nothing.
            let mut wire = Vec::new();
            write_frame(&mut wire, frame).unwrap();
            let at = at % (wire.len() - 3);
            wire[at..at + 4].copy_from_slice(&lie.to_le_bytes());
            match read_payload(&mut &wire[..]) {
                Ok(Some(read)) => proptest::prop_assert_eq!(read, frame.encode_payload()),
                Err(ServeError::BadHeader | ServeError::BadPayload | ServeError::TooLarge(_)
                    | ServeError::Truncated) => {}
                other => proptest::prop_assert!(false, "{other:?}"),
            }
        }
    }

    #[test]
    fn wire_bytes_are_pinned_and_retired_dialects_are_refused() {
        // HELLO, ASSIGN and BATCH2 of the zoo as the commit before
        // protocol v1 was deleted encoded them: the surviving frames
        // are byte-identical (chaos fault windows count bytes).
        let zoo = frame_zoo();
        for (index, pinned) in [
            (0, "0107000000cefa000000000000"),
            (
                1,
                "02efbeadde0000000004000000030000000c000000612d73686172642d30303030\
                 0100000062000000002a00000000000000070000000000000001",
            ),
            (
                8,
                "0a0100000003000000004d00000000000000e703000000000000010203",
            ),
        ] {
            let payload = zoo[index].encode_payload();
            let hex: String = payload.iter().map(|b| format!("{b:02x}")).collect();
            assert_eq!(hex, pinned, "{:?}", zoo[index]);
        }
        // Tag 3 was the untraced BATCH: `shard`, `count`, `codec`, block.
        // (HELLO without `trace_id` and ASSIGN without its trailer, the
        // other v1 shapes, are cuts the round-trip test covers.)
        assert_eq!(
            Frame::decode_payload(&[3, 1, 0, 0, 0, 3, 0, 0, 0, 0, 1, 2, 3]),
            Err(ServeError::Protocol("unknown frame type 3".into()))
        );
    }

    #[test]
    fn stats_frames_reject_absurd_span_counts() {
        let mut payload = Frame::Stats {
            entry: Box::new(FleetWorkerEntry::default()),
        }
        .encode_payload();
        // Patch the span count (last 4 bytes of an empty STATS body)
        // to exceed the cap.
        let at = payload.len() - 4;
        payload[at..].copy_from_slice(&u32::MAX.to_le_bytes());
        assert!(matches!(
            Frame::decode_payload(&payload),
            Err(ServeError::Protocol(_))
        ));
    }

    #[test]
    fn wire_read_rejects_garbage_and_truncation() {
        // Garbage header: CRC of the length bytes cannot match.
        let garbage = [0xABu8; 32];
        assert_eq!(read_frame(&mut &garbage[..]), Err(ServeError::BadHeader));

        // Truncated: a valid frame cut mid-payload.
        let mut wire = Vec::new();
        write_frame(&mut wire, &Frame::Credit { n: 3 }).expect("encode");
        let cut = &wire[..wire.len() - 3];
        assert_eq!(read_frame(&mut &cut[..]), Err(ServeError::Truncated));

        // Clean close at a boundary is not an error.
        assert_eq!(read_frame(&mut &[][..]), Ok(None));

        // Oversized declared length is rejected before allocation.
        let mut huge = (MAX_FRAME_LEN + 1).to_le_bytes().to_vec();
        let crc = Crc32::checksum(&huge);
        huge.extend_from_slice(&crc.to_le_bytes());
        huge.extend_from_slice(&[0u8; 16]);
        assert_eq!(
            read_frame(&mut &huge[..]),
            Err(ServeError::TooLarge(MAX_FRAME_LEN + 1))
        );
    }

    #[test]
    fn multiset_checksum_is_order_insensitive() {
        let a = Sample::from_bytes(1, vec![1, 2, 3]);
        let b = Sample::from_bytes(2, vec![4, 5]);
        let mut fwd = MultisetChecksum::default();
        fwd.add(&a);
        fwd.add(&b);
        let mut rev = MultisetChecksum::default();
        rev.add(&b);
        rev.add(&a);
        assert_eq!(fwd, rev);
        assert_eq!(fwd.digest(), rev.digest());
        let mut missing = MultisetChecksum::default();
        missing.add(&a);
        assert_ne!(fwd.digest(), missing.digest());
        let mut other = MultisetChecksum::default();
        other.add(&b);
        missing.merge(other);
        assert_eq!(missing, fwd);
        // A multiset, not a set: the same sample twice is not once.
        let mut twice = fwd;
        twice.add(&a);
        assert_ne!(twice, fwd);
        assert_eq!(twice.count, 3);
    }

    fn hash_bytes(bytes: &[u8]) -> u64 {
        let mut hasher = StripeHasher::default();
        hasher.write(bytes);
        hasher.finish()
    }

    fn hash_sample(sample: &Sample) -> u64 {
        let mut sum = MultisetChecksum::default();
        sum.add(sample);
        sum.sum
    }

    /// One sample of every payload kind, sized to end mid-stripe, on a
    /// stripe boundary and inside the first stripe.
    fn sample_zoo() -> Vec<Sample> {
        use crate::sample::Payload;
        use presto_dsp::image::ImageBuf;
        use presto_tensor::Tensor;
        let ramp = |n: usize| (0..n).map(|i| (i * 37 + 11) as u8).collect::<Vec<u8>>();
        let mut zoo = vec![
            Sample::from_bytes(1, Vec::new()),
            Sample::from_bytes(2, ramp(23)), // 8 + 1 + 23: exactly one stripe
            Sample::from_bytes(3, ramp(200)),
            Sample::from_tensors(
                4,
                vec![
                    Tensor::from_vec(vec![3, 5], (0..15).map(|i| i as f32 * 0.5).collect())
                        .unwrap(),
                    Tensor::from_vec(vec![7], ramp(7)).unwrap(),
                ],
            ),
        ];
        for (key, payload) in [
            Payload::Text("héllo, wörld".into()),
            Payload::Tokens(vec![-1, 0, 65_536, 7]),
            Payload::Audio(vec![-100, 200, 300], 16_000),
            Payload::Image(ImageBuf::from_u8(4, 2, 3, ramp(24))),
            Payload::Image(ImageBuf::from_u16(2, 2, 1, vec![60_000, 1, 2, 3])),
        ]
        .into_iter()
        .enumerate()
        {
            zoo.push(Sample {
                key: 10 + key as u64,
                payload,
            });
        }
        zoo
    }

    #[test]
    fn sample_hash_is_the_hash_of_the_encoded_bytes() {
        // `encode()` is allocated here and nowhere on the hashing path:
        // equal hashes exactly when the encoded bytes are equal.
        let zoo = sample_zoo();
        for sample in &zoo {
            assert_eq!(hash_sample(sample), hash_bytes(&sample.encode()));
        }
        for (i, a) in zoo.iter().enumerate() {
            for b in &zoo[i + 1..] {
                assert_ne!(a.encode(), b.encode());
                assert_ne!(hash_sample(a), hash_sample(b));
            }
        }
        // A copy decoded from its bytes, owned or aliasing a shared
        // frame, hashes like the original.
        for sample in &zoo {
            let frame = bytes::Bytes::from(sample.encode());
            let owned = Sample::decode(&frame).unwrap();
            let (shared, _) = Sample::decode_shared(&frame, &frame).unwrap();
            assert_eq!(hash_sample(&owned), hash_sample(sample));
            assert_eq!(hash_sample(&shared), hash_sample(sample));
        }
    }

    #[test]
    fn ended_connections_leave_the_registry() {
        let dataset = Materialized {
            shards: Vec::new(),
            codec: Codec::None,
            sample_count: 0,
            stored_bytes: 0,
            split: 0,
        };
        let worker = ServeWorker::spawn(
            "127.0.0.1:0",
            &Pipeline::new("idle"),
            &dataset,
            Arc::new(crate::store::MemStore::new()),
            Resilience::default(),
            None,
            ServeWorkerConfig::default(),
        )
        .unwrap();
        for _ in 0..200 {
            let mut stream = TcpStream::connect(worker.addr()).unwrap();
            let mut reader = stream.try_clone().unwrap();
            handshake(&mut stream, &mut reader, 0).unwrap();
        }
        // Each connection thread deregisters as it ends; the wait is on
        // that signal, bounded only so a leak fails instead of hanging.
        let left = worker.server.wait_conns_empty(Duration::from_secs(60));
        assert_eq!(left, 0);
    }

    #[test]
    fn sample_hash_does_not_depend_on_how_writes_cut_the_stream() {
        let bytes: Vec<u8> = (0..200u32).map(|i| (i * 29 + 3) as u8).collect();
        let whole = hash_bytes(&bytes);
        for first in 0..=bytes.len() {
            for second in [0, 1, 7, 31, 32, 33, 64] {
                let mid = (first + second).min(bytes.len());
                let mut hasher = StripeHasher::default();
                hasher.write(&bytes[..first]);
                hasher.write(&bytes[first..mid]);
                hasher.write(&bytes[mid..]);
                assert_eq!(hasher.finish(), whole, "cuts at {first} and {mid}");
            }
        }
        let mut bytewise = StripeHasher::default();
        bytes.iter().for_each(|b| bytewise.write(&[*b]));
        assert_eq!(bytewise.finish(), whole);
    }

    #[test]
    fn sample_hash_sees_every_bit_flip_truncation_and_zero_extension() {
        for sample in sample_zoo() {
            let bytes = sample.encode();
            let hash = hash_bytes(&bytes);
            for bit in 0..bytes.len() * 8 {
                let mut flipped = bytes.clone();
                flipped[bit / 8] ^= 1 << (bit % 8);
                assert_ne!(hash_bytes(&flipped), hash, "key {} bit {bit}", sample.key);
            }
            for cut in 0..bytes.len() {
                assert_ne!(
                    hash_bytes(&bytes[..cut]),
                    hash,
                    "key {} cut {cut}",
                    sample.key
                );
            }
            let mut extended = bytes.clone();
            for extra in 1..=96 {
                extended.push(0);
                assert_ne!(hash_bytes(&extended), hash, "key {} +{extra}", sample.key);
            }
        }
    }

    #[test]
    fn credit_gate_blocks_until_granted_and_counts_stalls() {
        let gate = Arc::new(CreditGate::new());
        let progress = ServeProgress::default();
        gate.add(1);
        assert_eq!(gate.take(&progress), Some(0));
        assert_eq!(progress.snapshot().credit_stalls, 0);
        let waiter = Arc::clone(&gate);
        let handle = std::thread::spawn(move || {
            std::thread::sleep(Duration::from_millis(20));
            waiter.add(1);
        });
        assert!(gate.take(&progress).is_some_and(|ns| ns > 0));
        assert_eq!(progress.snapshot().credit_stalls, 1);
        handle.join().unwrap();
        gate.close();
        assert_eq!(gate.take(&progress), None);
    }

    #[test]
    fn credit_gate_waits_without_polling() {
        // A 300 ms stall under the old 50 ms `wait_timeout` poll loop
        // woke ~6 times; the notify-driven gate wakes only for the
        // grant itself (plus at most a spurious wakeup or two). The
        // wake/stall ratio in the idle-time telemetry is the
        // busy-wait detector.
        let gate = Arc::new(CreditGate::new());
        let progress = ServeProgress::default();
        let waiter = Arc::clone(&gate);
        let handle = std::thread::spawn(move || {
            std::thread::sleep(Duration::from_millis(300));
            waiter.add(1);
        });
        let stall_ns = gate.take(&progress).unwrap();
        handle.join().unwrap();
        let snap = progress.snapshot();
        assert_eq!(stall_ns, snap.credit_wait_ns);
        assert_eq!(snap.credit_stalls, 1);
        assert!(
            snap.credit_wait_ns >= 250_000_000,
            "stall time should be recorded, got {} ns",
            snap.credit_wait_ns
        );
        assert!(
            snap.credit_wakes <= 3,
            "notify-driven gate should not spin: {} wakes for one stall",
            snap.credit_wakes
        );
    }

    #[test]
    fn crash_wakes_a_sender_blocked_on_credit() {
        // A crash reaches senders parked in `take` through the gate's
        // close — without the old poll loop, a missed close would hang
        // them forever.
        let gate = Arc::new(CreditGate::new());
        let progress = ServeProgress::default();
        let closer = Arc::clone(&gate);
        let handle = std::thread::spawn(move || {
            std::thread::sleep(Duration::from_millis(30));
            closer.close();
        });
        let started = Instant::now();
        assert_eq!(gate.take(&progress), None);
        assert!(started.elapsed() < Duration::from_secs(5));
        handle.join().unwrap();
    }
}
