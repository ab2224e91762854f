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
//! encoding from [`crate::sample`] for payloads:
//!
//! | frame  | direction       | body                                            |
//! |--------|-----------------|-------------------------------------------------|
//! | HELLO  | both, once      | `version: u32` (+v2: `trace_id: u64`)           |
//! | ASSIGN | client → worker | `epoch_seed: u64`, `credits: u32`, shard names (+v2: `trace_id: u64`, `parent_span: u64`, `flags: u8`) |
//! | BATCH  | worker → client | `shard: u32`, `count: u32`, `codec: u8`, block  |
//! | CREDIT | client → worker | `n: u32`                                        |
//! | EOF    | worker → client | `shard: u32` (shard complete, commit it)        |
//! | ERR    | worker → client | UTF-8 message (fatal, fail the epoch)           |
//! | PING   | client → worker | `t0: u64`, `seq: u32` (v2, handshake only)      |
//! | PONG   | worker → client | `t0: u64`, `t_worker: u64`, `seq: u32` (v2)     |
//! | STATS  | worker → client | worker totals + span timeline (v2, after EOFs)  |
//! | BATCH2 | worker → client | BATCH + `span_id: u64`, `t_send: u64` (v2)      |
//!
//! **Version negotiation** (v2): both sides advertise their highest
//! version in HELLO and speak `min(local, remote)`; version 0 is
//! rejected. v1 decoders read a known prefix of HELLO/ASSIGN and
//! ignore trailing bytes, which is what lets v2 append the trace
//! fields without a flag day — a v2 client against a v1 worker simply
//! skips the PING handshake and never sees STATS/BATCH2.
//!
//! **Fleet tracing** (v2): the client stamps every connection with a
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
//! and one more per BATCH it drains, bounding worker-side in-flight
//! data the same way the in-process prefetch channel bounds
//! [`crate::real::EpochStream`]. Stall time waiting for credits is a
//! [`presto_telemetry::ServeProgress`] gauge on `/metrics`.
//!
//! Failover: the client buffers each shard's samples and commits them
//! only on that shard's EOF. When a connection dies mid-shard (worker
//! killed, timeout), every uncommitted shard is reassigned to the
//! surviving workers on the next round. Because online-step RNG is
//! seeded per *shard* ([`crate::real::shard_rng_seed`]), a reassigned
//! shard reproduces bit-identical samples on any worker, so a degraded
//! epoch still delivers the exact same sample multiset — which
//! [`MultisetChecksum`] proves, order-insensitively.

use crate::dataplane::BufferPool;
use crate::error::PipelineError;
use crate::fault::{FaultCounters, FaultPolicy, Resilience, RetryPolicy};
use crate::pipeline::Pipeline;
use crate::real::{executable_steps, fnv64, process_shard, Deliver, Materialized};
use crate::sample::Sample;
use crate::store::BlobStore;
use presto_codecs::checksum::Crc32;
use presto_codecs::{Codec, Level};
use presto_telemetry::fleet::mono_ns;
use presto_telemetry::{
    EpochRecorder, FleetProgress, FleetWorkerEntry, ServeProgress, Telemetry, BUILTIN_PHASES,
    PHASE_HANDOFF, PHASE_QUEUE_WAIT,
};
use presto_tensor::{RecordReader, RecordWriter};
use std::collections::HashMap;
use std::io::{self, BufReader, Read, Write};
use std::net::{Shutdown, SocketAddr, TcpListener, TcpStream};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::mpsc::{self, RecvTimeoutError};
use std::sync::{Arc, Condvar, Mutex};
use std::time::{Duration, Instant};

/// Highest protocol version this build speaks. Peers negotiate
/// `min(local, remote)` at HELLO time; version 0 is rejected.
pub const PROTOCOL_VERSION: u32 = 2;

/// PINGs sent per connection handshake; the minimum-RTT sample wins.
const PING_BURST: u32 = 5;

/// Remote span events carried in one STATS frame at most; the rest
/// are counted into the entry's `dropped_spans`.
const STATS_SPAN_CAP: usize = 8192;

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
    /// Version handshake; first frame in each direction.
    Hello {
        /// Speaker's highest supported version (≤ [`PROTOCOL_VERSION`]).
        version: u32,
        /// Fleet trace id (v2; 0 when absent or untraced).
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
        /// Fleet trace id (v2; 0 when absent).
        trace_id: u64,
        /// Client-side span this assignment nests under (v2; 0 when
        /// absent).
        parent_span: u64,
        /// Assignment flags (v2): [`ASSIGN_WANT_STATS`].
        flags: u8,
    },
    /// One batch of encoded samples from one shard.
    Batch {
        /// Index into the ASSIGN shard list.
        shard: u32,
        /// Samples in the block.
        count: u32,
        /// Wire compression tag (see [`wire_codec`]).
        codec: u8,
        /// Record-framed [`Sample::encode`] payloads, compressed.
        block: Vec<u8>,
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
    /// Clock-offset probe (v2, client → worker, handshake only).
    Ping {
        /// Client-clock [`mono_ns`] at send time, echoed back.
        t0: u64,
        /// Probe sequence number, echoed back.
        seq: u32,
    },
    /// Clock-offset reply (v2, worker → client).
    Pong {
        /// The PING's `t0`, echoed.
        t0: u64,
        /// Worker-clock [`mono_ns`] when the PING was answered.
        t_worker: u64,
        /// The PING's `seq`, echoed.
        seq: u32,
    },
    /// End-of-assignment worker stats + span timeline (v2, sent after
    /// the final EOF when the ASSIGN asked for it). The entry's
    /// client-local fields (`addr`, `conn`, handshake estimates) are
    /// not on the wire; the client fills them on receipt.
    Stats {
        /// The worker's contribution to the fleet picture.
        entry: Box<FleetWorkerEntry>,
    },
    /// BATCH plus tracing context (v2): worker-side span id and
    /// worker-clock send timestamp.
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
    /// Tenant registration (v2, client → daemon/worker, after HELLO and
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
    /// Registration accepted (v2, daemon/worker → client).
    Admit {
        /// The registered tenant name, echoed.
        tenant: String,
        /// Effective per-tenant shard quota (`u32::MAX` = unlimited).
        quota: u32,
    },
    /// Registration refused (v2, daemon/worker → client). The
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
const FRAME_BATCH: u8 = 3;
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

/// Decode a length-prefixed string at `at`; returns (string, next offset).
fn read_str(body: &[u8], at: usize, what: &str) -> Result<(String, usize), ServeError> {
    let len = read_u32(body, at)? as usize;
    let at = at + 4;
    let bytes = body
        .get(at..at + len)
        .ok_or_else(|| ServeError::Protocol(format!("{what} overruns frame")))?;
    let text = std::str::from_utf8(bytes)
        .map_err(|_| ServeError::Protocol(format!("{what} is not UTF-8")))?;
    Ok((text.to_string(), at + len))
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

fn read_u32(buf: &[u8], at: usize) -> Result<u32, ServeError> {
    buf.get(at..at + 4)
        .map(|b| u32::from_le_bytes(b.try_into().unwrap()))
        .ok_or_else(|| ServeError::Protocol("frame body too short".into()))
}

fn read_u64(buf: &[u8], at: usize) -> Result<u64, ServeError> {
    buf.get(at..at + 8)
        .map(|b| u64::from_le_bytes(b.try_into().unwrap()))
        .ok_or_else(|| ServeError::Protocol("frame body too short".into()))
}

impl Frame {
    /// Serialize to a frame payload (type byte + body, no framing).
    pub fn encode_payload(&self) -> Vec<u8> {
        let mut out = Vec::new();
        match self {
            Frame::Hello { version, trace_id } => {
                out.push(FRAME_HELLO);
                out.extend_from_slice(&version.to_le_bytes());
                // Appended in v2; v1 decoders read the version and
                // ignore trailing bytes.
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
                    out.extend_from_slice(&(shard.len() as u32).to_le_bytes());
                    out.extend_from_slice(shard.as_bytes());
                }
                // Appended in v2; v1 decoders read exactly `count`
                // names and ignore trailing bytes.
                out.extend_from_slice(&trace_id.to_le_bytes());
                out.extend_from_slice(&parent_span.to_le_bytes());
                out.push(*flags);
            }
            Frame::Batch {
                shard,
                count,
                codec,
                block,
            } => {
                out.push(FRAME_BATCH);
                out.extend_from_slice(&shard.to_le_bytes());
                out.extend_from_slice(&count.to_le_bytes());
                out.push(*codec);
                out.extend_from_slice(block);
            }
            Frame::Credit { n } => {
                out.push(FRAME_CREDIT);
                out.extend_from_slice(&n.to_le_bytes());
            }
            Frame::Eof { shard } => {
                out.push(FRAME_EOF);
                out.extend_from_slice(&shard.to_le_bytes());
            }
            Frame::Err { message } => {
                out.push(FRAME_ERR);
                out.extend_from_slice(message.as_bytes());
            }
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
                    out.extend_from_slice(&(name.len() as u32).to_le_bytes());
                    out.extend_from_slice(name.as_bytes());
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
                block,
            } => {
                out.push(FRAME_BATCH2);
                out.extend_from_slice(&shard.to_le_bytes());
                out.extend_from_slice(&count.to_le_bytes());
                out.push(*codec);
                out.extend_from_slice(&span_id.to_le_bytes());
                out.extend_from_slice(&t_send.to_le_bytes());
                out.extend_from_slice(block);
            }
            Frame::Register {
                tenant,
                weight,
                shards,
            } => {
                out.push(FRAME_REGISTER);
                push_str(&mut out, tenant);
                out.extend_from_slice(&weight.to_le_bytes());
                out.extend_from_slice(&shards.to_le_bytes());
            }
            Frame::Admit { tenant, quota } => {
                out.push(FRAME_ADMIT);
                push_str(&mut out, tenant);
                out.extend_from_slice(&quota.to_le_bytes());
            }
            Frame::Reject { tenant, reason } => {
                out.push(FRAME_REJECT);
                push_str(&mut out, tenant);
                push_str(&mut out, reason);
            }
        }
        out
    }

    /// Parse a frame payload produced by [`Frame::encode_payload`].
    pub fn decode_payload(payload: &[u8]) -> Result<Frame, ServeError> {
        let (&kind, body) = payload
            .split_first()
            .ok_or_else(|| ServeError::Protocol("empty frame payload".into()))?;
        match kind {
            FRAME_HELLO => Ok(Frame::Hello {
                version: read_u32(body, 0)?,
                // Absent from v1 peers; default to "untraced".
                trace_id: read_u64(body, 4).unwrap_or(0),
            }),
            FRAME_ASSIGN => {
                let epoch_seed = read_u64(body, 0)?;
                let credits = read_u32(body, 8)?;
                let count = read_u32(body, 12)? as usize;
                let mut shards = Vec::with_capacity(count.min(1024));
                let mut at = 16;
                for _ in 0..count {
                    let len = read_u32(body, at)? as usize;
                    at += 4;
                    let bytes = body
                        .get(at..at + len)
                        .ok_or_else(|| ServeError::Protocol("shard name overruns frame".into()))?;
                    at += len;
                    let name = std::str::from_utf8(bytes)
                        .map_err(|_| ServeError::Protocol("shard name is not UTF-8".into()))?;
                    shards.push(name.to_string());
                }
                // v2 trailer; absent from v1 peers.
                let (trace_id, parent_span, flags) = if body.len() >= at + 17 {
                    (read_u64(body, at)?, read_u64(body, at + 8)?, body[at + 16])
                } else {
                    (0, 0, 0)
                };
                Ok(Frame::Assign {
                    epoch_seed,
                    credits,
                    shards,
                    trace_id,
                    parent_span,
                    flags,
                })
            }
            FRAME_BATCH => {
                let shard = read_u32(body, 0)?;
                let count = read_u32(body, 4)?;
                let codec = *body
                    .get(8)
                    .ok_or_else(|| ServeError::Protocol("frame body too short".into()))?;
                Ok(Frame::Batch {
                    shard,
                    count,
                    codec,
                    block: body[9..].to_vec(),
                })
            }
            FRAME_CREDIT => Ok(Frame::Credit {
                n: read_u32(body, 0)?,
            }),
            FRAME_EOF => Ok(Frame::Eof {
                shard: read_u32(body, 0)?,
            }),
            FRAME_ERR => Ok(Frame::Err {
                message: String::from_utf8_lossy(body).into_owned(),
            }),
            FRAME_PING => Ok(Frame::Ping {
                t0: read_u64(body, 0)?,
                seq: read_u32(body, 8)?,
            }),
            FRAME_PONG => Ok(Frame::Pong {
                t0: read_u64(body, 0)?,
                t_worker: read_u64(body, 8)?,
                seq: read_u32(body, 16)?,
            }),
            FRAME_STATS => {
                let mut entry = FleetWorkerEntry {
                    assign_start_mono_ns: read_u64(body, 0)?,
                    elapsed_ns: read_u64(body, 8)?,
                    samples: read_u64(body, 16)?,
                    batches: read_u64(body, 24)?,
                    produce_ns: read_u64(body, 32)?,
                    credit_wait_ns: read_u64(body, 40)?,
                    dropped_spans: read_u64(body, 48)?,
                    ..FleetWorkerEntry::default()
                };
                let step_count = read_u32(body, 56)? as usize;
                let mut at = 60;
                for _ in 0..step_count {
                    let len = read_u32(body, at)? as usize;
                    at += 4;
                    let bytes = body
                        .get(at..at + len)
                        .ok_or_else(|| ServeError::Protocol("step name overruns frame".into()))?;
                    at += len;
                    let name = std::str::from_utf8(bytes)
                        .map_err(|_| ServeError::Protocol("step name is not UTF-8".into()))?
                        .to_string();
                    let kind = *body
                        .get(at)
                        .ok_or_else(|| ServeError::Protocol("frame body too short".into()))?;
                    at += 1;
                    let busy_ns = read_u64(body, at)?;
                    at += 8;
                    entry
                        .steps
                        .push((name, kind_label(kind).to_string(), busy_ns));
                }
                let span_count = read_u32(body, at)? as usize;
                at += 4;
                if span_count > STATS_SPAN_CAP {
                    return Err(ServeError::Protocol(format!(
                        "STATS declares {span_count} spans, cap is {STATS_SPAN_CAP}"
                    )));
                }
                for _ in 0..span_count {
                    entry.spans.push(presto_telemetry::SpanEvent {
                        worker: read_u32(body, at)?,
                        phase: read_u32(body, at + 4)?,
                        start_ns: read_u64(body, at + 8)?,
                        dur_ns: read_u64(body, at + 16)?,
                    });
                    at += 24;
                }
                Ok(Frame::Stats {
                    entry: Box::new(entry),
                })
            }
            FRAME_BATCH2 => {
                let shard = read_u32(body, 0)?;
                let count = read_u32(body, 4)?;
                let codec = *body
                    .get(8)
                    .ok_or_else(|| ServeError::Protocol("frame body too short".into()))?;
                let span_id = read_u64(body, 9)?;
                let t_send = read_u64(body, 17)?;
                Ok(Frame::Batch2 {
                    shard,
                    count,
                    codec,
                    span_id,
                    t_send,
                    block: body
                        .get(25..)
                        .ok_or_else(|| ServeError::Protocol("frame body too short".into()))?
                        .to_vec(),
                })
            }
            FRAME_REGISTER => {
                let (tenant, at) = read_str(body, 0, "tenant name")?;
                Ok(Frame::Register {
                    tenant,
                    weight: read_u32(body, at)?,
                    shards: read_u32(body, at + 4)?,
                })
            }
            FRAME_ADMIT => {
                let (tenant, at) = read_str(body, 0, "tenant name")?;
                Ok(Frame::Admit {
                    tenant,
                    quota: read_u32(body, at)?,
                })
            }
            FRAME_REJECT => {
                let (tenant, at) = read_str(body, 0, "tenant name")?;
                let (reason, _) = read_str(body, at, "reject reason")?;
                Ok(Frame::Reject { tenant, reason })
            }
            other => Err(ServeError::Protocol(format!("unknown frame type {other}"))),
        }
    }
}

/// Write one frame in record framing; returns the bytes put on the wire.
pub fn write_frame(writer: &mut impl Write, frame: &Frame) -> Result<u64, ServeError> {
    let mut rec = RecordWriter::new();
    rec.write(&frame.encode_payload());
    let bytes = rec.finish();
    writer.write_all(&bytes)?;
    writer.flush()?;
    Ok(bytes.len() as u64)
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

/// Read one frame. `Ok(None)` is a clean close at a frame boundary;
/// every CRC/length violation is a typed [`ServeError`].
pub fn read_frame(reader: &mut impl Read) -> Result<Option<Frame>, ServeError> {
    // Record framing: [len u64][crc32(len) u32][payload][crc32(payload) u32].
    let mut header = [0u8; 12];
    if !read_exact_or_closed(reader, &mut header)? {
        return Ok(None);
    }
    let len = u64::from_le_bytes(header[..8].try_into().unwrap());
    let stored = u32::from_le_bytes(header[8..12].try_into().unwrap());
    if Crc32::checksum(&header[..8]) != stored {
        return Err(ServeError::BadHeader);
    }
    if len > MAX_FRAME_LEN {
        return Err(ServeError::TooLarge(len));
    }
    let mut payload = vec![0u8; len as usize + 4];
    if !read_exact_or_closed(reader, &mut payload)? {
        return Err(ServeError::Truncated);
    }
    let (body, crc) = payload.split_at(len as usize);
    let stored = u32::from_le_bytes(crc.try_into().unwrap());
    if Crc32::checksum(body) != stored {
        return Err(ServeError::BadPayload);
    }
    Frame::decode_payload(body).map(Some)
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

/// Credit gate: the worker blocks here before each BATCH until the
/// client grants more credits (or the connection/worker dies).
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
    /// per call. Returns false once closed. Purely notification-driven:
    /// the condvar is signalled on every credit grant and on close
    /// (connection end, worker stop, kill switch all funnel through
    /// [`CreditGate::close`] via the gate registry in `WorkerShared`),
    /// so there is no poll interval — stall time and wakeup count land
    /// in [`ServeProgress::credit_wait`], which is how tests prove the
    /// absence of a busy-wait.
    pub(crate) fn take(&self, progress: &ServeProgress) -> bool {
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
        if let Some(since) = stalled {
            progress.credit_wait(since.elapsed().as_nanos() as u64, wakes);
        }
        granted
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
    /// Storm drills use it to stretch a live epoch across the fleet
    /// simulator's scaled timeline so kills land mid-epoch the way
    /// they do in simulation.
    pub batch_pace: Duration,
    /// Test/CI kill switch: after this many BATCH frames total the
    /// worker drops every connection and stops accepting — a simulated
    /// mid-epoch crash for failover tests.
    pub fail_after_batches: Option<u64>,
    /// Highest protocol version to advertise (capped at
    /// [`PROTOCOL_VERSION`]). Tests pin this to 1 to exercise
    /// mixed-version fleets.
    pub max_version: u32,
}

impl Default for ServeWorkerConfig {
    fn default() -> Self {
        ServeWorkerConfig {
            batch_samples: 16,
            wire_codec: Codec::None,
            batch_pace: Duration::ZERO,
            fail_after_batches: None,
            max_version: PROTOCOL_VERSION,
        }
    }
}

struct WorkerShared {
    steps: Vec<(String, Arc<dyn crate::step::Step>)>,
    step_names: Vec<String>,
    dataset: Materialized,
    store: Arc<dyn BlobStore>,
    resilience: Resilience,
    telemetry: Option<Arc<Telemetry>>,
    progress: Arc<ServeProgress>,
    config: ServeWorkerConfig,
    batches_sent: AtomicU64,
    stop: AtomicBool,
    /// Scratch recycling for the serve-side data plane: decompress
    /// scratch inside [`process_shard`] and wire-encode blocks in
    /// [`serve_assignment`] both draw from here, so steady-state
    /// assignments allocate ~nothing per sample.
    pool: BufferPool,
    /// One assignment at a time: the worker models a fixed-capacity
    /// preprocessing node, so concurrent clients share its capacity
    /// instead of multiplying it (this is what makes measured fan-out
    /// saturate like [`crate::distributed::fan_out`] predicts).
    work_lock: Mutex<()>,
    /// Open connections, for abrupt shutdown on stop/kill.
    conns: Mutex<Vec<TcpStream>>,
    /// Per-connection credit gates, closed on stop/kill so senders
    /// blocked in [`CreditGate::take`] wake immediately instead of
    /// polling for the stop flag.
    gates: Mutex<Vec<Arc<CreditGate>>>,
}

impl WorkerShared {
    /// Kill every open connection and stop accepting.
    fn crash(&self) {
        self.stop.store(true, Ordering::Release);
        for stream in self.conns.lock().unwrap().iter() {
            let _ = stream.shutdown(Shutdown::Both);
        }
        for gate in self.gates.lock().unwrap().iter() {
            gate.close();
        }
    }
}

/// A running serve worker: accepts client connections on a TCP
/// listener and streams the online phase of its materialized dataset.
/// Drop (or [`ServeWorker::stop`]) shuts it down and joins all threads.
pub struct ServeWorker {
    addr: SocketAddr,
    shared: Arc<WorkerShared>,
    accept: Option<std::thread::JoinHandle<()>>,
}

impl std::fmt::Debug for ServeWorker {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("ServeWorker")
            .field("addr", &self.addr)
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
        let step_names: Vec<String> = steps.iter().map(|(name, _)| name.clone()).collect();
        let listener =
            TcpListener::bind(bind).map_err(|e| PipelineError::Io(format!("bind {bind}: {e}")))?;
        let addr = listener
            .local_addr()
            .map_err(|e| PipelineError::Io(e.to_string()))?;
        listener
            .set_nonblocking(true)
            .map_err(|e| PipelineError::Io(e.to_string()))?;
        let progress = telemetry
            .as_ref()
            .map(|t| t.serve())
            .unwrap_or_else(|| Arc::new(ServeProgress::default()));
        progress.begin(1);
        let shared = Arc::new(WorkerShared {
            steps,
            step_names,
            dataset: dataset.clone(),
            store,
            resilience,
            telemetry,
            progress,
            config,
            batches_sent: AtomicU64::new(0),
            stop: AtomicBool::new(false),
            pool: BufferPool::new(),
            work_lock: Mutex::new(()),
            conns: Mutex::new(Vec::new()),
            gates: Mutex::new(Vec::new()),
        });
        let accept_shared = Arc::clone(&shared);
        let accept = std::thread::Builder::new()
            .name("presto-serve-accept".into())
            .spawn(move || {
                let mut handles = Vec::new();
                while !accept_shared.stop.load(Ordering::Acquire) {
                    match listener.accept() {
                        Ok((stream, _)) => {
                            if let Ok(clone) = stream.try_clone() {
                                accept_shared.conns.lock().unwrap().push(clone);
                            }
                            let conn_shared = Arc::clone(&accept_shared);
                            handles.push(std::thread::spawn(move || {
                                handle_client(&conn_shared, stream);
                            }));
                        }
                        Err(e) if e.kind() == io::ErrorKind::WouldBlock => {
                            std::thread::sleep(Duration::from_millis(10));
                        }
                        Err(_) => std::thread::sleep(Duration::from_millis(10)),
                    }
                }
                for handle in handles {
                    let _ = handle.join();
                }
            })
            .map_err(|e| PipelineError::Io(e.to_string()))?;
        Ok(ServeWorker {
            addr,
            shared,
            accept: Some(accept),
        })
    }

    /// The bound address (resolves port `0` to the real port).
    pub fn addr(&self) -> SocketAddr {
        self.addr
    }

    /// True once the worker has stopped (explicitly, or because the
    /// [`ServeWorkerConfig::fail_after_batches`] kill switch fired).
    pub fn is_stopped(&self) -> bool {
        self.shared.stop.load(Ordering::Acquire)
    }

    /// BATCH frames sent across all connections so far.
    pub fn batches_sent(&self) -> u64 {
        self.shared.batches_sent.load(Ordering::Acquire)
    }

    /// Stop accepting, drop connections, and join all threads.
    pub fn stop(mut self) {
        self.shutdown();
    }

    fn shutdown(&mut self) {
        self.shared.crash();
        if let Some(handle) = self.accept.take() {
            let _ = handle.join();
        }
    }
}

impl Drop for ServeWorker {
    fn drop(&mut self) {
        self.shutdown();
    }
}

/// A frame the worker's reader thread forwards to its writer loop.
/// Credits short-circuit straight into the gate; everything that needs
/// a *reply* or a state change (HELLO for negotiation, PING for
/// PONGs, ASSIGN for serving) funnels through here so only one thread
/// ever writes to the socket.
enum ClientMsg {
    Hello {
        version: u32,
    },
    Ping {
        t0: u64,
        seq: u32,
    },
    Assign {
        epoch_seed: u64,
        credits: u32,
        shards: Vec<String>,
        flags: u8,
    },
    Register {
        tenant: String,
    },
}

/// Serve one client connection: HELLO, then PING/ASSIGN/CREDIT frames
/// in, PONG/BATCH/EOF/STATS/ERR frames out, until either side closes.
fn handle_client(shared: &Arc<WorkerShared>, stream: TcpStream) {
    let _ = stream.set_nodelay(true);
    let mut writer = match stream.try_clone() {
        Ok(writer) => writer,
        Err(_) => return,
    };
    let gate = Arc::new(CreditGate::new());
    shared.gates.lock().unwrap().push(Arc::clone(&gate));
    if shared.stop.load(Ordering::Acquire) {
        // Lost the race with a crash that already swept the registry.
        gate.close();
    }
    let (msg_tx, msg_rx) = mpsc::channel::<ClientMsg>();
    let reader_gate = Arc::clone(&gate);
    let reader = std::thread::spawn(move || {
        let mut reader = BufReader::new(stream);
        loop {
            match read_frame(&mut reader) {
                Ok(Some(Frame::Hello { version, .. })) => {
                    if msg_tx.send(ClientMsg::Hello { version }).is_err() {
                        break;
                    }
                }
                Ok(Some(Frame::Ping { t0, seq })) => {
                    if msg_tx.send(ClientMsg::Ping { t0, seq }).is_err() {
                        break;
                    }
                }
                Ok(Some(Frame::Credit { n })) => reader_gate.add(u64::from(n)),
                Ok(Some(Frame::Assign {
                    epoch_seed,
                    credits,
                    shards,
                    flags,
                    ..
                })) => {
                    let msg = ClientMsg::Assign {
                        epoch_seed,
                        credits,
                        shards,
                        flags,
                    };
                    if msg_tx.send(msg).is_err() {
                        break;
                    }
                }
                Ok(Some(Frame::Register { tenant, .. })) => {
                    if msg_tx.send(ClientMsg::Register { tenant }).is_err() {
                        break;
                    }
                }
                // Anything else — including a clean close — ends the
                // conversation.
                _ => break,
            }
        }
        reader_gate.close();
    });
    let local_max = shared.config.max_version.clamp(1, PROTOCOL_VERSION);
    // Until the client's HELLO arrives, assume the lowest version so a
    // legacy peer that ASSIGNs without saying hello still gets plain
    // v1 frames.
    let mut negotiated = 1u32;
    if write_frame(
        &mut writer,
        &Frame::Hello {
            version: local_max,
            trace_id: 0,
        },
    )
    .is_ok()
    {
        'conn: loop {
            let msg = match msg_rx.recv_timeout(Duration::from_millis(100)) {
                Ok(msg) => msg,
                Err(RecvTimeoutError::Timeout) => {
                    if shared.stop.load(Ordering::Acquire) {
                        break 'conn;
                    }
                    continue;
                }
                Err(RecvTimeoutError::Disconnected) => break 'conn,
            };
            match msg {
                ClientMsg::Hello { version } => {
                    if version == 0 {
                        break 'conn; // nonsense version: reject
                    }
                    negotiated = local_max.min(version);
                }
                ClientMsg::Ping { t0, seq } => {
                    let pong = Frame::Pong {
                        t0,
                        t_worker: mono_ns(),
                        seq,
                    };
                    if write_frame(&mut writer, &pong).is_err() {
                        break 'conn;
                    }
                }
                ClientMsg::Register { tenant } => {
                    // A plain worker serves one assignment at a time
                    // and enforces no quota — every registration is
                    // admitted. Admission policy lives in `fleetd`
                    // (see [`crate::tenant`]); answering here keeps
                    // `--tenant` clients working against either.
                    let admit = Frame::Admit {
                        tenant,
                        quota: u32::MAX,
                    };
                    if write_frame(&mut writer, &admit).is_err() {
                        break 'conn;
                    }
                }
                ClientMsg::Assign {
                    epoch_seed,
                    credits,
                    shards,
                    flags,
                } => {
                    gate.add(u64::from(credits));
                    let result = serve_assignment(
                        shared,
                        &gate,
                        &mut writer,
                        epoch_seed,
                        &shards,
                        negotiated,
                        flags,
                    );
                    if result.is_err() {
                        break 'conn;
                    }
                }
            }
        }
    }
    let _ = writer.shutdown(Shutdown::Both);
    let _ = reader.join();
}

/// Stream every assigned shard to the client as credit-gated batches.
///
/// Wait-state attribution: time inside [`process_shard`] plus any
/// [`ServeWorkerConfig::batch_pace`] sleep is **produce** time (what a
/// compute-bound worker is doing); blocking in [`CreditGate::take`] is
/// **queue-wait** (backpressure from the client); writing frames is
/// **hand-off**. On a v2 connection whose ASSIGN set
/// [`ASSIGN_WANT_STATS`], a STATS frame with these totals and the
/// recorder's span timeline follows the final EOF.
fn serve_assignment(
    shared: &WorkerShared,
    gate: &CreditGate,
    writer: &mut TcpStream,
    epoch_seed: u64,
    shards: &[String],
    negotiated: u32,
    flags: u8,
) -> Result<(), ServeError> {
    // Fixed capacity: one assignment runs at a time (see `work_lock`).
    let _capacity = shared.work_lock.lock().unwrap();
    let started = Instant::now();
    let assign_start_mono_ns = mono_ns();
    let credit_wait_before = shared.progress.snapshot().credit_wait_ns;
    let rec = shared
        .telemetry
        .as_ref()
        .map(|t| t.begin_epoch(&shared.step_names, 1, 0))
        .unwrap_or_else(EpochRecorder::noop);
    rec.set_epoch_seed(epoch_seed);
    let counters = FaultCounters::default();
    let bytes_read = AtomicU64::new(0);
    let mut delivered = 0u64;
    let mut batches = 0u64;
    let mut produce_ns = 0u64;
    // Shard sample container recycled across the whole assignment:
    // after the first shard, pushes land in already-grown capacity.
    let (mut samples, hit) = shared.pool.get_bundle(0);
    if hit {
        rec.pool_hits(1);
    } else {
        rec.pool_misses(1);
    }
    for (index, shard_name) in shards.iter().enumerate() {
        samples.clear();
        let mut deliver = |sample: Sample| {
            let t0 = rec.begin();
            samples.push(sample);
            if let Some(t0) = t0 {
                rec.phase_done(0, PHASE_HANDOFF, t0);
            }
            Deliver::Delivered
        };
        let t_produce = Instant::now();
        let processed = process_shard(
            shared.store.as_ref(),
            shard_name,
            shared.dataset.codec,
            &shared.steps,
            &shared.resilience,
            &counters,
            &rec,
            0,
            epoch_seed,
            &bytes_read,
            None,
            Some(&shared.pool),
            &mut deliver,
        );
        produce_ns += t_produce.elapsed().as_nanos() as u64;
        if let Err(fatal) = processed {
            let _ = write_frame(
                writer,
                &Frame::Err {
                    message: fatal.to_string(),
                },
            );
            return Err(ServeError::Protocol(fatal.to_string()));
        }
        delivered += samples.len() as u64;
        for chunk in samples.chunks(shared.config.batch_samples.max(1)) {
            let t_gate = rec.begin();
            if !gate.take(&shared.progress) {
                return Err(ServeError::Truncated);
            }
            if let Some(t0) = t_gate {
                rec.phase_done(0, PHASE_QUEUE_WAIT, t0);
            }
            if !shared.config.batch_pace.is_zero() {
                let t_pace = Instant::now();
                std::thread::sleep(shared.config.batch_pace);
                produce_ns += t_pace.elapsed().as_nanos() as u64;
            }
            // Encode scratch comes from the pool; `finish` hands the
            // allocation to the frame, so the recycled win is the
            // record-framing growth, not the final block itself.
            let (scratch, hit) = shared.pool.get_bytes(0);
            if hit {
                rec.pool_hits(1);
            } else {
                rec.pool_misses(1);
            }
            let mut block = RecordWriter::with_buffer(scratch);
            for sample in chunk {
                block.write(&sample.encode());
            }
            let encoded = block.finish();
            let block = shared.config.wire_codec.compress(&encoded);
            shared.pool.put_bytes(encoded);
            let codec = wire_codec_tag(shared.config.wire_codec);
            let count = chunk.len() as u32;
            let shard = index as u32;
            let frame = if negotiated >= 2 {
                Frame::Batch2 {
                    shard,
                    count,
                    codec,
                    span_id: shared.batches_sent.load(Ordering::Acquire) + 1,
                    t_send: mono_ns(),
                    block,
                }
            } else {
                Frame::Batch {
                    shard,
                    count,
                    codec,
                    block,
                }
            };
            let t_send = rec.begin();
            let wire_bytes = write_frame(writer, &frame)?;
            if let Some(t0) = t_send {
                rec.phase_done(0, PHASE_HANDOFF, t0);
            }
            shared.progress.batch_sent(wire_bytes);
            batches += 1;
            let sent = shared.batches_sent.fetch_add(1, Ordering::AcqRel) + 1;
            if let Some(limit) = shared.config.fail_after_batches {
                if sent >= limit {
                    // Simulated crash: drop everything mid-epoch.
                    shared.crash();
                    return Err(ServeError::Truncated);
                }
            }
        }
        write_frame(
            writer,
            &Frame::Eof {
                shard: index as u32,
            },
        )?;
    }
    shared.pool.put_bundle(samples);
    let (retries, skipped, lost) = counters.snapshot();
    rec.finish(
        started.elapsed(),
        delivered,
        bytes_read.load(Ordering::Relaxed),
        retries,
        skipped,
        lost,
        skipped > 0 || lost > 0,
    );
    shared.progress.produce_time(produce_ns);
    if negotiated >= 2 && flags & ASSIGN_WANT_STATS != 0 {
        let credit_wait_ns = shared
            .progress
            .snapshot()
            .credit_wait_ns
            .saturating_sub(credit_wait_before);
        let snapshot = shared.telemetry.as_ref().and_then(|t| t.last_epoch());
        let mut entry = FleetWorkerEntry {
            assign_start_mono_ns,
            elapsed_ns: started.elapsed().as_nanos() as u64,
            samples: delivered,
            batches,
            produce_ns,
            credit_wait_ns,
            ..FleetWorkerEntry::default()
        };
        if let Some(snapshot) = snapshot {
            entry.dropped_spans = snapshot.dropped_spans;
            entry.steps = snapshot
                .steps
                .iter()
                .map(|s| (s.name.clone(), s.kind.label().to_string(), s.busy_ns))
                .collect();
            entry.spans = snapshot.spans;
            if entry.spans.len() > STATS_SPAN_CAP {
                entry.dropped_spans += (entry.spans.len() - STATS_SPAN_CAP) as u64;
                entry.spans.truncate(STATS_SPAN_CAP);
            }
        }
        write_frame(
            writer,
            &Frame::Stats {
                entry: Box::new(entry),
            },
        )?;
    }
    Ok(())
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
    /// Reconnect schedule for failed workers: a worker gets
    /// `max_attempts` connection lifecycles in one epoch (so
    /// [`RetryPolicy::none`] reproduces the pre-rejoin behavior of
    /// dropping a worker on its first failure), with the policy's
    /// exponential backoff slept before each re-attempt and its
    /// `deadline` — measured from epoch start — capping how long dead
    /// workers keep being retried. A worker that completes an
    /// assignment after failing counts as a **rejoin** and gets its
    /// failure budget back.
    pub reconnect: RetryPolicy,
    /// Fleet tracing: when true (and a [`Telemetry`] handle is
    /// attached), the client records a per-shard client span timeline,
    /// runs the clock-offset PING handshake on every v2 connection,
    /// requests end-of-assignment STATS, and meters its socket reads
    /// into the gap/stream wait-state gauges. Turn off to measure the
    /// bare protocol (the `serve_fanout` bench overhead gate does).
    pub tracing: bool,
    /// Fleet trace id; 0 derives one from the epoch seed.
    pub trace_id: u64,
    /// Highest protocol version to advertise (capped at
    /// [`PROTOCOL_VERSION`]). Tests pin this to 1 to exercise
    /// mixed-version fleets.
    pub max_version: u32,
    /// Tenant identity for multi-tenant serving: when set (and the
    /// connection negotiates v2), the client sends REGISTER after the
    /// handshake and waits for ADMIT before assigning shards. A REJECT
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
            max_version: PROTOCOL_VERSION,
            tenant: None,
        }
    }
}

/// What one distributed epoch delivered.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct ServeReport {
    /// Samples committed to the consumer.
    pub samples: u64,
    /// BATCH frames drained.
    pub batches: u64,
    /// Compressed block bytes received.
    pub bytes_received: u64,
    /// Order-insensitive fingerprint of the delivered multiset.
    pub checksum: MultisetChecksum,
    /// Shards that had to move to a surviving worker.
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
    /// Assignment rounds (1 = no failover).
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

/// Outcome of one connection's assignment.
#[derive(Default)]
struct ConnOutcome {
    checksum: MultisetChecksum,
    samples: u64,
    batches: u64,
    bytes: u64,
    /// Shards assigned but not EOF-committed (to reassign).
    failed: Vec<String>,
    /// ERR frame from the worker: fatal, no failover.
    fatal: Option<PipelineError>,
    /// Time blocked waiting for the first byte of each frame, ns.
    gap_ns: u64,
    /// Time reading frame bytes after the first arrived, ns.
    stream_ns: u64,
    /// Time inside the consume callback, ns.
    consume_ns: u64,
}

/// A [`Read`] wrapper that buckets time spent blocked in the
/// underlying socket reads: waiting for the *first* byte of a frame
/// means the wire was idle (nothing to receive — the `gap` bucket);
/// reads after that mean bytes were in flight (the `stream` bucket).
/// An idle-dominated connection is starved of production; a
/// stream-dominated one is throttled in transfer — the first fork of
/// the `diagnose_fleet` decision tree.
///
/// The split is approximate under [`BufReader`]: reads served from
/// the buffer never reach this wrapper, so a frame whose bytes all
/// arrived with a previous fill shows up as pure gap on its next
/// refill. Fine for attribution — the buckets aggregate over
/// thousands of frames.
struct MeteredReader<R> {
    inner: R,
    enabled: bool,
    awaiting_first: bool,
    gap_ns: u64,
    stream_ns: u64,
}

impl<R> MeteredReader<R> {
    fn new(inner: R, enabled: bool) -> Self {
        MeteredReader {
            inner,
            enabled,
            awaiting_first: true,
            gap_ns: 0,
            stream_ns: 0,
        }
    }

    /// Mark a frame boundary: the next underlying read is the wait
    /// for the next frame's first byte.
    fn start_frame(&mut self) {
        self.awaiting_first = true;
    }
}

impl<R: Read> Read for MeteredReader<R> {
    fn read(&mut self, buf: &mut [u8]) -> io::Result<usize> {
        if !self.enabled {
            return self.inner.read(buf);
        }
        let t0 = Instant::now();
        let result = self.inner.read(buf);
        let ns = t0.elapsed().as_nanos() as u64;
        if self.awaiting_first {
            self.gap_ns += ns;
            if matches!(&result, Ok(n) if *n > 0) {
                self.awaiting_first = false;
            }
        } else {
            self.stream_ns += ns;
        }
        result
    }
}

/// Tracing context one connection records into: the client-epoch span
/// recorder, the fleet registry, and this connection's identity.
struct ConnTrace<'a> {
    rec: &'a EpochRecorder,
    fleet: &'a FleetProgress,
    /// Stable index of this worker in the epoch's worker list — the
    /// `worker` field of client-side spans.
    conn: u32,
    trace_id: u64,
    /// Global shard name → index into the epoch's full shard list
    /// (client span phase = `BUILTIN_PHASES + index`).
    shard_index: &'a HashMap<String, usize>,
}

/// SplitMix64: derive a deterministic trace id from the epoch seed.
fn derive_trace_id(seed: u64) -> u64 {
    mix64(seed.wrapping_add(0x9E3779B97F4A7C15))
}

/// Consume one epoch from `workers`, delivering every sample to
/// `consume`. Shards are striped across workers exactly like
/// [`crate::real::RealExecutor`] stripes them across threads; a dead or
/// unresponsive worker's uncommitted shards are reassigned on the next
/// round. Failed workers are not dropped outright: each gets
/// [`ServeClientConfig::reconnect`] connection lifecycles (with backoff
/// slept before each re-attempt), so a preempted worker that comes back
/// on the same address rejoins mid-epoch and is handed pending shards
/// again. Only when every worker has exhausted its budget (or the
/// reconnect deadline has passed) does the `config.policy` decide
/// between failing and a degraded epoch. Because online-step RNG is
/// seeded per shard, none of this reordering changes the delivered
/// multiset — the report's checksum stays equal to a single-process
/// run's whenever the epoch completes.
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
    if workers.is_empty() {
        return Err(PipelineError::InvalidStrategy(
            "serve_epoch needs at least one worker address".into(),
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
    let tracing = config.tracing && telemetry.is_some();
    let trace_id = if config.trace_id != 0 {
        config.trace_id
    } else {
        derive_trace_id(epoch_seed)
    };
    let rec = telemetry.filter(|_| tracing).map(|t| {
        let rec = t.begin_epoch(shards, workers.len(), 0);
        rec.set_epoch_seed(epoch_seed);
        rec
    });
    let fleet = telemetry.filter(|_| tracing).map(|t| {
        let fleet = t.fleet();
        fleet.begin(trace_id);
        fleet
    });
    let shard_index: HashMap<String, usize> = shards
        .iter()
        .enumerate()
        .map(|(index, name)| (name.clone(), index))
        .collect();
    let started = Instant::now();
    let consume = &consume;
    let mut report = ServeReport {
        workers: workers.len() as u64,
        ..ServeReport::default()
    };
    // Connection lifecycles each worker has burned so far. A worker is
    // a candidate while it has budget left; success resets its count.
    let budget = config.reconnect.max_attempts.max(1);
    let mut failures: HashMap<&String, u32> = workers.iter().map(|addr| (addr, 0u32)).collect();
    let mut pending: Vec<String> = shards.to_vec();
    while !pending.is_empty() {
        let retry_open = !config
            .reconnect
            .deadline
            .is_some_and(|d| started.elapsed() >= d);
        // Healthy workers always participate; failed ones only while
        // their budget and the reconnect deadline allow another try.
        let candidates: Vec<(&String, u32)> = workers
            .iter()
            .filter_map(|addr| {
                let tried = failures[addr];
                (tried == 0 || (tried < budget && retry_open)).then_some((addr, tried))
            })
            .collect();
        if candidates.is_empty() {
            match &config.policy {
                FaultPolicy::FailFast => {
                    return Err(PipelineError::LostShard {
                        shard: pending[0].clone(),
                    });
                }
                FaultPolicy::Degrade {
                    max_lost_shards, ..
                } => {
                    if pending.len() as u64 > *max_lost_shards {
                        return Err(PipelineError::FaultBudgetExceeded {
                            skipped_samples: 0,
                            lost_shards: pending.len() as u64,
                        });
                    }
                    report.lost_shards = pending.len() as u64;
                    report.degraded = true;
                    break;
                }
            }
        }
        report.rounds += 1;
        // Stripe pending shards across candidate workers, same layout
        // as the in-process engine stripes shards across threads.
        let assignments: Vec<(&String, u32, Vec<String>)> = candidates
            .iter()
            .enumerate()
            .map(|(index, &(addr, tried))| {
                (
                    addr,
                    tried,
                    pending
                        .iter()
                        .skip(index)
                        .step_by(candidates.len())
                        .cloned()
                        .collect::<Vec<String>>(),
                )
            })
            .filter(|(_, _, assigned)| !assigned.is_empty())
            .collect();
        for (_, tried, _) in &assignments {
            if *tried > 0 {
                report.reconnects += 1;
                if let Some(progress) = &progress {
                    progress.record_reconnect_attempt();
                }
            }
        }
        let rec_ref = rec.as_deref();
        let fleet_ref = fleet.as_deref();
        let shard_index = &shard_index;
        let outcomes: Vec<ConnOutcome> = std::thread::scope(|scope| {
            let handles: Vec<_> = assignments
                .iter()
                .map(|(addr, tried, assigned)| {
                    let conn = workers.iter().position(|w| &w == addr).unwrap_or(0) as u32;
                    scope.spawn(move || {
                        let trace = match (rec_ref, fleet_ref) {
                            (Some(rec), Some(fleet)) => Some(ConnTrace {
                                rec,
                                fleet,
                                conn,
                                trace_id,
                                shard_index,
                            }),
                            _ => None,
                        };
                        consume_assignment(
                            addr,
                            assigned,
                            epoch_seed,
                            config,
                            *tried,
                            trace.as_ref(),
                            consume,
                        )
                    })
                })
                .collect();
            handles
                .into_iter()
                .zip(assignments.iter())
                .map(|(handle, (_, _, assigned))| {
                    handle.join().unwrap_or_else(|_| ConnOutcome {
                        failed: assigned.clone(),
                        ..ConnOutcome::default()
                    })
                })
                .collect()
        });
        let mut next_pending: Vec<String> = Vec::new();
        for ((addr, tried, assigned), outcome) in assignments.into_iter().zip(outcomes) {
            if let Some(fatal) = outcome.fatal {
                return Err(fatal);
            }
            if let Some(progress) = &progress {
                progress.gap_wait(outcome.gap_ns);
                progress.stream_read(outcome.stream_ns);
                progress.consume_time(outcome.consume_ns);
            }
            report.samples += outcome.samples;
            report.batches += outcome.batches;
            report.bytes_received += outcome.bytes;
            report.checksum.merge(outcome.checksum);
            if !outcome.failed.is_empty() {
                // The budget counts *consecutive lifeless* lifecycles:
                // a connection that committed a shard — or even just
                // streamed valid batches — before dying proves the
                // worker alive (a flaky link, not a corpse), so its
                // count restarts at this one failure instead of
                // accumulating toward the write-off threshold. Only a
                // worker that goes `max_attempts` lifecycles without a
                // single sign of life is dropped; callers that need a
                // hard bound under an endlessly flaky link set
                // `reconnect.deadline`.
                let alive = outcome.failed.len() < assigned.len() || outcome.batches > 0;
                *failures.get_mut(addr).unwrap() = if alive { 1 } else { tried + 1 };
                report.preemptions += 1;
                if let Some(progress) = &progress {
                    progress.record_preemption();
                }
                next_pending.extend(outcome.failed);
            } else if tried > 0 {
                // Came back after failing: a mid-epoch rejoin.
                *failures.get_mut(addr).unwrap() = 0;
                report.rejoins += 1;
                if let Some(progress) = &progress {
                    progress.record_rejoin();
                }
            }
        }
        if !next_pending.is_empty() {
            report.reassignments += next_pending.len() as u64;
            if let Some(progress) = &progress {
                progress.record_reassignments(next_pending.len() as u64);
            }
        }
        pending = next_pending;
    }
    report.elapsed = started.elapsed();
    if let Some(rec) = &rec {
        rec.finish(
            report.elapsed,
            report.samples,
            report.bytes_received,
            0,
            0,
            report.lost_shards,
            report.degraded,
        );
    }
    if let Some(progress) = &progress {
        progress.finish();
    }
    Ok(report)
}

/// Drive one worker connection through one assignment, committing each
/// shard's buffered samples on its EOF. `attempt` counts earlier failed
/// connection lifecycles of this worker: a re-attempt first sleeps the
/// reconnect policy's backoff (jittered deterministically per worker),
/// giving a preempted worker time to come back on the same address.
fn consume_assignment<F>(
    addr: &str,
    shards: &[String],
    epoch_seed: u64,
    config: &ServeClientConfig,
    attempt: u32,
    trace: Option<&ConnTrace<'_>>,
    consume: &F,
) -> ConnOutcome
where
    F: Fn(&Sample) + Send + Sync,
{
    let mut outcome = ConnOutcome {
        failed: shards.to_vec(),
        ..ConnOutcome::default()
    };
    let parsed: SocketAddr = match addr.parse() {
        Ok(parsed) => parsed,
        Err(_) => return outcome,
    };
    if attempt > 0 {
        std::thread::sleep(config.reconnect.backoff(attempt, epoch_seed ^ fnv64(addr)));
    }
    let stream = match TcpStream::connect_timeout(&parsed, config.connect_timeout) {
        Ok(stream) => stream,
        Err(_) => return outcome,
    };
    let _ = stream.set_nodelay(true);
    let _ = stream.set_read_timeout(Some(config.read_timeout));
    let mut writer = match stream.try_clone() {
        Ok(writer) => writer,
        Err(_) => return outcome,
    };
    let mut reader = BufReader::new(MeteredReader::new(stream, trace.is_some()));
    drive_assignment(
        addr,
        shards,
        epoch_seed,
        config,
        trace,
        consume,
        &mut writer,
        &mut reader,
        &mut outcome,
    );
    // Whatever happened on the wire, the wait buckets are real.
    let metered = reader.get_mut();
    outcome.gap_ns = metered.gap_ns;
    outcome.stream_ns = metered.stream_ns;
    outcome
}

/// The wire conversation of one connection: HELLO negotiation, the
/// v2 clock-offset handshake, ASSIGN, then the BATCH/EOF/ERR drain
/// loop and (when requested) the trailing STATS frame. Mutates
/// `outcome` in place so every early return leaves a consistent
/// partial result for failover.
#[allow(clippy::too_many_arguments)]
fn drive_assignment<F>(
    addr: &str,
    shards: &[String],
    epoch_seed: u64,
    config: &ServeClientConfig,
    trace: Option<&ConnTrace<'_>>,
    consume: &F,
    writer: &mut TcpStream,
    reader: &mut BufReader<MeteredReader<TcpStream>>,
    outcome: &mut ConnOutcome,
) where
    F: Fn(&Sample) + Send + Sync,
{
    let local_max = config.max_version.clamp(1, PROTOCOL_VERSION);
    let trace_id = trace.map_or(0, |t| t.trace_id);
    if write_frame(
        writer,
        &Frame::Hello {
            version: local_max,
            trace_id,
        },
    )
    .is_err()
    {
        return;
    }
    reader.get_mut().start_frame();
    let negotiated = match read_frame(reader) {
        Ok(Some(Frame::Hello { version, .. })) if version >= 1 => local_max.min(version),
        Ok(Some(Frame::Hello { version, .. })) => {
            outcome.fatal = Some(
                ServeError::Protocol(format!("worker speaks protocol v{version}, minimum is 1"))
                    .into(),
            );
            return;
        }
        _ => return,
    };
    if let Some(trace) = trace {
        if negotiated >= 2 {
            // NTP-style offset estimate: the minimum-RTT PING's
            // midpoint is the least-delayed view of the worker clock.
            let mut best_rtt = u64::MAX;
            let mut offset = 0i64;
            for seq in 0..PING_BURST {
                let t0 = mono_ns();
                if write_frame(writer, &Frame::Ping { t0, seq }).is_err() {
                    return;
                }
                reader.get_mut().start_frame();
                match read_frame(reader) {
                    Ok(Some(Frame::Pong {
                        t0: echo,
                        t_worker,
                        seq: echo_seq,
                    })) if echo == t0 && echo_seq == seq => {
                        let rtt = mono_ns().saturating_sub(t0);
                        if rtt < best_rtt {
                            best_rtt = rtt;
                            offset = t_worker as i64 - (t0 + rtt / 2) as i64;
                        }
                    }
                    _ => return,
                }
            }
            trace
                .fleet
                .record_handshake(addr, trace.conn, negotiated, offset, best_rtt);
        } else {
            // v1 worker: no clock exchange; record the connection so
            // the fleet document still lists it.
            trace
                .fleet
                .record_handshake(addr, trace.conn, negotiated, 0, 0);
        }
    }
    // Multi-tenant admission: declare the job before asking for work.
    // REGISTER is a v2 frame; a v1 peer cannot enforce quotas anyway,
    // so the exchange is skipped there (single-job semantics).
    if let Some(tenant) = &config.tenant {
        if negotiated >= 2 {
            let register = Frame::Register {
                tenant: tenant.name.clone(),
                weight: tenant.weight.max(1),
                shards: shards.len() as u32,
            };
            if write_frame(writer, &register).is_err() {
                return;
            }
            reader.get_mut().start_frame();
            match read_frame(reader) {
                Ok(Some(Frame::Admit { .. })) => {}
                Ok(Some(Frame::Reject { reason, .. })) => {
                    // Policy, not a fault: retrying elsewhere would
                    // dodge the admission controller.
                    outcome.fatal = Some(PipelineError::Other(format!(
                        "tenant '{}' rejected by {addr}: {reason}",
                        tenant.name
                    )));
                    return;
                }
                _ => return,
            }
        }
    }
    let want_stats = trace.is_some() && negotiated >= 2;
    if write_frame(
        writer,
        &Frame::Assign {
            epoch_seed,
            credits: config.credits.max(1),
            shards: shards.to_vec(),
            trace_id,
            parent_span: if trace.is_some() {
                trace_id ^ fnv64(addr)
            } else {
                0
            },
            flags: if want_stats { ASSIGN_WANT_STATS } else { 0 },
        },
    )
    .is_err()
    {
        return;
    }
    // One client span per shard: assignment start → EOF commit.
    let assign_t0 = trace.and_then(|t| t.rec.begin());
    let mut buffers: Vec<Vec<Sample>> = vec![Vec::new(); shards.len()];
    let mut done = vec![false; shards.len()];
    loop {
        reader.get_mut().start_frame();
        let frame = match read_frame(reader) {
            Ok(Some(frame)) => frame,
            // Clean close mid-assignment, CRC garbage, timeout: the
            // connection is unusable — whatever was not committed
            // fails over.
            _ => return,
        };
        // A v2 BATCH2 carries the same payload as a BATCH plus trace
        // context the client does not need for delivery.
        let frame = match frame {
            Frame::Batch2 {
                shard,
                count,
                codec,
                block,
                ..
            } => Frame::Batch {
                shard,
                count,
                codec,
                block,
            },
            frame => frame,
        };
        match frame {
            Frame::Batch {
                shard,
                count,
                codec,
                block,
            } => {
                let index = shard as usize;
                if index >= buffers.len() || done[index] {
                    return; // protocol violation: treat conn as dead
                }
                outcome.batches += 1;
                outcome.bytes += block.len() as u64;
                let codec = match wire_codec(codec) {
                    Ok(codec) => codec,
                    Err(_) => return,
                };
                let framed = match codec {
                    Codec::None => block,
                    _ => match codec.decompress(&block) {
                        Ok(framed) => framed,
                        Err(_) => return,
                    },
                };
                let mut records = RecordReader::new(&framed);
                let mut decoded = 0u32;
                while let Some(record) = records.next() {
                    let sample = match record
                        .map_err(|_| ())
                        .and_then(|r| Sample::decode(r).map_err(|_| ()))
                    {
                        Ok(sample) => sample,
                        Err(()) => return,
                    };
                    buffers[index].push(sample);
                    decoded += 1;
                }
                if decoded != count {
                    return;
                }
                if write_frame(writer, &Frame::Credit { n: 1 }).is_err() {
                    return;
                }
            }
            Frame::Eof { shard } => {
                let index = shard as usize;
                if index >= buffers.len() || done[index] {
                    return;
                }
                // Commit: the shard arrived whole, deliver it.
                done[index] = true;
                let t_consume = Instant::now();
                for sample in std::mem::take(&mut buffers[index]) {
                    outcome.checksum.add(&sample);
                    outcome.samples += 1;
                    consume(&sample);
                }
                outcome.consume_ns += t_consume.elapsed().as_nanos() as u64;
                outcome.failed.retain(|name| name != &shards[index]);
                if let (Some(trace), Some(t0)) = (trace, assign_t0) {
                    if let Some(&global) = trace.shard_index.get(&shards[index]) {
                        trace
                            .rec
                            .phase_done(trace.conn as usize, BUILTIN_PHASES + global, t0);
                    }
                }
                if done.iter().all(|&d| d) {
                    break;
                }
            }
            Frame::Err { message } => {
                outcome.fatal = Some(PipelineError::Other(format!(
                    "worker {addr} failed: {message}"
                )));
                return;
            }
            // A stray PONG (duplicate handshake reply) is harmless.
            Frame::Pong { .. } => {}
            _ => return,
        }
    }
    // All shards committed; the worker's STATS frame (if requested)
    // trails the final EOF. Best-effort: a worker that dies here has
    // already delivered everything.
    if want_stats {
        if let Some(trace) = trace {
            loop {
                reader.get_mut().start_frame();
                match read_frame(reader) {
                    Ok(Some(Frame::Stats { entry })) => {
                        let mut entry = *entry;
                        entry.addr = addr.to_string();
                        entry.conn = trace.conn;
                        entry.peer_version = negotiated;
                        trace.fleet.record_stats(entry);
                        break;
                    }
                    Ok(Some(_)) => continue,
                    _ => break,
                }
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn frames_round_trip_through_payload_encoding() {
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
        let frames = [
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
            Frame::Batch {
                shard: 3,
                count: 0,
                codec: 0,
                block: Vec::new(),
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
        ];
        for frame in frames {
            let decoded = Frame::decode_payload(&frame.encode_payload()).expect("round trip");
            assert_eq!(decoded, frame);
        }
    }

    #[test]
    fn v1_peers_survive_v2_hello_and_assign_trailers() {
        // A v1 decoder reads the known prefix and ignores trailing
        // bytes. Simulate one by truncating the v2 encodings at the
        // v1 boundary and checking the v2 decoder defaults the
        // missing trailer — the exact tolerance a real v1 peer relies
        // on in reverse.
        let hello = Frame::Hello {
            version: 2,
            trace_id: 0xAB,
        };
        let payload = hello.encode_payload();
        let v1_cut = &payload[..5]; // tag + version only
        assert_eq!(
            Frame::decode_payload(v1_cut).expect("v1 hello"),
            Frame::Hello {
                version: 2,
                trace_id: 0,
            }
        );
        let assign = Frame::Assign {
            epoch_seed: 9,
            credits: 2,
            shards: vec!["s0".into(), "s1".into()],
            trace_id: 5,
            parent_span: 6,
            flags: ASSIGN_WANT_STATS,
        };
        let payload = assign.encode_payload();
        let v1_cut = &payload[..payload.len() - 17]; // strip v2 trailer
        assert_eq!(
            Frame::decode_payload(v1_cut).expect("v1 assign"),
            Frame::Assign {
                epoch_seed: 9,
                credits: 2,
                shards: vec!["s0".into(), "s1".into()],
                trace_id: 0,
                parent_span: 0,
                flags: 0,
            }
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
        assert!(gate.take(&progress));
        assert_eq!(progress.snapshot().credit_stalls, 0);
        let waiter = Arc::clone(&gate);
        let handle = std::thread::spawn(move || {
            std::thread::sleep(Duration::from_millis(20));
            waiter.add(1);
        });
        assert!(gate.take(&progress));
        assert_eq!(progress.snapshot().credit_stalls, 1);
        handle.join().unwrap();
        gate.close();
        assert!(!gate.take(&progress));
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
        assert!(gate.take(&progress));
        handle.join().unwrap();
        let snap = progress.snapshot();
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
        // The gate registry must propagate a worker crash to senders
        // parked in `take` — without the old poll loop, a missed
        // close would hang them forever.
        let gate = Arc::new(CreditGate::new());
        let progress = ServeProgress::default();
        let closer = Arc::clone(&gate);
        let handle = std::thread::spawn(move || {
            std::thread::sleep(Duration::from_millis(30));
            closer.close();
        });
        let started = Instant::now();
        assert!(!gate.take(&progress));
        assert!(started.elapsed() < Duration::from_secs(5));
        handle.join().unwrap();
    }
}
