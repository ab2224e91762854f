#![warn(missing_docs)]

//! # presto-storage
//!
//! Discrete-event simulated storage and execution substrate.
//!
//! The paper measures its pipelines on an 8-VCPU VM reading from an
//! HDD/SSD-backed Ceph cluster over a 10 Gb/s link. That hardware is not
//! available here, so this crate models the mechanisms the paper's
//! analysis isolates:
//!
//! - [`time::EventLoop`]: the virtual clock and its event queue, in
//!   [`Nanos`], with one tie rule (same-instant events pop in schedule
//!   order) — the machine below and the causal replay in `presto` both
//!   run on it,
//! - [`resource::PsResource`]: max–min-fair processor sharing — the
//!   cluster's aggregate bandwidth, the VM's CPU cores and the memory
//!   bus are all shared this way,
//! - [`machine::SimMachine`]: a single-threaded discrete-event engine
//!   driving worker *programs* (state machines, or plain iterators of
//!   stages) through lock, read, compute and write stages on the event
//!   loop's clock,
//! - [`device::DeviceProfile`]: per-device parameters (streaming
//!   bandwidth, open latency, IOPS admission), with presets
//!   calibrated against the paper's Table 3 `fio` profile,
//! - [`cache::PageCache`]: a granule-level LRU page cache (system-level
//!   caching) — the mechanism behind the paper's Section 4.2,
//! - [`fio`]: an `fio`-style workload driver regenerating Table 3,
//! - [`dstat::Dstat`]: run counters mirroring the paper's `dstat`
//!   side-channel (bytes from storage vs memory, context switches…).
//!
//! Everything runs on virtual time: results are deterministic and
//! machine-independent, which is what lets the benches regenerate the
//! paper's tables anywhere.

pub mod cache;
pub mod device;
pub mod dstat;
pub mod fio;
pub mod machine;
pub mod resource;
pub mod time;

pub use cache::PageCache;
pub use device::DeviceProfile;
pub use dstat::Dstat;
pub use machine::{Program, ReadReq, SimMachine, Stage, TaskId};
pub use time::{EventLoop, Nanos};
