//! The byte-touch ledger: how many user-space passes the program makes
//! over payload bytes, counted where each pass happens.
//!
//! Preprocessing is CPU-bound, so every pass over the bytes is time the
//! trainer does not get. Each function here records one pass of a kind
//! over `bytes` bytes, and is called at the one place that pass is made:
//! a CRC in [`Crc32::update`](crate::checksum::Crc32::update), deflate
//! and inflate in and out, a copy into an owned buffer, a zero-fill, the
//! multiset hash. A test divides the totals by the bytes delivered and
//! pins the passes per payload byte of each path.
//!
//! The counters exist only with the `touch-ledger` cargo feature. Without
//! it every function is empty and [`snapshot`] reads zeros, so a build
//! that does not ask for the ledger pays nothing for it. The counters
//! are process-wide: read them in a process that runs one path at a
//! time.

#[cfg(feature = "touch-ledger")]
use std::sync::atomic::{AtomicU64, Ordering};

/// Bytes passed over so far, by kind of pass.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct Ledger {
    /// Bytes read from one buffer and written to another: a memcpy, a
    /// step's output, deflate and inflate input and output.
    pub copy: u64,
    /// Bytes zero-filled before being overwritten.
    pub zero_fill: u64,
    /// Bytes run through a CRC-32 or Adler-32.
    pub crc: u64,
    /// Bytes run through the multiset hash.
    pub hash: u64,
}

impl Ledger {
    /// Passes of every kind together.
    pub fn total(&self) -> u64 {
        self.copy + self.zero_fill + self.crc + self.hash
    }

    /// What was counted between `earlier` and `self`.
    pub fn since(&self, earlier: &Ledger) -> Ledger {
        Ledger {
            copy: self.copy - earlier.copy,
            zero_fill: self.zero_fill - earlier.zero_fill,
            crc: self.crc - earlier.crc,
            hash: self.hash - earlier.hash,
        }
    }
}

/// True when this build counts (the `touch-ledger` feature is on).
pub const ENABLED: bool = cfg!(feature = "touch-ledger");

#[cfg(feature = "touch-ledger")]
static COUNTERS: [AtomicU64; 4] = [
    AtomicU64::new(0),
    AtomicU64::new(0),
    AtomicU64::new(0),
    AtomicU64::new(0),
];

#[inline(always)]
#[allow(unused_variables)]
fn add(kind: usize, bytes: usize) {
    #[cfg(feature = "touch-ledger")]
    COUNTERS[kind].fetch_add(bytes as u64, Ordering::Relaxed);
}

/// One copy pass over `bytes` bytes.
#[inline(always)]
pub fn copy(bytes: usize) {
    add(0, bytes);
}

/// One zero-fill of `bytes` bytes.
#[inline(always)]
pub fn zero_fill(bytes: usize) {
    add(1, bytes);
}

/// One CRC pass over `bytes` bytes.
#[inline(always)]
pub fn crc(bytes: usize) {
    add(2, bytes);
}

/// One hash pass over `bytes` bytes.
#[inline(always)]
pub fn hash(bytes: usize) {
    add(3, bytes);
}

/// A read of `bytes` bytes from a reader of type `R` into a buffer's
/// spare capacity, by `read_to_end`. std's own readers (sockets, files,
/// slices, and `BufReader` or `Take` over them) fill spare capacity as
/// it is; a reader type defined anywhere else has only `read`, since
/// `read_buf` cannot be implemented on stable Rust, so std's default
/// `read_buf` zero-fills the room before each read: one zero-fill pass,
/// counted here.
#[inline(always)]
#[allow(unused_variables)]
pub fn read_into<R: ?Sized>(bytes: usize) {
    #[cfg(feature = "touch-ledger")]
    if !std_reader(std::any::type_name::<R>()) {
        zero_fill(bytes);
    }
}

/// Whether every path named in the type name `name` is std's (or a
/// primitive), e.g. `&mut std::io::BufReader<std::net::TcpStream>`.
#[cfg(feature = "touch-ledger")]
fn std_reader(name: &str) -> bool {
    name.split(|c: char| !(c.is_alphanumeric() || c == '_' || c == ':'))
        .filter(|path| path.contains("::"))
        .all(|path| {
            ["std::", "core::", "alloc::"]
                .iter()
                .any(|root| path.starts_with(root))
        })
}

/// The totals so far (zeros without the `touch-ledger` feature).
pub fn snapshot() -> Ledger {
    #[cfg(feature = "touch-ledger")]
    {
        let [copy, zero_fill, crc, hash] =
            [0, 1, 2, 3].map(|kind| COUNTERS[kind].load(Ordering::Relaxed));
        Ledger {
            copy,
            zero_fill,
            crc,
            hash,
        }
    }
    #[cfg(not(feature = "touch-ledger"))]
    Ledger::default()
}

#[cfg(all(test, feature = "touch-ledger"))]
mod tests {
    use super::std_reader;

    #[test]
    fn only_std_readers_fill_spare_capacity_as_it_is() {
        assert!(std_reader(std::any::type_name::<&[u8]>()));
        assert!(std_reader(std::any::type_name::<
            &mut std::io::BufReader<std::net::TcpStream>,
        >()));
        assert!(std_reader(std::any::type_name::<
            std::io::Take<&mut std::io::BufReader<std::fs::File>>,
        >()));
        struct Metered;
        assert!(!std_reader(std::any::type_name::<
            std::io::BufReader<Metered>,
        >()));
    }
}
