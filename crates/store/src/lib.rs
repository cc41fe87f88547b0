//! # stash-store — durable, crash-resumable measurement storage
//!
//! The paper's pay-once characterization economics (§IV) only hold if
//! measurement results survive the process that produced them. This crate
//! is the durability layer under the sweep runner: a content-addressed
//! on-disk result store keyed by the profiler's FNV-128 canonical config
//! keys, hardened against the ways cloud machines actually fail —
//! SIGKILL mid-write, full disks, torn and bit-flipped records.
//!
//! * [`io`] — the [`io::StoreIo`] trait every byte of store I/O goes
//!   through, with a production [`io::StdFs`] backend
//!   (write-temp-fsync-rename atomicity) and a seeded [`io::FaultFs`]
//!   backend that deterministically injects torn writes, short reads,
//!   transient `EIO`, `ENOSPC`, bit flips and mid-write stalls at planned
//!   operation indices — so every recovery path is exercised by tests;
//! * [`frame`] — the length+checksum record frame that makes torn,
//!   truncated or corrupted records *detected* instead of silently read;
//! * [`store`] — [`store::ResultStore`]: atomic record writes, verified
//!   reads, and an fsck-style scan that quarantines bad records instead
//!   of aborting;
//! * [`journal`] — the checksummed write-ahead sweep journal that makes
//!   `stash sweep --resume` replay completed work bit-identically;
//! * [`retry`] — capped exponential backoff with per-job deadlines and
//!   typed failure reasons for graceful degradation.
//!
//! The design mirrors the PR 5 `FaultPlan` chaos layer: every fault is
//! planned, seeded and deterministic, so the same plan always fails (and
//! recovers) the same way.

#![warn(missing_docs)]
#![warn(missing_debug_implementations)]

pub mod frame;
pub mod io;
pub mod journal;
pub mod retry;
pub mod store;

/// FNV-1a (128-bit) over raw bytes — the same derivation the profiler's
/// `MeasurementCache` uses for canonical config keys, exposed here so the
/// store, the frame checksum and the sweep layer share one hash.
#[must_use]
pub fn fnv128(bytes: &[u8]) -> u128 {
    let mut h = Fnv128::new();
    h.update(bytes);
    h.finish()
}

/// Streaming [`fnv128`]: bytes fed in pieces hash exactly as their
/// concatenation would. As a [`std::fmt::Write`] it hashes formatted
/// output without building the string.
#[derive(Debug, Clone, Copy)]
pub struct Fnv128(u128);

impl Fnv128 {
    /// The hash of no bytes.
    #[must_use]
    pub const fn new() -> Fnv128 {
        Fnv128(0x6c62_272e_07bb_0142_62b8_2175_6295_c58d)
    }

    /// Feeds `bytes`.
    pub fn update(&mut self, bytes: &[u8]) {
        const PRIME: u128 = 0x0000_0000_0100_0000_0000_0000_0000_013B;
        for &b in bytes {
            self.0 ^= u128::from(b);
            self.0 = self.0.wrapping_mul(PRIME);
        }
    }

    /// The hash of everything fed so far.
    #[must_use]
    pub const fn finish(self) -> u128 {
        self.0
    }
}

impl Default for Fnv128 {
    fn default() -> Fnv128 {
        Fnv128::new()
    }
}

impl std::fmt::Write for Fnv128 {
    fn write_str(&mut self, s: &str) -> std::fmt::Result {
        self.update(s.as_bytes());
        Ok(())
    }
}

/// Renders a store key as the fixed-width lowercase hex used for record
/// filenames and journal entries.
#[must_use]
pub fn key_hex(key: u128) -> String {
    format!("{key:032x}")
}

/// Parses a [`key_hex`]-formatted key back to its value.
#[must_use]
pub fn parse_key_hex(s: &str) -> Option<u128> {
    if s.len() != 32 || !s.bytes().all(|b| b.is_ascii_hexdigit()) {
        return None;
    }
    u128::from_str_radix(s, 16).ok()
}

/// Convenient glob-import of the most used items.
pub mod prelude {
    pub use crate::frame::{decode, encode, FrameError};
    pub use crate::io::{FaultFs, IoFault, IoFaultKind, IoFaultPlan, IoOpClass, StdFs, StoreIo};
    pub use crate::journal::{Journal, JournalEntry, JournalReplay};
    pub use crate::retry::{with_retry, FailReason, RetryPolicy};
    pub use crate::store::{Fetch, FsckIssue, FsckReport, ResultStore, StoreError};
    pub use crate::{fnv128, key_hex, parse_key_hex, Fnv128};
}

#[cfg(test)]
#[allow(clippy::unwrap_used, clippy::expect_used)]
mod tests {
    use super::*;

    #[test]
    fn fnv128_matches_reference_vectors() {
        // Same offset/prime as MeasurementCache::config_key: empty input
        // hashes to the offset basis.
        assert_eq!(fnv128(b""), 0x6c62_272e_07bb_0142_62b8_2175_6295_c58d);
        assert_ne!(fnv128(b"a"), fnv128(b"b"));
        let mut h = Fnv128::new();
        h.update(b"ab");
        h.update(b"");
        std::fmt::Write::write_str(&mut h, "cd").unwrap();
        assert_eq!(h.finish(), fnv128(b"abcd"));
    }

    #[test]
    fn key_hex_round_trips() {
        for k in [0u128, 1, u128::MAX, 0xdead_beef] {
            assert_eq!(parse_key_hex(&key_hex(k)), Some(k));
        }
        assert_eq!(parse_key_hex("zz"), None);
        assert_eq!(parse_key_hex(&"f".repeat(33)), None);
    }
}
