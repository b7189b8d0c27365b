//! # dyno-durable — the warehouse's write-ahead log
//!
//! PR 3 made the *sources and the network* hostile; this crate makes the
//! warehouse process itself killable. It provides the three ingredients the
//! view layer's commit protocol is built from, with zero external
//! dependencies (the workspace builds offline):
//!
//! * [`codec`] — a manual little-endian binary codec ([`Enc`]/[`Dec`]).
//!   Every recovery-relevant type in the workspace serializes through it by
//!   hand; there is no serde and no reflection, so the wire format is exactly
//!   what the code says it is.
//! * [`wal::Wal`] — an append-only log of self-describing records: magic,
//!   length prefix, sequence number, and a CRC-32 over the sequenced
//!   payload. Replay stops at the first torn or corrupt record and reports
//!   how much tail it discarded — a half-written record after a power cut is
//!   indistinguishable from garbage and must never be half-applied.
//! * [`storage::Storage`] — where the bytes live: [`MemStorage`] is a
//!   shared in-memory "disk" for tests and the crash simulator (the handle
//!   survives dropping the warehouse that wrote through it, exactly like a
//!   disk survives the process), [`FileStorage`] appends to a real file with
//!   atomic rewrite-via-rename for checkpoints.
//!
//! The record *contents* (checkpoints, admitted messages, intents, applied
//! deltas) are defined by the crates that own the state — see
//! `dyno_relational::wire`, `dyno_source::wire`, `dyno_core::wire`, and
//! `dyno_view::wal` — keeping this crate model-independent.

#![warn(missing_docs)]

pub mod codec;
pub mod crc;
pub mod storage;
pub mod wal;

pub use codec::{Dec, Enc, WireError};
pub use crc::{crc32, Crc32};
pub use storage::{FileStorage, MemStorage, Storage, StorageError};
pub use wal::{Replay, Wal, WalError};
