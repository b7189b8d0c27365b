//! The append-only log itself: framing, replay, and checkpoint truncation.
//!
//! ## Record format
//!
//! Every record is self-describing:
//!
//! ```text
//! +------+------+----------+----------+-----------+
//! | 0xD1 | 0x40 | len: u32 | seq: u64 | crc: u32  |  payload (len bytes)
//! +------+------+----------+----------+-----------+
//!   magic (2)     LE          LE        LE, over
//!                                       seq ‖ payload
//! ```
//!
//! 18 bytes of header, then the payload. The CRC covers the sequence number
//! *and* the payload, so a record copied to the wrong position (or a stale
//! sector resurfacing) fails the checksum even if its bytes are internally
//! consistent. Sequence numbers are strictly consecutive within a log image;
//! they keep counting across [`Wal::rewrite`] (checkpoint truncation), so a
//! log can never silently "start over".
//!
//! ## Torn tails
//!
//! A power cut can leave a prefix of the last record on disk. Replay stops
//! at the first sign of trouble — short header, bad magic, short payload,
//! CRC mismatch, or a sequence break — and reports everything from there on
//! as the torn tail. A record that never finished writing is a record that
//! was never durably logged; the commit protocol upstream is designed so
//! that this is always safe to discard.

use crate::codec::Enc;
use crate::crc::Crc32;
use crate::storage::{Storage, StorageError};
use dyno_obs::{Collector, Counter};
use std::fmt;
use std::ops::Range;

/// First magic byte of every record.
pub const MAGIC0: u8 = 0xD1;
/// Second magic byte of every record.
pub const MAGIC1: u8 = 0x40;
/// Fixed header size: magic (2) + len (4) + seq (8) + crc (4).
pub const HEADER_LEN: usize = 18;

/// The frame buffer is reused from record to record; after a checkpoint
/// image passed through it, it is cut back to this capacity so the log does
/// not pin a snapshot-sized scratch area between compactions.
const FRAME_BUF_KEEP: usize = 64 * 1024;

/// A WAL-level failure. Torn or corrupt tails are *not* errors — they are
/// reported through [`Replay`] — so the only failure source is storage I/O.
#[derive(Debug, Clone)]
pub enum WalError {
    /// The underlying storage backend failed.
    Storage(StorageError),
}

impl fmt::Display for WalError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            WalError::Storage(e) => write!(f, "wal: {e}"),
        }
    }
}

impl std::error::Error for WalError {}

impl From<StorageError> for WalError {
    fn from(e: StorageError) -> Self {
        WalError::Storage(e)
    }
}

/// What [`Wal::open`] found in the log: the image it read, where each
/// intact record's payload lies in it, plus an accounting of any discarded
/// tail. Payloads are borrowed from the image — nothing is copied out.
#[derive(Debug, Clone, Default)]
pub struct Replay {
    image: Vec<u8>,
    records: Vec<Range<usize>>,
    /// 1 if a torn/corrupt tail was discarded, 0 for a cleanly closed log.
    /// (The tail is opaque bytes — there is no way to count how many records
    /// it was "supposed" to hold, so this is a flag-shaped counter.)
    pub torn_records: u64,
    /// Bytes discarded as the torn tail.
    pub torn_bytes: u64,
}

impl Replay {
    /// Payloads of every intact record, in append order.
    pub fn payloads(&self) -> impl ExactSizeIterator<Item = &[u8]> {
        self.records.iter().map(|r| &self.image[r.clone()])
    }
}

/// An append-only, CRC-framed, sequence-numbered log over a [`Storage`]
/// backend. See the module docs for the record format.
///
/// The log knows its own size from what it wrote (seeded by [`Wal::open`]
/// from the image it read): `head` is the framed size of the record the log
/// was last truncated to, everything after it is the tail. Compaction
/// policies upstream compare the two without a `Storage::len` round trip.
#[derive(Debug, Clone)]
pub struct Wal {
    storage: Box<dyn Storage>,
    next_seq: u64,
    len: u64,
    head: u64,
    /// Scratch every record is framed in before its one `Storage` call.
    frame: Vec<u8>,
    appends: Counter,
    bytes: Counter,
    checkpoints: Counter,
}

impl Wal {
    fn over(storage: Box<dyn Storage>, next_seq: u64, len: u64, head: u64) -> Self {
        Self {
            storage,
            next_seq,
            len,
            head,
            frame: Vec::new(),
            appends: Counter::default(),
            bytes: Counter::default(),
            checkpoints: Counter::default(),
        }
    }

    /// Start a fresh log on `storage`, erasing whatever it held.
    pub fn create(mut storage: Box<dyn Storage>) -> Result<Self, WalError> {
        storage.replace(&[])?;
        Ok(Self::over(storage, 1, 0, 0))
    }

    /// Open an existing log, replaying every intact record and discarding a
    /// torn tail. The returned [`Wal`] appends after the last intact record
    /// (the torn bytes stay on storage until the next [`Wal::rewrite`],
    /// which recovery performs as its final step).
    pub fn open(storage: Box<dyn Storage>) -> Result<(Self, Replay), WalError> {
        let image = storage.read_all()?;
        let mut replay = Replay::default();
        let mut pos = 0usize;
        let mut last_seq = 0u64;
        while pos < image.len() {
            match parse_record(&image[pos..], last_seq) {
                Some((seq, len)) => {
                    last_seq = seq;
                    replay.records.push(pos + HEADER_LEN..pos + HEADER_LEN + len);
                    pos += HEADER_LEN + len;
                }
                None => {
                    replay.torn_records = 1;
                    replay.torn_bytes = (image.len() - pos) as u64;
                    break;
                }
            }
        }
        let head = replay.records.first().map_or(0, |r| r.end) as u64;
        let wal = Self::over(storage, last_seq + 1, image.len() as u64, head);
        replay.image = image;
        Ok((wal, replay))
    }

    /// Attach an observability collector; subsequent appends count into
    /// `wal.appends`, `wal.bytes`, and `wal.checkpoints`.
    pub fn bind_obs(&mut self, obs: &Collector) {
        self.appends = obs.counter("wal.appends");
        self.bytes = obs.counter("wal.bytes");
        self.checkpoints = obs.counter("wal.checkpoints");
    }

    /// Append one record, returning its sequence number.
    pub fn append(&mut self, payload: &[u8]) -> Result<u64, WalError> {
        self.append_with(|e| e.raw(payload))
    }

    /// Append one record whose payload `encode` writes straight into the
    /// log's frame buffer — no intermediate payload allocation.
    pub fn append_with(&mut self, encode: impl FnOnce(&mut Enc)) -> Result<u64, WalError> {
        let seq = self.next_seq;
        let frame = self.build_frame(encode)?;
        let written = frame.len() as u64;
        let result = self.storage.append(&frame);
        self.frame = frame;
        result?;
        self.next_seq += 1;
        self.len += written;
        self.appends.inc();
        self.bytes.add(written);
        Ok(seq)
    }

    /// Atomically replace the whole log with a single record (a checkpoint).
    /// The sequence number keeps counting — truncation never resets it.
    pub fn rewrite(&mut self, payload: &[u8]) -> Result<u64, WalError> {
        self.rewrite_with(|e| e.raw(payload))
    }

    /// [`Wal::rewrite`] with the payload encoded in place, like
    /// [`Wal::append_with`].
    pub fn rewrite_with(&mut self, encode: impl FnOnce(&mut Enc)) -> Result<u64, WalError> {
        let seq = self.next_seq;
        // The record being replaced is the best guess at this one's size:
        // one allocation instead of a doubling ladder of copies.
        self.frame.clear();
        self.frame.reserve(HEADER_LEN + self.head as usize);
        let mut frame = self.build_frame(encode)?;
        let written = frame.len() as u64;
        let result = self.storage.replace(&frame);
        frame.clear();
        frame.shrink_to(FRAME_BUF_KEEP);
        self.frame = frame;
        result?;
        self.next_seq += 1;
        self.len = written;
        self.head = written;
        self.checkpoints.inc();
        self.bytes.add(written);
        Ok(seq)
    }

    /// Frames the next record in the reusable buffer: header placeholder,
    /// payload, then the header patched in once length and CRC are known.
    fn build_frame(&mut self, encode: impl FnOnce(&mut Enc)) -> Result<Vec<u8>, WalError> {
        let mut e = Enc::reusing(std::mem::take(&mut self.frame));
        e.raw(&[0; HEADER_LEN]);
        encode(&mut e);
        let mut frame = e.finish();
        let seq = self.next_seq.to_le_bytes();
        let payload_len = frame.len() - HEADER_LEN;
        let len = u32::try_from(payload_len).map_err(|_| {
            StorageError(format!(
                "a {payload_len}-byte record exceeds the format's u32 length field"
            ))
        })?;
        let mut crc = Crc32::new();
        crc.update(&seq);
        crc.update(&frame[HEADER_LEN..]);
        frame[0] = MAGIC0;
        frame[1] = MAGIC1;
        frame[2..6].copy_from_slice(&len.to_le_bytes());
        frame[6..14].copy_from_slice(&seq);
        frame[14..18].copy_from_slice(&crc.finish().to_le_bytes());
        Ok(frame)
    }

    /// The sequence number the next record will get.
    pub fn next_seq(&self) -> u64 {
        self.next_seq
    }

    /// Current size of the log in bytes, from the log's own accounting.
    pub fn len_bytes(&self) -> u64 {
        self.len
    }

    /// Framed size of the record the log was last truncated to by
    /// [`Wal::rewrite`] (for a reopened log: of the image's first record);
    /// 0 for a log that holds none.
    pub fn head_bytes(&self) -> u64 {
        self.head
    }

    /// Records appended since the log was created/opened *plus* everything
    /// before — i.e. `next_seq - 1` total records ever written.
    pub fn records_written(&self) -> u64 {
        self.next_seq - 1
    }
}

/// Parse one record at the start of `buf`. `last_seq` is the previous
/// record's sequence number (0 before the first). Returns
/// `(seq, payload_len)` — the payload follows the [`HEADER_LEN`]-byte
/// header — or `None` if the bytes are torn, corrupt, or out of sequence.
fn parse_record(buf: &[u8], last_seq: u64) -> Option<(u64, usize)> {
    if buf.len() < HEADER_LEN {
        return None;
    }
    if buf[0] != MAGIC0 || buf[1] != MAGIC1 {
        return None;
    }
    let len = u32::from_le_bytes(buf[2..6].try_into().unwrap()) as usize;
    let seq = u64::from_le_bytes(buf[6..14].try_into().unwrap());
    let crc = u32::from_le_bytes(buf[14..18].try_into().unwrap());
    if buf.len() - HEADER_LEN < len {
        return None;
    }
    // Sequence must be strictly consecutive within one log image: appends
    // after a checkpoint continue from the checkpoint's number.
    if last_seq != 0 && seq != last_seq + 1 {
        return None;
    }
    if seq == 0 {
        return None;
    }
    // The stored sequence bytes *are* `seq.to_le_bytes()`, so the CRC input
    // `seq ‖ payload` is read in place.
    let mut sum = Crc32::new();
    sum.update(&buf[6..14]);
    sum.update(&buf[HEADER_LEN..HEADER_LEN + len]);
    if sum.finish() != crc {
        return None;
    }
    Some((seq, len))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::storage::MemStorage;

    fn boxed(disk: &MemStorage) -> Box<dyn Storage> {
        Box::new(disk.clone())
    }

    fn payloads(replay: &Replay) -> Vec<Vec<u8>> {
        replay.payloads().map(<[u8]>::to_vec).collect()
    }

    #[test]
    fn append_and_replay_round_trip() {
        let disk = MemStorage::new();
        let mut wal = Wal::create(boxed(&disk)).unwrap();
        assert_eq!(wal.append(b"first").unwrap(), 1);
        assert_eq!(wal.append(b"second").unwrap(), 2);
        assert_eq!(wal.append(b"").unwrap(), 3); // empty payloads are legal

        let (wal2, replay) = Wal::open(boxed(&disk)).unwrap();
        assert_eq!(payloads(&replay), vec![b"first".to_vec(), b"second".to_vec(), Vec::new()]);
        assert_eq!(replay.torn_records, 0);
        assert_eq!(replay.torn_bytes, 0);
        assert_eq!(wal2.next_seq(), 4);
    }

    #[test]
    fn rewrite_truncates_but_sequence_keeps_counting() {
        let disk = MemStorage::new();
        let mut wal = Wal::create(boxed(&disk)).unwrap();
        wal.append(b"a").unwrap();
        wal.append(b"b").unwrap();
        let ckpt_seq = wal.rewrite(b"checkpoint").unwrap();
        assert_eq!(ckpt_seq, 3);
        wal.append(b"tail").unwrap();

        let (wal2, replay) = Wal::open(boxed(&disk)).unwrap();
        assert_eq!(payloads(&replay), vec![b"checkpoint".to_vec(), b"tail".to_vec()]);
        assert_eq!(replay.torn_records, 0);
        assert_eq!(wal2.next_seq(), 5);
    }

    #[test]
    fn torn_write_matrix_every_truncation_of_the_final_record() {
        // Build a log of three records, then chop the image at every byte
        // boundary inside the final record. Replay must never panic, must
        // keep the first two records intact, and must report the tail.
        let disk = MemStorage::new();
        let mut wal = Wal::create(boxed(&disk)).unwrap();
        wal.append(b"keep-me-1").unwrap();
        wal.append(b"keep-me-2").unwrap();
        let full_before = disk.snapshot().len();
        wal.append(b"the record that tears").unwrap();
        let full = disk.snapshot();

        for cut in full_before..full.len() {
            let torn_disk = MemStorage::new();
            torn_disk.set(full[..cut].to_vec());
            let (wal2, replay) = Wal::open(boxed(&torn_disk)).unwrap();
            assert_eq!(
                payloads(&replay),
                vec![b"keep-me-1".to_vec(), b"keep-me-2".to_vec()],
                "cut at byte {cut}"
            );
            if cut == full_before {
                // Clean truncation at the record boundary: the last record
                // simply never made it to disk. Not torn.
                assert_eq!(replay.torn_records, 0, "cut at boundary is clean");
            } else {
                assert_eq!(replay.torn_records, 1, "cut at byte {cut}");
                assert_eq!(replay.torn_bytes, (cut - full_before) as u64);
            }
            // The reopened log appends after the intact prefix.
            assert_eq!(wal2.next_seq(), 3);
        }
    }

    #[test]
    fn bit_flips_in_the_final_record_are_detected() {
        let disk = MemStorage::new();
        let mut wal = Wal::create(boxed(&disk)).unwrap();
        wal.append(b"stable").unwrap();
        let prefix_len = disk.snapshot().len();
        wal.append(b"flippable").unwrap();
        let full = disk.snapshot();

        for byte in prefix_len..full.len() {
            let mut corrupted = full.clone();
            corrupted[byte] ^= 0x01;
            let torn_disk = MemStorage::new();
            torn_disk.set(corrupted);
            let (_, replay) = Wal::open(boxed(&torn_disk)).unwrap();
            // Either the corrupt record is rejected (flip in record 2) —
            // never silently accepted with altered content.
            assert_eq!(payloads(&replay)[0], b"stable".to_vec(), "flip at byte {byte}");
            if replay.payloads().len() > 1 {
                panic!("corrupt record at byte {byte} was accepted");
            }
            assert_eq!(replay.torn_records, 1);
        }
    }

    #[test]
    fn create_erases_prior_content() {
        let disk = MemStorage::new();
        disk.set(b"old garbage".to_vec());
        let wal = Wal::create(boxed(&disk)).unwrap();
        assert_eq!(disk.snapshot(), Vec::<u8>::new());
        assert_eq!(wal.next_seq(), 1);
        assert_eq!(wal.records_written(), 0);
    }

    #[test]
    fn obs_counters_track_appends_and_checkpoints() {
        let obs = Collector::wall();
        let disk = MemStorage::new();
        let mut wal = Wal::create(boxed(&disk)).unwrap();
        wal.bind_obs(&obs);
        wal.append(b"x").unwrap();
        wal.append(b"y").unwrap();
        wal.rewrite(b"ckpt").unwrap();
        assert_eq!(obs.registry().counter_value("wal.appends"), Some(2));
        assert_eq!(obs.registry().counter_value("wal.checkpoints"), Some(1));
        let bytes = obs.registry().counter_value("wal.bytes").unwrap();
        assert_eq!(bytes, (HEADER_LEN as u64) * 3 + 1 + 1 + 4);
    }

    #[test]
    fn sequence_break_is_treated_as_torn() {
        // Splice two independently-created logs together: the second log's
        // records restart at seq 1, which must read as a break, not as a
        // valid continuation.
        let a = MemStorage::new();
        let mut wal_a = Wal::create(boxed(&a)).unwrap();
        wal_a.append(b"log-a-1").unwrap();
        wal_a.append(b"log-a-2").unwrap();
        let b = MemStorage::new();
        let mut wal_b = Wal::create(boxed(&b)).unwrap();
        wal_b.append(b"log-b-1").unwrap();

        let spliced = MemStorage::new();
        let mut bytes = a.snapshot();
        bytes.extend_from_slice(&b.snapshot());
        spliced.set(bytes);

        let (_, replay) = Wal::open(boxed(&spliced)).unwrap();
        assert_eq!(payloads(&replay), vec![b"log-a-1".to_vec(), b"log-a-2".to_vec()]);
        assert_eq!(replay.torn_records, 1);
    }
}
