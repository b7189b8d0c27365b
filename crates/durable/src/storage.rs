//! Storage backends for the WAL.
//!
//! The log itself ([`crate::wal::Wal`]) only needs three operations: read
//! everything, append bytes, and atomically replace the whole content
//! (checkpoint truncation). [`MemStorage`] backs the simulator — cloning the
//! handle clones a *pointer* to the same byte buffer, so the "disk" survives
//! dropping the warehouse that wrote to it, which is exactly the property a
//! kill/restart test needs. [`FileStorage`] backs the CLI with a real file,
//! using write-temp-then-rename for the replace so a crash mid-checkpoint
//! leaves either the old log or the new one, never a hybrid.

use std::cell::RefCell;
use std::fmt;
use std::io::Write as _;
use std::path::PathBuf;
use std::rc::Rc;

/// An I/O failure from a storage backend. `MemStorage` never produces one;
/// `FileStorage` wraps `std::io` errors.
#[derive(Debug, Clone)]
pub struct StorageError(pub String);

impl fmt::Display for StorageError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "storage error: {}", self.0)
    }
}

impl std::error::Error for StorageError {}

impl From<std::io::Error> for StorageError {
    fn from(e: std::io::Error) -> Self {
        StorageError(e.to_string())
    }
}

/// Where WAL bytes live. Object-safe so `Wal` can hold a `Box<dyn Storage>`.
pub trait Storage: fmt::Debug {
    /// The full current content of the log. A missing file reads as empty.
    fn read_all(&self) -> Result<Vec<u8>, StorageError>;
    /// Append `bytes` at the end.
    fn append(&mut self, bytes: &[u8]) -> Result<(), StorageError>;
    /// Atomically replace the full content with `bytes`.
    fn replace(&mut self, bytes: &[u8]) -> Result<(), StorageError>;
    /// Current length in bytes.
    fn len(&self) -> Result<u64, StorageError>;
    /// True when the log holds no bytes.
    fn is_empty(&self) -> Result<bool, StorageError> {
        Ok(self.len()? == 0)
    }
    /// Clone into a new box (lets `Wal` itself be `Clone`).
    fn box_clone(&self) -> Box<dyn Storage>;
}

impl Clone for Box<dyn Storage> {
    fn clone(&self) -> Self {
        self.box_clone()
    }
}

/// In-memory storage with *shared-buffer* clone semantics: every clone of a
/// `MemStorage` reads and writes the same underlying bytes. The simulator
/// keeps one handle as "the disk" and hands another to the warehouse; when
/// the warehouse is dropped (killed), the driver's handle still holds
/// everything that was flushed.
#[derive(Debug, Clone, Default)]
pub struct MemStorage {
    buf: Rc<RefCell<Vec<u8>>>,
}

impl MemStorage {
    /// A fresh, empty in-memory log.
    pub fn new() -> Self {
        Self::default()
    }

    /// A raw copy of the current bytes (for torn-write tests that truncate
    /// and corrupt at arbitrary offsets).
    pub fn snapshot(&self) -> Vec<u8> {
        self.buf.borrow().clone()
    }

    /// Overwrite the content with arbitrary bytes (torn-write injection).
    pub fn set(&self, bytes: Vec<u8>) {
        *self.buf.borrow_mut() = bytes;
    }

    /// Truncate the content to `len` bytes, simulating a partial flush.
    pub fn truncate(&self, len: usize) {
        self.buf.borrow_mut().truncate(len);
    }
}

impl Storage for MemStorage {
    fn read_all(&self) -> Result<Vec<u8>, StorageError> {
        Ok(self.buf.borrow().clone())
    }

    fn append(&mut self, bytes: &[u8]) -> Result<(), StorageError> {
        self.buf.borrow_mut().extend_from_slice(bytes);
        Ok(())
    }

    fn replace(&mut self, bytes: &[u8]) -> Result<(), StorageError> {
        // In place: the buffer a log of this size grew is the one its
        // successor will need.
        let mut buf = self.buf.borrow_mut();
        buf.clear();
        buf.extend_from_slice(bytes);
        Ok(())
    }

    fn len(&self) -> Result<u64, StorageError> {
        Ok(self.buf.borrow().len() as u64)
    }

    fn box_clone(&self) -> Box<dyn Storage> {
        Box::new(self.clone())
    }
}

/// File-backed storage for the CLI's `checkpoint`/`recover` commands.
///
/// Appends open the file in append mode each time (the WAL batches a whole
/// record per call, so syscall count is one per commit); `replace` writes a
/// sibling temp file and renames it over the log, the standard
/// atomic-replace idiom.
#[derive(Debug, Clone)]
pub struct FileStorage {
    path: PathBuf,
}

impl FileStorage {
    /// Storage at `path`. The file need not exist yet — an absent file reads
    /// as an empty log.
    pub fn new(path: impl Into<PathBuf>) -> Self {
        Self { path: path.into() }
    }

    /// The backing path.
    pub fn path(&self) -> &std::path::Path {
        &self.path
    }
}

impl Storage for FileStorage {
    fn read_all(&self) -> Result<Vec<u8>, StorageError> {
        match std::fs::read(&self.path) {
            Ok(bytes) => Ok(bytes),
            Err(e) if e.kind() == std::io::ErrorKind::NotFound => Ok(Vec::new()),
            Err(e) => Err(e.into()),
        }
    }

    fn append(&mut self, bytes: &[u8]) -> Result<(), StorageError> {
        let mut f = std::fs::OpenOptions::new().create(true).append(true).open(&self.path)?;
        f.write_all(bytes)?;
        f.sync_all()?;
        Ok(())
    }

    fn replace(&mut self, bytes: &[u8]) -> Result<(), StorageError> {
        let tmp = self.path.with_extension("wal.tmp");
        {
            let mut f = std::fs::File::create(&tmp)?;
            f.write_all(bytes)?;
            f.sync_all()?;
        }
        std::fs::rename(&tmp, &self.path)?;
        Ok(())
    }

    fn len(&self) -> Result<u64, StorageError> {
        match std::fs::metadata(&self.path) {
            Ok(m) => Ok(m.len()),
            Err(e) if e.kind() == std::io::ErrorKind::NotFound => Ok(0),
            Err(e) => Err(e.into()),
        }
    }

    fn box_clone(&self) -> Box<dyn Storage> {
        Box::new(self.clone())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn mem_clone_shares_the_disk() {
        let disk = MemStorage::new();
        let mut warehouse_handle: Box<dyn Storage> = Box::new(disk.clone());
        warehouse_handle.append(b"abc").unwrap();
        drop(warehouse_handle); // the process dies...
        assert_eq!(disk.snapshot(), b"abc"); // ...the disk survives.
        assert_eq!(disk.len().unwrap(), 3);
    }

    #[test]
    fn mem_replace_and_truncate() {
        let mut disk = MemStorage::new();
        disk.append(b"0123456789").unwrap();
        disk.truncate(4);
        assert_eq!(disk.read_all().unwrap(), b"0123");
        disk.replace(b"xy").unwrap();
        assert_eq!(disk.read_all().unwrap(), b"xy");
        assert!(!disk.is_empty().unwrap());
    }

    #[test]
    fn file_storage_round_trip() {
        let dir = std::env::temp_dir().join(format!("dyno-durable-test-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("log.wal");
        let _ = std::fs::remove_file(&path);

        let mut fs = FileStorage::new(&path);
        assert_eq!(fs.read_all().unwrap(), Vec::<u8>::new());
        assert_eq!(fs.len().unwrap(), 0);
        fs.append(b"hello ").unwrap();
        fs.append(b"world").unwrap();
        assert_eq!(fs.read_all().unwrap(), b"hello world");
        fs.replace(b"fresh").unwrap();
        assert_eq!(fs.read_all().unwrap(), b"fresh");
        assert_eq!(fs.len().unwrap(), 5);

        std::fs::remove_file(&path).unwrap();
        let _ = std::fs::remove_dir(&dir);
    }
}
