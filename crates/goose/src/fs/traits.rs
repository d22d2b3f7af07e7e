//! The Goose file-system interface (§6.2): a thin wrapper around a
//! selection of POSIX calls, with a fixed directory layout.
//!
//! The API deliberately mirrors the paper's capabilities: directories
//! (listable, fixed set), directory entries (hard links), inodes (byte
//! contents), and file descriptors (lost on crash). Operations are atomic
//! with respect to other threads.
//!
//! Two implementations exist: [`crate::fs::ModelFs`] (scheduler-
//! integrated, crashable, used for checking) and [`crate::fs::NativeFs`]
//! (concurrent in-memory tmpfs analog, used for benchmarking).

use std::fmt;

/// A file descriptor. Lost on crash (tied to the memory version, §6.2).
pub type Fd = u64;

/// A resolved directory handle. Caching one and doing lookups relative to
/// it is the optimization §9.3 credits for part of Mailboat's speedup.
pub type DirH = usize;

/// File-system errors (the modelled subset).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FsError {
    /// Path or name does not exist.
    NotFound,
    /// Exclusive create target already exists.
    Exists,
    /// Unknown or closed file descriptor (e.g. used across a crash).
    BadFd,
    /// Operation not permitted by the descriptor's mode.
    BadMode,
}

impl fmt::Display for FsError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            FsError::NotFound => write!(f, "no such file or directory"),
            FsError::Exists => write!(f, "file exists"),
            FsError::BadFd => write!(f, "bad file descriptor"),
            FsError::BadMode => write!(f, "operation not permitted by fd mode"),
        }
    }
}

impl std::error::Error for FsError {}

/// Result alias for file-system operations.
pub type FsResult<T> = Result<T, FsError>;

/// Descriptor mode (the paper supports read and append).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Mode {
    /// Opened for reading.
    Read,
    /// Created for appending.
    Append,
}

/// The Goose file-system API.
pub trait FileSys: Send + Sync {
    /// Resolves a directory path to a handle (one full lookup). Baselines
    /// call this per operation; Mailboat caches handles at `Init`.
    fn resolve(&self, dir: &str) -> FsResult<DirH>;

    /// Exclusively creates `name` in `dir` for appending. Returns
    /// `Ok(None)` if the name already exists (the paper's `create` "can
    /// either fail and do nothing ... or succeed").
    fn create(&self, dir: DirH, name: &str) -> FsResult<Option<Fd>>;

    /// Opens `name` in `dir` for reading.
    fn open(&self, dir: DirH, name: &str) -> FsResult<Fd>;

    /// Appends bytes through an append-mode descriptor.
    fn append(&self, fd: Fd, data: &[u8]) -> FsResult<()>;

    /// Reads up to `len` bytes at `off` through a read-mode descriptor,
    /// appending them to `out`; the count read, short (possibly zero) at
    /// end of file.
    fn read_at(&self, fd: Fd, off: u64, len: u64, out: &mut Vec<u8>) -> FsResult<usize>;

    /// File size through a read-mode descriptor.
    fn size(&self, fd: Fd) -> FsResult<u64>;

    /// Closes a descriptor.
    fn close(&self, fd: Fd) -> FsResult<()>;

    /// Unlinks `name` from `dir` (frees the inode when its last link
    /// goes).
    fn delete(&self, dir: DirH, name: &str) -> FsResult<()>;

    /// Creates a hard link `dst/dst_name` to `src/src_name`. Returns
    /// `false` if the destination name already exists (the atomic-install
    /// primitive Mailboat's delivery relies on).
    fn link(&self, src: DirH, src_name: &str, dst: DirH, dst_name: &str) -> FsResult<bool>;

    /// Lists the file names in `dir`.
    fn list(&self, dir: DirH) -> FsResult<Vec<String>>;

    /// Crash: all descriptors are lost; directories, entries, and inode
    /// contents are durable (§6.2 crash model).
    fn crash(&self);

    // -- Path-based conveniences (what the file-lock baselines use; one
    //    extra full resolve per call). ---------------------------------

    /// `create` with a per-call path resolution.
    fn create_path(&self, dir: &str, name: &str) -> FsResult<Option<Fd>> {
        let d = self.resolve(dir)?;
        self.create(d, name)
    }

    /// `open` with a per-call path resolution.
    fn open_path(&self, dir: &str, name: &str) -> FsResult<Fd> {
        let d = self.resolve(dir)?;
        self.open(d, name)
    }

    /// `delete` with a per-call path resolution.
    fn delete_path(&self, dir: &str, name: &str) -> FsResult<()> {
        let d = self.resolve(dir)?;
        self.delete(d, name)
    }

    /// `link` with per-call path resolutions.
    fn link_path(&self, src: &str, src_name: &str, dst: &str, dst_name: &str) -> FsResult<bool> {
        let s = self.resolve(src)?;
        let d = self.resolve(dst)?;
        self.link(s, src_name, d, dst_name)
    }

    /// `list` with a per-call path resolution.
    fn list_path(&self, dir: &str) -> FsResult<Vec<String>> {
        let d = self.resolve(dir)?;
        self.list(d)
    }

    /// Reads a whole file via open/read_at/close, in `chunk`-sized reads
    /// into one buffer
    /// (the paper's Pickup reads 512-byte chunks; its §9.5 bug was an
    /// infinite loop here).
    fn read_file(&self, dir: DirH, name: &str, chunk: u64) -> FsResult<Vec<u8>> {
        let fd = self.open(dir, name)?;
        let mut out = Vec::new();
        let mut off = 0u64;
        loop {
            let n = self.read_at(fd, off, chunk, &mut out)?;
            if n == 0 {
                break;
            }
            off += n as u64;
        }
        self.close(fd)?;
        Ok(out)
    }
}
