//! The native file system: a concurrent in-memory tmpfs analog used for
//! benchmarking (§9.3 runs on Linux tmpfs "to keep disk performance from
//! being the limiting factor"; we go one step further and keep the whole
//! tree in memory).
//!
//! Concurrency structure mirrors what makes tmpfs scale: a read-mostly
//! namespace (directory table) under an `RwLock`, a per-directory lock so
//! operations on different users' mailboxes proceed in parallel, and a
//! sharded descriptor table.

use super::traits::{DirH, Fd, FileSys, FsError, FsResult, Mode};
use parking_lot::{Mutex, RwLock};
use std::collections::{BTreeMap, HashMap};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

const FD_SHARDS: usize = 16;

struct Inode {
    data: RwLock<Vec<u8>>,
}

struct FdEntry {
    inode: Arc<Inode>,
    mode: Mode,
}

/// The concurrent in-memory file system.
pub struct NativeFs {
    /// Path → handle; read-mostly after init.
    namespace: RwLock<HashMap<String, DirH>>,
    /// Per-directory tables; the `Vec` is fixed after init.
    dirs: Vec<RwLock<BTreeMap<String, Arc<Inode>>>>,
    fd_shards: Vec<Mutex<HashMap<Fd, FdEntry>>>,
    next_fd: AtomicU64,
    ops: AtomicU64,
}

impl NativeFs {
    /// Creates the file system with a fixed directory layout.
    pub fn new(dirs: &[&str]) -> Arc<Self> {
        let mut namespace = HashMap::new();
        let mut tables = Vec::new();
        for (i, d) in dirs.iter().enumerate() {
            namespace.insert((*d).to_string(), i);
            tables.push(RwLock::new(BTreeMap::new()));
        }
        Arc::new(NativeFs {
            namespace: RwLock::new(namespace),
            dirs: tables,
            fd_shards: (0..FD_SHARDS).map(|_| Mutex::new(HashMap::new())).collect(),
            next_fd: AtomicU64::new(1),
            ops: AtomicU64::new(0),
        })
    }

    /// Total operations performed.
    pub fn op_count(&self) -> u64 {
        self.ops.load(Ordering::Relaxed)
    }

    fn shard(&self, fd: Fd) -> &Mutex<HashMap<Fd, FdEntry>> {
        &self.fd_shards[(fd as usize) % FD_SHARDS]
    }

    fn new_fd(&self, inode: Arc<Inode>, mode: Mode) -> Fd {
        let fd = self.next_fd.fetch_add(1, Ordering::Relaxed);
        self.shard(fd).lock().insert(fd, FdEntry { inode, mode });
        fd
    }

    fn fd_inode(&self, fd: Fd, mode: Mode) -> FsResult<Arc<Inode>> {
        let shard = self.shard(fd).lock();
        let entry = shard.get(&fd).ok_or(FsError::BadFd)?;
        if entry.mode != mode {
            return Err(FsError::BadMode);
        }
        Ok(Arc::clone(&entry.inode))
    }
}

impl FileSys for NativeFs {
    fn resolve(&self, dir: &str) -> FsResult<DirH> {
        self.ops.fetch_add(1, Ordering::Relaxed);
        // A full path resolution walks components (here: validates the
        // path shape) then consults the namespace under a read lock —
        // the per-call cost the paper's baselines pay on every operation.
        let normalized: String = dir
            .split('/')
            .filter(|c| !c.is_empty())
            .collect::<Vec<_>>()
            .join("/");
        let ns = self.namespace.read();
        ns.get(normalized.as_str())
            .copied()
            .ok_or(FsError::NotFound)
    }

    fn create(&self, dir: DirH, name: &str) -> FsResult<Option<Fd>> {
        self.ops.fetch_add(1, Ordering::Relaxed);
        let table = self.dirs.get(dir).ok_or(FsError::NotFound)?;
        let mut t = table.write();
        if t.contains_key(name) {
            return Ok(None);
        }
        let inode = Arc::new(Inode {
            data: RwLock::new(Vec::new()),
        });
        t.insert(name.to_string(), Arc::clone(&inode));
        drop(t);
        Ok(Some(self.new_fd(inode, Mode::Append)))
    }

    fn open(&self, dir: DirH, name: &str) -> FsResult<Fd> {
        self.ops.fetch_add(1, Ordering::Relaxed);
        let table = self.dirs.get(dir).ok_or(FsError::NotFound)?;
        let inode = {
            let t = table.read();
            Arc::clone(t.get(name).ok_or(FsError::NotFound)?)
        };
        Ok(self.new_fd(inode, Mode::Read))
    }

    fn append(&self, fd: Fd, data: &[u8]) -> FsResult<()> {
        self.ops.fetch_add(1, Ordering::Relaxed);
        let inode = self.fd_inode(fd, Mode::Append)?;
        inode.data.write().extend_from_slice(data);
        Ok(())
    }

    fn read_at(&self, fd: Fd, off: u64, len: u64, out: &mut Vec<u8>) -> FsResult<usize> {
        self.ops.fetch_add(1, Ordering::Relaxed);
        let inode = self.fd_inode(fd, Mode::Read)?;
        let data = inode.data.read();
        let start = (off as usize).min(data.len());
        let end = ((off + len) as usize).min(data.len());
        out.extend_from_slice(&data[start..end]);
        Ok(end - start)
    }

    fn size(&self, fd: Fd) -> FsResult<u64> {
        self.ops.fetch_add(1, Ordering::Relaxed);
        let inode = self.fd_inode(fd, Mode::Read)?;
        let len = inode.data.read().len() as u64;
        Ok(len)
    }

    fn close(&self, fd: Fd) -> FsResult<()> {
        self.ops.fetch_add(1, Ordering::Relaxed);
        self.shard(fd).lock().remove(&fd).ok_or(FsError::BadFd)?;
        Ok(())
    }

    fn delete(&self, dir: DirH, name: &str) -> FsResult<()> {
        self.ops.fetch_add(1, Ordering::Relaxed);
        let table = self.dirs.get(dir).ok_or(FsError::NotFound)?;
        table.write().remove(name).ok_or(FsError::NotFound)?;
        Ok(())
    }

    fn link(&self, src: DirH, src_name: &str, dst: DirH, dst_name: &str) -> FsResult<bool> {
        self.ops.fetch_add(1, Ordering::Relaxed);
        let src_table = self.dirs.get(src).ok_or(FsError::NotFound)?;
        let inode = {
            let t = src_table.read();
            Arc::clone(t.get(src_name).ok_or(FsError::NotFound)?)
        };
        let dst_table = self.dirs.get(dst).ok_or(FsError::NotFound)?;
        let mut t = dst_table.write();
        if t.contains_key(dst_name) {
            return Ok(false);
        }
        t.insert(dst_name.to_string(), inode);
        Ok(true)
    }

    fn list(&self, dir: DirH) -> FsResult<Vec<String>> {
        self.ops.fetch_add(1, Ordering::Relaxed);
        let table = self.dirs.get(dir).ok_or(FsError::NotFound)?;
        Ok(table.read().keys().cloned().collect())
    }

    fn crash(&self) {
        for shard in &self.fd_shards {
            shard.lock().clear();
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn roundtrip_and_exclusivity() {
        let fs = NativeFs::new(&["spool", "u0"]);
        let spool = fs.resolve("spool").unwrap();
        let u0 = fs.resolve("u0").unwrap();
        let fd = fs.create(spool, "t").unwrap().unwrap();
        fs.append(fd, b"abc").unwrap();
        fs.close(fd).unwrap();
        assert!(fs.create(spool, "t").unwrap().is_none());
        assert!(fs.link(spool, "t", u0, "m").unwrap());
        fs.delete(spool, "t").unwrap();
        assert_eq!(fs.read_file(u0, "m", 2).unwrap(), b"abc");
    }

    #[test]
    fn resolve_normalizes_paths() {
        let fs = NativeFs::new(&["a/b"]);
        assert_eq!(fs.resolve("a/b").unwrap(), fs.resolve("/a/b/").unwrap());
        assert!(fs.resolve("a").is_err());
    }

    #[test]
    fn concurrent_exclusive_create_one_winner() {
        let fs = NativeFs::new(&["d"]);
        let d = fs.resolve("d").unwrap();
        let wins = Arc::new(AtomicU64::new(0));
        let mut handles = Vec::new();
        for _ in 0..8 {
            let fs = Arc::clone(&fs);
            let wins = Arc::clone(&wins);
            handles.push(std::thread::spawn(move || {
                if fs.create(d, "contested").unwrap().is_some() {
                    wins.fetch_add(1, Ordering::SeqCst);
                }
            }));
        }
        for h in handles {
            h.join().unwrap();
        }
        assert_eq!(wins.load(Ordering::SeqCst), 1);
    }

    #[test]
    fn crash_invalidates_fds_only() {
        let fs = NativeFs::new(&["d"]);
        let d = fs.resolve("d").unwrap();
        let fd = fs.create(d, "f").unwrap().unwrap();
        fs.append(fd, b"x").unwrap();
        fs.crash();
        assert_eq!(fs.append(fd, b"y"), Err(FsError::BadFd));
        assert_eq!(fs.read_file(d, "f", 512).unwrap(), b"x");
    }

    #[test]
    fn parallel_appends_to_different_dirs() {
        let fs = NativeFs::new(&["u0", "u1", "u2", "u3"]);
        let mut handles = Vec::new();
        for u in 0..4 {
            let fs = Arc::clone(&fs);
            handles.push(std::thread::spawn(move || {
                let d = fs.resolve(&format!("u{u}")).unwrap();
                for i in 0..100 {
                    let fd = fs.create(d, &format!("m{i}")).unwrap().unwrap();
                    fs.append(fd, b"payload").unwrap();
                    fs.close(fd).unwrap();
                }
            }));
        }
        for h in handles {
            h.join().unwrap();
        }
        for u in 0..4 {
            let d = fs.resolve(&format!("u{u}")).unwrap();
            assert_eq!(fs.list(d).unwrap().len(), 100);
        }
    }
}
