//! Deferred durability: the paper's §6.2 future work, implemented.
//!
//! The Goose prototype models *process* crashes, where the kernel has
//! already accepted all file-system mutations and nothing buffered is
//! lost ("It would be possible to reason about buffered data in the file
//! system to model whole machine crashes, but our prototype does not do
//! so"). [`BufferedFs`] is that extension: a *whole-machine* crash model
//! with a buffer cache.
//!
//! Two images are maintained — the volatile view (what running code
//! observes) and the durable view (what a crash reverts to):
//!
//! - every mutation applies to the volatile image immediately;
//! - [`BufferedFs::fsync`] flushes one file's *contents* to the durable
//!   image (like `fsync(fd)` — it does **not** persist the directory
//!   entry that names the file);
//! - [`BufferedFs::dir_sync`] flushes one directory's entry table (like
//!   `fsync` on the directory fd); an entry flushed before its inode's
//!   data reads back with whatever contents were last fsynced —
//!   possibly empty — exactly the classic crash-consistency gotcha;
//! - [`FileSys::crash`] discards the volatile image, reverting to the
//!   durable one, and drops all descriptors.

use super::traits::{DirH, Fd, FileSys, FsError, FsResult, Mode};
use crate::sched::{res, ModelRt};
use parking_lot::owner::OwnerCell;
use std::collections::{BTreeMap, HashMap};
use std::sync::Arc;

type InodeId = u64;

#[derive(Clone, Default)]
struct Image {
    /// dir handle → (name → inode).
    dirs: Vec<BTreeMap<String, InodeId>>,
    /// inode → contents. Link counts are derived from `dirs` on demand
    /// (simpler than maintaining them in two images).
    inodes: HashMap<InodeId, Vec<u8>>,
}

impl Image {
    /// Drops inodes not named by any directory entry and not in
    /// `extra_live` (open descriptors keep volatile inodes alive, POSIX
    /// style; the durable image passes an empty set).
    fn gc(&mut self, extra_live: &std::collections::HashSet<InodeId>) {
        let mut live: std::collections::HashSet<InodeId> =
            self.dirs.iter().flat_map(|d| d.values().copied()).collect();
        live.extend(extra_live.iter().copied());
        self.inodes.retain(|ino, _| live.contains(ino));
    }
}

fn fd_inodes(fds: &HashMap<Fd, FdEntry>) -> std::collections::HashSet<InodeId> {
    fds.values().map(|e| e.inode).collect()
}

struct FdEntry {
    inode: InodeId,
    mode: Mode,
}

struct BufState {
    vol: Image,
    dur: Image,
    dir_names: HashMap<String, DirH>,
    fds: HashMap<Fd, FdEntry>,
    next_inode: InodeId,
    next_fd: Fd,
    ops: u64,
}

/// A [`BufferedFs`] as a value: both images, unsynced data included, the
/// allocation counters and the operation count, not the descriptors
/// ([`BufferedFs::image`], [`BufferedFs::restore`]).
#[derive(Clone)]
pub struct BufferedFsImage {
    vol: Image,
    dur: Image,
    next_inode: InodeId,
    next_fd: Fd,
    ops: u64,
}

/// A model file system with a buffer cache and whole-machine crash
/// semantics.
pub struct BufferedFs {
    rt: Arc<ModelRt>,
    state: OwnerCell<BufState>,
    /// Dependency-tracking resource id: the whole file system is one
    /// resource (fd/inode allocation couples every mutating op).
    tag: u64,
}

impl BufferedFs {
    /// Creates the file system with a fixed directory layout; the empty
    /// layout itself is durable.
    pub fn new(rt: Arc<ModelRt>, dirs: &[&str]) -> Arc<Self> {
        let mut dir_names = HashMap::new();
        let mut tables = Vec::new();
        for (i, d) in dirs.iter().enumerate() {
            dir_names.insert((*d).to_string(), i);
            tables.push(BTreeMap::new());
        }
        let image = Image {
            dirs: tables,
            inodes: HashMap::new(),
        };
        let tag = rt.alloc_resource_tag();
        Arc::new(BufferedFs {
            rt,
            tag,
            state: OwnerCell::new(BufState {
                vol: image.clone(),
                dur: image,
                dir_names,
                fds: HashMap::new(),
                next_inode: 1,
                next_fd: 1,
                ops: 0,
            }),
        })
    }

    /// Controller-side copy of both images and the counters: what a crash
    /// decides the fate of.
    pub fn image(&self) -> BufferedFsImage {
        let s = self.state.lock();
        BufferedFsImage {
            vol: s.vol.clone(),
            dur: s.dur.clone(),
            next_inode: s.next_inode,
            next_fd: s.next_fd,
            ops: s.ops,
        }
    }

    /// Controller-side: makes the file system hold `image`; open
    /// descriptors are left as they are (no scheduling, no accounting).
    pub fn restore(&self, image: &BufferedFsImage) {
        let mut s = self.state.lock();
        s.vol.clone_from(&image.vol);
        s.dur.clone_from(&image.dur);
        s.next_inode = image.next_inode;
        s.next_fd = image.next_fd;
        s.ops = image.ops;
    }

    fn step(&self, write: bool, op: &'static str) -> parking_lot::owner::OwnerGuard<'_, BufState> {
        self.rt.yield_point();
        self.rt.note_access(res::instance(self.tag), write);
        self.rt.note_fs_op(self.tag, op, write);
        let mut s = self.state.lock();
        s.ops += 1;
        s
    }

    /// Flushes one file's contents to the durable image (POSIX
    /// `fsync(fd)`: data only, not the directory entry naming it).
    pub fn fsync(&self, fd: Fd) -> FsResult<()> {
        let mut s = self.step(true, "fsync");
        let ino = s.fds.get(&fd).ok_or(FsError::BadFd)?.inode;
        let data = s.vol.inodes.get(&ino).cloned().ok_or(FsError::BadFd)?;
        s.dur.inodes.insert(ino, data);
        Ok(())
    }

    /// Flushes one directory's entry table to the durable image. Entries
    /// pointing at never-fsynced inodes persist with empty contents
    /// (metadata before data — the realistic hazard).
    pub fn dir_sync(&self, dir: DirH) -> FsResult<()> {
        let mut s = self.step(true, "dir_sync");
        let table = s.vol.dirs.get(dir).cloned().ok_or(FsError::NotFound)?;
        for ino in table.values() {
            s.dur.inodes.entry(*ino).or_default();
        }
        if dir < s.dur.dirs.len() {
            s.dur.dirs[dir] = table;
        }
        s.dur.gc(&std::collections::HashSet::new());
        Ok(())
    }

    /// Flushes everything (like `sync(2)`).
    pub fn sync_all(&self) -> FsResult<()> {
        let mut s = self.step(true, "sync_all");
        s.dur = s.vol.clone();
        Ok(())
    }

    /// Controller-side inspection of the *durable* image (what would
    /// survive a crash right now).
    pub fn peek_durable_file(&self, dir: &str, name: &str) -> Option<Vec<u8>> {
        let s = self.state.lock();
        let d = *s.dir_names.get(dir)?;
        let ino = *s.dur.dirs.get(d)?.get(name)?;
        s.dur.inodes.get(&ino).cloned()
    }

    /// Controller-side inspection of the volatile image.
    pub fn peek_file(&self, dir: &str, name: &str) -> Option<Vec<u8>> {
        let s = self.state.lock();
        let d = *s.dir_names.get(dir)?;
        let ino = *s.vol.dirs.get(d)?.get(name)?;
        s.vol.inodes.get(&ino).cloned()
    }

    /// Total operations performed.
    pub fn op_count(&self) -> u64 {
        self.state.lock().ops
    }
}

impl FileSys for BufferedFs {
    fn resolve(&self, dir: &str) -> FsResult<DirH> {
        let s = self.step(false, "resolve");
        s.dir_names.get(dir).copied().ok_or(FsError::NotFound)
    }

    fn create(&self, dir: DirH, name: &str) -> FsResult<Option<Fd>> {
        let mut s = self.step(true, "create");
        if dir >= s.vol.dirs.len() {
            return Err(FsError::NotFound);
        }
        if s.vol.dirs[dir].contains_key(name) {
            return Ok(None);
        }
        let ino = s.next_inode;
        s.next_inode += 1;
        s.vol.inodes.insert(ino, Vec::new());
        s.vol.dirs[dir].insert(name.to_string(), ino);
        let fd = s.next_fd;
        s.next_fd += 1;
        s.fds.insert(
            fd,
            FdEntry {
                inode: ino,
                mode: Mode::Append,
            },
        );
        Ok(Some(fd))
    }

    fn open(&self, dir: DirH, name: &str) -> FsResult<Fd> {
        let mut s = self.step(true, "open");
        if dir >= s.vol.dirs.len() {
            return Err(FsError::NotFound);
        }
        let ino = *s.vol.dirs[dir].get(name).ok_or(FsError::NotFound)?;
        let fd = s.next_fd;
        s.next_fd += 1;
        s.fds.insert(
            fd,
            FdEntry {
                inode: ino,
                mode: Mode::Read,
            },
        );
        Ok(fd)
    }

    fn append(&self, fd: Fd, data: &[u8]) -> FsResult<()> {
        let mut s = self.step(true, "append");
        let entry = s.fds.get(&fd).ok_or(FsError::BadFd)?;
        if entry.mode != Mode::Append {
            return Err(FsError::BadMode);
        }
        let ino = entry.inode;
        s.vol
            .inodes
            .get_mut(&ino)
            .ok_or(FsError::BadFd)?
            .extend_from_slice(data);
        Ok(())
    }

    fn read_at(&self, fd: Fd, off: u64, len: u64, out: &mut Vec<u8>) -> FsResult<usize> {
        let s = self.step(false, "read_at");
        let entry = s.fds.get(&fd).ok_or(FsError::BadFd)?;
        if entry.mode != Mode::Read {
            return Err(FsError::BadMode);
        }
        let data = s.vol.inodes.get(&entry.inode).ok_or(FsError::BadFd)?;
        let start = (off as usize).min(data.len());
        let end = ((off + len) as usize).min(data.len());
        out.extend_from_slice(&data[start..end]);
        Ok(end - start)
    }

    fn size(&self, fd: Fd) -> FsResult<u64> {
        let s = self.step(false, "size");
        let entry = s.fds.get(&fd).ok_or(FsError::BadFd)?;
        Ok(s.vol.inodes.get(&entry.inode).ok_or(FsError::BadFd)?.len() as u64)
    }

    fn close(&self, fd: Fd) -> FsResult<()> {
        let mut s = self.step(true, "close");
        s.fds.remove(&fd).ok_or(FsError::BadFd)?;
        let live = fd_inodes(&s.fds);
        s.vol.gc(&live);
        Ok(())
    }

    fn delete(&self, dir: DirH, name: &str) -> FsResult<()> {
        let mut s = self.step(true, "delete");
        if dir >= s.vol.dirs.len() {
            return Err(FsError::NotFound);
        }
        s.vol.dirs[dir].remove(name).ok_or(FsError::NotFound)?;
        let live = fd_inodes(&s.fds);
        s.vol.gc(&live);
        Ok(())
    }

    fn link(&self, src: DirH, src_name: &str, dst: DirH, dst_name: &str) -> FsResult<bool> {
        let mut s = self.step(true, "link");
        if src >= s.vol.dirs.len() || dst >= s.vol.dirs.len() {
            return Err(FsError::NotFound);
        }
        let ino = *s.vol.dirs[src].get(src_name).ok_or(FsError::NotFound)?;
        if s.vol.dirs[dst].contains_key(dst_name) {
            return Ok(false);
        }
        s.vol.dirs[dst].insert(dst_name.to_string(), ino);
        Ok(true)
    }

    fn list(&self, dir: DirH) -> FsResult<Vec<String>> {
        let s = self.step(false, "list");
        if dir >= s.vol.dirs.len() {
            return Err(FsError::NotFound);
        }
        Ok(s.vol.dirs[dir].keys().cloned().collect())
    }

    /// A whole-machine crash: the volatile image (buffer cache) is lost;
    /// the durable image becomes the new truth; all descriptors die.
    fn crash(&self) {
        let mut s = self.state.lock();
        s.vol = s.dur.clone();
        s.fds.clear();
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn fixture() -> (Arc<ModelRt>, Arc<BufferedFs>) {
        let rt = ModelRt::new(0, 1_000_000);
        let fs = BufferedFs::new(Arc::clone(&rt), &["d", "spool"]);
        (rt, fs)
    }

    #[test]
    fn unsynced_data_lost_on_crash() {
        let (_rt, fs) = fixture();
        let d = fs.resolve("d").unwrap();
        let fd = fs.create(d, "f").unwrap().unwrap();
        fs.append(fd, b"hello").unwrap();
        // No fsync, no dir_sync: a machine crash loses everything.
        fs.crash();
        assert!(fs.open(d, "f").is_err(), "unsynced file survived crash");
    }

    #[test]
    fn fsync_without_dir_sync_is_an_orphan() {
        let (_rt, fs) = fixture();
        let d = fs.resolve("d").unwrap();
        let fd = fs.create(d, "f").unwrap().unwrap();
        fs.append(fd, b"data").unwrap();
        fs.fsync(fd).unwrap();
        // Data is durable, but the entry naming it is not.
        fs.crash();
        assert!(fs.open(d, "f").is_err(), "entry survived without dir_sync");
    }

    #[test]
    fn dir_sync_before_fsync_gives_empty_file() {
        // The classic metadata-before-data hazard, faithfully modelled.
        let (_rt, fs) = fixture();
        let d = fs.resolve("d").unwrap();
        let fd = fs.create(d, "f").unwrap().unwrap();
        fs.dir_sync(d).unwrap();
        fs.append(fd, b"too late").unwrap();
        fs.crash();
        assert_eq!(fs.read_file(d, "f", 64).unwrap(), b"");
    }

    #[test]
    fn fsync_then_dir_sync_is_durable() {
        let (_rt, fs) = fixture();
        let d = fs.resolve("d").unwrap();
        let fd = fs.create(d, "f").unwrap().unwrap();
        fs.append(fd, b"kept").unwrap();
        fs.fsync(fd).unwrap();
        fs.dir_sync(d).unwrap();
        fs.crash();
        assert_eq!(fs.read_file(d, "f", 64).unwrap(), b"kept");
    }

    #[test]
    fn appends_after_fsync_lost() {
        let (_rt, fs) = fixture();
        let d = fs.resolve("d").unwrap();
        let fd = fs.create(d, "f").unwrap().unwrap();
        fs.append(fd, b"pre").unwrap();
        fs.fsync(fd).unwrap();
        fs.dir_sync(d).unwrap();
        fs.append(fd, b"-post").unwrap();
        fs.crash();
        assert_eq!(fs.read_file(d, "f", 64).unwrap(), b"pre");
    }

    #[test]
    fn sync_all_flushes_everything() {
        let (_rt, fs) = fixture();
        let d = fs.resolve("d").unwrap();
        let spool = fs.resolve("spool").unwrap();
        let f1 = fs.create(d, "a").unwrap().unwrap();
        fs.append(f1, b"A").unwrap();
        let f2 = fs.create(spool, "b").unwrap().unwrap();
        fs.append(f2, b"B").unwrap();
        fs.sync_all().unwrap();
        fs.crash();
        assert_eq!(fs.read_file(d, "a", 8).unwrap(), b"A");
        assert_eq!(fs.read_file(spool, "b", 8).unwrap(), b"B");
    }

    #[test]
    fn durable_delete_needs_dir_sync() {
        let (_rt, fs) = fixture();
        let d = fs.resolve("d").unwrap();
        let fd = fs.create(d, "f").unwrap().unwrap();
        fs.fsync(fd).unwrap();
        fs.dir_sync(d).unwrap();
        // Delete without syncing the directory: the crash resurrects it.
        fs.delete(d, "f").unwrap();
        fs.crash();
        assert!(fs.open(d, "f").is_ok(), "unsynced delete was durable");
        // Now delete and sync: gone for good.
        fs.delete(d, "f").unwrap();
        fs.dir_sync(d).unwrap();
        fs.crash();
        assert!(fs.open(d, "f").is_err());
    }

    #[test]
    fn volatile_view_is_posix_within_a_run() {
        // Before any crash, the buffered FS behaves like the plain one.
        let (_rt, fs) = fixture();
        let d = fs.resolve("d").unwrap();
        let spool = fs.resolve("spool").unwrap();
        let fd = fs.create(spool, "t").unwrap().unwrap();
        fs.append(fd, b"mail").unwrap();
        fs.close(fd).unwrap();
        assert!(fs.link(spool, "t", d, "m").unwrap());
        fs.delete(spool, "t").unwrap();
        assert_eq!(fs.read_file(d, "m", 64).unwrap(), b"mail");
        assert_eq!(fs.list(d).unwrap(), vec!["m"]);
    }
}
