//! The model file system: scheduler-integrated and crashable.
//!
//! Every operation is one atomic scheduler step (the paper models every
//! file-system operation as atomic with respect to other threads, §6.2).
//! On crash, file descriptors are lost while directories, entries, and
//! inode contents persist — the process-crash model the paper uses.

use super::traits::{DirH, Fd, FileSys, FsError, FsResult, Mode};
use crate::sched::{res, ModelRt};
use parking_lot::owner::OwnerCell;
use std::collections::{BTreeMap, HashMap};
use std::sync::Arc;

type InodeId = u64;

#[derive(Clone)]
struct Inode {
    data: Vec<u8>,
    nlink: u32,
}

struct FdEntry {
    inode: InodeId,
    mode: Mode,
}

struct FsState {
    /// Directory handle → (name → inode).
    dirs: Vec<BTreeMap<String, InodeId>>,
    dir_names: HashMap<String, DirH>,
    inodes: HashMap<InodeId, Inode>,
    fds: HashMap<Fd, FdEntry>,
    next_inode: InodeId,
    next_fd: Fd,
    /// Operation counter (checker statistics).
    ops: u64,
}

/// What a [`ModelFs`] keeps across a crash, as a value: directories,
/// inodes, the allocation counters and the operation count, not the
/// descriptors ([`ModelFs::image`], [`ModelFs::restore`]).
#[derive(Clone)]
pub struct FsImage {
    dirs: Vec<BTreeMap<String, InodeId>>,
    inodes: HashMap<InodeId, Inode>,
    next_inode: InodeId,
    next_fd: Fd,
    ops: u64,
}

/// The crashable model file system.
pub struct ModelFs {
    rt: Arc<ModelRt>,
    state: OwnerCell<FsState>,
    /// Dependency-tracking resource id: the whole file system is one
    /// resource (fd/inode allocation couples every mutating op).
    tag: u64,
}

impl ModelFs {
    /// Creates the file system with a fixed directory layout (directories
    /// cannot be created or renamed afterwards, per the paper).
    pub fn new(rt: Arc<ModelRt>, dirs: &[&str]) -> Arc<Self> {
        let mut dir_names = HashMap::new();
        let mut dir_tables = Vec::new();
        for (i, d) in dirs.iter().enumerate() {
            dir_names.insert((*d).to_string(), i);
            dir_tables.push(BTreeMap::new());
        }
        let tag = rt.alloc_resource_tag();
        Arc::new(ModelFs {
            rt,
            tag,
            state: OwnerCell::new(FsState {
                dirs: dir_tables,
                dir_names,
                inodes: HashMap::new(),
                fds: HashMap::new(),
                next_inode: 1,
                next_fd: 1,
                ops: 0,
            }),
        })
    }

    /// Total operations performed (checker statistics).
    pub fn op_count(&self) -> u64 {
        self.state.lock().ops
    }

    /// Controller-side copy of what survives a crash.
    pub fn image(&self) -> FsImage {
        let s = self.state.lock();
        FsImage {
            dirs: s.dirs.clone(),
            inodes: s.inodes.clone(),
            next_inode: s.next_inode,
            next_fd: s.next_fd,
            ops: s.ops,
        }
    }

    /// Controller-side: makes the file system hold `image`; open
    /// descriptors are left as they are (no scheduling, no accounting).
    pub fn restore(&self, image: &FsImage) {
        let mut s = self.state.lock();
        s.dirs.clone_from(&image.dirs);
        s.inodes.clone_from(&image.inodes);
        s.next_inode = image.next_inode;
        s.next_fd = image.next_fd;
        s.ops = image.ops;
    }

    /// Direct snapshot of a file's bytes (controller-side inspection for
    /// final-state checks; not schedulable API).
    pub fn peek_file(&self, dir: &str, name: &str) -> Option<Vec<u8>> {
        let s = self.state.lock();
        let d = *s.dir_names.get(dir)?;
        let ino = *s.dirs[d].get(name)?;
        Some(s.inodes[&ino].data.clone())
    }

    /// Controller-side listing (no scheduling).
    pub fn peek_list(&self, dir: &str) -> Option<Vec<String>> {
        let s = self.state.lock();
        let d = *s.dir_names.get(dir)?;
        Some(s.dirs[d].keys().cloned().collect())
    }

    fn step(&self, write: bool, op: &'static str) -> parking_lot::owner::OwnerGuard<'_, FsState> {
        self.rt.yield_point();
        self.rt.note_access(res::instance(self.tag), write);
        self.rt.note_fs_op(self.tag, op, write);
        let mut s = self.state.lock();
        s.ops += 1;
        s
    }

    /// Frees an inode once it has no directory entries *and* no open
    /// descriptors — POSIX semantics: an unlinked file stays readable
    /// and appendable through descriptors that were open at unlink time.
    fn free_if_unlinked(s: &mut FsState, ino: InodeId) {
        let fd_ref = s.fds.values().any(|e| e.inode == ino);
        if let Some(inode) = s.inodes.get(&ino) {
            if inode.nlink == 0 && !fd_ref {
                s.inodes.remove(&ino);
            }
        }
    }
}

impl FileSys for ModelFs {
    fn resolve(&self, dir: &str) -> FsResult<DirH> {
        let s = self.step(false, "resolve");
        s.dir_names.get(dir).copied().ok_or(FsError::NotFound)
    }

    fn create(&self, dir: DirH, name: &str) -> FsResult<Option<Fd>> {
        let mut s = self.step(true, "create");
        if dir >= s.dirs.len() {
            return Err(FsError::NotFound);
        }
        if s.dirs[dir].contains_key(name) {
            return Ok(None);
        }
        let ino = s.next_inode;
        s.next_inode += 1;
        s.inodes.insert(
            ino,
            Inode {
                data: Vec::new(),
                nlink: 1,
            },
        );
        s.dirs[dir].insert(name.to_string(), ino);
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
        if dir >= s.dirs.len() {
            return Err(FsError::NotFound);
        }
        let ino = *s.dirs[dir].get(name).ok_or(FsError::NotFound)?;
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
        s.inodes
            .get_mut(&ino)
            .ok_or(FsError::BadFd)?
            .data
            .extend_from_slice(data);
        Ok(())
    }

    fn read_at(&self, fd: Fd, off: u64, len: u64, out: &mut Vec<u8>) -> FsResult<usize> {
        let s = self.step(false, "read_at");
        let entry = s.fds.get(&fd).ok_or(FsError::BadFd)?;
        if entry.mode != Mode::Read {
            return Err(FsError::BadMode);
        }
        let data = &s.inodes.get(&entry.inode).ok_or(FsError::BadFd)?.data;
        let start = (off as usize).min(data.len());
        let end = ((off + len) as usize).min(data.len());
        out.extend_from_slice(&data[start..end]);
        Ok(end - start)
    }

    fn size(&self, fd: Fd) -> FsResult<u64> {
        let s = self.step(false, "size");
        let entry = s.fds.get(&fd).ok_or(FsError::BadFd)?;
        Ok(s.inodes.get(&entry.inode).ok_or(FsError::BadFd)?.data.len() as u64)
    }

    fn close(&self, fd: Fd) -> FsResult<()> {
        let mut s = self.step(true, "close");
        let entry = s.fds.remove(&fd).ok_or(FsError::BadFd)?;
        ModelFs::free_if_unlinked(&mut s, entry.inode);
        Ok(())
    }

    fn delete(&self, dir: DirH, name: &str) -> FsResult<()> {
        let mut s = self.step(true, "delete");
        if dir >= s.dirs.len() {
            return Err(FsError::NotFound);
        }
        let ino = s.dirs[dir].remove(name).ok_or(FsError::NotFound)?;
        if let Some(inode) = s.inodes.get_mut(&ino) {
            inode.nlink -= 1;
        }
        ModelFs::free_if_unlinked(&mut s, ino);
        Ok(())
    }

    fn link(&self, src: DirH, src_name: &str, dst: DirH, dst_name: &str) -> FsResult<bool> {
        let mut s = self.step(true, "link");
        if src >= s.dirs.len() || dst >= s.dirs.len() {
            return Err(FsError::NotFound);
        }
        let ino = *s.dirs[src].get(src_name).ok_or(FsError::NotFound)?;
        if s.dirs[dst].contains_key(dst_name) {
            return Ok(false);
        }
        s.dirs[dst].insert(dst_name.to_string(), ino);
        if let Some(inode) = s.inodes.get_mut(&ino) {
            inode.nlink += 1;
        }
        Ok(true)
    }

    fn list(&self, dir: DirH) -> FsResult<Vec<String>> {
        let s = self.step(false, "list");
        if dir >= s.dirs.len() {
            return Err(FsError::NotFound);
        }
        Ok(s.dirs[dir].keys().cloned().collect())
    }

    fn crash(&self) {
        // Not a scheduled step: the controller invokes this while no
        // virtual thread is running.
        let mut s = self.state.lock();
        s.fds.clear();
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn fixture() -> (Arc<ModelRt>, Arc<ModelFs>) {
        let rt = ModelRt::new(0, 1_000_000);
        let fs = ModelFs::new(Arc::clone(&rt), &["spool", "user0", "user1"]);
        (rt, fs)
    }

    #[test]
    fn create_append_read_roundtrip() {
        let (_rt, fs) = fixture();
        let d = fs.resolve("spool").unwrap();
        let fd = fs.create(d, "msg").unwrap().unwrap();
        fs.append(fd, b"hello ").unwrap();
        fs.append(fd, b"world").unwrap();
        fs.close(fd).unwrap();
        let data = fs.read_file(d, "msg", 4).unwrap();
        assert_eq!(data, b"hello world");
    }

    #[test]
    fn create_is_exclusive() {
        let (_rt, fs) = fixture();
        let d = fs.resolve("spool").unwrap();
        assert!(fs.create(d, "x").unwrap().is_some());
        assert!(fs.create(d, "x").unwrap().is_none());
    }

    #[test]
    fn link_is_atomic_install() {
        let (_rt, fs) = fixture();
        let spool = fs.resolve("spool").unwrap();
        let user = fs.resolve("user0").unwrap();
        let fd = fs.create(spool, "tmp1").unwrap().unwrap();
        fs.append(fd, b"mail").unwrap();
        fs.close(fd).unwrap();
        assert!(fs.link(spool, "tmp1", user, "m1").unwrap());
        // Second link to the same destination name fails.
        assert!(!fs.link(spool, "tmp1", user, "m1").unwrap());
        fs.delete(spool, "tmp1").unwrap();
        // The user's hard link keeps the inode alive.
        assert_eq!(fs.read_file(user, "m1", 512).unwrap(), b"mail");
    }

    #[test]
    fn delete_frees_inode_at_last_link() {
        let (_rt, fs) = fixture();
        let spool = fs.resolve("spool").unwrap();
        let user = fs.resolve("user0").unwrap();
        let fd = fs.create(spool, "t").unwrap().unwrap();
        fs.close(fd).unwrap();
        fs.link(spool, "t", user, "m").unwrap();
        fs.delete(spool, "t").unwrap();
        fs.delete(user, "m").unwrap();
        assert_eq!(fs.list(user).unwrap(), Vec::<String>::new());
        assert!(fs.open(user, "m").is_err());
    }

    #[test]
    fn crash_loses_fds_keeps_data() {
        let (_rt, fs) = fixture();
        let d = fs.resolve("user0").unwrap();
        let fd = fs.create(d, "m").unwrap().unwrap();
        fs.append(fd, b"data").unwrap();
        fs.crash();
        // The fd is dead…
        assert_eq!(fs.append(fd, b"more"), Err(FsError::BadFd));
        // …but the file contents survive.
        assert_eq!(fs.read_file(d, "m", 512).unwrap(), b"data");
    }

    #[test]
    fn mode_enforcement() {
        let (_rt, fs) = fixture();
        let d = fs.resolve("user0").unwrap();
        let wfd = fs.create(d, "m").unwrap().unwrap();
        assert_eq!(
            fs.read_at(wfd, 0, 10, &mut Vec::new()),
            Err(FsError::BadMode)
        );
        fs.close(wfd).unwrap();
        let rfd = fs.open(d, "m").unwrap();
        assert_eq!(fs.append(rfd, b"x"), Err(FsError::BadMode));
    }

    #[test]
    fn list_is_sorted_and_complete() {
        let (_rt, fs) = fixture();
        let d = fs.resolve("user1").unwrap();
        for name in ["c", "a", "b"] {
            let fd = fs.create(d, name).unwrap().unwrap();
            fs.close(fd).unwrap();
        }
        assert_eq!(fs.list(d).unwrap(), vec!["a", "b", "c"]);
    }

    #[test]
    fn resolve_unknown_dir_fails() {
        let (_rt, fs) = fixture();
        assert_eq!(fs.resolve("nope"), Err(FsError::NotFound));
    }

    #[test]
    fn read_file_chunking_terminates() {
        // Regression shape for the paper's §9.5 bug: messages larger than
        // the chunk size must not loop forever.
        let (_rt, fs) = fixture();
        let d = fs.resolve("user0").unwrap();
        let fd = fs.create(d, "big").unwrap().unwrap();
        let payload = vec![7u8; 2048];
        fs.append(fd, &payload).unwrap();
        fs.close(fd).unwrap();
        assert_eq!(fs.read_file(d, "big", 512).unwrap(), payload);
    }
}
