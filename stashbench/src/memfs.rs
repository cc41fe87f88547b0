//! An in-memory `StoreIo` backend for the durable workload.
//!
//! On a shared virtual disk the `fsync`s of `StdFs` swing one durable pass
//! by up to 5x from run to run, which no run length averages out. Passes
//! therefore run the store on this backend: every store, journal and
//! framing step still executes, only the kernel I/O is left out. The
//! traced run measures what `StdFs` adds in a separate leg.

use std::collections::BTreeMap;
use std::io;
use std::path::{Path, PathBuf};
use std::sync::{Arc, Mutex, MutexGuard};

use stash::store::prelude::StoreIo;

/// Files by path; clones share the same files, so a store reopened on a
/// clone sees what the previous one wrote.
#[derive(Debug, Clone, Default)]
pub struct MemFs(Arc<Mutex<BTreeMap<PathBuf, Vec<u8>>>>);

fn not_found(path: &Path) -> io::Error {
    io::Error::new(io::ErrorKind::NotFound, path.display().to_string())
}

impl MemFs {
    fn files(&self) -> MutexGuard<'_, BTreeMap<PathBuf, Vec<u8>>> {
        match self.0.lock() {
            Ok(files) => files,
            Err(_) => panic!("a thread panicked while holding the in-memory files"),
        }
    }

    /// Bytes of every file.
    pub fn bytes(&self) -> u64 {
        self.files().values().map(|f| f.len() as u64).sum()
    }
}

impl StoreIo for MemFs {
    fn read(&self, path: &Path) -> io::Result<Vec<u8>> {
        self.files()
            .get(path)
            .cloned()
            .ok_or_else(|| not_found(path))
    }

    fn write_atomic(&self, path: &Path, bytes: &[u8]) -> io::Result<()> {
        self.files().insert(path.to_path_buf(), bytes.to_vec());
        Ok(())
    }

    fn append(&self, path: &Path, bytes: &[u8]) -> io::Result<()> {
        self.files()
            .entry(path.to_path_buf())
            .or_default()
            .extend_from_slice(bytes);
        Ok(())
    }

    fn list(&self, dir: &Path) -> io::Result<Vec<PathBuf>> {
        Ok(self
            .files()
            .keys()
            .filter(|p| p.parent() == Some(dir))
            .cloned()
            .collect())
    }

    fn rename(&self, from: &Path, to: &Path) -> io::Result<()> {
        let mut files = self.files();
        let bytes = files.remove(from).ok_or_else(|| not_found(from))?;
        files.insert(to.to_path_buf(), bytes);
        Ok(())
    }

    fn remove(&self, path: &Path) -> io::Result<()> {
        self.files()
            .remove(path)
            .map(drop)
            .ok_or_else(|| not_found(path))
    }

    fn create_dir_all(&self, _dir: &Path) -> io::Result<()> {
        Ok(())
    }

    fn exists(&self, path: &Path) -> bool {
        self.files().contains_key(path)
    }
}
