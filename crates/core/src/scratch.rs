//! Per-use scratch directories for benchmarks, campaigns and tests.
//!
//! `cargo test` runs tests of one binary on parallel threads in one
//! process, so a scratch path built from the process id alone is shared
//! by every test in it, and concurrent tests delete each other's files.
//! [`unique_scratch_dir`] adds a process-wide counter, so every call gets
//! a directory of its own, and [`ScratchDir`] removes it on drop.

use std::io;
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicU64, Ordering};

/// A directory under the system temp dir that no other
/// [`unique_scratch_dir`] call in any process shares. Removed, with its
/// contents, when dropped.
#[derive(Debug)]
pub struct ScratchDir {
    path: PathBuf,
}

impl ScratchDir {
    /// The directory's path.
    pub fn path(&self) -> &Path {
        &self.path
    }

    /// `name` inside the directory.
    pub fn join(&self, name: impl AsRef<Path>) -> PathBuf {
        self.path.join(name)
    }
}

impl Drop for ScratchDir {
    fn drop(&mut self) {
        // Best effort: a leftover temp dir is harmless, a panic in drop
        // is not.
        let _ = std::fs::remove_dir_all(&self.path);
    }
}

/// Creates a fresh, empty scratch directory named after `tag`, the
/// process id and a process-wide counter.
///
/// # Errors
///
/// Any I/O error creating the directory.
pub fn unique_scratch_dir(tag: &str) -> io::Result<ScratchDir> {
    static NEXT: AtomicU64 = AtomicU64::new(0);
    let n = NEXT.fetch_add(1, Ordering::Relaxed);
    let path = std::env::temp_dir().join(format!("{tag}-{}-{n}", std::process::id()));
    // A directory left by an earlier process with a recycled pid.
    let _ = std::fs::remove_dir_all(&path);
    std::fs::create_dir_all(&path)?;
    Ok(ScratchDir { path })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn each_call_gets_its_own_directory_removed_on_drop() {
        let a = unique_scratch_dir("flexwatts-scratch-test").unwrap();
        let b = unique_scratch_dir("flexwatts-scratch-test").unwrap();
        assert_ne!(a.path(), b.path());
        std::fs::write(a.join("f"), b"x").unwrap();
        let kept = a.path().to_path_buf();
        drop(a);
        assert!(!kept.exists());
        assert!(b.path().is_dir());
    }
}
