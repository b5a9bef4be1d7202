//! Crash-safe whole-file writes.
//!
//! Replay checkpoints and `pdn-serve` snapshots must never be left torn
//! by a crash mid-write: a reader sees either the old file or the new
//! one. [`write_file`] gets that from the POSIX sequence write to a
//! temporary sibling → fsync → rename over the target → fsync the
//! directory.

use std::ffi::OsString;
use std::fs::File;
use std::io::{self, Write};
use std::path::Path;

/// Atomically replaces `path` with `bytes`.
///
/// The bytes go to `<file name>.tmp.<pid>` next to `path`, are synced,
/// and the temporary file is renamed over `path`; then the parent
/// directory is synced so the rename itself survives a crash (best
/// effort: directory fsync is platform-dependent, and a failure there
/// cannot undo the rename). On any error the temporary file is removed.
///
/// # Errors
///
/// Any I/O failure creating, writing, syncing or renaming the temporary
/// file.
pub fn write_file(path: &Path, bytes: &[u8]) -> io::Result<()> {
    let mut name = path.file_name().map_or_else(OsString::new, OsString::from);
    name.push(format!(".tmp.{}", std::process::id()));
    let tmp = path.with_file_name(name);
    let written = File::create(&tmp)
        .and_then(|mut file| file.write_all(bytes).and_then(|()| file.sync_all()))
        .and_then(|()| std::fs::rename(&tmp, path));
    if let Err(e) = written {
        let _ = std::fs::remove_file(&tmp);
        return Err(e);
    }
    if let Some(parent) = path.parent() {
        if let Ok(dir) = File::open(parent) {
            let _ = dir.sync_all();
        }
    }
    Ok(())
}
