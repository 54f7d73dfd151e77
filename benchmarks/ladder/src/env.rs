//! What the run ran on: provenance stamp, peak memory, scratch space.

use crate::json::Json;
use std::path::{Path, PathBuf};

pub fn nproc() -> usize {
    std::thread::available_parallelism().map_or(1, usize::from)
}

/// Load threads/connections a workload may use.
pub fn load_threads() -> usize {
    nproc().min(2)
}

/// `VmHWM` of this process in MiB (0 where /proc is unavailable).
pub fn peak_rss_mib() -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|s| {
            let line = s.lines().find(|l| l.starts_with("VmHWM:"))?;
            line.split_whitespace().nth(1)?.parse::<f64>().ok()
        })
        .map_or(0.0, |kib| kib / 1024.0)
}

/// HEAD of the enclosing git checkout, read from the files (no process
/// is spawned); "unknown" outside a repository.
pub fn git_commit() -> String {
    let mut dir = std::env::current_dir().ok();
    while let Some(d) = dir {
        if let Some(hash) = read_head(&d.join(".git")) {
            return hash;
        }
        dir = d.parent().map(Path::to_path_buf);
    }
    "unknown".into()
}

fn read_head(git: &Path) -> Option<String> {
    let head = std::fs::read_to_string(git.join("HEAD")).ok()?;
    let head = head.trim();
    let Some(reference) = head.strip_prefix("ref: ") else {
        return Some(head.to_string());
    };
    if let Ok(hash) = std::fs::read_to_string(git.join(reference)) {
        return Some(hash.trim().to_string());
    }
    let packed = std::fs::read_to_string(git.join("packed-refs")).ok()?;
    packed
        .lines()
        .find_map(|l| l.strip_suffix(reference).map(|h| h.trim().to_string()))
}

pub fn rustc_version() -> String {
    let rustc = std::env::var("RUSTC").unwrap_or_else(|_| "rustc".into());
    std::process::Command::new(rustc)
        .arg("-V")
        .output()
        .ok()
        .filter(|o| o.status.success())
        .map(|o| String::from_utf8_lossy(&o.stdout).trim().to_string())
        .unwrap_or_else(|| "unknown".into())
}

/// A fresh scratch directory next to the running executable (inside the
/// build directory, which `.gitignore` covers), removed on drop.
pub struct Scratch {
    root: PathBuf,
}

impl Scratch {
    pub fn new(tag: &str) -> std::io::Result<Scratch> {
        let base = std::env::current_exe()?
            .parent()
            .map(Path::to_path_buf)
            .unwrap_or_else(|| PathBuf::from("."));
        let root = base.join(format!("ladder-tmp-{tag}-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&root);
        std::fs::create_dir_all(&root)?;
        Ok(Scratch { root })
    }

    pub fn path(&self) -> &Path {
        &self.root
    }

    /// A fresh (emptied) subdirectory.
    pub fn fresh(&self, name: &str) -> std::io::Result<PathBuf> {
        let dir = self.root.join(name);
        let _ = std::fs::remove_dir_all(&dir);
        std::fs::create_dir_all(&dir)?;
        Ok(dir)
    }
}

impl Drop for Scratch {
    fn drop(&mut self) {
        let _ = std::fs::remove_dir_all(&self.root);
    }
}

/// Provenance stamped on every result.
pub fn stamp(seed: u64, scale: &str, seconds: f64) -> Json {
    let n = nproc();
    Json::obj()
        .with("commit", git_commit())
        .with("rustc", rustc_version())
        .with("nproc", n)
        // One core cannot show parallel speed-up or a server next to its
        // clients; such a result is kept but never compared.
        .with("degraded", n < 2)
        .with("seed", seed)
        .with("scale", scale)
        .with("seconds", seconds)
        .with(
            "malloc_env",
            [
                "MALLOC_TRIM_THRESHOLD_",
                "MALLOC_TOP_PAD_",
                "MALLOC_MMAP_THRESHOLD_",
                "MALLOC_ARENA_MAX",
            ]
            .iter()
            .all(|k| std::env::var_os(k).is_some()),
        )
}
