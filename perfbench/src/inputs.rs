//! Inputs derived from the workload seed, and the run's self-description.

use mosaic_image::synth::{Scene, XorShift64};
use mosaic_image::GrayImage;
use photomosaic::Json;
use std::path::{Path, PathBuf};

/// One input → target pair: a synthetic portrait rearranged into a
/// synthetic regatta, the stand-ins for the paper's Lena → Sailboat.
pub struct Pair {
    pub input: GrayImage,
    pub target: GrayImage,
}

/// Render `count` pairs of `size` px. Scene seeds are drawn from the
/// workload seed, salted per workload so workloads never share images.
pub fn pairs(seed: u64, salt: u64, count: usize, size: usize) -> Vec<Pair> {
    let mut rng = XorShift64::new(seed ^ salt);
    (0..count)
        .map(|_| Pair {
            input: Scene::Portrait.render(size, rng.next_u64()),
            target: Scene::Regatta.render(size, rng.next_u64()),
        })
        .collect()
}

/// Usable cores, as the standard library reports them.
pub fn nproc() -> usize {
    std::thread::available_parallelism().map_or(1, |n| n.get())
}

/// The checked-out commit, or `null` outside a git checkout. Read
/// from the working directory's own `.git`, never a parent's.
pub fn commit() -> Json {
    let read = |name: &str| std::fs::read_to_string(Path::new(".git").join(name)).ok();
    let Some(head) = read("HEAD") else {
        return Json::Null;
    };
    let head = head.trim();
    let id = match head.strip_prefix("ref: ") {
        None => Some(head.to_string()),
        Some(name) => read(name).map(|id| id.trim().to_string()).or_else(|| {
            let packed = read("packed-refs")?;
            packed.lines().find_map(|line| {
                line.strip_suffix(name)?
                    .strip_suffix(' ')
                    .map(str::to_string)
            })
        }),
    };
    id.map_or(Json::Null, Json::from)
}

/// 64-bit FNV-1a: a digest that is stable across builds and runs.
pub struct Fnv(u64);

impl Fnv {
    pub fn new() -> Fnv {
        Fnv(0xcbf2_9ce4_8422_2325)
    }

    pub fn feed(&mut self, bytes: &[u8]) {
        for &byte in bytes {
            self.0 ^= u64::from(byte);
            self.0 = self.0.wrapping_mul(0x1000_0000_01b3);
        }
    }

    pub fn finish(&self) -> u64 {
        self.0
    }
}

/// FNV-1a over the path and bytes of every source and manifest file
/// the benchmark is built from, in path order: identifies the code
/// under test even where no commit is available.
pub fn source_digest() -> String {
    let mut files = Vec::new();
    for root in ["crates", "perfbench"] {
        collect_sources(Path::new(root), &mut files);
    }
    files.extend(["Cargo.toml", "Cargo.lock"].map(PathBuf::from));
    files.sort();
    let mut hash = Fnv::new();
    for path in files {
        if let Ok(bytes) = std::fs::read(&path) {
            hash.feed(path.to_string_lossy().as_bytes());
            hash.feed(&bytes);
        }
    }
    format!("{:016x}", hash.finish())
}

fn collect_sources(dir: &Path, out: &mut Vec<PathBuf>) {
    let Ok(entries) = std::fs::read_dir(dir) else {
        return;
    };
    for entry in entries.flatten() {
        let path = entry.path();
        let name = entry.file_name();
        let name = name.to_string_lossy();
        if name.starts_with('.') || name == "target" {
            continue;
        }
        if path.is_dir() {
            collect_sources(&path, out);
        } else if name.ends_with(".rs") || name.ends_with(".toml") || name == "Cargo.lock" {
            out.push(path);
        }
    }
}
