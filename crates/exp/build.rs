//! Hashes the simulator's sources into `SOURCE_HASH`, the prefix of every
//! result-cache key, so an edit to any `.rs` file under `crates/*/src`
//! makes every cached cell recompute.

use std::fs;
use std::path::{Path, PathBuf};

include!("src/fnv.rs");

fn main() {
    let crates = Path::new(env!("CARGO_MANIFEST_DIR"))
        .parent()
        .expect("this crate sits in the crates directory");
    let mut files = Vec::new();
    for entry in fs::read_dir(crates).expect("readable crates directory") {
        let src = entry.expect("readable crates directory").path().join("src");
        if src.is_dir() {
            println!("cargo:rerun-if-changed={}", src.display());
            collect_rs(&src, &mut files);
        }
    }
    files.sort();
    // Each file contributes its path below `crates`, a NUL, its length and
    // its bytes, so no two source trees concatenate to the same input.
    let mut bytes = Vec::new();
    for path in files {
        let text = fs::read(&path).expect("readable source file");
        let name = path.strip_prefix(crates).expect("found under crates");
        bytes.extend_from_slice(name.to_string_lossy().as_bytes());
        bytes.push(0);
        bytes.extend_from_slice(&(text.len() as u64).to_le_bytes());
        bytes.extend_from_slice(&text);
    }
    let out = PathBuf::from(std::env::var_os("OUT_DIR").expect("set by cargo"));
    fs::write(
        out.join("source_hash.rs"),
        format!(
            "/// FNV-64 of every `.rs` file under `crates/*/src` at build time.\n\
             const SOURCE_HASH: u64 = {:#018x};\n",
            fnv64(&bytes)
        ),
    )
    .expect("writable OUT_DIR");
}

/// Appends every `.rs` file under `dir`, recursively, to `out`.
fn collect_rs(dir: &Path, out: &mut Vec<PathBuf>) {
    for entry in fs::read_dir(dir).expect("readable source directory") {
        let path = entry.expect("readable source directory").path();
        if path.is_dir() {
            collect_rs(&path, out);
        } else if path.extension().is_some_and(|e| e == "rs") {
            out.push(path);
        }
    }
}
