//! Holds `ditto_obs::env::KNOWN` to the source tree: a registered knob that
//! nothing reads is a lie in the README table, and a variable read without
//! being registered is the silent env-dependence the catalog exists to end.

use std::collections::BTreeSet;
use std::fs;
use std::path::{Path, PathBuf};

fn rust_files(dir: &Path, out: &mut Vec<PathBuf>) {
    for entry in fs::read_dir(dir).expect("readable source directory") {
        let path = entry.expect("directory entry").path();
        if path.is_dir() {
            rust_files(&path, out);
        } else if path.extension().is_some_and(|ext| ext == "rs") {
            out.push(path);
        }
    }
}

/// Every `NAME` in an `env::var("DITTO_NAME")` / `var_os(…)` call of `source`.
fn env_reads(source: &str) -> impl Iterator<Item = &str> {
    source.match_indices("\"DITTO_").filter_map(move |(at, _)| {
        let name = &source[at + 1..];
        let name = &name[..name.find('"')?];
        let call = source[..at].trim_end();
        let is_read = call.ends_with("var(") || call.ends_with("var_os(");
        let is_name = name
            .bytes()
            .all(|b| b.is_ascii_uppercase() || b.is_ascii_digit() || b == b'_');
        (is_read && is_name).then_some(name)
    })
}

#[test]
fn catalog_lists_exactly_the_variables_the_source_reads() {
    let root = Path::new(env!("CARGO_MANIFEST_DIR"));
    let mut files = Vec::new();
    rust_files(&root.join("src"), &mut files);
    rust_files(&root.join("examples"), &mut files);
    for krate in fs::read_dir(root.join("crates")).expect("crates/") {
        let krate = krate.expect("directory entry").path();
        for sub in ["src", "tests"] {
            if krate.join(sub).is_dir() {
                rust_files(&krate.join(sub), &mut files);
            }
        }
    }
    assert!(files.len() > 100, "walked only {} files", files.len());

    let mut read = BTreeSet::new();
    for file in &files {
        let source = fs::read_to_string(file).expect("UTF-8 source");
        read.extend(env_reads(&source).map(str::to_owned));
    }
    let known: BTreeSet<String> = ditto::obs::env::KNOWN
        .iter()
        .map(|k| k.name.to_owned())
        .collect();
    let unread: Vec<_> = known.difference(&read).collect();
    let unregistered: Vec<_> = read.difference(&known).collect();
    assert!(
        unread.is_empty() && unregistered.is_empty(),
        "obs::env::KNOWN names {unread:?} but nothing reads them; \
         the source reads {unregistered:?} but KNOWN lacks them"
    );
}
