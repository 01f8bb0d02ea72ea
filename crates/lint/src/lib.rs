//! `hpcqc-lint`: the workspace determinism & invariant static-analysis
//! pass.
//!
//! Every result this reproduction ships rests on determinism: the golden
//! smoke-grid fixture, byte-identical streamed-vs-materialized runs, and
//! the sweep engine's common-random-numbers seeding. One stray hash-order
//! iteration or wall-clock read silently breaks all of it. This crate
//! enforces the rules *statically*, before the golden diffs would catch a
//! regression after the fact:
//!
//! | Rule | Property |
//! |------|----------|
//! | [`Rule::D001`] | no `SystemTime::now` / `Instant::now` in sim crates |
//! | [`Rule::D002`] | no `HashMap`/`HashSet` in event-path crates |
//! | [`Rule::D003`] | no `thread_rng` / `from_entropy` outside tests |
//! | [`Rule::D004`] | no `unwrap()`/`expect()`/`panic!` in core library code |
//! | [`Rule::D005`] | no float `==`/`!=` comparisons |
//!
//! The scanner is a hand-rolled lexer (no `syn`, no new dependencies)
//! that understands comments, strings, test regions (`#[cfg(test)]` /
//! `#[test]`, the file of an out-of-line `#[cfg(test)] mod tests;` in
//! full, plus `tests/`/`benches/` trees, which are never scanned) and
//! inline suppressions:
//!
//! ```text
//! // hpcqc-lint: allow(D004, reason = "id was checked live two lines up")
//! ```
//!
//! The `reason` is mandatory — a suppression without one is itself a
//! finding (`S001`). Run it locally with:
//!
//! ```text
//! cargo run -p hpcqc-lint -- --deny
//! ```

pub mod lexer;
pub mod report;
pub mod rules;
pub mod scan;
pub mod walk;

pub use report::{Finding, Report};
pub use rules::{Rule, ALL_RULES};
pub use scan::scan_source;

use std::io;
use std::path::{Path, PathBuf};

/// Scans the whole workspace rooted at `root` and returns the report.
///
/// # Errors
///
/// Propagates I/O errors from workspace discovery or file reads.
pub fn scan_workspace(root: &Path) -> io::Result<Report> {
    let members = walk::discover(root)?;
    let mut findings = Vec::new();
    let mut files = 0usize;
    for member in &members {
        let sources = member
            .sources
            .iter()
            .map(|path| Ok((path, std::fs::read_to_string(path)?)))
            .collect::<io::Result<Vec<_>>>()?;
        // Each test module's path without extension: its file is that
        // plus `.rs`, and its own modules live under it.
        let test_modules: Vec<PathBuf> = sources
            .iter()
            .flat_map(|(path, src)| {
                let dir = child_module_dir(path);
                scan::test_modules(src)
                    .into_iter()
                    .map(move |name| dir.join(name))
            })
            .collect();
        for (path, src) in &sources {
            let display = path
                .strip_prefix(root)
                .unwrap_or(path)
                .display()
                .to_string();
            let test_file = test_modules
                .iter()
                .any(|module| path.with_extension("") == *module || path.starts_with(module));
            findings.extend(scan::scan_file(&member.package, &display, src, test_file));
            files += 1;
        }
    }
    Ok(Report::new(files, findings))
}

/// Where the out-of-line modules that `file` declares live: beside it
/// for `lib.rs`, `main.rs` and `mod.rs`, else in the directory named
/// after it.
fn child_module_dir(file: &Path) -> PathBuf {
    let dir = file.parent().unwrap_or(Path::new(""));
    match file.file_stem().and_then(|stem| stem.to_str()) {
        None | Some("lib" | "main" | "mod") => dir.to_path_buf(),
        Some(stem) => dir.join(stem),
    }
}
