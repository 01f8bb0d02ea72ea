//! Integration tests driving `hpcqc-lint` over the fixture files in
//! `tests/fixtures/` — each rule is proven *live* (fires on a real file,
//! reports the right `file:line`), suppressions with reasons suppress,
//! and reason-less suppressions are rejected.
//!
//! The fixture files live under `tests/` deliberately: the workspace
//! walker scans only `src/` trees, so they never pollute the real lint
//! report, and cargo never compiles non-top-level test files.

use hpcqc_lint::{scan_source, scan_workspace, Finding};
use std::path::Path;

fn scan_fixture(package: &str, name: &str) -> Vec<Finding> {
    let path = Path::new(env!("CARGO_MANIFEST_DIR"))
        .join("tests/fixtures")
        .join(name);
    let src =
        std::fs::read_to_string(&path).unwrap_or_else(|e| panic!("fixture {name} unreadable: {e}"));
    scan_source(package, name, &src)
}

fn unsuppressed(findings: &[Finding]) -> Vec<&Finding> {
    findings.iter().filter(|f| !f.suppressed).collect()
}

#[test]
fn d001_fires_on_wall_clock_reads() {
    let findings = scan_fixture("hpcqc-core", "d001_wall_clock.rs");
    let live = unsuppressed(&findings);
    assert_eq!(live.len(), 1, "exactly one D001: {live:?}");
    assert_eq!(live[0].code, "D001");
    assert_eq!(live[0].file, "d001_wall_clock.rs");
    assert_eq!(live[0].line, 4, "Instant::now() is on line 4");
}

#[test]
fn d001_is_scoped_to_simulation_crates() {
    // The CLI facade measures host wall-clock time on purpose.
    let findings = scan_fixture("hpcqc", "d001_wall_clock.rs");
    assert!(
        unsuppressed(&findings).is_empty(),
        "D001 must not apply to the hpcqc CLI facade: {findings:?}"
    );
}

#[test]
fn d002_fires_on_hash_collections() {
    let findings = scan_fixture("hpcqc-sched", "d002_hash_collections.rs");
    let live = unsuppressed(&findings);
    assert!(!live.is_empty(), "HashMap uses must fire D002");
    assert!(live.iter().all(|f| f.code == "D002"), "{live:?}");
    assert_eq!(live[0].line, 3, "the `use` import is on line 3");
}

#[test]
fn d002_is_scoped_to_event_path_crates() {
    let findings = scan_fixture("hpcqc-metrics", "d002_hash_collections.rs");
    assert!(
        unsuppressed(&findings).is_empty(),
        "D002 must not apply outside event-path crates: {findings:?}"
    );
}

#[test]
fn d003_fires_outside_tests_only() {
    let findings = scan_fixture("hpcqc-workload", "d003_ambient_rng.rs");
    let live = unsuppressed(&findings);
    assert_eq!(live.len(), 1, "only the non-test thread_rng: {live:?}");
    assert_eq!(live[0].code, "D003");
    assert_eq!(live[0].line, 4);
}

#[test]
fn d004_fires_on_unwrap_expect_and_panic() {
    let findings = scan_fixture("hpcqc-core", "d004_panics.rs");
    let live = unsuppressed(&findings);
    let codes: Vec<(&str, u32)> = live.iter().map(|f| (f.code.as_str(), f.line)).collect();
    assert_eq!(
        codes,
        vec![("D004", 4), ("D004", 8), ("D004", 12)],
        "unwrap (4), expect (8) and panic! (12) outside tests: {live:?}"
    );
}

#[test]
fn d005_fires_on_float_eq_but_not_ranges() {
    let findings = scan_fixture("hpcqc-simcore", "d005_float_eq.rs");
    let live = unsuppressed(&findings);
    assert_eq!(live.len(), 1, "only the f64 comparison: {live:?}");
    assert_eq!(live[0].code, "D005");
    assert_eq!(live[0].line, 4);
}

#[test]
fn suppression_with_reason_suppresses() {
    let findings = scan_fixture("hpcqc-core", "suppressed_ok.rs");
    assert!(
        unsuppressed(&findings).is_empty(),
        "both forms must suppress: {findings:?}"
    );
    let suppressed: Vec<_> = findings.iter().filter(|f| f.suppressed).collect();
    assert_eq!(suppressed.len(), 2, "{findings:?}");
    for f in &suppressed {
        assert_eq!(
            f.reason.as_deref(),
            Some("caller guarantees non-empty input")
        );
    }
}

#[test]
fn suppression_without_reason_is_a_finding_and_does_not_suppress() {
    let findings = scan_fixture("hpcqc-core", "suppression_no_reason.rs");
    let live = unsuppressed(&findings);
    let codes: Vec<&str> = live.iter().map(|f| f.code.as_str()).collect();
    assert!(
        codes.contains(&"S001"),
        "the malformed suppression itself must be reported: {live:?}"
    );
    assert!(
        codes.contains(&"D004"),
        "the underlying violation must stay unsuppressed: {live:?}"
    );
}

#[test]
fn out_of_line_test_module_is_test_code_in_full() {
    // A one-crate workspace whose `tests.rs` is declared by
    // `#[cfg(test)] mod tests;` in `lib.rs`, and whose `engine.rs` is
    // not: the same unwrapping helper, outside any `#[test]`, is a D004
    // only in the library file.
    let root = std::env::temp_dir().join(format!("hpcqc-lint-test-module-{}", std::process::id()));
    let src = root.join("src");
    std::fs::create_dir_all(&src).unwrap();
    let helper = "fn helper_that_unwraps() -> u8 {\n    Some(1).unwrap()\n}\n";
    let files = [
        ("Cargo.toml", "[package]\nname = \"hpcqc-core\"\n"),
        ("src/lib.rs", "mod engine;\n#[cfg(test)]\nmod tests;\n"),
        ("src/engine.rs", helper),
        ("src/tests.rs", helper),
    ];
    for (name, text) in files {
        std::fs::write(root.join(name), text).unwrap();
    }
    let report = scan_workspace(&root);
    std::fs::remove_dir_all(&root).unwrap();
    let live: Vec<(String, String, u32)> = report
        .unwrap()
        .findings
        .iter()
        .filter(|f| !f.suppressed)
        .map(|f| (f.code.clone(), f.file.clone(), f.line))
        .collect();
    assert_eq!(live, [("D004".to_string(), "src/engine.rs".to_string(), 2)]);
}
