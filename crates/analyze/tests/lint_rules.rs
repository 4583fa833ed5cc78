//! Rule-level fixture suite for `htd-analyze`.
//!
//! Every rule gets one firing and one clean fixture (under
//! `tests/fixtures/`, a directory the workspace walker deliberately skips),
//! presented to [`lint_source`] under *virtual* workspace paths so the
//! path-scoped allowlists are exercised without touching real files.  The
//! final test runs the real linter over the real workspace: the tree must
//! stay clean.

use std::path::Path;

use htd_analyze::{lint_source, lint_workspace, Finding, LintConfig, Rule};

fn findings(virtual_path: &str, source: &str) -> Vec<Finding> {
    lint_source(virtual_path, source, &LintConfig::default())
}

fn unwaived(findings: &[Finding]) -> Vec<&Finding> {
    findings.iter().filter(|f| !f.waived).collect()
}

// ---------------------------------------------------------------- unsafe-audit

#[test]
fn unsafe_outside_allowlist_fires_twice_per_site() {
    let found = findings(
        "crates/rtl/src/widget.rs",
        include_str!("fixtures/unsafe_fire.rs"),
    );
    assert_eq!(found.len(), 2, "location + missing SAFETY: {found:?}");
    assert!(found.iter().all(|f| f.rule == Rule::UnsafeAudit));
    assert!(found.iter().all(|f| f.line == 5));
    assert!(found.iter().any(|f| f.message.contains("outside")));
    assert!(found.iter().any(|f| f.message.contains("SAFETY")));
}

#[test]
fn audited_unsafe_under_allowlisted_path_is_clean() {
    let found = findings(
        "crates/ipasir-shim/src/widget.rs",
        include_str!("fixtures/unsafe_clean.rs"),
    );
    assert!(found.is_empty(), "{found:?}");
}

#[test]
fn safety_comment_alone_does_not_legalise_the_location() {
    // The clean fixture has SAFETY comments, but outside the allowlist the
    // location findings still fire (one per audited use).
    let found = findings(
        "crates/rtl/src/widget.rs",
        include_str!("fixtures/unsafe_clean.rs"),
    );
    assert!(!found.is_empty());
    assert!(found.iter().all(|f| f.message.contains("outside")));
}

#[test]
fn crate_root_without_unsafe_attr_fires() {
    let found = findings(
        "crates/rtl/src/lib.rs",
        include_str!("fixtures/crate_root_fire.rs"),
    );
    assert_eq!(found.len(), 1, "{found:?}");
    assert_eq!(found[0].rule, Rule::UnsafeAudit);
    assert!(found[0].message.contains("crate root"));
}

#[test]
fn crate_root_with_forbid_attr_is_clean() {
    let found = findings(
        "crates/rtl/src/lib.rs",
        include_str!("fixtures/crate_root_clean.rs"),
    );
    assert!(found.is_empty(), "{found:?}");
}

#[test]
fn non_root_files_need_no_unsafe_attr() {
    let found = findings(
        "crates/rtl/src/widget.rs",
        include_str!("fixtures/crate_root_fire.rs"),
    );
    assert!(found.is_empty(), "{found:?}");
}

// ---------------------------------------------------------------- determinism

#[test]
fn wall_clock_outside_timing_allowlist_fires() {
    let found = findings(
        "crates/core/src/widget.rs",
        include_str!("fixtures/determinism_fire.rs"),
    );
    assert_eq!(found.len(), 1, "string decoy must not fire: {found:?}");
    assert_eq!(found[0].rule, Rule::Determinism);
    assert_eq!(found[0].line, 9);
}

#[test]
fn wall_clock_in_allowlisted_module_is_clean() {
    let found = findings(
        "crates/bench/src/widget.rs",
        include_str!("fixtures/determinism_fire.rs"),
    );
    assert!(found.is_empty(), "{found:?}");
}

#[test]
fn wall_clock_in_cfg_test_module_is_clean() {
    let found = findings(
        "crates/core/src/widget.rs",
        include_str!("fixtures/determinism_clean.rs"),
    );
    assert!(found.is_empty(), "{found:?}");
}

// ------------------------------------------------------------------ strict-env

#[test]
fn raw_htd_env_read_outside_strict_modules_fires() {
    let found = findings(
        "crates/core/src/widget.rs",
        include_str!("fixtures/strict_env_fire.rs"),
    );
    assert_eq!(found.len(), 1, "PATH read must not fire: {found:?}");
    assert_eq!(found[0].rule, Rule::StrictEnv);
    assert!(found[0].message.contains("HTD_SERVE_ADDR"));
}

#[test]
fn htd_env_read_in_strict_module_is_clean() {
    let found = findings(
        "crates/serve/src/fault.rs",
        include_str!("fixtures/strict_env_clean.rs"),
    );
    assert!(found.is_empty(), "{found:?}");
}

#[test]
fn htd_env_read_through_a_const_fires_outside_the_daemon_edge() {
    // The library modules that used to hold strict accessors are off the
    // allowlist: a read through a named constant fires there like anywhere.
    for path in ["crates/core/src/scheduler.rs", "crates/ipc/src/checker.rs"] {
        let found = findings(path, include_str!("fixtures/strict_env_const.rs"));
        assert_eq!(found.len(), 1, "PATH read must not fire: {found:?}");
        assert_eq!(found[0].rule, Rule::StrictEnv);
        assert_eq!(found[0].line, 9);
        assert!(found[0].message.contains("non-literal"), "{found:?}");
    }
    let found = findings(
        "crates/serve/src/fault.rs",
        include_str!("fixtures/strict_env_const.rs"),
    );
    assert!(found.is_empty(), "{found:?}");
}

// ------------------------------------------------------------ exhaustive-stats

#[test]
fn rest_pattern_in_stats_accumulate_fires() {
    let found = findings(
        "crates/sat/src/widget.rs",
        include_str!("fixtures/exhaustive_stats_fire.rs"),
    );
    assert_eq!(found.len(), 1, "{found:?}");
    assert_eq!(found[0].rule, Rule::ExhaustiveStats);
    assert_eq!(found[0].line, 11);
}

#[test]
fn exhaustive_destructuring_and_unrelated_rest_are_clean() {
    let found = findings(
        "crates/sat/src/widget.rs",
        include_str!("fixtures/exhaustive_stats_clean.rs"),
    );
    assert!(found.is_empty(), "{found:?}");
}

// --------------------------------------------------------- serve-panic-hygiene

#[test]
fn unwrap_on_request_path_fires() {
    let found = findings(
        "crates/serve/src/server.rs",
        include_str!("fixtures/serve_panic_fire.rs"),
    );
    assert_eq!(found.len(), 2, "{found:?}");
    assert!(found.iter().all(|f| f.rule == Rule::ServePanicHygiene));
    assert!(found.iter().any(|f| f.message.contains("unwrap")));
    assert!(found.iter().any(|f| f.message.contains("expect")));
}

#[test]
fn unwrap_off_request_path_is_not_this_rules_business() {
    let found = findings(
        "crates/serve/src/client.rs",
        include_str!("fixtures/serve_panic_fire.rs"),
    );
    assert!(found.is_empty(), "{found:?}");
}

#[test]
fn structured_errors_and_test_unwraps_are_clean() {
    let found = findings(
        "crates/serve/src/server.rs",
        include_str!("fixtures/serve_panic_clean.rs"),
    );
    assert!(found.is_empty(), "{found:?}");
}

// --------------------------------------------------------------------- waivers

#[test]
fn waiver_roundtrip_above_and_trailing() {
    let found = findings(
        "crates/core/src/widget.rs",
        include_str!("fixtures/waiver_roundtrip.rs"),
    );
    assert_eq!(found.len(), 2, "{found:?}");
    assert!(found
        .iter()
        .all(|f| f.rule == Rule::Determinism && f.waived));
    assert!(unwaived(&found).is_empty(), "waived findings never fail");
    let above = found.iter().find(|f| f.line == 8).expect("above form");
    assert_eq!(
        above.justification.as_deref(),
        Some("fixture — the duration is discarded")
    );
    let trailing = found.iter().find(|f| f.line == 13).expect("trailing form");
    assert_eq!(
        trailing.justification.as_deref(),
        Some("fixture — trailing placement")
    );
}

#[test]
fn waiver_without_justification_is_itself_a_finding() {
    let found = findings(
        "crates/core/src/widget.rs",
        include_str!("fixtures/waiver_unjustified.rs"),
    );
    assert_eq!(found.len(), 2, "{found:?}");
    let hygiene = found
        .iter()
        .find(|f| f.rule == Rule::WaiverHygiene)
        .expect("naked waiver reported");
    assert!(hygiene.message.contains("no justification"));
    assert!(!hygiene.waived);
    // The determinism finding is still waived — one mistake, one finding.
    let original = found
        .iter()
        .find(|f| f.rule == Rule::Determinism)
        .expect("original finding kept");
    assert!(original.waived);
}

#[test]
fn stale_and_unknown_rule_waivers_fire() {
    let found = findings(
        "crates/core/src/widget.rs",
        include_str!("fixtures/waiver_stale.rs"),
    );
    assert_eq!(found.len(), 2, "{found:?}");
    assert!(found.iter().all(|f| f.rule == Rule::WaiverHygiene));
    assert!(found.iter().any(|f| f.message.contains("stale")));
    assert!(found.iter().any(|f| f.message.contains("unknown rule")));
}

#[test]
fn waiver_hygiene_findings_cannot_be_waived() {
    let source = format!(
        "{} allow(waiver-hygiene): please\npub fn f() {{}}\n",
        "// htd-lint:"
    );
    let found = findings("crates/core/src/widget.rs", &source);
    assert_eq!(found.len(), 1, "{found:?}");
    assert_eq!(found[0].rule, Rule::WaiverHygiene);
    assert!(found[0].message.contains("cannot be waived"));
}

// ------------------------------------------------------------------- workspace

#[test]
fn workspace_is_lint_clean() {
    let root = Path::new(env!("CARGO_MANIFEST_DIR"))
        .join("../..")
        .canonicalize()
        .expect("workspace root exists");
    let report = lint_workspace(&root, &LintConfig::default()).expect("workspace walk succeeds");
    assert!(report.files_scanned > 100, "walk found the workspace");
    let offending: Vec<String> = report
        .unwaived()
        .map(|f| format!("{}:{}: {}: {}", f.file, f.line, f.rule.name(), f.message))
        .collect();
    assert!(
        offending.is_empty(),
        "workspace must stay lint-clean (fix the code or add a justified waiver):\n{}",
        offending.join("\n")
    );
}

#[test]
fn json_report_is_stable_and_parseable_shaped() {
    let root = Path::new(env!("CARGO_MANIFEST_DIR"))
        .join("../..")
        .canonicalize()
        .expect("workspace root exists");
    let report = lint_workspace(&root, &LintConfig::default()).expect("workspace walk succeeds");
    let json = report.render_json();
    assert!(json.starts_with("{\"findings\":["));
    assert!(json.trim_end().ends_with('}'));
    assert!(json.contains("\"files_scanned\":"));
    assert!(json.contains("\"unwaived\":0"));
    // Waived workspace findings appear with their justifications.
    assert!(json.contains("\"waived\":true"));
    assert!(json.contains("\"justification\":\""));
}
