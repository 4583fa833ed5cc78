//! # htd-analyze
//!
//! The dependency-free workspace invariant checker behind `htd lint`.
//!
//! The toolkit's central guarantee — byte-identical detection reports across
//! every worker count, pipelining mode, backend and tenant mix — rests on
//! implementation invariants that `rustc` cannot check: no wall-clock read
//! may leak into the report merge path, every `unsafe` block at the FFI seam
//! must be audited, no product code may read an `HTD_*` environment
//! variable, and statistics aggregation must notice new counters at compile
//! time.  This crate makes those reviewer conventions mechanically
//! checkable: a hand-rolled Rust token scanner (same ethos as the in-tree
//! JSON/HTTP/FxHash) walks every workspace `.rs` file and enforces a
//! deny-by-default rule set with `file:line` findings.
//!
//! ## The rules
//!
//! | rule | invariant |
//! |------|-----------|
//! | `unsafe-audit` | `unsafe` appears only in `crates/sat/src/ipasir.rs`, `crates/ipasir-shim/`, `crates/cli/src/signal.rs` and the counting-allocator tests `crates/sat/tests/clone_allocations.rs`, `crates/ipc/tests/encode_allocations.rs` and `tests/plan_allocations.rs`; every audited use carries an adjacent `// SAFETY:` comment (or `# Safety` doc section); every crate root carries `#![forbid(unsafe_code)]` or `#![deny(unsafe_code)]`. |
//! | `determinism` | `Instant::now`, `SystemTime::now`, `thread::sleep` and `Ordering::Relaxed` appear only in the timing allowlist (`crates/sat/src/budget.rs`, `crates/serve/`, `crates/bench/`, the criterion shim and `examples/`) — time never influences the merge path.  Test code is exempt. |
//! | `strict-env` | `env::var`/`env::var_os` of an `"HTD_…"` literal, or of any non-literal name (a `const`, a parameter), is a finding in every module: the product reads no `HTD_*` variable, and its only settings are flags and config structs.  Reads of other literal names (`"PATH"`) are not this rule's business.  A test helper that saves such a variable to restore it carries a waiver. |
//! | `exhaustive-stats` | inside `accumulate*`/`delta_since`/`normalized`, a `SolverStats`/`SessionStats`/`CheckStats` struct pattern or literal must not use `..` — a new counter must be a compile error, never a silently dropped value (a bug class once fixed by hand). |
//! | `serve-panic-hygiene` | `unwrap()`/`expect()` are forbidden in the request-handling modules of `htd-serve` (`server.rs`, `http.rs`, `json.rs`, `queue.rs`, `cache.rs`); a tenant request settles with a structured error, never a panic.  Test code is exempt. |
//! | `waiver-hygiene` | waiver pragmas themselves: a waiver without a justification, naming an unknown rule, or matching no finding is a finding.  Not waivable. |
//!
//! ## Waiver pragma grammar
//!
//! ```text
//! // htd-lint: allow(<rule>): <justification>
//! ```
//!
//! placed trailing on the offending line or on its own line directly above
//! it.  A waiver *marks* the finding as waived (it still appears in `--json`
//! output with its justification); it never hides it.  The justification is
//! mandatory and should say *why the invariant holds anyway* — e.g.
//! `// htd-lint: allow(determinism): duration only feeds PropertyStats.duration, zeroed by normalized()`.
//!
//! ## Adding a rule
//!
//! 1. Add a variant to [`Rule`] and its name in [`Rule::name`]/[`Rule::from_name`].
//! 2. Write the matcher in `rules.rs` as a function over [`rules::FileContext`]
//!    (token sequences via `ctx` helpers; use `in_test_code` if test code is
//!    exempt) and call it from `rules::run_all`.
//! 3. Extend [`LintConfig`] with any allowlist the rule needs.
//! 4. Add one firing and one clean fixture under `tests/fixtures/` plus a
//!    case in `tests/lint_rules.rs`, and fix (or justify-waive) everything
//!    the rule flags in the workspace — `workspace_is_lint_clean` enforces
//!    that the tree stays clean from then on.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod lexer;
pub mod rules;
pub mod waiver;
pub mod walk;

use std::fmt::Write as _;
use std::io;
use std::path::Path;

/// The lint rules.  See the crate docs for the invariant each one enforces.
#[derive(Clone, Copy, Debug, PartialEq, Eq, PartialOrd, Ord)]
pub enum Rule {
    /// Audited `unsafe`: allowlisted modules, `SAFETY:` comments, crate-root
    /// `forbid/deny(unsafe_code)` coverage.
    UnsafeAudit,
    /// No wall clock, sleeps or relaxed atomics outside the timing modules.
    Determinism,
    /// No `HTD_*` (or non-literal) environment read anywhere.
    StrictEnv,
    /// No `..` rest patterns in stats aggregation.
    ExhaustiveStats,
    /// No `unwrap`/`expect` on serve request paths.
    ServePanicHygiene,
    /// Malformed, unjustified or stale waiver pragmas.
    WaiverHygiene,
}

impl Rule {
    /// The kebab-case rule name used in findings and waiver pragmas.
    #[must_use]
    pub fn name(self) -> &'static str {
        match self {
            Rule::UnsafeAudit => "unsafe-audit",
            Rule::Determinism => "determinism",
            Rule::StrictEnv => "strict-env",
            Rule::ExhaustiveStats => "exhaustive-stats",
            Rule::ServePanicHygiene => "serve-panic-hygiene",
            Rule::WaiverHygiene => "waiver-hygiene",
        }
    }

    /// Parses a rule name (as written in a waiver pragma).
    #[must_use]
    pub fn from_name(name: &str) -> Option<Rule> {
        Some(match name {
            "unsafe-audit" => Rule::UnsafeAudit,
            "determinism" => Rule::Determinism,
            "strict-env" => Rule::StrictEnv,
            "exhaustive-stats" => Rule::ExhaustiveStats,
            "serve-panic-hygiene" => Rule::ServePanicHygiene,
            "waiver-hygiene" => Rule::WaiverHygiene,
            _ => return None,
        })
    }
}

/// One lint finding with its `file:line` anchor.
#[derive(Clone, Debug)]
pub struct Finding {
    /// The rule that fired.
    pub rule: Rule,
    /// Workspace-relative file path (`/` separators).
    pub file: String,
    /// 1-based source line.
    pub line: u32,
    /// What is wrong and what the invariant demands instead.
    pub message: String,
    /// Whether a waiver pragma covers this finding.
    pub waived: bool,
    /// The waiver's justification, when waived.
    pub justification: Option<String>,
}

impl Finding {
    fn new(rule: Rule, file: &str, line: u32, message: String) -> Finding {
        Finding {
            rule,
            file: file.to_string(),
            line,
            message,
            waived: false,
            justification: None,
        }
    }

    fn hygiene(file: &str, line: u32, message: String) -> Finding {
        Finding::new(Rule::WaiverHygiene, file, line, message)
    }
}

/// Allowlists and scoping for the rules.  [`LintConfig::default`] is the
/// repo's committed policy; tests build custom configs to exercise rules on
/// fixture files.
#[derive(Clone, Debug)]
pub struct LintConfig {
    /// Modules where `unsafe` may appear (exact file, or `dir/` prefix).
    pub unsafe_allowlist: Vec<String>,
    /// Crate roots exempt from the `forbid/deny(unsafe_code)` requirement
    /// (the IPASIR shim *is* the FFI seam — its whole crate is unsafe).
    pub unsafe_attr_exempt: Vec<String>,
    /// Modules where wall-clock reads / sleeps / relaxed atomics are legal.
    pub determinism_allowlist: Vec<String>,
    /// The request-handling modules of `htd-serve` covered by
    /// `serve-panic-hygiene`.
    pub serve_request_paths: Vec<String>,
}

fn owned(entries: &[&str]) -> Vec<String> {
    entries.iter().map(|&e| e.to_string()).collect()
}

impl Default for LintConfig {
    fn default() -> Self {
        LintConfig {
            unsafe_allowlist: owned(&[
                "crates/sat/src/ipasir.rs",
                "crates/ipasir-shim/",
                "crates/cli/src/signal.rs",
                // The clone-, encode- and plan-cost regression tests install
                // a counting `GlobalAlloc` — inherently unsafe, and audited
                // like the FFI seams.
                "crates/sat/tests/clone_allocations.rs",
                "crates/ipc/tests/encode_allocations.rs",
                "tests/plan_allocations.rs",
            ]),
            unsafe_attr_exempt: owned(&["crates/ipasir-shim/"]),
            determinism_allowlist: owned(&[
                "crates/sat/src/budget.rs",
                "crates/serve/",
                "crates/bench/",
                // The vendored criterion shim is a wall-clock measurement
                // harness, and the examples print timing tables; neither
                // feeds a detection report.
                "crates/shims/criterion/",
                "examples/",
            ]),
            serve_request_paths: owned(&[
                "crates/serve/src/server.rs",
                "crates/serve/src/http.rs",
                "crates/serve/src/json.rs",
                "crates/serve/src/queue.rs",
                "crates/serve/src/cache.rs",
            ]),
        }
    }
}

/// The result of linting a file set.
#[derive(Clone, Debug, Default)]
pub struct LintReport {
    /// Every finding, waived ones included, sorted by `(file, line)`.
    pub findings: Vec<Finding>,
    /// How many files were scanned.
    pub files_scanned: usize,
}

impl LintReport {
    /// Findings not covered by a waiver — the ones that fail the lint.
    pub fn unwaived(&self) -> impl Iterator<Item = &Finding> {
        self.findings.iter().filter(|f| !f.waived)
    }

    /// Whether the lint passes (no unwaived findings).
    #[must_use]
    pub fn is_clean(&self) -> bool {
        self.unwaived().next().is_none()
    }

    /// Human-readable rendering: one `file:line: rule: message` per unwaived
    /// finding, then a summary line.
    #[must_use]
    pub fn render_text(&self) -> String {
        let mut out = String::new();
        for f in self.unwaived() {
            let _ = writeln!(
                out,
                "{}:{}: {}: {}",
                f.file,
                f.line,
                f.rule.name(),
                f.message
            );
        }
        let waived = self.findings.len() - self.unwaived().count();
        let _ = writeln!(
            out,
            "htd lint: {} finding(s), {} waived, {} files scanned",
            self.unwaived().count(),
            waived,
            self.files_scanned
        );
        out
    }

    /// Machine-readable rendering (consumed by the `static-analysis` CI
    /// leg): a stable JSON object with every finding, waived ones included.
    #[must_use]
    pub fn render_json(&self) -> String {
        let mut out = String::from("{\"findings\":[");
        for (i, f) in self.findings.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            let _ = write!(
                out,
                "{{\"rule\":{},\"file\":{},\"line\":{},\"message\":{},\"waived\":{}",
                json_string(f.rule.name()),
                json_string(&f.file),
                f.line,
                json_string(&f.message),
                f.waived
            );
            match &f.justification {
                Some(j) => {
                    let _ = write!(out, ",\"justification\":{}}}", json_string(j));
                }
                None => out.push_str(",\"justification\":null}"),
            }
        }
        let unwaived = self.unwaived().count();
        let _ = write!(
            out,
            "],\"files_scanned\":{},\"waived\":{},\"unwaived\":{}}}",
            self.files_scanned,
            self.findings.len() - unwaived,
            unwaived
        );
        out.push('\n');
        out
    }
}

fn json_string(s: &str) -> String {
    let mut out = String::with_capacity(s.len() + 2);
    out.push('"');
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\r' => out.push_str("\\r"),
            '\t' => out.push_str("\\t"),
            c if (c as u32) < 0x20 => {
                let _ = write!(out, "\\u{:04x}", c as u32);
            }
            c => out.push(c),
        }
    }
    out.push('"');
    out
}

/// Lints one source file presented under a workspace-relative path.  The
/// path decides rule scoping (allowlists, test exemptions), which is how the
/// fixture suite exercises path-scoped rules on files that live elsewhere.
#[must_use]
pub fn lint_source(rel_path: &str, source: &str, config: &LintConfig) -> Vec<Finding> {
    let tokens = lexer::lex(source);
    let ctx = rules::FileContext::new(rel_path, &tokens);
    let mut findings = rules::run_all(&ctx, config);
    let (waivers, mut hygiene) = waiver::collect(rel_path, &tokens);
    waiver::apply(rel_path, waivers, &mut findings);
    findings.append(&mut hygiene);
    findings.sort_by_key(|f| (f.line, f.rule));
    findings
}

/// Lints every `.rs` file under `root` (the workspace checkout) with the
/// given policy.
///
/// # Errors
///
/// Propagates I/O errors from the directory walk or file reads.
pub fn lint_workspace(root: &Path, config: &LintConfig) -> io::Result<LintReport> {
    let files = walk::rust_files(root)?;
    let mut report = LintReport {
        files_scanned: files.len(),
        ..LintReport::default()
    };
    for path in &files {
        let source = std::fs::read_to_string(path)?;
        let rel = walk::relative_path(root, path);
        report.findings.extend(lint_source(&rel, &source, config));
    }
    report
        .findings
        .sort_by(|a, b| (a.file.as_str(), a.line, a.rule).cmp(&(b.file.as_str(), b.line, b.rule)));
    Ok(report)
}

/// Locates the workspace root by walking up from `start` to the first
/// directory whose `Cargo.toml` declares `[workspace]`.
#[must_use]
pub fn find_workspace_root(start: &Path) -> Option<std::path::PathBuf> {
    let mut dir = Some(start);
    while let Some(d) = dir {
        let manifest = d.join("Cargo.toml");
        if let Ok(text) = std::fs::read_to_string(&manifest) {
            if text.contains("[workspace]") {
                return Some(d.to_path_buf());
            }
        }
        dir = d.parent();
    }
    None
}
