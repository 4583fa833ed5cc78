//! The rule set.
//!
//! Every rule is a pure function from a [`FileContext`] (token stream plus
//! per-line classification) to findings.  Rules are deliberately syntactic:
//! they match short token sequences, so they cannot be fooled by strings or
//! comments (the lexer already classified those), and they stay fast and
//! dependency-free.  The cost of that choice — no type resolution — is paid
//! with narrow, documented patterns and per-site waiver pragmas.

use crate::lexer::{Token, TokenKind};
use crate::{Finding, LintConfig, Rule};

/// Per-line classification used by comment-adjacency checks.
#[derive(Clone, Copy, Default)]
struct LineFlags {
    /// The line carries at least one non-comment token.
    has_code: bool,
    /// Every non-comment token on the line belongs to an attribute.
    attr_only: bool,
    /// The line carries (or is spanned by) a comment.
    has_comment: bool,
    /// The line carries (or is spanned by) a comment containing `SAFETY:`
    /// or a `# Safety` doc heading.
    safety: bool,
}

/// A tokenized file plus the precomputed views the rules share.
pub struct FileContext<'a> {
    /// Workspace-relative path with `/` separators.
    pub rel_path: &'a str,
    tokens: &'a [Token],
    /// Indices of non-comment tokens, in source order.
    code: Vec<usize>,
    lines: Vec<LineFlags>,
    /// Line spans of `#[cfg(test)] mod … { … }` bodies.
    test_regions: Vec<(u32, u32)>,
    /// The file lives under a `tests/`, `benches/` or shim-`examples` tree.
    is_test_file: bool,
}

impl<'a> FileContext<'a> {
    /// Builds the context for one file.
    pub fn new(rel_path: &'a str, tokens: &'a [Token]) -> Self {
        let code: Vec<usize> = tokens
            .iter()
            .enumerate()
            .filter(|(_, t)| !t.is_comment())
            .map(|(i, _)| i)
            .collect();
        let max_line = tokens.iter().map(|t| t.end_line).max().unwrap_or(0) as usize;
        let mut lines = vec![LineFlags::default(); max_line + 2];
        let attr_tokens = attribute_token_set(tokens, &code);
        for (idx, token) in tokens.iter().enumerate() {
            if token.is_comment() {
                let safety = token.text.contains("SAFETY:") || token.text.contains("# Safety");
                for line in token.line..=token.end_line {
                    lines[line as usize].has_comment = true;
                    lines[line as usize].safety |= safety;
                }
            } else {
                let flags = &mut lines[token.line as usize];
                if !flags.has_code {
                    flags.attr_only = true;
                }
                flags.has_code = true;
                flags.attr_only &= attr_tokens[idx];
            }
        }
        let is_test_file = ["tests/", "benches/"]
            .iter()
            .any(|dir| rel_path.starts_with(dir) || rel_path.contains(&format!("/{dir}")));
        let test_regions = cfg_test_regions(tokens, &code);
        FileContext {
            rel_path,
            tokens,
            code,
            lines,
            test_regions,
            is_test_file,
        }
    }

    fn code_token(&self, code_idx: usize) -> Option<&Token> {
        self.code.get(code_idx).map(|&i| &self.tokens[i])
    }

    /// Whether `line` is test-only code: a file under `tests/`/`benches/`,
    /// or inside an in-file `#[cfg(test)]` module.
    fn in_test_code(&self, line: u32) -> bool {
        self.is_test_file
            || self
                .test_regions
                .iter()
                .any(|&(start, end)| line >= start && line <= end)
    }

    /// Whether an `unsafe` (or any construct) at `line` is documented by an
    /// adjacent `// SAFETY:` comment or `# Safety` doc heading: trailing on
    /// the same line, or directly above with only comments and attribute
    /// lines in between (a blank line breaks adjacency on purpose — the
    /// justification must sit with the code it justifies).
    fn safety_covered(&self, line: u32) -> bool {
        if self.flags(line).safety {
            return true;
        }
        let mut l = line.saturating_sub(1);
        while l >= 1 {
            let f = self.flags(l);
            if f.safety {
                return true;
            }
            if f.has_code && !f.attr_only {
                return false;
            }
            if !f.has_code && !f.has_comment {
                return false;
            }
            l -= 1;
        }
        false
    }

    fn flags(&self, line: u32) -> LineFlags {
        self.lines.get(line as usize).copied().unwrap_or_default()
    }
}

/// Marks which token indices belong to attribute syntax (`#[…]` / `#![…]`).
fn attribute_token_set(tokens: &[Token], code: &[usize]) -> Vec<bool> {
    let mut attr = vec![false; tokens.len()];
    let mut k = 0;
    while k < code.len() {
        if tokens[code[k]].is_punct('#') {
            let mut j = k + 1;
            if j < code.len() && tokens[code[j]].is_punct('!') {
                j += 1;
            }
            if j < code.len() && tokens[code[j]].is_punct('[') {
                let mut depth = 0usize;
                let start = k;
                while j < code.len() {
                    if tokens[code[j]].is_punct('[') {
                        depth += 1;
                    } else if tokens[code[j]].is_punct(']') {
                        depth -= 1;
                        if depth == 0 {
                            break;
                        }
                    }
                    j += 1;
                }
                for &idx in &code[start..=j.min(code.len() - 1)] {
                    attr[idx] = true;
                }
                k = j + 1;
                continue;
            }
        }
        k += 1;
    }
    attr
}

/// Finds the line spans of `#[cfg(test)] mod name { … }` bodies.
fn cfg_test_regions(tokens: &[Token], code: &[usize]) -> Vec<(u32, u32)> {
    let mut regions = Vec::new();
    let mut k = 0;
    while k < code.len() {
        let Some(after_attr) = match_cfg_test_attr(tokens, code, k) else {
            k += 1;
            continue;
        };
        // Skip any further attributes between `#[cfg(test)]` and the item.
        let mut j = after_attr;
        while let Some(next) = skip_one_attr(tokens, code, j) {
            j = next;
        }
        if j + 1 < code.len()
            && tokens[code[j]].is_ident("mod")
            && tokens[code[j + 1]].kind == TokenKind::Ident
        {
            // Find the opening brace and match it.
            let mut b = j + 2;
            while b < code.len() && !tokens[code[b]].is_punct('{') && !tokens[code[b]].is_punct(';')
            {
                b += 1;
            }
            if b < code.len() && tokens[code[b]].is_punct('{') {
                if let Some(close) = match_brace(tokens, code, b) {
                    regions.push((tokens[code[k]].line, tokens[code[close]].end_line));
                    k = close + 1;
                    continue;
                }
            }
        }
        k = after_attr;
    }
    regions
}

/// If code index `k` starts a `#[cfg(… test …)]` attribute (and not a
/// `cfg(not(…))`), returns the code index just past it.
fn match_cfg_test_attr(tokens: &[Token], code: &[usize], k: usize) -> Option<usize> {
    if !tokens[code[k]].is_punct('#') {
        return None;
    }
    let mut j = k + 1;
    if j < code.len() && tokens[code[j]].is_punct('!') {
        return None; // inner attribute, never a test-module gate
    }
    if j >= code.len() || !tokens[code[j]].is_punct('[') {
        return None;
    }
    let mut depth = 0usize;
    let mut saw_cfg = false;
    let mut saw_test = false;
    let mut saw_not = false;
    while j < code.len() {
        let t = &tokens[code[j]];
        if t.is_punct('[') {
            depth += 1;
        } else if t.is_punct(']') {
            depth -= 1;
            if depth == 0 {
                break;
            }
        } else if t.kind == TokenKind::Ident {
            saw_cfg |= t.text == "cfg";
            saw_test |= t.text == "test";
            saw_not |= t.text == "not";
        }
        j += 1;
    }
    (saw_cfg && saw_test && !saw_not && j < code.len()).then_some(j + 1)
}

/// If code index `k` starts any attribute, returns the code index past it.
fn skip_one_attr(tokens: &[Token], code: &[usize], k: usize) -> Option<usize> {
    if k >= code.len() || !tokens[code[k]].is_punct('#') {
        return None;
    }
    let mut j = k + 1;
    if j < code.len() && tokens[code[j]].is_punct('!') {
        j += 1;
    }
    if j >= code.len() || !tokens[code[j]].is_punct('[') {
        return None;
    }
    let mut depth = 0usize;
    while j < code.len() {
        if tokens[code[j]].is_punct('[') {
            depth += 1;
        } else if tokens[code[j]].is_punct(']') {
            depth -= 1;
            if depth == 0 {
                return Some(j + 1);
            }
        }
        j += 1;
    }
    None
}

/// Matches the brace at code index `open` (which must be `{`), returning the
/// index of its closing `}`.
fn match_brace(tokens: &[Token], code: &[usize], open: usize) -> Option<usize> {
    let mut depth = 0usize;
    for (offset, &idx) in code[open..].iter().enumerate() {
        if tokens[idx].is_punct('{') {
            depth += 1;
        } else if tokens[idx].is_punct('}') {
            depth -= 1;
            if depth == 0 {
                return Some(open + offset);
            }
        }
    }
    None
}

fn path_matches(rel_path: &str, entries: &[String]) -> bool {
    entries
        .iter()
        .any(|e| rel_path == e || (e.ends_with('/') && rel_path.starts_with(e.as_str())))
}

/// Runs every rule over one file.
pub fn run_all(ctx: &FileContext<'_>, config: &LintConfig) -> Vec<Finding> {
    let mut findings = Vec::new();
    unsafe_audit(ctx, config, &mut findings);
    determinism(ctx, config, &mut findings);
    strict_env(ctx, config, &mut findings);
    exhaustive_stats(ctx, &mut findings);
    serve_panic_hygiene(ctx, config, &mut findings);
    findings
}

/// How an `unsafe` keyword is used.
enum UnsafeUse {
    /// `unsafe { … }`, `unsafe impl`, `unsafe trait`, `unsafe fn name`,
    /// `unsafe extern "C" fn name`, `unsafe extern { … }` — all audited.
    Audited,
    /// `unsafe extern "C" fn(…)` in type position: a function-pointer type
    /// mentions unsafety without introducing any — exempt (calling through
    /// it still needs an audited `unsafe { … }` block).
    TypePosition,
}

fn classify_unsafe(ctx: &FileContext<'_>, k: usize) -> UnsafeUse {
    let at = |n: usize| ctx.code_token(k + n);
    let decl_or_type = |fn_offset: usize| match at(fn_offset + 1) {
        Some(t) if t.kind == TokenKind::Ident => UnsafeUse::Audited,
        _ => UnsafeUse::TypePosition,
    };
    match at(1) {
        Some(t) if t.is_ident("fn") => decl_or_type(1),
        Some(t) if t.is_ident("extern") => {
            // Optional ABI string between `extern` and `fn`/`{`.
            let mut j = 2;
            if at(j).is_some_and(|t| t.kind == TokenKind::Literal) {
                j += 1;
            }
            match at(j) {
                Some(t) if t.is_ident("fn") => decl_or_type(j),
                _ => UnsafeUse::Audited, // `unsafe extern { … }` block
            }
        }
        _ => UnsafeUse::Audited, // block, impl, trait — all need a SAFETY note
    }
}

/// **unsafe-audit** — `unsafe` may appear only in the allowlisted FFI/signal
/// modules, every audited use needs an adjacent `// SAFETY:` comment (or
/// `# Safety` doc section), and every crate root must carry
/// `#![forbid(unsafe_code)]` or `#![deny(unsafe_code)]`.
fn unsafe_audit(ctx: &FileContext<'_>, config: &LintConfig, findings: &mut Vec<Finding>) {
    let rel = ctx.rel_path;
    let is_crate_root = rel.ends_with("src/lib.rs") || rel.ends_with("src/main.rs");
    if is_crate_root && !path_matches(rel, &config.unsafe_attr_exempt) && !has_unsafe_code_attr(ctx)
    {
        findings.push(Finding::new(
            Rule::UnsafeAudit,
            rel,
            1,
            "crate root lacks `#![forbid(unsafe_code)]` or `#![deny(unsafe_code)]`".to_string(),
        ));
    }
    let allowed_module = path_matches(rel, &config.unsafe_allowlist);
    for k in 0..ctx.code.len() {
        let token = &ctx.tokens[ctx.code[k]];
        if !token.is_ident("unsafe") {
            continue;
        }
        if matches!(classify_unsafe(ctx, k), UnsafeUse::TypePosition) {
            continue;
        }
        if !allowed_module {
            findings.push(Finding::new(
                Rule::UnsafeAudit,
                rel,
                token.line,
                "`unsafe` outside the audited modules (sat/src/ipasir.rs, ipasir-shim, \
                 cli/src/signal.rs)"
                    .to_string(),
            ));
        }
        if !ctx.safety_covered(token.line) {
            findings.push(Finding::new(
                Rule::UnsafeAudit,
                rel,
                token.line,
                "`unsafe` without an adjacent `// SAFETY:` comment".to_string(),
            ));
        }
    }
}

fn has_unsafe_code_attr(ctx: &FileContext<'_>) -> bool {
    let code = &ctx.code;
    let tokens = ctx.tokens;
    let mut k = 0;
    while k + 2 < code.len() {
        if tokens[code[k]].is_punct('#')
            && tokens[code[k + 1]].is_punct('!')
            && tokens[code[k + 2]].is_punct('[')
        {
            let mut depth = 0usize;
            let mut level = false;
            let mut lint = false;
            let mut j = k + 2;
            while j < code.len() {
                let t = &tokens[code[j]];
                if t.is_punct('[') {
                    depth += 1;
                } else if t.is_punct(']') {
                    depth -= 1;
                    if depth == 0 {
                        break;
                    }
                } else if t.kind == TokenKind::Ident {
                    level |= t.text == "forbid" || t.text == "deny";
                    lint |= t.text == "unsafe_code";
                }
                j += 1;
            }
            if level && lint {
                return true;
            }
            k = j + 1;
            continue;
        }
        k += 1;
    }
    false
}

/// **determinism** — wall-clock reads, sleeps and relaxed atomics are
/// forbidden outside the allowlisted timing modules, so time can never
/// influence the report merge path.
fn determinism(ctx: &FileContext<'_>, config: &LintConfig, findings: &mut Vec<Finding>) {
    if path_matches(ctx.rel_path, &config.determinism_allowlist) {
        return;
    }
    const FORBIDDEN: &[(&str, &str, &str)] = &[
        ("Instant", "now", "`Instant::now` (wall clock)"),
        ("SystemTime", "now", "`SystemTime::now` (wall clock)"),
        ("thread", "sleep", "`thread::sleep`"),
        ("Ordering", "Relaxed", "`Ordering::Relaxed`"),
    ];
    for k in 0..ctx.code.len().saturating_sub(3) {
        for &(first, last, label) in FORBIDDEN {
            if ctx.tokens[ctx.code[k]].is_ident(first)
                && ctx.tokens[ctx.code[k + 1]].is_punct(':')
                && ctx.tokens[ctx.code[k + 2]].is_punct(':')
                && ctx.tokens[ctx.code[k + 3]].is_ident(last)
            {
                let line = ctx.tokens[ctx.code[k]].line;
                if ctx.in_test_code(line) {
                    continue;
                }
                findings.push(Finding::new(
                    Rule::Determinism,
                    ctx.rel_path,
                    line,
                    format!("{label} outside the timing allowlist (budget, serve, bench)"),
                ));
            }
        }
    }
}

/// **strict-env** — outside the designated strict-parsing modules (the
/// daemon edge), `env::var`/`env::var_os` may only read a string literal
/// that does not name an `HTD_*` variable.  A read through any other
/// argument — a named constant, a parameter — fires as well: that is how a
/// strict accessor spells its read, and matching only `"HTD_…"` literals
/// would let one live anywhere.
fn strict_env(ctx: &FileContext<'_>, config: &LintConfig, findings: &mut Vec<Finding>) {
    if path_matches(ctx.rel_path, &config.strict_env_allowlist) {
        return;
    }
    for k in 3..ctx.code.len().saturating_sub(2) {
        let t = &ctx.tokens[ctx.code[k]];
        if !(t.is_ident("var") || t.is_ident("var_os")) {
            continue;
        }
        if !(ctx.tokens[ctx.code[k - 1]].is_punct(':')
            && ctx.tokens[ctx.code[k - 2]].is_punct(':')
            && ctx.tokens[ctx.code[k - 3]].is_ident("env"))
        {
            continue;
        }
        if !ctx.tokens[ctx.code[k + 1]].is_punct('(') {
            continue;
        }
        let arg = &ctx.tokens[ctx.code[k + 2]];
        let literal = ctx
            .code_token(k + 3)
            .filter(|next| next.is_punct(')') && arg.kind == TokenKind::Literal)
            .and_then(|_| arg.text.strip_prefix('"')?.strip_suffix('"'));
        let message = match literal {
            Some(name) if !name.starts_with("HTD_") => continue,
            Some(_) => format!(
                "raw `env::{}({})` outside the strict-parsing modules",
                t.text, arg.text
            ),
            None => format!(
                "`env::{}` of a non-literal name outside the strict-parsing modules",
                t.text
            ),
        };
        findings.push(Finding::new(Rule::StrictEnv, ctx.rel_path, t.line, message));
    }
}

const STAT_TYPES: &[&str] = &["SolverStats", "SessionStats"];

fn stats_fn_name(name: &str) -> bool {
    name == "delta_since"
        || name == "normalized"
        || name == "accumulate"
        || name.starts_with("accumulate_")
}

/// **exhaustive-stats** — inside `accumulate*`/`delta_since`/`normalized`,
/// destructuring or building a stats struct with a `..` rest pattern is
/// forbidden: a newly added counter must be a compile error there, never a
/// silently dropped value.
fn exhaustive_stats(ctx: &FileContext<'_>, findings: &mut Vec<Finding>) {
    let code = &ctx.code;
    let tokens = ctx.tokens;
    let mut reported = Vec::new();
    let mut k = 0;
    while k + 1 < code.len() {
        if !(tokens[code[k]].is_ident("fn") && stats_fn_name(&tokens[code[k + 1]].text)) {
            k += 1;
            continue;
        }
        let fn_name = tokens[code[k + 1]].text.clone();
        // The first `{` before a `;` opens the body (a `;` first means a
        // bodyless trait-method declaration).
        let mut b = k + 2;
        while b < code.len() && !tokens[code[b]].is_punct('{') && !tokens[code[b]].is_punct(';') {
            b += 1;
        }
        if b >= code.len() || tokens[code[b]].is_punct(';') {
            k = b;
            continue;
        }
        let Some(close) = match_brace(tokens, code, b) else {
            break;
        };
        for i in b..close {
            let t = &tokens[code[i]];
            if t.kind == TokenKind::Ident
                && STAT_TYPES.contains(&t.text.as_str())
                && i + 1 < code.len()
                && tokens[code[i + 1]].is_punct('{')
            {
                scan_struct_group(ctx, i + 1, &fn_name, &t.text.clone(), &mut reported);
            }
        }
        k += 2;
    }
    for (line, fn_name, type_name) in reported {
        findings.push(Finding::new(
            Rule::ExhaustiveStats,
            ctx.rel_path,
            line,
            format!(
                "`..` in `{type_name}` inside `{fn_name}` — destructure every counter so a new \
                 field is a compile error, not a dropped value"
            ),
        ));
    }
}

/// Scans one `Type { … }` group (opened at code index `open`) for a `..`
/// rest pattern at the group's own brace level.
fn scan_struct_group(
    ctx: &FileContext<'_>,
    open: usize,
    fn_name: &str,
    type_name: &str,
    reported: &mut Vec<(u32, String, String)>,
) {
    let code = &ctx.code;
    let tokens = ctx.tokens;
    let (mut brace, mut paren, mut bracket) = (0i32, 0i32, 0i32);
    let mut i = open;
    while i < code.len() {
        let t = &tokens[code[i]];
        if t.is_punct('{') {
            brace += 1;
        } else if t.is_punct('}') {
            brace -= 1;
            if brace == 0 {
                return;
            }
        } else if t.is_punct('(') {
            paren += 1;
        } else if t.is_punct(')') {
            paren -= 1;
        } else if t.is_punct('[') {
            bracket += 1;
        } else if t.is_punct(']') {
            bracket -= 1;
        } else if t.is_punct('.')
            && brace == 1
            && paren == 0
            && bracket == 0
            && i + 1 < code.len()
            && tokens[code[i + 1]].is_punct('.')
            && (tokens[code[i - 1]].is_punct(',') || tokens[code[i - 1]].is_punct('{'))
        {
            let entry = (t.line, fn_name.to_string(), type_name.to_string());
            if !reported.contains(&entry) {
                reported.push(entry);
            }
            i += 1;
        }
        i += 1;
    }
}

/// **serve-panic-hygiene** — `unwrap()`/`expect()` are forbidden on the
/// request-handling modules of `htd-serve`: a tenant request must settle
/// with a structured error, never a panic.
fn serve_panic_hygiene(ctx: &FileContext<'_>, config: &LintConfig, findings: &mut Vec<Finding>) {
    if !path_matches(ctx.rel_path, &config.serve_request_paths) {
        return;
    }
    for k in 0..ctx.code.len().saturating_sub(2) {
        if !ctx.tokens[ctx.code[k]].is_punct('.') {
            continue;
        }
        let name = &ctx.tokens[ctx.code[k + 1]];
        if !(name.is_ident("unwrap") || name.is_ident("expect")) {
            continue;
        }
        if !ctx.tokens[ctx.code[k + 2]].is_punct('(') {
            continue;
        }
        if ctx.in_test_code(name.line) {
            continue;
        }
        findings.push(Finding::new(
            Rule::ServePanicHygiene,
            ctx.rel_path,
            name.line,
            format!(
                "`.{}()` on a serve request path — settle the request with a structured error \
                 instead of panicking",
                name.text
            ),
        ));
    }
}
