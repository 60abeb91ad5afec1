//! `xtask lint`: the repo-local rules that neither `rustc` nor clippy
//! holds. Clippy holds `no-unwrap`, `no-hash-order`, `par-confinement` and
//! `no-raw-comm` (the root `Cargo.toml`'s `[workspace.lints.clippy]` over
//! the items of `clippy.toml`, run by `ci.sh` with `-D warnings`); their
//! escape is `#[expect(clippy::<lint>, reason = "<why>")]`.
//!
//! * **no-float-eq** — comparing against a float literal with `==`/`!=`
//!   is forbidden in library code; use a tolerance or
//!   `// lint: allow(float-eq): <why>` for exact-representation cases
//!   (comparisons against zero where the value was assigned, not computed).
//!   Clippy's `float_cmp` judges other comparisons, so it is no substitute.
//! * **no-untagged-send** — every `ctx.send` / `ctx.send_as` outside
//!   `crates/par` passes a named tag, never an integer literal (see
//!   [`untagged_send_violations`]).
//! * **no-alloc-in-hot** — allocating constructs (`Vec::new`, `vec![`,
//!   `with_capacity`, `.collect(`, `.to_vec(`, `.clone(`, `Box::new`,
//!   `format!`, `String::new`) are forbidden in the declared hot modules
//!   ([`HOT_MODULES`]): the sparse work row, the serial
//!   triangular-solve functions, the distributed sweeps, the
//!   `CommPlan` rounds and the `Halo` round halves, the distributed SpMV,
//!   the dist-MIS round, and the GMRES restart loop. An entry that names a
//!   missing file or an undeclared function is itself a violation — a
//!   rename must not retire the policing. The scan is a token walk over the
//!   blanked text — macro invocations are first-class tokens, so `vec![`
//!   in a string or comment can't fire and `Avec![` can't hide. Backed at
//!   run time by the allocation-audit regions and the kernel gate's
//!   zero-acquisition steady regions.
//!   Escape hatch: `// lint: allow(alloc-in-hot): <why>`.
//! * **dep-allowlist** — every `Cargo.toml` may depend only on in-repo
//!   path crates (`pilut-*` and the `pilut` facade): no registry
//!   dependency anywhere, in a dependency table or a dotted one
//!   (`[dependencies.name]`). This is what keeps the tier-1 gate
//!   offline-safe.
//! * **doc-pub-fn** — every `pub fn` in `crates/*/src` carries a doc
//!   comment (`///` or `#[doc = ...]`). The six library crates also deny
//!   rustc's `missing_docs`, which covers their exported fields and
//!   variants; this rule stays because `missing_docs` cannot see `xtask`'s
//!   `pub fn`s or those of a module the crate does not export.
//! * **no-global-state** — a `static` item (`static`, `static mut`, a
//!   `thread_local!` entry) in a library crate is a violation: state a run
//!   uses belongs to the run (the registered-buffer pool lives in the
//!   `Machine::run` that warmed it), or two runs in one process see each
//!   other. `allocaudit` is exempt — it audits the whole process and is
//!   not scanned — and so is `xtask`, a binary. Escape hatch:
//!   `// lint: allow(global-state): <why>`.
//!
//! An escape `// lint: allow(<marker>)`, with `<marker>` the rule id
//! without `no-`, covers its own line and the next. One that covers no
//! finding is itself a violation (`stale-escape`), as an unfulfilled
//! `#[expect]` is to clippy: both escape forms mean "this suppresses
//! something" ([`apply_escapes`]).
//!
//! The two per-line rules are the rows of [`LINE_RULES`], run by one loop;
//! the rules that need more than one line keep their own scanners, and
//! every rule reports through [`Violation::new`].
//!
//! Two boundaries are not linted, because the compiler holds them: the CSR
//! index arrays (`CsrMatrix::{row_ptr, col_idx}`) are private to
//! `pilut-sparse`, and the collective tag range (`Ctx::RESERVED_TAG_BASE`)
//! is private to `pilut-par`, where other crates classify a tag with
//! `Ctx::is_reserved`. Privacy also covers `benchmark/`, the examples and
//! the tests, which the lint never scans, and has no escape hatch. A
//! `compile_fail` doctest on `CsrMatrix::row` and one on `Ctx::is_reserved`,
//! each beside a twin that compiles through the public API, keep both
//! boundaries tested.
//!
//! Before any source rule runs, the file goes through a small in-tree
//! lexer ([`blank_noncode`]) that blanks line comments, doc comments,
//! nested block comments, and the bodies of string / raw-string /
//! byte-string / char literals while preserving line structure — so the
//! pattern rules only ever see code, and multi-line literals cannot hide
//! or fake a violation.
//!
//! A `#[test]` runs the lint over the live workspace, so plain `cargo test`
//! fails if a violation lands.

use std::fmt;
use std::path::{Path, PathBuf};

use crate::{opens_test_tail, rel_label, rust_files, walk, workspace_root};

/// `lint`: prints every violation; fails when there is one.
pub(crate) fn run(_args: &[String]) -> Result<(), String> {
    let violations = run_lint(&workspace_root());
    for v in &violations {
        println!("{v}");
    }
    if violations.is_empty() {
        println!("xtask lint: clean");
        Ok(())
    } else {
        Err(format!("{} violation(s)", violations.len()))
    }
}

/// One finding: file, 1-based line, rule id, and the offending text.
#[derive(Debug)]
struct Violation {
    file: String,
    line: usize,
    rule: &'static str,
    text: String,
}

impl Violation {
    /// The one constructor every rule reports through. `line` is 1-based;
    /// 0 marks a finding about the whole file.
    fn new(file: &str, line: usize, rule: &'static str, text: impl Into<String>) -> Self {
        Violation {
            file: file.to_string(),
            line,
            rule,
            text: text.into(),
        }
    }
}

impl fmt::Display for Violation {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "{}:{}: [{}] {}",
            self.file,
            self.line,
            self.rule,
            self.text.trim()
        )
    }
}

/// The source trees the lint scans: the five algorithm crates, the root
/// facade, and xtask itself — tooling is held to the same float-eq
/// discipline (its grep patterns live in string literals, which the rules
/// blank out).
const LIB_SRC: &[&str] = &[
    "crates/sparse/src",
    "crates/graph/src",
    "crates/par/src",
    "crates/core/src",
    "crates/solver/src",
    "crates/xtask/src",
    "src",
];

/// Runs every rule over the workspace rooted at `root`: the source rules
/// over [`LIB_SRC`], the manifest rule over every `Cargo.toml` in the repo
/// (the standalone `benchmark/` package included), and the staleness check
/// of [`HOT_MODULES`].
fn run_lint(root: &Path) -> Vec<Violation> {
    let mut violations = Vec::new();
    let mut lint_file = |file: &Path, rules: fn(&str, &str) -> Vec<Violation>| {
        let label = rel_label(root, file);
        match std::fs::read_to_string(file) {
            Ok(content) => violations.extend(rules(&label, &content)),
            Err(e) => violations.push(Violation::new(&label, 0, "io", format!("unreadable: {e}"))),
        }
    };
    for dir in LIB_SRC {
        for file in rust_files(&root.join(dir)) {
            lint_file(&file, lint_source);
        }
    }
    for file in manifest_files(root) {
        lint_file(&file, lint_manifest);
    }
    violations.extend(stale_hot_modules(root, HOT_MODULES));
    violations.sort_by(|a, b| (&a.file, a.line).cmp(&(&b.file, b.line)));
    violations
}

/// All `Cargo.toml` files in the repo, skipping `target/` and `.git/`.
fn manifest_files(root: &Path) -> Vec<PathBuf> {
    let mut out = Vec::new();
    walk(root, &mut |p| {
        if p.file_name().is_some_and(|n| n == "Cargo.toml") {
            out.push(p.to_path_buf());
        }
    });
    out.sort();
    out
}

/// A rule that judges one line: it fires on a blanked code line of a file
/// it applies to.
struct LineRule {
    id: &'static str,
    /// Whether the rule covers the file, by its repo-relative label.
    applies: fn(&str) -> bool,
    /// Whether a blanked code line breaks the rule.
    fires: fn(&str) -> bool,
}

/// Every per-line rule, in the order a line's findings are reported.
const LINE_RULES: &[LineRule] = &[
    LineRule {
        id: "no-float-eq",
        applies: |_| true,
        fires: float_literal_cmp,
    },
    LineRule {
        id: "no-global-state",
        applies: |file| !file.starts_with("crates/xtask/"),
        fires: declares_static,
    },
];

/// Every file but the VM crate's, which implements raw messages.
fn outside_par(file: &str) -> bool {
    !file.starts_with("crates/par/")
}

/// Source-code rules over one file, labelled by its repo-relative path.
fn lint_source(label: &str, content: &str) -> Vec<Violation> {
    let lines: Vec<&str> = content.lines().collect();
    // Lex the whole file once: the pattern rules below run on the blanked
    // text, where every comment, doc comment, and literal body is spaces,
    // so prose can never trip a code rule. Escapes and `///` doc detection
    // intentionally read the *raw* lines — they live in comments.
    let blanked = blank_noncode(content);
    let blanked_lines: Vec<&str> = blanked.lines().collect();
    let code_len = (blanked_lines.iter())
        .position(|code| opens_test_tail(code))
        .unwrap_or(blanked_lines.len());
    let code_lines = &blanked_lines[..code_len];
    let mut found = Vec::new();
    let rules: Vec<&LineRule> = LINE_RULES.iter().filter(|r| (r.applies)(label)).collect();
    for (i, code) in code_lines.iter().enumerate() {
        for rule in rules.iter().filter(|r| (r.fires)(code)) {
            found.push(Violation::new(label, i + 1, rule.id, lines[i]));
        }
        if label.starts_with("crates/") {
            found.extend(missing_doc_violation(label, &lines, i, code));
        }
    }
    // The tag-discipline rule runs over the whole blanked text rather than
    // per line: a call's argument list regularly spans lines.
    if outside_par(label) {
        let sends = untagged_send_violations(label, &lines, &blanked);
        found.extend(sends.into_iter().filter(|v| v.line <= code_len));
    }
    found.extend(alloc_in_hot_violations(label, &lines, code_lines));
    apply_escapes(label, &lines, code_lines, found)
}

/// Drops every finding that an escape `// lint: allow(<marker>)` covers
/// (on the finding's line or the one above; `<marker>` is the rule id
/// without `no-`), and reports every escape that covers none as a
/// `stale-escape` violation: like an unfulfilled `#[expect]`, an escape
/// that suppresses nothing would hide the next finding on its line.
fn apply_escapes(
    label: &str,
    lines: &[&str],
    code_lines: &[&str],
    found: Vec<Violation>,
) -> Vec<Violation> {
    let escapes: Vec<(usize, &str)> = (code_lines.iter().enumerate())
        .filter_map(|(i, code)| Some((i, escape_marker(lines[i], code)?)))
        .collect();
    let mut used = vec![false; escapes.len()];
    let mut out = Vec::new();
    for v in found {
        let marker = v.rule.strip_prefix("no-");
        // The escape on the finding's own line first, then the one above.
        let on = |line: usize| {
            escapes
                .iter()
                .position(|&(at, m)| at + 1 == line && Some(m) == marker)
        };
        match on(v.line).or_else(|| on(v.line - 1)) {
            Some(k) => used[k] = true,
            None => out.push(v),
        }
    }
    for ((at, marker), _) in escapes.iter().zip(&used).filter(|(_, &used)| !used) {
        let text = format!(
            "{} — no `{marker}` finding on this line or the next",
            lines[*at].trim()
        );
        out.push(Violation::new(label, at + 1, "stale-escape", text));
    }
    out
}

/// The marker of the escape that the line comment of `raw` opens with, if
/// any: `// lint: allow(<marker>)`. `code` is the blanked line, so a
/// comment is where the code ends; a doc comment or a string that mentions
/// an escape is none.
fn escape_marker<'a>(raw: &'a str, code: &str) -> Option<&'a str> {
    let code_chars = code.trim_end().chars().count();
    let comment = raw
        .char_indices()
        .nth(code_chars)
        .map_or("", |(at, _)| &raw[at..]);
    let rest = comment.trim_start().strip_prefix("// lint: allow(")?;
    rest.split_once(')').map(|(marker, _)| marker)
}

/// The declared hot modules of the `no-alloc-in-hot` rule: files whose
/// steady-state functions must not allocate. Only the named functions are
/// policed, so constructors and one-shot setup stay free to allocate.
/// These are exactly the paths the allocation-audit regions gate at run
/// time — the lint catches the regression at review time, the
/// kernel gate's steady regions catch whatever the lexer cannot see.
const HOT_MODULES: &[(&str, &[&str])] = &[
    (
        "crates/sparse/src/workrow.rs",
        &[
            "drop_pos",
            "drain_sorted_into",
            "drain_sorted_by_into",
            "add",
            "set",
            "get",
            "contains",
            "clear",
        ],
    ),
    (
        "crates/core/src/factors.rs",
        &[
            "forward_rows",
            "backward_rows",
            "row_residual",
            "solve_into",
        ],
    ),
    (
        "crates/core/src/trisolve.rs",
        &["forward_sweep_into", "backward_sweep_in_place", "replay"],
    ),
    (
        "crates/core/src/dist/exchange.rs",
        &["next_round", "ship", "exact_round", "exact_round_symmetric"],
    ),
    (
        "crates/core/src/dist/exchange/halo.rs",
        &[
            "wire_tag",
            "send_batch",
            "recv_batch",
            "send_values",
            "recv_values",
        ],
    ),
    (
        "crates/core/src/dist/op.rs",
        &["apply_into", "product_rows"],
    ),
    (
        "crates/core/src/parallel/dist_mis.rs",
        &["refresh_links", "round", "frame"],
    ),
    (
        "crates/solver/src/krylov.rs",
        &["inner_product", "norm", "residual", "solve", "solve_in"],
    ),
];

/// Entries of a hot-module table that police nothing: a file that does not
/// exist under `root`, or a function the file does not declare before its
/// test tail. Renaming either would otherwise switch the rule off silently.
fn stale_hot_modules(root: &Path, table: &[(&str, &[&str])]) -> Vec<Violation> {
    let mut out = Vec::new();
    for (file, hot_fns) in table {
        let mut stale = |text: String| out.push(Violation::new(file, 0, "no-alloc-in-hot", text));
        let Ok(content) = std::fs::read_to_string(root.join(file)) else {
            stale("declared hot module does not exist".to_string());
            continue;
        };
        let blanked = blank_noncode(&content);
        let code = blanked.lines().take_while(|l| !opens_test_tail(l));
        let declared: Vec<&str> = code.filter_map(fn_decl_name).collect();
        for f in hot_fns.iter().filter(|f| !declared.contains(f)) {
            stale(format!(
                "declared hot function `{f}` is not declared in the file"
            ));
        }
    }
    out
}

/// Allocation tokens the hot-path rule recognizes on a blanked code line.
/// The scan is a real token walk, not a substring grep: macro invocations
/// (`vec![`, `format!`) are first-class tokens, `Type::new` requires the
/// actual `Vec`/`Box`/`String` path segment on its left, and the method
/// names only fire as calls (`.collect(`), never as bare identifiers in
/// a path or pattern.
#[derive(Debug, PartialEq)]
enum HotTok<'a> {
    Ident(&'a str),
    /// `name!` — a macro invocation, bang included in the recognition.
    Macro(&'a str),
    /// `::`
    PathSep,
    /// `.`
    Dot,
    /// Any other single punctuation character (`(`, `[`, `,`, …).
    Punct(char),
}

/// Tokenizes one blanked line for the hot-path allocation scan.
fn hot_tokens(code: &str) -> Vec<HotTok<'_>> {
    let bytes = code.as_bytes();
    let mut toks = Vec::new();
    let mut i = 0;
    while i < bytes.len() {
        let c = bytes[i] as char;
        if c.is_ascii_alphabetic() || c == '_' {
            let start = i;
            while i < bytes.len()
                && ((bytes[i] as char).is_ascii_alphanumeric() || bytes[i] == b'_')
            {
                i += 1;
            }
            if bytes.get(i) == Some(&b'!') && bytes.get(i + 1) != Some(&b'=') {
                toks.push(HotTok::Macro(&code[start..i]));
                i += 1;
            } else {
                toks.push(HotTok::Ident(&code[start..i]));
            }
            continue;
        }
        if c == ':' && bytes.get(i + 1) == Some(&b':') {
            toks.push(HotTok::PathSep);
            i += 2;
            continue;
        }
        if c == '.' {
            toks.push(HotTok::Dot);
            i += 1;
            continue;
        }
        if !c.is_ascii_whitespace() && !c.is_ascii_alphanumeric() {
            toks.push(HotTok::Punct(c));
        }
        i += 1;
    }
    toks
}

/// The first allocating construct on a blanked line, by token walk:
/// `vec![` / `format!` macros, `Vec::new` / `Box::new` / `String::new`
/// paths, and the allocating method calls `.with_capacity(` / `.collect(`
/// / `.to_vec(` / `.clone(` (also reached via `::`, as in
/// `Vec::with_capacity(`).
fn hot_alloc_token(code: &str) -> Option<&'static str> {
    const ALLOC_METHODS: &[(&str, &str)] = &[
        ("with_capacity", ".with_capacity("),
        ("collect", ".collect("),
        ("to_vec", ".to_vec("),
        ("clone", ".clone("),
    ];
    let toks = hot_tokens(code);
    for (k, t) in toks.iter().enumerate() {
        match t {
            HotTok::Macro("vec") => return Some("vec!["),
            HotTok::Macro("format") => return Some("format!"),
            HotTok::Ident("new") if k >= 2 && toks[k - 1] == HotTok::PathSep => match toks[k - 2] {
                HotTok::Ident("Vec") => return Some("Vec::new"),
                HotTok::Ident("Box") => return Some("Box::new"),
                HotTok::Ident("String") => return Some("String::new"),
                _ => {}
            },
            HotTok::Ident(name) => {
                let is_call = toks.get(k + 1) == Some(&HotTok::Punct('('));
                let via_recv = k >= 1 && matches!(toks[k - 1], HotTok::Dot | HotTok::PathSep);
                if is_call && via_recv {
                    if let Some((_, tag)) = ALLOC_METHODS.iter().find(|(m, _)| m == name) {
                        return Some(tag);
                    }
                }
            }
            _ => {}
        }
    }
    None
}

/// The function name declared on a blanked line, if any.
fn fn_decl_name(code: &str) -> Option<&str> {
    let pos = code.find("fn ")?;
    // `fn` must be its own keyword, not the tail of an identifier.
    if pos > 0 && code[..pos].ends_with(|c: char| c.is_ascii_alphanumeric() || c == '_') {
        return None;
    }
    let rest = code[pos + 3..].trim_start();
    let end = rest
        .find(|c: char| !(c.is_ascii_alphanumeric() || c == '_'))
        .unwrap_or(rest.len());
    (end > 0).then(|| &rest[..end])
}

/// The `no-alloc-in-hot` rule: allocating constructs are forbidden in the
/// declared hot modules ([`HOT_MODULES`]). Escape hatch:
/// `// lint: allow(alloc-in-hot): <why>` — for genuinely cold paths inside
/// a hot file (error formatting, build-time setup the function list could
/// not express); [`apply_escapes`] applies it.
fn alloc_in_hot_violations(label: &str, lines: &[&str], blanked_lines: &[&str]) -> Vec<Violation> {
    let Some((_, hot_fns)) = HOT_MODULES.iter().find(|(file, _)| *file == label) else {
        return Vec::new();
    };
    let mut out = Vec::new();
    let mut in_hot_fn = false;
    for (i, code) in blanked_lines.iter().enumerate() {
        if let Some(name) = fn_decl_name(code) {
            in_hot_fn = hot_fns.contains(&name);
        }
        if !in_hot_fn {
            continue;
        }
        if let Some(tok) = hot_alloc_token(code) {
            let line = lines.get(i).copied().unwrap_or_default();
            let text = format!("{tok} — {}", line.trim());
            out.push(Violation::new(label, i + 1, "no-alloc-in-hot", text));
        }
    }
    out
}

/// The `no-untagged-send` rule: every `ctx.send` / `ctx.send_as` call site
/// outside `crates/par` must pass a *named* tag — a `tags::` constant or a
/// value derived from one — never a bare integer literal. Literal tags
/// bypass the protocol-namespace discipline the static `CommPlan` analysis
/// and the per-tag counters are built on (two protocols colliding on tag
/// `3` is exactly the class of bug the namespace scheme exists to prevent).
/// For `send_as`, both the wire tag and the stats tag are checked.
fn untagged_send_violations(label: &str, lines: &[&str], blanked: &str) -> Vec<Violation> {
    let mut out = Vec::new();
    for (call, tag_args) in [("ctx.send(", &[1usize][..]), ("ctx.send_as(", &[1, 2][..])] {
        let mut start = 0;
        while let Some(pos) = blanked[start..].find(call) {
            let at = start + pos;
            start = at + call.len();
            let line_idx = blanked[..at].bytes().filter(|&b| b == b'\n').count();
            let args = &blanked[at + call.len()..];
            let literal = |&k: &usize| {
                let arg = nth_top_level_arg(args, k);
                arg.is_some_and(|a| a.trim().starts_with(|c: char| c.is_ascii_digit()))
            };
            if tag_args.iter().any(literal) {
                let text = lines.get(line_idx).copied().unwrap_or_default();
                out.push(Violation::new(
                    label,
                    line_idx + 1,
                    "no-untagged-send",
                    text,
                ));
            }
        }
    }
    out
}

/// Argument `k` (0-based) of a call whose argument list starts at the
/// beginning of `s` (just past the opening paren): splits on top-level
/// commas, tracking bracket depth so nested calls and literals don't
/// confuse the count. `None` when the list ends first.
fn nth_top_level_arg(s: &str, k: usize) -> Option<&str> {
    let mut depth = 0usize;
    let mut arg_start = 0usize;
    let mut idx = 0usize;
    for (i, c) in s.char_indices() {
        match c {
            '(' | '[' | '{' => depth += 1,
            ')' | ']' | '}' => {
                if depth == 0 {
                    return (idx == k).then(|| &s[arg_start..i]);
                }
                depth -= 1;
            }
            ',' if depth == 0 => {
                if idx == k {
                    return Some(&s[arg_start..i]);
                }
                idx += 1;
                arg_start = i + 1;
            }
            _ => {}
        }
    }
    None
}

/// Whether a blanked code line declares a `static` item: the keyword as a
/// word of its own followed by a space (`static X`, `pub(crate) static X`,
/// `static mut X`, an entry of `thread_local!`). The lifetime `'static`
/// keeps its quote in the blanked text and never matches.
fn declares_static(code: &str) -> bool {
    const KW: &str = "static";
    code.match_indices(KW).any(|(at, _)| {
        let before = code[..at].chars().next_back();
        let after = code[at + KW.len()..].chars().next();
        let glued = |c: char| c == '\'' || c == '_' || c.is_ascii_alphanumeric();
        !before.is_some_and(glued) && after.is_some_and(char::is_whitespace)
    })
}

/// A whole-file lexer that replaces every non-code character with a space:
/// line comments (including `///` and `//!` docs), nested block comments,
/// and the bodies of string, raw-string, byte-string, and char literals.
/// Newlines are preserved so the output lines up with the input
/// line-for-line, and literal *delimiters* are kept so the blanked text
/// still reads as shaped code. Lifetimes (`'a`) are recognized and left
/// intact rather than being mistaken for an unterminated char literal —
/// the failure mode that forced the old per-line stripper to ignore
/// multi-line constructs entirely.
fn blank_noncode(content: &str) -> String {
    let chars: Vec<char> = content.chars().collect();
    let n = chars.len();
    let mut out = String::with_capacity(content.len());
    let blank = |out: &mut String, c: char| out.push(if c == '\n' { '\n' } else { ' ' });
    let mut i = 0;
    while i < n {
        let c = chars[i];
        // Line comment — blank to end of line (the newline itself is kept
        // by the outer loop).
        if c == '/' && chars.get(i + 1) == Some(&'/') {
            while i < n && chars[i] != '\n' {
                out.push(' ');
                i += 1;
            }
            continue;
        }
        // Block comment — Rust nests them.
        if c == '/' && chars.get(i + 1) == Some(&'*') {
            let mut depth = 0usize;
            while i < n {
                if chars[i] == '/' && chars.get(i + 1) == Some(&'*') {
                    depth += 1;
                    out.push_str("  ");
                    i += 2;
                } else if chars[i] == '*' && chars.get(i + 1) == Some(&'/') {
                    depth -= 1;
                    out.push_str("  ");
                    i += 2;
                    if depth == 0 {
                        break;
                    }
                } else {
                    blank(&mut out, chars[i]);
                    i += 1;
                }
            }
            continue;
        }
        // Identifiers are consumed whole so a trailing `r`/`b`/`br` can be
        // recognized as a literal prefix rather than the tail of some
        // longer name (`four"…"` is not a raw string).
        if c.is_ascii_alphabetic() || c == '_' {
            let start = i;
            while i < n && (chars[i].is_ascii_alphanumeric() || chars[i] == '_') {
                i += 1;
            }
            let ident: String = chars[start..i].iter().collect();
            let prefix = matches!(ident.as_str(), "r" | "b" | "br");
            if prefix && chars.get(i).is_some_and(|&c| c == '"' || c == '#') {
                // Raw / byte string: count the hashes, then scan for the
                // matching `"##…` terminator. `b"…"` has zero hashes and no
                // raw semantics, but its body is blanked the same way —
                // escapes only matter for finding the closing quote, which
                // the non-raw branch below handles; byte strings reuse it.
                out.push_str(&ident);
                if ident == "b" && chars.get(i) == Some(&'"') {
                    i = blank_plain_string(&chars, i, &mut out);
                    continue;
                }
                let mut hashes = 0usize;
                while chars.get(i) == Some(&'#') {
                    out.push('#');
                    hashes += 1;
                    i += 1;
                }
                if chars.get(i) != Some(&'"') {
                    continue; // `r#ident` raw identifier, not a string
                }
                out.push('"');
                i += 1;
                while i < n {
                    if chars[i] == '"'
                        && chars[i + 1..]
                            .iter()
                            .take(hashes)
                            .filter(|&&h| h == '#')
                            .count()
                            == hashes
                    {
                        out.push('"');
                        for _ in 0..hashes {
                            out.push('#');
                        }
                        i += 1 + hashes;
                        break;
                    }
                    blank(&mut out, chars[i]);
                    i += 1;
                }
            } else {
                out.push_str(&ident);
            }
            continue;
        }
        // Plain string literal.
        if c == '"' {
            i = blank_plain_string(&chars, i, &mut out);
            continue;
        }
        // Char literal vs lifetime/loop label.
        if c == '\'' {
            if chars.get(i + 1) == Some(&'\\') {
                // Escaped char literal: `'\n'`, `'\''`, `'\u{7f}'`, …
                out.push('\'');
                i += 1;
                while i < n && chars[i] != '\'' {
                    if chars[i] == '\\' && i + 1 < n {
                        out.push_str("  ");
                        i += 2;
                    } else {
                        blank(&mut out, chars[i]);
                        i += 1;
                    }
                }
                if i < n {
                    out.push('\'');
                    i += 1;
                }
            } else if chars.get(i + 2) == Some(&'\'') {
                // Simple char literal `'x'` — including `'"'`, which is why
                // this case is checked before anything quote-related.
                out.push_str("' '");
                i += 3;
            } else {
                // Lifetime or loop label: plain code.
                out.push('\'');
                i += 1;
            }
            continue;
        }
        out.push(c);
        i += 1;
    }
    out
}

/// Blanks one `"…"` literal starting at `chars[i] == '"'`, honoring
/// backslash escapes; returns the index one past the closing quote.
fn blank_plain_string(chars: &[char], mut i: usize, out: &mut String) -> usize {
    out.push('"');
    i += 1;
    while i < chars.len() {
        match chars[i] {
            '\\' if i + 1 < chars.len() => {
                out.push(' ');
                // Keep escaped newlines (line continuations) as newlines so
                // line alignment survives.
                out.push(if chars[i + 1] == '\n' { '\n' } else { ' ' });
                i += 2;
            }
            '"' => {
                out.push('"');
                return i + 1;
            }
            c => {
                out.push(if c == '\n' { '\n' } else { ' ' });
                i += 1;
            }
        }
    }
    i
}

/// Detects `== <float literal>` / `!= <float literal>` (either side).
fn float_literal_cmp(code: &str) -> bool {
    for op in ["==", "!="] {
        let mut start = 0;
        while let Some(pos) = code[start..].find(op) {
            let at = start + pos;
            // Skip `<=`, `>=`, `!=` matched inside `==` scans and pattern
            // guards like `=>`.
            let before = &code[..at];
            let after = &code[at + 2..];
            if op == "==" && before.ends_with(['<', '>', '!', '=']) {
                start = at + 2;
                continue;
            }
            if is_float_token(last_token(before)) || is_float_token(first_token(after)) {
                return true;
            }
            start = at + 2;
        }
    }
    false
}

fn last_token(s: &str) -> &str {
    let trimmed = s.trim_end();
    let cut = trimmed
        .rfind(|c: char| !(c.is_ascii_alphanumeric() || c == '.' || c == '_' || c == '-'))
        .map_or(0, |p| p + 1);
    &trimmed[cut..]
}

fn first_token(s: &str) -> &str {
    let trimmed = s.trim_start();
    let cut = trimmed
        .find(|c: char| !(c.is_ascii_alphanumeric() || c == '.' || c == '_' || c == '-'))
        .unwrap_or(trimmed.len());
    &trimmed[..cut]
}

/// A token "looks like a float literal" when it parses as one and is not
/// an integer literal or an identifier/path segment.
fn is_float_token(tok: &str) -> bool {
    let tok = tok.strip_prefix('-').unwrap_or(tok);
    if tok.is_empty() || !tok.starts_with(|c: char| c.is_ascii_digit()) {
        return false;
    }
    let tok = tok
        .strip_suffix("f64")
        .or_else(|| tok.strip_suffix("f32"))
        .unwrap_or(tok);
    let tok = tok.strip_suffix('_').unwrap_or(tok);
    (tok.contains('.') || tok.contains(['e', 'E'])) && tok.parse::<f64>().is_ok()
}

/// Flags a `pub fn` with no doc comment or doc attribute above it. The
/// declaration is matched on the blanked `code` line (so the phrase inside
/// a string can't fire), but the doc search walks the *raw* lines — doc
/// comments are exactly what the lexer blanks out.
fn missing_doc_violation(label: &str, lines: &[&str], i: usize, code: &str) -> Option<Violation> {
    let trimmed = code.trim_start();
    let is_pub_fn = trimmed.starts_with("pub fn ")
        || trimmed.starts_with("pub const fn ")
        || trimmed.starts_with("pub unsafe fn ");
    if !is_pub_fn {
        return None;
    }
    // Walk upward over attributes and blank lines looking for docs.
    let mut j = i;
    while j > 0 {
        j -= 1;
        let above = lines[j].trim_start();
        if above.starts_with("///") || above.starts_with("#[doc") || above.starts_with("#![doc") {
            return None;
        }
        if above.starts_with("#[") || above.starts_with("#![") || above.is_empty() {
            continue;
        }
        break;
    }
    Some(Violation::new(label, i + 1, "doc-pub-fn", lines[i]))
}

/// Dependency names allowed anywhere in the repo: the in-repo crates and
/// the root facade (which the standalone `benchmark/` package drives).
const DEP_ALLOWLIST: &[&str] = &[
    "pilut",
    "pilut-sparse",
    "pilut-graph",
    "pilut-par",
    "pilut-core",
    "pilut-solver",
    "pilut-allocaudit",
];

/// Manifest rule: every dependency name in any `[…dependencies…]` table,
/// and the name a dotted dependency table is headed by
/// (`[dependencies.name]`, `[target.'…'.dependencies.name]`), must be on
/// the allowlist.
fn lint_manifest(label: &str, content: &str) -> Vec<Violation> {
    let mut out = Vec::new();
    let mut in_dep_table = false;
    for (i, raw) in content.lines().enumerate() {
        let line = raw.trim();
        let name = if let Some(header) = line.strip_prefix('[') {
            // `[dependencies]`, `[dev-dependencies]`, `[workspace.dependencies]`,
            // `[target.'…'.dependencies]`, … — anything ending in `dependencies]`
            // lists dependencies; a dotted table names one, by its last segment.
            let header = header.trim_end_matches(']');
            in_dep_table = header.ends_with("dependencies");
            header
                .rsplit_once("dependencies.")
                .map_or("", |(_, name)| name)
        } else if !in_dep_table || line.starts_with('#') {
            continue;
        } else {
            line.split(['=', '.', ' ', '\t']).next().unwrap_or("")
        };
        let name = name.trim_matches('"');
        if !name.is_empty() && !DEP_ALLOWLIST.contains(&name) {
            out.push(Violation::new(label, i + 1, "dep-allowlist", raw));
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    fn rules(vs: &[Violation]) -> Vec<&'static str> {
        vs.iter().map(|v| v.rule).collect()
    }

    #[test]
    fn workspace_is_clean() {
        let violations = run_lint(&workspace_root());
        assert!(
            violations.is_empty(),
            "xtask lint found {} violation(s):\n{}",
            violations.len(),
            violations
                .iter()
                .map(|v| format!("  {v}\n"))
                .collect::<String>()
        );
    }

    #[test]
    fn test_module_tail_is_exempt() {
        let src =
            "fn f() {}\n#[cfg(test)]\nmod tests {\n    fn g(x: f64) -> bool { x == 0.5 }\n}\n";
        assert!(lint_source("crates/fake/src/a.rs", src).is_empty());
    }

    #[test]
    fn escapes_cover_their_line_and_the_next() {
        let same = "fn f(x: f64) -> bool { x == 0.0 } // lint: allow(float-eq): assigned\n";
        assert!(lint_source("crates/fake/src/a.rs", same).is_empty());
        let above = "// lint: allow(float-eq): assigned\nfn f(x: f64) -> bool { x == 0.0 }\n";
        assert!(lint_source("crates/fake/src/a.rs", above).is_empty());
        // One escape per finding: the second comparison is reported.
        let two = "// lint: allow(float-eq): assigned\nfn f(x: f64) -> bool {\n    x == 0.0\n}\n";
        let got = lint_source("crates/fake/src/a.rs", two);
        assert_eq!(rules(&got), vec!["no-float-eq", "stale-escape"]);
        assert_eq!((got[0].line, got[1].line), (3, 1));
    }

    #[test]
    fn stale_escapes_are_violations() {
        // Planted: an escape with nothing to suppress on its line or the
        // next, an escape of another rule than the one that fires, and an
        // escape of a rule this lint does not hold.
        for (src, line) in [
            (
                "fn f() {}\n// lint: allow(float-eq): was a comparison\nfn g() {}\n",
                2,
            ),
            (
                "fn f(x: f64) -> bool { x == 0.0 } // lint: allow(global-state): wrong rule\n",
                1,
            ),
            (
                "fn f() {} // lint: allow(no-such-rule): not a rule of this lint\n",
                1,
            ),
        ] {
            let got = lint_source("crates/fake/src/a.rs", src);
            let stale: Vec<&Violation> = got.iter().filter(|v| v.rule == "stale-escape").collect();
            assert_eq!(stale.len(), 1, "{src}");
            assert_eq!(stale[0].line, line, "{src}");
        }
        // A used escape, a doc comment or string that mentions one, and an
        // escape in the test tail are not stale.
        for ok in [
            "static R: u8 = 0; // lint: allow(global-state): the one registry\n",
            "/// Write `// lint: allow(float-eq): <why>`.\nfn f() {}\n",
            "fn f() -> &'static str { \"// lint: allow(float-eq)\" }\n",
            "fn f() {}\n#[cfg(test)]\nmod tests {\n    // lint: allow(float-eq): stale\n}\n",
        ] {
            assert!(lint_source("crates/core/src/a.rs", ok).is_empty(), "{ok}");
        }
    }

    #[test]
    fn planted_float_eq_is_caught() {
        let bad = "fn f(x: f64) -> bool { x == 0.0 }\n";
        assert_eq!(
            rules(&lint_source("crates/fake/src/a.rs", bad)),
            vec!["no-float-eq"]
        );
        let bad2 = "fn f(x: f64) -> bool { 1e-6 != x }\n";
        assert_eq!(
            rules(&lint_source("crates/fake/src/a.rs", bad2)),
            vec!["no-float-eq"]
        );
    }

    #[test]
    fn integer_and_ge_comparisons_are_fine() {
        for ok in [
            "fn f(x: usize) -> bool { x == 0 }\n",
            "fn f(x: f64) -> bool { x <= 0.5 }\n",
            "fn f(x: f64) -> bool { x >= 0.5 }\n",
        ] {
            assert!(lint_source("crates/fake/src/a.rs", ok).is_empty(), "{ok}");
        }
    }

    #[test]
    fn string_and_comment_content_does_not_fire() {
        let src = "fn f() { let s = \"x == 0.0 static X\"; } // y == 1.5; static Y\n";
        assert!(lint_source("crates/fake/src/a.rs", src).is_empty());
    }

    #[test]
    fn untagged_send_is_caught_outside_par() {
        // A literal tag defeats the namespace discipline even where raw
        // comm itself is legal — and the scan crosses line breaks.
        let bad = "fn f(ctx: &mut Ctx) {\n    ctx.send(peer,\n        7,\n        p);\n}\n";
        let got = lint_source("crates/core/src/dist/exchange.rs", bad);
        assert_eq!(rules(&got), vec!["no-untagged-send"]);
        assert_eq!(got[0].line, 2, "reported at the call line");
        // `send_as` checks the stats tag too, not just the wire tag.
        let bad_as = "fn f(ctx: &mut Ctx) { ctx.send_as(peer, wire, 42, p); }\n";
        assert_eq!(
            rules(&lint_source("crates/core/src/dist/exchange.rs", bad_as)),
            vec!["no-untagged-send"]
        );
        // Named constants and tags derived from them pass; nested calls in
        // earlier arguments don't shift the argument count.
        let good = "fn f(ctx: &mut Ctx) {\n    ctx.send(peer, tags::SPMV, p);\n    ctx.send_as(dest(q, 1), base + round, tags::FWD, p);\n}\n";
        assert!(lint_source("crates/core/src/dist/exchange.rs", good).is_empty());
        // The VM crate is exempt; the marker and the test tail opt out.
        assert!(lint_source("crates/par/src/a.rs", bad).is_empty());
        let marked = "// lint: allow(untagged-send): loopback probe\nfn f(ctx: &mut Ctx) { ctx.send(peer, 7, p); }\n";
        assert!(lint_source("crates/core/src/dist/exchange.rs", marked).is_empty());
        let tail = "fn f() {}\n#[cfg(test)]\nmod tests {\n    fn g(ctx: &mut Ctx) { ctx.send(0, 9, p); }\n}\n";
        assert!(lint_source("crates/core/src/dist/exchange.rs", tail).is_empty());
    }

    #[test]
    fn alloc_in_hot_catches_every_construct() {
        // A hot function: each construct fires as its own violation, and
        // macro invocations are matched as tokens — `vec![` and `format!`
        // are first-class, `avec![` is some other macro.
        let hot = "crates/core/src/dist/op.rs";
        let bad = "fn apply_into() {\n    let a = Vec::new();\n    let b = vec![0.0; 4];\n    let c = Vec::with_capacity(8);\n    let d = xs.iter().collect();\n    let e = xs.to_vec();\n    let f = xs.clone();\n    let g = Box::new(0);\n    let h = format!(\"x\");\n    let i = String::new();\n}\n";
        assert_eq!(rules(&lint_source(hot, bad)), vec!["no-alloc-in-hot"; 9]);
        // A cold file with the same body is untouched.
        assert!(lint_source("crates/fake/src/a.rs", bad).is_empty());
    }

    #[test]
    fn alloc_in_hot_macro_tokens_do_not_false_positive() {
        let hot = "crates/core/src/dist/op.rs";
        for ok in [
            // `vec!` inside a string or comment is blanked before the walk.
            "fn apply_into() { let s = \"vec![0; 4]\"; } // vec![format!]\n",
            // Some other macro ending in `vec`, and `Clone` in a bound.
            "fn apply_into<T: Clone>() { avec![1]; assert_ne!(a, b); }\n",
            // `cloned()` / `collected` are different identifiers.
            "fn apply_into() { xs.iter().cloned().sum::<f64>(); let collected = 0; }\n",
            // A field access named `clone` without a call doesn't fire.
            "fn apply_into() { let c = self.clone_count; }\n",
        ] {
            assert!(lint_source(hot, ok).is_empty(), "{ok}");
        }
    }

    #[test]
    fn alloc_in_hot_respects_function_lists() {
        // factors.rs polices only the solve functions: a constructor may
        // allocate, the hot sweep may not.
        let label = "crates/core/src/factors.rs";
        let src = "impl F {\n    /// Constructor — free to allocate.\n    pub fn from_pairs() -> Self {\n        let v: Vec<f64> = it.collect();\n        Self { v }\n    }\n    /// Hot sweep — policed.\n    pub fn forward_rows(&self, b: &mut [f64]) {\n        let tmp = b.to_vec();\n    }\n}\n";
        let got = lint_source(label, src);
        assert_eq!(rules(&got), vec!["no-alloc-in-hot"]);
        assert_eq!(got[0].line, 9, "only the line inside the hot fn");
    }

    #[test]
    fn alloc_in_hot_escape_and_test_tail() {
        let hot = "crates/core/src/dist/op.rs";
        let marked = "fn apply_into() {\n    // lint: allow(alloc-in-hot): first-round warm-up only\n    let v = Vec::with_capacity(4);\n}\n";
        assert!(lint_source(hot, marked).is_empty());
        let tail = "fn apply_into() {}\n#[cfg(test)]\nmod tests {\n    fn apply_into() { let v = vec![1]; }\n}\n";
        assert!(lint_source(hot, tail).is_empty());
    }

    #[test]
    fn hot_module_entries_that_name_nothing_are_violations() {
        // The live table polices what it names ...
        let root = workspace_root();
        assert!(rules(&stale_hot_modules(&root, HOT_MODULES)).is_empty());
        // ... and a planted rename is reported, not silently unpoliced: a
        // file that is gone, and a function its file does not declare
        // (`forward_sweep_into` it does; a name only a comment or a test
        // mentions it does not).
        let planted: &[(&str, &[&str])] = &[
            ("crates/core/src/dist/exchange/replay.rs", &["replay"]),
            (
                "crates/core/src/trisolve.rs",
                &["forward_sweep_into", "sweep_into"],
            ),
        ];
        let got = stale_hot_modules(&root, planted);
        assert_eq!(rules(&got), vec!["no-alloc-in-hot"; 2]);
        assert!(got[0].text.contains("does not exist"), "{}", got[0]);
        assert!(got[1].text.contains("`sweep_into`"), "{}", got[1]);
    }

    #[test]
    fn alloc_in_hot_sees_multi_line_calls() {
        // The allocating token is flagged on its own line even when the
        // call spans lines — the walk is per physical line of blanked code.
        let hot = "crates/core/src/dist/op.rs";
        let src = "fn apply_into() {\n    let v: Vec<f64> = xs\n        .iter()\n        .map(|x| x * 2.0)\n        .collect();\n}\n";
        let got = lint_source(hot, src);
        assert_eq!(rules(&got), vec!["no-alloc-in-hot"]);
        assert_eq!(got[0].line, 5, "reported at the `.collect()` line");
    }

    #[test]
    fn lexer_blanks_block_comments_and_raw_strings() {
        // Every construct the old per-line stripper could not see.
        let src = "fn f() {\n    /* x == 0.0\n       still comment */\n    let s = r#\"g() == 0.0\"#;\n    let b = b\"static X\";\n}\n";
        assert!(lint_source("crates/fake/src/a.rs", src).is_empty());
        // Nested block comments stay blanked to the outermost close.
        let nested = "fn f() {\n    /* a /* b == 0.0 */ c == 1.0 */\n}\n";
        assert!(lint_source("crates/fake/src/a.rs", nested).is_empty());
    }

    #[test]
    fn lexer_handles_char_literals_and_lifetimes() {
        // `'"'` must not open a string; lifetimes must not open a char
        // literal that swallows the rest of the file.
        let src = "fn f<'a>(x: &'a str) -> bool {\n    let q = '\"';\n    let e = '\\'';\n    x.contains(q) && g() == 0.5\n}\n";
        assert_eq!(
            rules(&lint_source("crates/fake/src/a.rs", src)),
            vec!["no-float-eq"]
        );
    }

    #[test]
    fn lexer_preserves_line_numbers() {
        let src = "line one\n\"string\nspanning\nlines\"\nlet x = 1;\n";
        let blanked = blank_noncode(src);
        assert_eq!(src.lines().count(), blanked.lines().count());
        assert_eq!(blanked.lines().last(), Some("let x = 1;"));
    }

    #[test]
    fn cfg_test_inside_a_string_does_not_start_the_test_tail() {
        let src = "fn f() { let s = \"#[cfg(test)]\"; }\nfn g() -> bool { h() == 0.5 }\n";
        assert_eq!(
            rules(&lint_source("crates/fake/src/a.rs", src)),
            vec!["no-float-eq"]
        );
    }

    #[test]
    fn global_state_is_caught_in_library_crates() {
        for bad in [
            "static POOL: Mutex<Vec<f64>> = Mutex::new(Vec::new());\n",
            "pub(crate) static mut HITS: u64 = 0;\n",
            "thread_local! {\n    static SCRATCH: RefCell<Vec<u8>> = RefCell::new(Vec::new());\n}\n",
        ] {
            assert_eq!(
                rules(&lint_source("crates/par/src/pool.rs", bad)),
                vec!["no-global-state"],
                "{bad}"
            );
            assert_eq!(
                rules(&lint_source("src/lib.rs", bad)),
                vec!["no-global-state"]
            );
            // The binary crate may keep process state.
            assert!(lint_source("crates/xtask/src/main.rs", bad).is_empty());
        }
    }

    #[test]
    fn static_lifetimes_and_marked_statics_are_fine() {
        for ok in [
            "fn f(s: &'static str) -> Box<dyn Fn() + 'static> { todo!() }\n",
            "const NAME: &'static str = \"static x\"; // a static in prose\n",
            "fn f<T: 'static>(x: T) { let statics = 1; let _ = x; }\n",
            "// lint: allow(global-state): the one process-wide registry\nstatic R: u8 = 0;\n",
            "fn f() {}\n#[cfg(test)]\nmod tests {\n    static LOCK: Mutex<()> = Mutex::new(());\n}\n",
        ] {
            assert!(lint_source("crates/core/src/a.rs", ok).is_empty(), "{ok}");
        }
    }

    #[test]
    fn undocumented_pub_fn_is_caught() {
        let bad = "impl A {\n    pub fn f() {}\n}\n";
        assert_eq!(
            rules(&lint_source("crates/fake/src/a.rs", bad)),
            vec!["doc-pub-fn"]
        );
        let good = "impl A {\n    /// Does f.\n    #[inline]\n    pub fn f() {}\n}\n";
        assert!(lint_source("crates/fake/src/a.rs", good).is_empty());
        // The doc rule is scoped to crates/*/src.
        assert!(lint_source("src/lib.rs", bad).is_empty());
    }

    #[test]
    fn rogue_dependency_is_caught() {
        let bad = "[package]\nname = \"x\"\n[dependencies]\nserde = \"1\"\n";
        assert_eq!(
            rules(&lint_manifest("crates/fake/Cargo.toml", bad)),
            vec!["dep-allowlist"]
        );
    }

    #[test]
    fn dotted_dependency_tables_are_checked_by_name() {
        // A dotted table names its dependency in the header; its keys
        // (`version`, `path`, …) are not dependencies.
        let bad = "[dependencies.serde]\nversion = \"1\"\n\n[target.'cfg(unix)'.dependencies.libc]\nversion = \"0.2\"\n";
        let got = lint_manifest("crates/fake/Cargo.toml", bad);
        assert_eq!(rules(&got), vec!["dep-allowlist"; 2]);
        assert_eq!((got[0].line, got[1].line), (1, 4));
        let ok = "[dependencies.pilut-sparse]\npath = \"../sparse\"\n[dev-dependencies.\"pilut-par\"]\nworkspace = true\n";
        assert!(lint_manifest("crates/fake/Cargo.toml", ok).is_empty());
    }

    #[test]
    fn in_repo_path_deps_are_fine_and_no_crate_gets_a_registry_exception() {
        let ok =
            "[dependencies]\npilut-sparse = { workspace = true }\npilut-par.workspace = true\n";
        assert!(lint_manifest("crates/fake/Cargo.toml", ok).is_empty());
        // The standalone benchmark package depends on the root facade.
        let facade = "[workspace]\n\n[dependencies]\npilut = { path = \"..\" }\n";
        assert!(lint_manifest("benchmark/Cargo.toml", facade).is_empty());
        let criterion = "[dev-dependencies]\ncriterion = \"0.5\"\n";
        assert_eq!(
            rules(&lint_manifest("crates/fake/Cargo.toml", criterion)),
            vec!["dep-allowlist"]
        );
    }

    #[test]
    fn feature_gated_test_modules_are_test_tails_too() {
        let src = "fn f() {}\n#[cfg(all(test, feature = \"audit\"))]\nmod tests {\n    \
                   fn t() -> bool { g() == 0.5 }\n}\n";
        assert_eq!(crate::code_and_test_lines(src), (1, 4));
        assert!(lint_source("crates/fake/src/a.rs", src).is_empty());
        // Any other `all(…)` is still code.
        let code = src.replace("all(test,", "all(unix,");
        assert_eq!(crate::code_and_test_lines(&code), (5, 0));
        assert_eq!(
            rules(&lint_source("crates/fake/src/a.rs", &code)),
            vec!["no-float-eq"]
        );
    }
}
