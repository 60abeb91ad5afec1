//! `xtask` — in-repo workspace automation:
//!
//! * `cargo run -p xtask -- lint` — the repo-local rules clippy lacks: one
//!   table of per-line rules plus the scanners that need more than a line
//!   (see [`lint`]). Clippy holds `no-unwrap`, `no-hash-order`,
//!   `par-confinement` and `no-raw-comm` (the root `Cargo.toml`'s
//!   `[workspace.lints.clippy]` and `clippy.toml`); their escape is
//!   `#[expect(clippy::<lint>, reason = "…")]`.
//! * `cargo run -p xtask --release -- chaos` — the seeded destructive
//!   fault-injection suite (see [`chaos`]).
//! * `cargo run -p xtask --release -- schedcheck` — the
//!   bitwise-determinism sanitizer: seeded workloads re-run under
//!   perturbed schedules must reproduce identical results and traffic
//!   (see [`schedcheck`]).
//! * `cargo run -p xtask --release -- paper [--check] [--record]` — the
//!   paper's tables and figures, regenerated and exact-diffed (see
//!   [`paper`]); its `kernels` experiment is the kernel gate, which runs
//!   every scenario untimed and fails the task on a broken traffic or
//!   allocation invariant before it renders the scenarios' deterministic
//!   counts (see [`mod@bench`]; wall time is the `benchmark/` package's).
//! * `cargo run -p xtask -- loc` — code lines and test lines per crate (see
//!   [`code_and_test_lines`]) and the bytes of the top-level `*.md` files,
//!   the tracked size columns of ROADMAP aim 2.

#![allow(
    rustdoc::private_intra_doc_links,
    reason = "a binary's crate docs link its private modules"
)]

use std::path::{Path, PathBuf};
use std::process::ExitCode;

mod bench;
mod chaos;
mod lint;
mod paper;
mod schedcheck;
mod sweep;

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let cmd = args.first().map_or("", String::as_str);
    let Some(task) = task(cmd) else {
        eprintln!(
            "usage: cargo run -p xtask -- lint | chaos | schedcheck \
             | paper [--check] [--record] | loc"
        );
        return ExitCode::FAILURE;
    };
    match task(&args[1..]) {
        Ok(()) => ExitCode::SUCCESS,
        Err(e) => {
            eprintln!("xtask {cmd}: {e}");
            ExitCode::FAILURE
        }
    }
}

/// One subcommand: its arguments in, a one-line error out.
type Task = fn(&[String]) -> Result<(), String>;

/// The task a subcommand names; `None` is a usage error.
fn task(cmd: &str) -> Option<Task> {
    Some(match cmd {
        "chaos" => chaos::run,
        "schedcheck" => schedcheck::run,
        "paper" => paper::run,
        "lint" => lint::run,
        "loc" => loc_task,
        _ => return None,
    })
}

/// Whether a line of code opens its file's test tail — the convention of
/// this repo, shared by `loc` and every lint rule: the test module is the
/// end of the file, under `#[cfg(test)]` or, for tests that also need a
/// feature, `#[cfg(all(test, …))]`.
fn opens_test_tail(code: &str) -> bool {
    let attr = code.trim_start();
    attr.starts_with("#[cfg(test)]") || attr.starts_with("#[cfg(all(test,")
}

/// `(code, test)` lines of one source file, counting non-blank lines that
/// are not comment-only: code is everything before the file's test tail
/// ([`opens_test_tail`]), test the rest.
fn code_and_test_lines(content: &str) -> (usize, usize) {
    let (mut counts, mut in_tests) = ([0, 0], false);
    for line in content.lines().map(str::trim) {
        in_tests |= opens_test_tail(line);
        counts[usize::from(in_tests)] += usize::from(!line.is_empty() && !line.starts_with("//"));
    }
    (counts[0], counts[1])
}

/// `loc`: code and test lines for the root facade and for every crate under
/// `crates/` in path order, then the totals. A crate's test column is its
/// `#[cfg(test)]` tails plus everything under its `tests/` directory, so
/// code moved into tests shows up instead of vanishing.
fn loc_task(_args: &[String]) -> Result<(), String> {
    let root = workspace_root();
    let mut crates: Vec<PathBuf> = std::fs::read_dir(root.join("crates"))
        .map_err(|e| format!("crates/: {e}"))?
        .flatten()
        .map(|e| e.path())
        .collect();
    crates.sort();
    crates.insert(0, root.clone());
    let count = |dir: PathBuf| {
        let read = |f: PathBuf| std::fs::read_to_string(f).ok();
        let contents = rust_files(&dir).into_iter().filter_map(read);
        contents.fold((0, 0), |(c, t), content| {
            let (code, test) = code_and_test_lines(&content);
            (c + code, t + test)
        })
    };
    let (mut code_total, mut test_total) = (0, 0);
    println!("   code    test");
    for dir in crates.iter().filter(|dir| dir.join("src").is_dir()) {
        let (src, outside) = (count(dir.join("src")), count(dir.join("tests")));
        let (code, test) = (src.0, src.1 + outside.0 + outside.1);
        let label = rel_label(&root, &dir.join("src"));
        println!("{code:>7} {test:>7}  {label}");
        code_total += code;
        test_total += test;
    }
    println!(
        "{code_total:>7} {test_total:>7}  total (non-blank, not comment-only lines; code: src before \
         the test tail, #[cfg(test)] or #[cfg(all(test, ..))]; test: from it on, plus tests/)"
    );
    let entries = std::fs::read_dir(&root).map_err(|e| e.to_string())?;
    let mut docs: Vec<(String, u64)> = (entries.flatten())
        .filter_map(|e| Some((e.file_name().into_string().ok()?, e.metadata().ok()?.len())))
        .filter(|(name, _)| name.ends_with(".md"))
        .collect();
    docs.sort();
    let total: u64 = docs.iter().map(|d| d.1).sum();
    let each: Vec<String> = docs.iter().map(|(name, b)| format!("{name} {b}")).collect();
    let each = each.join(", ");
    println!("{total:>7} doc bytes  (top-level *.md: {each})");
    Ok(())
}

/// The repo root, resolved from this crate's manifest directory so the
/// task works from any working directory.
#[expect(clippy::unwrap_used, reason = "CARGO_MANIFEST_DIR is two levels deep")]
fn workspace_root() -> PathBuf {
    Path::new(env!("CARGO_MANIFEST_DIR"))
        .parent()
        .unwrap()
        .parent()
        .unwrap()
        .to_path_buf()
}

/// All `.rs` files under `dir`, recursively.
fn rust_files(dir: &Path) -> Vec<PathBuf> {
    let mut out = Vec::new();
    walk(dir, &mut |p| {
        if p.extension().is_some_and(|e| e == "rs") {
            out.push(p.to_path_buf());
        }
    });
    out.sort();
    out
}

fn walk(dir: &Path, visit: &mut dyn FnMut(&Path)) {
    let Ok(entries) = std::fs::read_dir(dir) else {
        return;
    };
    for entry in entries.flatten() {
        let path = entry.path();
        if path.is_dir() {
            let name = entry.file_name();
            if name == "target" || name == ".git" {
                continue;
            }
            walk(&path, visit);
        } else {
            visit(&path);
        }
    }
}

fn rel_label(root: &Path, file: &Path) -> String {
    file.strip_prefix(root)
        .unwrap_or(file)
        .display()
        .to_string()
        .replace('\\', "/")
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn loc_skips_blanks_and_comments_and_splits_at_the_test_tail() {
        let src = "//! Docs.\n\nuse a::b;\n/// Doc.\nfn f() {\n    g(); // trailing\n}\n\n\
                   #[cfg(test)]\nmod tests {\n    fn t() {}\n}\n";
        assert_eq!(code_and_test_lines(src), (4, 4));
        assert_eq!(code_and_test_lines(""), (0, 0));
    }
}
