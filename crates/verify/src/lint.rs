//! The workspace lint.
//!
//! Scans the non-test Rust sources of the communication and engine
//! crates for patterns that the fault-injection work showed to be
//! reliability hazards:
//!
//! * **`comm-unwrap`** — `.unwrap()` or `.expect(` on the same line as a
//!   communication call. A fabric error must surface as a typed
//!   [`zero_comm::CommError`], not a panic that deadlocks the peers still
//!   waiting inside the collective.
//! * **`untimed-recv`** — a bare `.recv()` on a channel. Blocking forever
//!   on a dead peer is exactly the failure mode elastic training guards
//!   against; use `recv_timeout`.
//! * **`lossy-byte-cast`** — a narrowing `as` cast on a line doing byte
//!   accounting. Traffic counters are `u64`; truncating them silently
//!   invalidates every volume identity the schedule checker proves.
//! * **`lossy-quant-cast`** — a narrowing `as` cast to a small integer on
//!   a line doing quantization. Codes must be produced by the checked
//!   clamp-and-round helpers; a raw `as i8`/`as u8` silently wraps
//!   out-of-range values and corrupts the compressed wire format instead
//!   of saturating it.
//! * **`blocking-flush`** — a *blocking* collective wrapper called inside
//!   a gradient-bucket flush closure (a `.flush_all(…)` call region). The
//!   flush closure is the single code path for both synchronous and
//!   overlapped execution: it must launch the reduce-scatter through the
//!   non-blocking `start_*` API and park the handle (sync mode settles it
//!   right after the flush, overlap mode at end-of-backward), so a direct
//!   `.reduce_scatter(…)` there silently forfeits
//!   backward/communication overlap.
//! * **`condvar-wait-unlooped`** — a `Condvar` `wait(…)`/`wait_timeout(…)`
//!   call outside a `while`/`loop` body. Condvar waits wake spuriously
//!   and can race a notify against the predicate check, so the wait must
//!   sit inside a loop that re-checks its predicate — exactly the shape
//!   `zero-verify --pass modelcheck` proves correct for the op desk. A
//!   bare `if`-guarded wait is a latent lost wakeup.
//!
//! The scanner masks comments, strings, and char literals before
//! matching, and skips `#[cfg(test)]` regions, so the rules fire only on
//! compiled production code. A deliberate exception is declared next to
//! the code it excuses: `// verify:allow(rule-name)` on the same line.
//! An exception whose rule does *not* fire on that line is reported as a
//! non-failing warning, so stale allows are cleaned up instead of
//! silently masking the next real regression.

use std::fmt;
use std::path::{Path, PathBuf};

/// One rule violation.
#[derive(Clone, Debug)]
pub struct LintHit {
    /// File containing the violation.
    pub file: PathBuf,
    /// 1-based line number.
    pub line_no: usize,
    /// Rule identifier (`comm-unwrap`, `untimed-recv`, `lossy-byte-cast`,
    /// `lossy-quant-cast`, `blocking-flush`, `condvar-wait-unlooped`).
    pub rule: &'static str,
    /// The offending source line, trimmed.
    pub line_text: String,
}

impl fmt::Display for LintHit {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "{}:{}: [{}] {}",
            self.file.display(),
            self.line_no,
            self.rule,
            self.line_text
        )
    }
}

/// Result of a lint run.
#[derive(Clone, Debug, Default)]
pub struct LintReport {
    /// All violations found, in path order.
    pub hits: Vec<LintHit>,
    /// Non-failing diagnostics: stale `verify:allow(rule)` exceptions
    /// whose rule did not fire on that line (including unknown rule
    /// names). Rendered `file:line: message`.
    pub warnings: Vec<String>,
    /// Number of `.rs` files scanned.
    pub files_scanned: usize,
}

impl LintReport {
    /// True when no rule fired. Warnings do not fail the pass.
    pub fn is_clean(&self) -> bool {
        self.hits.is_empty()
    }
}

/// Every rule the scanner knows; a `verify:allow` naming anything else
/// is warned about as unknown.
pub const RULES: &[&str] = &[
    "comm-unwrap",
    "untimed-recv",
    "lossy-byte-cast",
    "lossy-quant-cast",
    "blocking-flush",
    "condvar-wait-unlooped",
];

/// Calls that talk to the fabric; an `unwrap`/`expect` on the same line
/// as one of these is a `comm-unwrap` hit.
const COMM_TOKENS: &[&str] = &[
    "all_reduce",
    "reduce_scatter",
    "all_gather",
    "send_raw",
    "recv_raw",
    "local_index",
    // Transport-fabric entry points (the transport's send, the receive
    // from an inbound pipe, and the socket backend's frame writer): a
    // panic here severs the wire mid-frame and every peer observes
    // PeerLost instead of the real error.
    "send_msg",
    "recv_into",
    "write_frame",
];

/// Blocking collective entry points: every synchronous wrapper
/// `Communicator` ships (a test below holds this list to the `pub fn`s in
/// the comm sources, both ways). The `start_…` variants deliberately do
/// not match: inside a flush closure the non-blocking launch is exactly
/// what the rule demands.
const BLOCKING_TOKENS: &[&str] =
    &[".all_reduce(", ".all_reduce_in(", ".reduce_scatter(", ".all_gather("];

/// Replaces comments, string literals, and char literals with spaces
/// (newlines preserved) so pattern matching cannot fire inside them.
fn mask_source(src: &str) -> String {
    let b = src.as_bytes();
    let mut out = Vec::with_capacity(b.len());
    let mut i = 0;
    while i < b.len() {
        match b[i] {
            b'/' if i + 1 < b.len() && b[i + 1] == b'/' => {
                while i < b.len() && b[i] != b'\n' {
                    out.push(b' ');
                    i += 1;
                }
            }
            b'/' if i + 1 < b.len() && b[i + 1] == b'*' => {
                let mut depth = 1;
                out.push(b' ');
                out.push(b' ');
                i += 2;
                while i < b.len() && depth > 0 {
                    if b[i] == b'/' && i + 1 < b.len() && b[i + 1] == b'*' {
                        depth += 1;
                        out.push(b' ');
                        out.push(b' ');
                        i += 2;
                    } else if b[i] == b'*' && i + 1 < b.len() && b[i + 1] == b'/' {
                        depth -= 1;
                        out.push(b' ');
                        out.push(b' ');
                        i += 2;
                    } else {
                        out.push(if b[i] == b'\n' { b'\n' } else { b' ' });
                        i += 1;
                    }
                }
            }
            b'r' if i + 1 < b.len() && (b[i + 1] == b'"' || b[i + 1] == b'#') => {
                // Raw string: r"…", r#"…"#, r##"…"##, …
                let start = i;
                let mut j = i + 1;
                let mut hashes = 0;
                while j < b.len() && b[j] == b'#' {
                    hashes += 1;
                    j += 1;
                }
                if j < b.len() && b[j] == b'"' {
                    i = j + 1;
                    out.resize(out.len() + (i - start), b' ');
                    loop {
                        if i >= b.len() {
                            break;
                        }
                        if b[i] == b'"' && b[i + 1..].iter().take(hashes).filter(|&&c| c == b'#').count() == hashes {
                            out.resize(out.len() + 1 + hashes, b' ');
                            i += 1 + hashes;
                            break;
                        }
                        out.push(if b[i] == b'\n' { b'\n' } else { b' ' });
                        i += 1;
                    }
                } else {
                    // `r` identifier prefix that wasn't a raw string.
                    out.push(b[i]);
                    i += 1;
                }
            }
            b'"' => {
                out.push(b' ');
                i += 1;
                while i < b.len() {
                    if b[i] == b'\\' && i + 1 < b.len() {
                        out.push(b' ');
                        out.push(b' ');
                        i += 2;
                    } else if b[i] == b'"' {
                        out.push(b' ');
                        i += 1;
                        break;
                    } else {
                        out.push(if b[i] == b'\n' { b'\n' } else { b' ' });
                        i += 1;
                    }
                }
            }
            b'\'' => {
                // Char literal vs lifetime: a lifetime is '\'' followed by an
                // identifier with no closing quote within a few bytes.
                let is_char = if i + 1 < b.len() && b[i + 1] == b'\\' {
                    true
                } else {
                    i + 2 < b.len() && b[i + 2] == b'\''
                };
                if is_char {
                    out.push(b' ');
                    i += 1;
                    while i < b.len() {
                        if b[i] == b'\\' && i + 1 < b.len() {
                            out.push(b' ');
                            out.push(b' ');
                            i += 2;
                        } else if b[i] == b'\'' {
                            out.push(b' ');
                            i += 1;
                            break;
                        } else {
                            out.push(b' ');
                            i += 1;
                        }
                    }
                } else {
                    out.push(b[i]);
                    i += 1;
                }
            }
            c => {
                out.push(c);
                i += 1;
            }
        }
    }
    String::from_utf8(out).unwrap_or_default()
}

/// Marks lines inside `#[cfg(test)]`-attributed items (brace-matched) so
/// the rules only see production code.
fn test_region_mask(masked: &str) -> Vec<bool> {
    let lines: Vec<&str> = masked.lines().collect();
    let mut in_test = vec![false; lines.len()];
    let mut li = 0;
    while li < lines.len() {
        if lines[li].contains("#[cfg(test)]") {
            // Find the opening brace of the attributed item, then skip to
            // its matching close, marking everything in between.
            let mut depth = 0usize;
            let mut opened = false;
            let mut lj = li;
            'scan: while lj < lines.len() {
                in_test[lj] = true;
                for ch in lines[lj].chars() {
                    match ch {
                        '{' => {
                            depth += 1;
                            opened = true;
                        }
                        '}' => {
                            depth = depth.saturating_sub(1);
                            if opened && depth == 0 {
                                break 'scan;
                            }
                        }
                        _ => {}
                    }
                }
                lj += 1;
            }
            li = lj + 1;
        } else {
            li += 1;
        }
    }
    in_test
}

/// Marks lines inside gradient-bucket flush call regions: from a line
/// containing `.flush_all(` through the paren-matched end of that call
/// (the flush closure lives inside the argument list).
fn flush_region_mask(masked: &str) -> Vec<bool> {
    let lines: Vec<&str> = masked.lines().collect();
    let mut in_flush = vec![false; lines.len()];
    let mut li = 0;
    while li < lines.len() {
        const OPEN: &str = ".flush_all(";
        let Some(open) = lines[li].find(OPEN).map(|p| p + OPEN.len() - 1) else {
            li += 1;
            continue;
        };
        let mut depth = 0usize;
        let mut lj = li;
        let mut col = open;
        'scan: while lj < lines.len() {
            in_flush[lj] = true;
            let b = lines[lj].as_bytes();
            while col < b.len() {
                match b[col] {
                    b'(' => depth += 1,
                    b')' => {
                        depth = depth.saturating_sub(1);
                        if depth == 0 {
                            break 'scan;
                        }
                    }
                    _ => {}
                }
                col += 1;
            }
            lj += 1;
            col = 0;
        }
        li = lj + 1;
    }
    in_flush
}

/// Finds a word-boundary occurrence of `kw` in `line`.
fn find_keyword(line: &str, kw: &str) -> Option<usize> {
    let b = line.as_bytes();
    let mut from = 0;
    while let Some(p) = line[from..].find(kw).map(|p| p + from) {
        let before_ok = p == 0 || !(b[p - 1].is_ascii_alphanumeric() || b[p - 1] == b'_');
        let after = p + kw.len();
        let after_ok = after >= b.len() || !(b[after].is_ascii_alphanumeric() || b[after] == b'_');
        if before_ok && after_ok {
            return Some(p);
        }
        from = p + kw.len();
    }
    None
}

/// Marks lines inside `while`/`loop` constructs (header through the
/// brace-matched end of the body) — the regions where a condvar wait
/// participates in a predicate re-check loop. Nested loops are marked
/// independently, so overlapping regions are simply unioned.
fn loop_region_mask(masked: &str) -> Vec<bool> {
    let lines: Vec<&str> = masked.lines().collect();
    let mut in_loop = vec![false; lines.len()];
    for li in 0..lines.len() {
        let kw = ["while", "loop"].iter().filter_map(|k| find_keyword(lines[li], k)).min();
        let Some(kw) = kw else { continue };
        let mut depth = 0usize;
        let mut opened = false;
        let mut lj = li;
        let mut col = kw;
        'scan: while lj < lines.len() {
            in_loop[lj] = true;
            let b = lines[lj].as_bytes();
            while col < b.len() {
                match b[col] {
                    b'{' => {
                        depth += 1;
                        opened = true;
                    }
                    b'}' => {
                        depth = depth.saturating_sub(1);
                        if opened && depth == 0 {
                            break 'scan;
                        }
                    }
                    _ => {}
                }
                col += 1;
            }
            lj += 1;
            col = 0;
        }
    }
    in_loop
}

/// True when the line calls `wait(…)`/`wait_timeout(…)` on a receiver
/// that looks like a condvar (`cv`, `cvar`, `cond`, `condvar`, with or
/// without a `self.`/field path prefix). `wait_while` embeds its own
/// predicate loop and is deliberately not matched.
fn condvar_wait(line: &str) -> bool {
    let b = line.as_bytes();
    for recv in ["cv", "cvar", "cond", "condvar"] {
        for call in ["wait(", "wait_timeout("] {
            let pat = format!("{recv}.{call}");
            let mut from = 0;
            while let Some(p) = line[from..].find(&pat).map(|p| p + from) {
                let boundary =
                    p == 0 || !(b[p - 1].is_ascii_alphanumeric() || b[p - 1] == b'_');
                if boundary {
                    return true;
                }
                from = p + pat.len();
            }
        }
    }
    false
}

/// Extracts every `verify:allow(rule)` annotation on the (unmasked) line.
fn allow_annotations(original: &str) -> Vec<&str> {
    const MARK: &str = "verify:allow(";
    let mut out = Vec::new();
    let mut from = 0;
    while let Some(p) = original[from..].find(MARK).map(|p| p + from) {
        let start = p + MARK.len();
        let Some(end) = original[start..].find(')').map(|e| e + start) else { break };
        out.push(&original[start..end]);
        from = end + 1;
    }
    out
}

fn narrowing_cast(line: &str) -> bool {
    ["as u32", "as u16", "as u8", "as i32", "as i16", "as f32"]
        .iter()
        .any(|p| line.contains(&format!(" {p}")) || line.ends_with(p))
}

/// Lints one file's contents. `path` is used for hit reporting only.
fn lint_source(path: &Path, src: &str, report: &mut LintReport) {
    let masked = mask_source(src);
    let in_test = test_region_mask(&masked);
    let in_flush = flush_region_mask(&masked);
    let in_loop = loop_region_mask(&masked);
    let originals: Vec<&str> = src.lines().collect();
    for (idx, line) in masked.lines().enumerate() {
        if in_test.get(idx).copied().unwrap_or(false) {
            continue;
        }
        let original = originals.get(idx).copied().unwrap_or("");

        // First decide what fires on this line, then reconcile against
        // the line's `verify:allow` annotations: a fired+allowed rule is
        // suppressed, a fired rule without an allow is a hit, and an
        // allow whose rule never fired is a stale exception (warning).
        let mut fired: Vec<&'static str> = Vec::new();
        let has_panic = line.contains(".unwrap()") || line.contains(".expect(");
        if has_panic && COMM_TOKENS.iter().any(|t| line.contains(t)) {
            fired.push("comm-unwrap");
        }
        if line.contains(".recv()") {
            fired.push("untimed-recv");
        }
        if line.contains("bytes") && narrowing_cast(line) {
            fired.push("lossy-byte-cast");
        }
        if line.contains("quant")
            && [" as i8", " as u8", " as i16", " as u16"].iter().any(|p| line.contains(p))
        {
            fired.push("lossy-quant-cast");
        }
        if in_flush.get(idx).copied().unwrap_or(false)
            && BLOCKING_TOKENS.iter().any(|t| line.contains(t))
        {
            fired.push("blocking-flush");
        }
        if condvar_wait(line) && !in_loop.get(idx).copied().unwrap_or(false) {
            fired.push("condvar-wait-unlooped");
        }

        let allows = allow_annotations(original);
        for &rule in &fired {
            if allows.contains(&rule) {
                continue;
            }
            report.hits.push(LintHit {
                file: path.to_path_buf(),
                line_no: idx + 1,
                rule,
                line_text: original.trim().to_string(),
            });
        }
        for allow in allows {
            if fired.contains(&allow) {
                continue;
            }
            let known = RULES.contains(&allow);
            report.warnings.push(format!(
                "{}:{}: {} exception verify:allow({allow}) — rule {}",
                path.display(),
                idx + 1,
                if known { "stale" } else { "unknown-rule" },
                if known { "did not fire on this line" } else { "does not exist" },
            ));
        }
    }
    report.files_scanned += 1;
}

fn walk(dir: &Path, files: &mut Vec<PathBuf>) -> std::io::Result<()> {
    let mut entries: Vec<_> = std::fs::read_dir(dir)?.collect::<Result<_, _>>()?;
    entries.sort_by_key(|e| e.path());
    for entry in entries {
        let path = entry.path();
        if path.is_dir() {
            walk(&path, files)?;
        } else if path.extension().is_some_and(|e| e == "rs") {
            files.push(path);
        }
    }
    Ok(())
}

/// Lints every `.rs` file under the given roots (recursively).
///
/// Unreadable paths are reported as synthetic hits rather than silently
/// skipped, so a mistyped root cannot produce a vacuous pass.
pub fn lint_paths(roots: &[&Path]) -> LintReport {
    let mut report = LintReport::default();
    for root in roots {
        let mut files = Vec::new();
        if let Err(e) = walk(root, &mut files) {
            report.hits.push(LintHit {
                file: root.to_path_buf(),
                line_no: 0,
                rule: "unreadable-path",
                line_text: e.to_string(),
            });
            continue;
        }
        for file in files {
            match std::fs::read_to_string(&file) {
                Ok(src) => lint_source(&file, &src, &mut report),
                Err(e) => report.hits.push(LintHit {
                    file,
                    line_no: 0,
                    rule: "unreadable-path",
                    line_text: e.to_string(),
                }),
            }
        }
    }
    report
}

#[cfg(test)]
mod tests {
    use super::*;

    fn lint_report(src: &str) -> LintReport {
        let mut report = LintReport::default();
        lint_source(Path::new("mem.rs"), src, &mut report);
        report
    }

    fn lint_str(src: &str) -> Vec<&'static str> {
        lint_report(src).hits.into_iter().map(|h| h.rule).collect()
    }

    #[test]
    fn flags_unwrap_on_comm_call() {
        let src = "fn f() { comm.all_reduce(&mut v, op, group).unwrap(); }\n";
        assert_eq!(lint_str(src), vec!["comm-unwrap"]);
        let src = "fn f() { group.local_index(rank).expect(\"not in group\"); }\n";
        assert_eq!(lint_str(src), vec!["comm-unwrap"]);
    }

    #[test]
    fn flags_unwrap_on_transport_calls() {
        // The process-fabric entry points are comm tokens too.
        let src = "fn f() { link.send_msg(dst, msg).unwrap(); }\n";
        assert_eq!(lint_str(src), vec!["comm-unwrap"]);
        let src = "fn f() { let m = inbox[src].recv_into(rank, src, out, t, p).expect(\"recv\"); }\n";
        assert_eq!(lint_str(src), vec!["comm-unwrap"]);
        let src = "fn f() { write_frame(&writer, &frame).unwrap(); }\n";
        assert_eq!(lint_str(src), vec!["comm-unwrap"]);
    }

    #[test]
    fn ignores_unwrap_off_comm_paths() {
        let src = "fn f() { let x = maybe_value().unwrap(); }\n";
        assert!(lint_str(src).is_empty());
    }

    #[test]
    fn flags_untimed_recv_and_allows_escape() {
        assert_eq!(lint_str("fn f() { let m = rx.recv(); }\n"), vec!["untimed-recv"]);
        assert!(lint_str(
            "fn f() { let m = rx.recv(); } // verify:allow(untimed-recv)\n"
        )
        .is_empty());
        assert!(lint_str("fn f() { let m = rx.recv_timeout(d); }\n").is_empty());
    }

    #[test]
    fn flags_lossy_byte_cast() {
        assert_eq!(
            lint_str("fn f(bytes: u64) -> u32 { bytes as u32 }\n"),
            vec!["lossy-byte-cast"]
        );
        assert!(lint_str("fn f(bytes: u64) -> f64 { bytes as f64 }\n").is_empty());
    }

    #[test]
    fn masked_regions_do_not_fire() {
        // In a comment, a string, and inside #[cfg(test)].
        assert!(lint_str("// comm.all_reduce(x).unwrap()\n").is_empty());
        assert!(lint_str("fn f() { let s = \"rx.recv()\"; }\n").is_empty());
        let src = "#[cfg(test)]\nmod tests {\n  fn g() { comm.all_gather(g).unwrap(); }\n}\nfn h() {}\n";
        assert!(lint_str(src).is_empty());
    }

    #[test]
    fn flags_blocking_collective_in_flush_closure() {
        // A blocking reduce-scatter inside the flush closure forfeits
        // overlap — the comm-unwrap on the same line fires too. These are
        // the wrappers `Communicator` really ships.
        let src = "fn f() {\n  bucket.flush_all(&mut |r, fused| {\n    \
                   comm.reduce_scatter(fused, &mut out, op, p).unwrap();\n  });\n}\n";
        assert_eq!(lint_str(src), vec!["comm-unwrap", "blocking-flush"]);
        let src = "fn f() {\n  bucket.flush_all(&mut |r, fused| {\n    \
                   let x = comm.all_reduce_in(g, fused, op, p);\n  });\n}\n";
        assert_eq!(lint_str(src), vec!["blocking-flush"]);
    }

    #[test]
    fn nonblocking_launch_in_flush_closure_is_clean() {
        // The start_* launch, its handle parked for the drain, is exactly
        // what the rule demands.
        let src = "fn f() {\n  bucket.flush_all(&mut |r, fused| {\n    \
                   let p = comm.start_reduce_scatter(g, fused, op, &c, pr, wire);\n    \
                   inflight.push_back(p);\n  });\n}\n";
        assert!(lint_str(src).is_empty());
        // Blocking collectives *outside* any flush region stay legal.
        let src = "fn f() { let x = comm.all_reduce_in(g, v, op, p); }\n";
        assert!(lint_str(src).is_empty());
    }

    #[test]
    fn blocking_tokens_are_the_shipped_blocking_wrappers() {
        // The list once named methods `Communicator` never had, so a real
        // blocking wrapper in a flush closure passed. Hold it to the comm
        // sources both ways: every token names a shipped `pub fn`, and
        // every shipped collective that is not a `start_*` is listed.
        let shipped: Vec<String> = [
            include_str!("../../comm/src/collectives.rs"),
            include_str!("../../comm/src/world.rs"),
        ]
        .iter()
        .flat_map(|src| src.lines())
        .filter_map(|l| l.trim_start().strip_prefix("pub fn "))
        .filter_map(|l| l.split('(').next())
        .map(|name| format!(".{name}("))
        .collect();
        for t in BLOCKING_TOKENS {
            assert!(shipped.iter().any(|s| s == t), "{t} names no shipped method");
        }
        const SHAPES: &[&str] = &["all_reduce", "reduce_scatter", "all_gather"];
        for s in shipped.iter().filter(|s| !s.starts_with(".start_")) {
            if SHAPES.iter().any(|k| s.contains(k)) {
                assert!(BLOCKING_TOKENS.contains(&s.as_str()), "blocking wrapper {s} is not listed");
            }
        }
    }

    #[test]
    fn raw_strings_and_chars_are_masked() {
        assert!(lint_str("fn f() { let s = r#\"rx.recv()\"#; }\n").is_empty());
        assert!(lint_str("fn f() { let c = '\"'; let d = rx.recv_timeout(t); }\n").is_empty());
    }

    #[test]
    fn flags_unlooped_condvar_wait() {
        // An if-guarded (or bare) wait is a latent lost wakeup.
        let src = "fn f() { let g = self.cv.wait(guard); }\n";
        assert_eq!(lint_str(src), vec!["condvar-wait-unlooped"]);
        let src = "fn f() { if !done { let g = cvar.wait_timeout(guard, d); } }\n";
        assert_eq!(lint_str(src), vec!["condvar-wait-unlooped"]);
    }

    #[test]
    fn looped_condvar_wait_is_clean() {
        // The real `Pipe::wait_closed`'s `while` shape, and a `loop` re-check.
        let src = "fn f() {\n  while !st.closed {\n    \
                   let (g, _) = self.ready.wait_timeout(st, d).unwrap_or_else(|p| p.into_inner());\n    \
                   st = g;\n  }\n}\n";
        assert!(lint_str(src).is_empty());
        let src = "fn f() {\n  loop {\n    if s.released(gen) { break; }\n    \
                   s = cv.wait(s);\n  }\n}\n";
        assert!(lint_str(src).is_empty());
        // `wait_while` embeds the predicate re-check internally.
        assert!(lint_str("fn f() { let g = cv.wait_while(g, |s| !s.done); }\n").is_empty());
        // A non-condvar `.wait()` (pending-op handles) is out of scope.
        assert!(lint_str("fn f() { let out = pending.wait(); }\n").is_empty());
        // Word boundary: `second.wait_timeout(` is not a condvar match.
        assert!(lint_str("fn f() { second.wait_timeout(d); }\n").is_empty());
    }

    #[test]
    fn unlooped_condvar_wait_allow_escape() {
        let src = "fn f() { let g = cv.wait(g); } // verify:allow(condvar-wait-unlooped)\n";
        let report = lint_report(src);
        assert!(report.hits.is_empty());
        // The allow is live (the rule fired), so no stale warning either.
        assert!(report.warnings.is_empty(), "{:?}", report.warnings);
    }

    #[test]
    fn stale_allow_is_warned_not_failed() {
        // recv_timeout never fires untimed-recv, so the allow is stale.
        let src = "fn f() { let m = rx.recv_timeout(d); } // verify:allow(untimed-recv)\n";
        let report = lint_report(src);
        assert!(report.is_clean());
        assert_eq!(report.warnings.len(), 1);
        assert!(
            report.warnings[0].contains("stale exception verify:allow(untimed-recv)"),
            "{}",
            report.warnings[0]
        );
        // An allow naming a rule that does not exist is called out as such.
        let src = "fn f() {} // verify:allow(no-such-rule)\n";
        let report = lint_report(src);
        assert!(report.is_clean());
        assert_eq!(report.warnings.len(), 1);
        assert!(report.warnings[0].contains("unknown-rule"), "{}", report.warnings[0]);
    }

    #[test]
    fn live_allow_produces_no_warning() {
        let src = "fn f() { let m = rx.recv(); } // verify:allow(untimed-recv)\n";
        let report = lint_report(src);
        assert!(report.is_clean());
        assert!(report.warnings.is_empty(), "{:?}", report.warnings);
    }

    /// One fixture per rule: the positive form must fire, the same code
    /// behind a comment or inside a string must not, and the same-line
    /// `verify:allow` must suppress it without leaving a stale warning.
    /// Guards every rule's masking path, not just the ones tested above.
    #[test]
    fn fixture_suite_covers_every_rule() {
        struct Fixture {
            rule: &'static str,
            positive: &'static str,
            comment_masked: &'static str,
            string_masked: &'static str,
        }
        let fixtures = [
            Fixture {
                rule: "comm-unwrap",
                positive: "fn f() { comm.all_reduce(v, op, g).unwrap(); }\n",
                comment_masked: "fn f() {} // comm.all_reduce(v, op, g).unwrap()\n",
                string_masked: "fn f() { let s = \"comm.all_reduce(v).unwrap()\"; }\n",
            },
            Fixture {
                rule: "untimed-recv",
                positive: "fn f() { let m = rx.recv(); }\n",
                comment_masked: "fn f() {} // let m = rx.recv();\n",
                string_masked: "fn f() { let s = \"rx.recv()\"; }\n",
            },
            Fixture {
                rule: "lossy-byte-cast",
                positive: "fn f(bytes: u64) -> u32 { bytes as u32 }\n",
                comment_masked: "fn f() {} // bytes as u32\n",
                string_masked: "fn f() { let s = \"bytes as u32\"; }\n",
            },
            Fixture {
                rule: "lossy-quant-cast",
                positive: "fn f(q: f32) -> i8 { quantize_round(q) as i8 }\n",
                comment_masked: "fn f() {} // quantize_round(q) as i8\n",
                string_masked: "fn f() { let s = \"quantize_round(q) as i8\"; }\n",
            },
            Fixture {
                rule: "blocking-flush",
                positive: "fn f() {\n  bucket.flush_all(&mut |r, fused| {\n    \
                           let x = comm.all_gather(fused, &mut o, p);\n  });\n}\n",
                comment_masked: "fn f() {\n  // bucket.flush_all(&mut |r, fused| {\n  \
                                 //   let x = comm.all_gather(fused, &mut o, p);\n  // });\n}\n",
                string_masked: "fn f() {\n  let s = \"bucket.flush_all(\";\n  \
                                let x = comm.all_gather(fused, &mut o, p);\n}\n",
            },
            Fixture {
                rule: "condvar-wait-unlooped",
                positive: "fn f() { let g = cv.wait(g); }\n",
                comment_masked: "fn f() {} // let g = cv.wait(g);\n",
                string_masked: "fn f() { let s = \"cv.wait(g)\"; }\n",
            },
        ];
        for fx in &fixtures {
            assert_eq!(lint_str(fx.positive), vec![fx.rule], "positive fixture for {}", fx.rule);
            assert!(
                lint_str(fx.comment_masked).is_empty(),
                "comment-masked fixture for {} must not fire",
                fx.rule
            );
            assert!(
                lint_str(fx.string_masked).is_empty(),
                "string-masked fixture for {} must not fire",
                fx.rule
            );
            // Allow-escape: annotate the line the rule fires on.
            let line_no = lint_report(fx.positive).hits[0].line_no;
            let allowed: String = fx
                .positive
                .lines()
                .enumerate()
                .map(|(i, l)| {
                    if i + 1 == line_no {
                        format!("{l} // verify:allow({})\n", fx.rule)
                    } else {
                        format!("{l}\n")
                    }
                })
                .collect();
            let report = lint_report(&allowed);
            assert!(report.hits.is_empty(), "allow-escape fixture for {} must suppress", fx.rule);
            assert!(
                report.warnings.is_empty(),
                "live allow for {} must not warn: {:?}",
                fx.rule,
                report.warnings
            );
        }
    }

    #[test]
    fn every_known_rule_has_a_fixture() {
        // `RULES` is the contract the stale-allow warning validates
        // against; keep it in sync with the rules lint_source implements.
        assert_eq!(
            RULES,
            &[
                "comm-unwrap",
                "untimed-recv",
                "lossy-byte-cast",
                "lossy-quant-cast",
                "blocking-flush",
                "condvar-wait-unlooped"
            ]
        );
    }
}
