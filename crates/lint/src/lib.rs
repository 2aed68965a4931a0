#![warn(missing_docs)]
#![cfg_attr(test, allow(clippy::unwrap_used, clippy::expect_used, clippy::panic))]

//! `rqp-lint`: the workspace invariant linter, v2.
//!
//! v2 replaces the line-lexical scanner of PR 2 with a real analysis
//! pipeline: [`lexer`] masks comments/strings and tokenizes with line
//! tracking, [`tree`] builds a token tree with brace/paren nesting, item
//! boundaries (`fn`/`impl`/`mod`) and per-function token lists, and
//! [`passes`] runs one pass per rule over that structure. `#[cfg(test)]`
//! exemption is *item-scoped* — a test module in the middle of a file no
//! longer exempts the code after it.
//!
//! ## Rules
//!
//! | rule | severity | invariant |
//! |------|----------|-----------|
//! | `no-panic` | deny | library code never aborts a long-lived process |
//! | `float-eq` | deny | cost/selectivity comparisons go through `cost_eq`/`cost_cmp` |
//! | `obs-names` | deny | series names come from `crates/obs/src/names.rs` |
//! | `determinism` | deny | `ess`/`core`/`qplan` stay replayable (no clocks/RNG) |
//! | `lock-order` | deny | the per-crate lock acquisition graph is acyclic |
//! | `guard-across-blocking` | deny | no `MutexGuard` live across `.wait()`/recv/accept/IO, unless parked on its own condvar |
//! | `raii-span` | warn | span guards nest and drop LIFO; no `record_span` twins |
//! | `swallowed-result` | deny | no `let _ =`/`;`-dropped `RqpResult`/`io::Result` outside tests |
//! | `bare-allow` | deny | every `allow` directive carries a reason |
//!
//! Test modules (`#[cfg(test)]`, `#[test]`), `tests/`, `benches/`,
//! `examples/` and the `crates/bench` harness are exempt. A single site
//! can be waived with a *reasoned* directive on the offending line or the
//! line above it:
//!
//! ```text
//! // rqp-lint: allow(<rule>): <why this site is safe>
//! ```
//!
//! A bare `allow(<rule>)` without the `: <reason>` tail is itself a
//! deny-level `bare-allow` violation.
//!
//! The lock acquisition graph behind `lock-order` is exportable as
//! GraphViz DOT via [`lock_graph`] (CLI: `rqp-lint --lock-graph <dir>`).

pub mod lexer;
pub mod passes;
pub mod tree;

use passes::locks::LockGraph;
use passes::{CrateCtx, FileCtx, Finding};
use std::collections::BTreeMap;
use std::fmt;
use std::fs;
use std::io;
use std::path::Path;

/// The lint rules.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub enum Rule {
    /// No panicking constructs in library code.
    NoPanic,
    /// No raw float equality on cost/selectivity expressions.
    FloatEq,
    /// Metric/event/span names must come from `rqp_obs::names`.
    ObsNames,
    /// No wall clocks or ambient randomness in deterministic crates.
    Determinism,
    /// The per-crate lock acquisition graph must be acyclic.
    LockOrder,
    /// No mutex guard held across a blocking call (own condvar excepted).
    GuardAcrossBlocking,
    /// Span/timer guards must bind, nest and drop LIFO.
    RaiiSpan,
    /// No silently dropped `RqpResult`/`io::Result` outside tests.
    SwallowedResult,
    /// `allow` directives must carry a reason.
    BareAllow,
}

/// Every rule, in stable id order.
pub const ALL_RULES: [Rule; 9] = [
    Rule::NoPanic,
    Rule::FloatEq,
    Rule::ObsNames,
    Rule::Determinism,
    Rule::LockOrder,
    Rule::GuardAcrossBlocking,
    Rule::RaiiSpan,
    Rule::SwallowedResult,
    Rule::BareAllow,
];

impl Rule {
    /// Stable rule identifier, as used in `allow(...)` directives.
    pub fn id(self) -> &'static str {
        match self {
            Rule::NoPanic => "no-panic",
            Rule::FloatEq => "float-eq",
            Rule::ObsNames => "obs-names",
            Rule::Determinism => "determinism",
            Rule::LockOrder => "lock-order",
            Rule::GuardAcrossBlocking => "guard-across-blocking",
            Rule::RaiiSpan => "raii-span",
            Rule::SwallowedResult => "swallowed-result",
            Rule::BareAllow => "bare-allow",
        }
    }

    /// The rule's default severity.
    pub fn severity(self) -> Severity {
        match self {
            Rule::RaiiSpan => Severity::Warn,
            _ => Severity::Deny,
        }
    }
}

impl fmt::Display for Rule {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.id())
    }
}

/// A finding's severity.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
pub enum Severity {
    /// Advisory: reported, but only fails the build under `--deny-warnings`.
    Warn,
    /// Hard failure.
    Deny,
}

impl Severity {
    /// Stable identifier (`warn`/`deny`).
    pub fn id(self) -> &'static str {
        match self {
            Severity::Warn => "warn",
            Severity::Deny => "deny",
        }
    }
}

impl fmt::Display for Severity {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.id())
    }
}

/// One lint finding.
#[derive(Debug, Clone)]
pub struct Violation {
    /// The violated rule.
    pub rule: Rule,
    /// The rule's severity.
    pub severity: Severity,
    /// Workspace-relative file path.
    pub file: String,
    /// 1-based line number.
    pub line: usize,
    /// Human-readable explanation.
    pub message: String,
}

impl fmt::Display for Violation {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{} {} {}:{}: {}", self.severity, self.rule, self.file, self.line, self.message)
    }
}

/// Paths exempt from most rules: test, bench and demo code.
fn is_test_like(path: &str) -> bool {
    path.starts_with("tests/")
        || path.starts_with("benches/")
        || path.starts_with("examples/")
        || path.starts_with("crates/bench/")
        || path.contains("/tests/")
        || path.contains("/benches/")
        || path.contains("/examples/")
}

/// Crates whose compile + discovery pipeline must be replayable.
/// `crates/chaos` is intentionally absent: it owns the seeded PRNG that
/// drives fault schedules, keeping the deterministic crates RNG-free.
fn is_deterministic_crate(path: &str) -> bool {
    path.starts_with("crates/ess/src")
        || path.starts_with("crates/core/src")
        || path.starts_with("crates/qplan/src")
}

/// An `// rqp-lint: allow(<rule>)[: reason]` directive found in a file.
#[derive(Debug)]
struct Directive {
    /// 0-based line index.
    line_idx: usize,
    /// The rule id inside `allow(...)`.
    rule_id: String,
    /// Whether a non-empty `: <reason>` tail followed.
    reasoned: bool,
}

const DIRECTIVE: &str = "rqp-lint: allow(";

/// Every directive in the source. Directives live in `//` comments, so
/// the scan runs over a strings-masked view (comments kept): directive
/// text inside a string literal — linter test sources, message templates —
/// is not a directive. Doc-comment lines (`///`, `//!`) are skipped too:
/// they *document* the syntax rather than use it.
fn directives(src: &str) -> Vec<Directive> {
    let masked = lexer::mask_strings(src);
    let mut out = Vec::new();
    for (line_idx, line) in masked.lines().enumerate() {
        let trimmed = line.trim_start();
        if trimmed.starts_with("///") || trimmed.starts_with("//!") {
            continue;
        }
        let mut from = 0usize;
        while let Some(rel) = line[from..].find(DIRECTIVE) {
            let open = from + rel + DIRECTIVE.len();
            let Some(close_rel) = line[open..].find(')') else { break };
            let close = open + close_rel;
            let rule_id = line[open..close].trim().to_string();
            let tail = &line[close + 1..];
            let reasoned = tail.strip_prefix(':').is_some_and(|reason| !reason.trim().is_empty());
            out.push(Directive { line_idx, rule_id, reasoned });
            from = close + 1;
        }
    }
    out
}

/// Whether `rule` is waived on 0-based `line_idx` by a directive on the
/// same line or the line above.
fn waived(dirs: &[Directive], line_idx: usize, rule: Rule) -> bool {
    dirs.iter()
        .any(|d| d.rule_id == rule.id() && (d.line_idx == line_idx || d.line_idx + 1 == line_idx))
}

/// `bare-allow` violations for a file's directives: a directive without a
/// reason, or naming an unknown rule. Not waivable.
fn directive_violations(path: &str, dirs: &[Directive], out: &mut Vec<Violation>) {
    for d in dirs {
        let known = ALL_RULES.iter().any(|r| r.id() == d.rule_id);
        let message = if !known {
            format!(
                "allow directive names unknown rule `{}` (known: {})",
                d.rule_id,
                ALL_RULES.map(Rule::id).join(", ")
            )
        } else if !d.reasoned {
            format!(
                "bare `allow({id})` without a reason \
                 (write `// rqp-lint: allow({id}): <why this site is safe>`)",
                id = d.rule_id
            )
        } else {
            continue;
        };
        out.push(Violation {
            rule: Rule::BareAllow,
            severity: Rule::BareAllow.severity(),
            file: path.to_string(),
            line: d.line_idx + 1,
            message,
        });
    }
}

/// One parsed file, ready for the passes.
struct PreparedFile {
    path: String,
    index: tree::FileIndex,
    dirs: Vec<Directive>,
}

fn prepare(path: &str, src: &str) -> PreparedFile {
    PreparedFile { path: path.to_string(), index: tree::index(src), dirs: directives(src) }
}

/// Run every pass over one crate's prepared files, appending to `out`.
/// `graph` receives the crate's lock acquisition edges.
fn lint_crate(files: &[PreparedFile], graph: &mut LockGraph, out: &mut Vec<Violation>) {
    let krate = CrateCtx::collect(files.iter().map(|f| &f.index));
    for file in files {
        let ctx = FileCtx {
            path: &file.path,
            test_like: is_test_like(&file.path),
            deterministic: is_deterministic_crate(&file.path),
            obs_crate: file.path.starts_with("crates/obs/"),
            index: &file.index,
        };
        let mut findings: Vec<Finding> = Vec::new();
        passes::no_panic::run(&ctx, &mut findings);
        passes::float_eq::run(&ctx, &mut findings);
        passes::obs_names::run(&ctx, &mut findings);
        passes::determinism::run(&ctx, &mut findings);
        passes::swallowed_result::run(&ctx, &krate, &mut findings);
        passes::raii_span::run(&ctx, &mut findings);
        passes::locks::analyze_file(&ctx, &krate, graph, &mut findings);
        for f in findings {
            if !waived(&file.dirs, f.line.saturating_sub(1), f.rule) {
                out.push(Violation {
                    rule: f.rule,
                    severity: f.rule.severity(),
                    file: file.path.clone(),
                    line: f.line,
                    message: f.message,
                });
            }
        }
        directive_violations(&file.path, &file.dirs, out);
    }
    // lock-order cycles are a crate-level property; a cycle is never
    // waivable at a single site
    for (file, f) in passes::locks::cycle_violations(graph) {
        out.push(Violation {
            rule: f.rule,
            severity: f.rule.severity(),
            file,
            line: f.line,
            message: f.message,
        });
    }
}

fn sort_violations(out: &mut [Violation]) {
    out.sort_by(|a, b| {
        (&a.file, a.line, a.rule, &a.message).cmp(&(&b.file, b.line, b.rule, &b.message))
    });
}

/// Lint one file's source, classified by its workspace-relative `path`.
/// The file is treated as its own crate: lock wrappers and fallible
/// functions defined in sibling files are not visible.
pub fn lint_source(path: &str, src: &str) -> Vec<Violation> {
    let files = vec![prepare(path, src)];
    let mut graph = LockGraph::default();
    let mut out = Vec::new();
    lint_crate(&files, &mut graph, &mut out);
    sort_violations(&mut out);
    out
}

fn walk(dir: &Path, files: &mut Vec<std::path::PathBuf>) -> io::Result<()> {
    for entry in fs::read_dir(dir)? {
        let entry = entry?;
        let p = entry.path();
        let name = entry.file_name();
        let name = name.to_string_lossy();
        if p.is_dir() {
            if matches!(
                name.as_ref(),
                "target" | ".git" | "fixtures" | ".github" | "node_modules" | "third_party"
            ) {
                continue;
            }
            walk(&p, files)?;
        } else if name.ends_with(".rs") {
            files.push(p);
        }
    }
    Ok(())
}

/// The crate-grouping key of a workspace-relative path: `crates/<name>`
/// for crate members, the first component otherwise.
fn crate_key(rel: &str) -> String {
    let mut parts = rel.split('/');
    match (parts.next(), parts.next()) {
        (Some("crates"), Some(name)) => format!("crates/{name}"),
        (Some(first), Some(_)) => first.to_string(),
        _ => rel.to_string(),
    }
}

fn prepared_by_crate(root: &Path) -> io::Result<BTreeMap<String, Vec<PreparedFile>>> {
    let mut files = Vec::new();
    walk(root, &mut files)?;
    files.sort();
    let mut crates: BTreeMap<String, Vec<PreparedFile>> = BTreeMap::new();
    for f in files {
        let rel = f.strip_prefix(root).unwrap_or(&f).to_string_lossy().replace('\\', "/");
        let src = fs::read_to_string(&f)?;
        crates.entry(crate_key(&rel)).or_default().push(prepare(&rel, &src));
    }
    Ok(crates)
}

/// Lint every `.rs` file under `root` (skipping `target/`, `.git/` and
/// fixture directories). Paths in the findings are relative to `root`.
/// Lock graphs are built and cycle-checked per crate.
pub fn lint_workspace(root: &Path) -> io::Result<Vec<Violation>> {
    let mut out = Vec::new();
    for files in prepared_by_crate(root)?.values() {
        let mut graph = LockGraph::default();
        lint_crate(files, &mut graph, &mut out);
    }
    sort_violations(&mut out);
    Ok(out)
}

/// Build the lock acquisition graph for every `.rs` file under `root`,
/// pooled as if the subtree were one crate (which it is for the intended
/// `crates/<name>` arguments).
pub fn lock_graph(root: &Path) -> io::Result<LockGraph> {
    let mut graph = LockGraph::default();
    for files in prepared_by_crate(root)?.values() {
        let mut sink = Vec::new();
        lint_crate(files, &mut graph, &mut sink);
    }
    Ok(graph)
}

fn json_escape(s: &str) -> String {
    let mut out = String::with_capacity(s.len() + 2);
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\t' => out.push_str("\\t"),
            c if (c as u32) < 0x20 => out.push_str(&format!("\\u{:04x}", c as u32)),
            c => out.push(c),
        }
    }
    out
}

/// Render violations as a JSON array (machine-readable `--format json`).
pub fn render_json(violations: &[Violation]) -> String {
    let mut s = String::from("[");
    for (i, v) in violations.iter().enumerate() {
        if i > 0 {
            s.push(',');
        }
        s.push_str(&format!(
            "\n  {{\"rule\": \"{}\", \"severity\": \"{}\", \"file\": \"{}\", \
             \"line\": {}, \"message\": \"{}\"}}",
            v.rule,
            v.severity,
            json_escape(&v.file),
            v.line,
            json_escape(&v.message)
        ));
    }
    s.push_str(if violations.is_empty() { "]\n" } else { "\n]\n" });
    s
}

#[cfg(test)]
mod tests {
    use super::*;

    fn lint(src: &str) -> Vec<Violation> {
        lint_source("crates/x/src/lib.rs", src)
    }

    // ---- ported v1 behavior ----

    #[test]
    fn lifetimes_do_not_start_char_literals() {
        let src = "fn f<'a>(x: &'a str) -> &'a str { x } // .expect(\nfn g() { z.expect(\"\"); }";
        let v = lint(src);
        assert_eq!(v.len(), 1, "{v:?}");
        assert_eq!(v[0].line, 2);
    }

    #[test]
    fn cfg_test_module_is_exempt() {
        let src = "fn ok() {}\n#[cfg(test)]\nmod tests {\n    fn t() { None::<u8>.unwrap(); }\n}\n";
        assert!(lint(src).is_empty());
    }

    #[test]
    fn reasoned_allow_waives_one_site() {
        let src = "fn f(x: Option<u8>) -> u8 {\n    // rqp-lint: allow(no-panic): demo of a checked invariant\n    x.unwrap()\n}\n";
        assert!(lint(src).is_empty(), "{:?}", lint(src));
        let src2 = "fn f(x: Option<u8>) -> u8 { x.unwrap() }\n";
        assert_eq!(lint(src2).len(), 1);
    }

    #[test]
    fn float_eq_needs_a_costlike_operand() {
        let clean = "fn f(a: usize, b: usize) -> bool { a == b }\n";
        assert!(lint(clean).is_empty());
        let dirty = "fn f(cost_a: f64, b: f64) -> bool { cost_a == b }\n";
        let v = lint(dirty);
        assert_eq!(v.len(), 1, "{v:?}");
        assert_eq!(v[0].rule, Rule::FloatEq);
    }

    #[test]
    fn epsilon_helper_sites_and_len_counts_are_exempt() {
        let idiom = "fn f() { let ok = cost_cmp(cost, budget) != Ordering::Greater; }\n";
        assert!(lint(idiom).is_empty());
        let count = "fn f() { if self.cell_cost.len() != cells { return; } }\n";
        assert!(lint(count).is_empty());
    }

    #[test]
    fn self_is_not_sel() {
        let src = "fn f(a: &S, b: &S) -> bool { a.self_id == b.self_id }\n";
        assert!(lint(src).is_empty());
    }

    #[test]
    fn multiline_float_eq_is_caught() {
        // the v1 line-lexical rule could not see a comparison split
        // across lines
        let src = "fn f() -> bool {\n    total_cost\n        == budget\n}\n";
        let v = lint(src);
        assert_eq!(v.len(), 1, "{v:?}");
        assert_eq!(v[0].rule, Rule::FloatEq);
    }

    #[test]
    fn test_like_paths_are_exempt() {
        let src = "fn f(x: Option<u8>) -> u8 { x.unwrap() }\n";
        assert!(lint_source("crates/core/tests/it.rs", src).is_empty());
        assert!(lint_source("crates/bench/src/lib.rs", src).is_empty());
        assert!(lint_source("examples/demo.rs", src).is_empty());
    }

    #[test]
    fn span_sites_with_inline_names_trip_obs_names() {
        let dirty = "fn f() { let _g = tracer.span(\"my_span\", SpanKind::Step); }\n";
        let v = lint(dirty);
        assert!(v.iter().any(|v| v.rule == Rule::ObsNames), "{v:?}");
        let dirty2 = "fn f() { t.record_span(\"phase\", SpanKind::CompilePhase, secs, vec![]); }\n";
        assert!(lint(dirty2).iter().any(|v| v.rule == Rule::ObsNames));
        // raw-string names were a v1 blind spot
        let raw = "fn f() { let _g = tracer.span(r#\"raw_name\"#, SpanKind::Step); }\n";
        assert!(lint(raw).iter().any(|v| v.rule == Rule::ObsNames), "{:?}", lint(raw));
        // Constants from rqp_obs::names are the approved form.
        let clean = "fn f() { let g = tracer.span(names::SPAN_EXECUTION, SpanKind::Execution); }\n";
        assert!(lint(clean).is_empty());
        // The obs crate defines the names; its own call sites are exempt.
        assert!(lint_source("crates/obs/src/trace.rs", dirty).is_empty());
    }

    #[test]
    fn determinism_applies_only_to_deterministic_crates() {
        let src = "use std::time::Instant;\n";
        assert_eq!(lint_source("crates/ess/src/lib.rs", src).len(), 1);
        assert!(lint_source("crates/executor/src/lib.rs", src).is_empty());
        let rng = "fn f() { let x = self.state.wrapping_mul(0x2545F4914F6CDD1D); }\n";
        assert!(lint_source("crates/chaos/src/rng.rs", rng).is_empty());
        assert!(lint_source("crates/chaos/src/plan.rs", src).is_empty());
    }

    // ---- v2: item-scoped cfg(test) ----

    #[test]
    fn code_after_a_mid_file_test_module_is_still_linted() {
        // the v1 scanner exempted everything after the first #[cfg(test)]
        let src = "fn ok() {}\n#[cfg(test)]\nmod tests {\n    fn t() { x.unwrap(); }\n}\nfn bad(x: Option<u8>) -> u8 { x.unwrap() }\n";
        let v = lint(src);
        assert_eq!(v.len(), 1, "{v:?}");
        assert_eq!(v[0].rule, Rule::NoPanic);
        assert_eq!(v[0].line, 6);
    }

    // ---- v2: bare-allow ----

    #[test]
    fn bare_allow_is_itself_a_violation() {
        let src =
            "fn f(x: Option<u8>) -> u8 {\n    // rqp-lint: allow(no-panic)\n    x.unwrap()\n}\n";
        let v = lint(src);
        assert_eq!(v.len(), 1, "{v:?}");
        assert_eq!(v[0].rule, Rule::BareAllow);
        assert_eq!(v[0].line, 2);
        assert_eq!(v[0].severity, Severity::Deny);
    }

    #[test]
    fn unknown_rule_in_allow_is_flagged() {
        let src = "// rqp-lint: allow(no-such-rule): because\nfn f() {}\n";
        let v = lint(src);
        assert_eq!(v.len(), 1, "{v:?}");
        assert_eq!(v[0].rule, Rule::BareAllow);
    }

    // ---- v2: swallowed-result ----

    #[test]
    fn swallowed_io_results_are_flagged() {
        let src = "fn f(mut s: TcpStream) {\n    let _ = s.flush();\n    s.write_all(b\"x\");\n}\n";
        let v = lint(src);
        assert_eq!(v.len(), 2, "{v:?}");
        assert!(v.iter().all(|v| v.rule == Rule::SwallowedResult));
        assert_eq!(v[0].line, 2);
        assert_eq!(v[1].line, 3);
    }

    #[test]
    fn handled_results_are_not_swallowed() {
        let src = "fn f(mut s: TcpStream) -> std::io::Result<()> {\n    s.flush()?;\n    if s.write_all(b\"x\").is_err() { count(); }\n    let n = s.write_all(b\"y\");\n    s.flush()\n}\n";
        assert!(lint(src).is_empty(), "{:?}", lint(src));
    }

    #[test]
    fn crate_local_fallible_fns_are_tracked() {
        let src = "fn fallible() -> RqpResult<()> { Ok(()) }\nfn f() { let _ = fallible(); }\n";
        let v = lint(src);
        assert_eq!(v.len(), 1, "{v:?}");
        assert_eq!(v[0].rule, Rule::SwallowedResult);
        assert_eq!(v[0].line, 2);
    }

    #[test]
    fn fmt_write_macros_are_not_io() {
        let src = "fn f(out: &mut String) { let _ = write!(out, \"x\"); let _ = writeln!(out, \"y\"); }\n";
        assert!(lint(src).is_empty());
    }

    // ---- v2: raii-span ----

    #[test]
    fn span_guard_bound_to_underscore_warns() {
        let src = "fn f(t: &Tracer) { let _ = t.span(names::SPAN_SESSION, SpanKind::Session); }\n";
        let v = lint(src);
        assert_eq!(v.len(), 1, "{v:?}");
        assert_eq!(v[0].rule, Rule::RaiiSpan);
        assert_eq!(v[0].severity, Severity::Warn);
    }

    #[test]
    fn out_of_order_span_drops_warn() {
        let src = "fn f(t: &Tracer) {\n    let outer = t.span(names::A, SpanKind::Session);\n    let inner = t.span(names::B, SpanKind::Step);\n    drop(outer);\n    drop(inner);\n}\n";
        let v = lint(src);
        assert_eq!(v.len(), 1, "{v:?}");
        assert_eq!(v[0].rule, Rule::RaiiSpan);
        assert_eq!(v[0].line, 4);
        let lifo = "fn f(t: &Tracer) {\n    let outer = t.span(names::A, SpanKind::Session);\n    let inner = t.span(names::B, SpanKind::Step);\n    drop(inner);\n    drop(outer);\n}\n";
        assert!(lint(lifo).is_empty());
    }

    #[test]
    fn record_span_twin_of_a_guard_warns() {
        let src = "fn f(t: &Tracer) {\n    let g = t.span(names::PHASE, SpanKind::Step);\n    t.record_span(names::PHASE, SpanKind::Step, secs, vec![]);\n}\n";
        let v = lint(src);
        assert_eq!(v.len(), 1, "{v:?}");
        assert_eq!(v[0].rule, Rule::RaiiSpan);
        assert_eq!(v[0].line, 3);
    }

    // ---- v2: guard-across-blocking ----

    #[test]
    fn guard_across_foreign_blocking_call_is_flagged() {
        let src = "impl S {\n    fn f(&self) {\n        let g = self.state.lock();\n        self.rx.recv();\n    }\n}\n";
        let v = lint(src);
        assert!(v.iter().any(|v| v.rule == Rule::GuardAcrossBlocking), "{v:?}");
    }

    #[test]
    fn own_condvar_wait_is_exempt() {
        let src = "impl S {\n    fn f(&self) {\n        let mut g = self.state.lock();\n        g = self.cv.wait(g).unwrap_or_else(PoisonError::into_inner);\n    }\n}\n";
        assert!(lint(src).is_empty(), "{:?}", lint(src));
    }

    #[test]
    fn dropped_guard_unblocks() {
        let src = "impl S {\n    fn f(&self) {\n        let g = self.state.lock();\n        drop(g);\n        let msg = self.rx.recv();\n    }\n}\n";
        assert!(lint(src).is_empty(), "{:?}", lint(src));
    }

    #[test]
    fn block_scoped_guard_unblocks() {
        let src = "impl S {\n    fn f(&self) {\n        { let g = self.state.lock(); g.push(1); }\n        let msg = self.rx.recv();\n    }\n}\n";
        assert!(lint(src).is_empty(), "{:?}", lint(src));
    }

    // ---- v2: lock-order ----

    #[test]
    fn two_lock_cycle_is_detected() {
        let src = "impl S {\n    fn ab(&self) {\n        let a = self.alpha.lock();\n        let b = self.beta.lock();\n    }\n    fn ba(&self) {\n        let b = self.beta.lock();\n        let a = self.alpha.lock();\n    }\n}\n";
        let v = lint(src);
        let cycles: Vec<&Violation> = v.iter().filter(|v| v.rule == Rule::LockOrder).collect();
        assert_eq!(cycles.len(), 1, "{v:?}");
        assert!(cycles[0].message.contains("S::alpha"), "{}", cycles[0].message);
        assert!(cycles[0].message.contains("S::beta"), "{}", cycles[0].message);
    }

    #[test]
    fn consistent_lock_order_is_clean() {
        let src = "impl S {\n    fn ab(&self) {\n        let a = self.alpha.lock();\n        let b = self.beta.lock();\n    }\n    fn ab2(&self) {\n        let a = self.alpha.lock();\n        let b = self.beta.lock();\n    }\n}\n";
        assert!(lint(src).is_empty(), "{:?}", lint(src));
    }

    #[test]
    fn wrapper_fns_resolve_to_the_wrapped_mutex() {
        // Shard::lock is a wrapper around Shard::map; acquiring via the
        // wrapper and via self.map.lock() must be the same graph node
        let src = "impl Shard {\n    fn lock(&self) -> MutexGuard<'_, u8> {\n        self.map.lock().unwrap_or_else(PoisonError::into_inner)\n    }\n}\nimpl Registry {\n    fn f(&self, shard: &Shard) {\n        let a = shard.lock();\n        let b = self.other.lock();\n    }\n    fn g(&self, shard: &Shard) {\n        let b = self.other.lock();\n        let a = shard.lock();\n    }\n}\n";
        let v = lint(src);
        let cycles: Vec<&Violation> = v.iter().filter(|v| v.rule == Rule::LockOrder).collect();
        assert_eq!(cycles.len(), 1, "{v:?}");
        assert!(cycles[0].message.contains("Shard::map"), "{}", cycles[0].message);
    }

    // ---- output formats ----

    #[test]
    fn json_rendering_is_wellformed() {
        let v = lint("fn f(x: Option<u8>) -> u8 { x.unwrap() }\n");
        let json = render_json(&v);
        assert!(json.starts_with('['));
        assert!(json.trim_end().ends_with(']'));
        assert!(json.contains("\"rule\": \"no-panic\""));
        assert!(json.contains("\"severity\": \"deny\""));
        assert!(json.contains("\"line\": 1"));
        assert_eq!(render_json(&[]), "[]\n");
    }
}
