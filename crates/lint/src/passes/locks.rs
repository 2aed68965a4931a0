//! `lock-order` and `guard-across-blocking`: the concurrency rule family.
//!
//! Both rules share one flow-insensitive scan per function that tracks
//! which mutex guards are live at each token:
//!
//! * an acquisition while other guards are held adds an edge
//!   `held → acquired` to the crate's **lock acquisition graph**; a cycle
//!   in that graph is a potential deadlock (`lock-order`, deny). The graph
//!   is exportable as DOT via `rqp-lint --lock-graph`.
//! * a **blocking call** (`.wait()`, `recv`, `accept`, file/socket IO,
//!   `sleep`, thread `join()`) while a guard is held stalls every peer of
//!   that mutex (`guard-across-blocking`, deny) — unless the wait is on
//!   the guard's *own* condvar (`cv.wait(guard)`), which is the condvar
//!   protocol itself and releases the lock while parked.
//!
//! Lock identity: `.lock()` receivers resolve to `Type::field` where
//! possible (`self.map.lock()` in `impl Shard` → `Shard::map`); calls to
//! crate-local wrapper fns returning `MutexGuard` (`shard.lock()`,
//! `inner.lock_state()`) resolve through the pooled wrapper registry.
//! Unresolvable receivers get their own split node — splitting can only
//! *miss* cycles, never invent them.

use super::{matching_close, receiver_chain, CrateCtx, FileCtx, Finding};
use crate::lexer::TokKind;
use crate::tree::{FlatTok, Function};
use crate::Rule;
use std::collections::{BTreeMap, BTreeSet, VecDeque};

/// Blocking calls (matched behind a `.`); `wait`/`wait_timeout` get the
/// own-condvar exemption, `join` must have empty args (thread join, not
/// `str::join`), `read` must have non-empty args (socket/file read, not
/// `RwLock::read()`).
const BLOCKING: [&str; 12] = [
    "recv",
    "recv_timeout",
    "accept",
    "connect",
    "read_exact",
    "read_to_string",
    "read_to_end",
    "write_all",
    "flush",
    "sync_all",
    "sync_data",
    "sleep",
];

/// `std::fs` free functions that hit the disk (matched behind `fs::`).
const FS_BLOCKING: [&str; 8] = [
    "remove_file",
    "remove_dir_all",
    "create_dir",
    "create_dir_all",
    "write",
    "rename",
    "copy",
    "read_to_string",
];

/// One acquisition-order edge: `from` was held when `to` was acquired.
#[derive(Debug, Clone)]
pub struct Edge {
    /// The already-held lock.
    pub from: String,
    /// The lock acquired under it.
    pub to: String,
    /// Workspace-relative file of the acquisition site.
    pub file: String,
    /// 1-based line of the acquisition site.
    pub line: usize,
}

/// A per-crate lock acquisition graph.
#[derive(Debug, Default)]
pub struct LockGraph {
    /// Deduplicated edges (first site wins), insertion order.
    pub edges: Vec<Edge>,
    /// Every acquired lock, including ones never nested under another
    /// (so the DOT export shows the crate's full lock inventory).
    acquired: BTreeSet<String>,
}

impl LockGraph {
    /// Record a lock acquisition (a graph node, with or without edges).
    pub fn add_node(&mut self, id: &str) {
        self.acquired.insert(id.to_string());
    }

    /// Record an acquisition-order edge (keeping the first site per pair).
    pub fn add_edge(&mut self, from: String, to: String, file: &str, line: usize) {
        if self.edges.iter().any(|e| e.from == from && e.to == to) {
            return;
        }
        self.edges.push(Edge { from, to, file: file.to_string(), line });
    }

    /// Every lock acquired or named by an edge, sorted.
    pub fn nodes(&self) -> BTreeSet<&str> {
        self.acquired
            .iter()
            .map(String::as_str)
            .chain(self.edges.iter().flat_map(|e| [e.from.as_str(), e.to.as_str()]))
            .collect()
    }

    fn adjacency(&self) -> BTreeMap<&str, Vec<&Edge>> {
        let mut adj: BTreeMap<&str, Vec<&Edge>> = BTreeMap::new();
        let mut sorted: Vec<&Edge> = self.edges.iter().collect();
        sorted.sort_by(|a, b| (&a.from, &a.to).cmp(&(&b.from, &b.to)));
        for e in sorted {
            adj.entry(&e.from).or_default().push(e);
        }
        adj
    }

    /// Deterministic list of cycles, each as the edge path that closes it.
    /// At most one cycle is reported per participating node set.
    pub fn cycles(&self) -> Vec<Vec<&Edge>> {
        let adj = self.adjacency();
        let mut sorted: Vec<&Edge> = self.edges.iter().collect();
        sorted.sort_by(|a, b| (&a.from, &a.to).cmp(&(&b.from, &b.to)));
        let mut reported: BTreeSet<&str> = BTreeSet::new();
        let mut out = Vec::new();
        for e in sorted {
            if reported.contains(e.from.as_str()) || reported.contains(e.to.as_str()) {
                continue;
            }
            if let Some(back) = path(&adj, &e.to, &e.from) {
                let mut cycle = vec![e];
                cycle.extend(back);
                for edge in &cycle {
                    reported.insert(&edge.from);
                    reported.insert(&edge.to);
                }
                out.push(cycle);
            }
        }
        out
    }

    /// Render the graph as GraphViz DOT, edges labeled with their site.
    pub fn to_dot(&self) -> String {
        let mut sorted: Vec<&Edge> = self.edges.iter().collect();
        sorted.sort_by(|a, b| (&a.from, &a.to).cmp(&(&b.from, &b.to)));
        let mut s = String::from("digraph lock_order {\n    rankdir=LR;\n");
        for n in self.nodes() {
            s.push_str(&format!("    \"{n}\";\n"));
        }
        for e in sorted {
            s.push_str(&format!(
                "    \"{}\" -> \"{}\" [label=\"{}:{}\"];\n",
                e.from, e.to, e.file, e.line
            ));
        }
        s.push_str("}\n");
        s
    }
}

/// Shortest edge path `from → … → to` (BFS over sorted adjacency).
fn path<'g>(adj: &BTreeMap<&str, Vec<&'g Edge>>, from: &str, to: &str) -> Option<Vec<&'g Edge>> {
    let mut prev: BTreeMap<&str, &'g Edge> = BTreeMap::new();
    let mut queue = VecDeque::from([from.to_string()]);
    let mut seen: BTreeSet<String> = BTreeSet::from([from.to_string()]);
    while let Some(n) = queue.pop_front() {
        if n == to {
            let mut chain = Vec::new();
            let mut cur = to.to_string();
            while cur != from {
                let e = prev.get(cur.as_str())?;
                chain.push(*e);
                cur = e.from.clone();
            }
            chain.reverse();
            return Some(chain);
        }
        for e in adj.get(n.as_str()).into_iter().flatten() {
            if seen.insert(e.to.clone()) {
                prev.insert(&e.to, e);
                queue.push_back(e.to.clone());
            }
        }
    }
    None
}

/// Cycle findings for a crate graph, each anchored at its first edge's
/// site; `(file, finding)` pairs because a cycle's edges can span files.
pub fn cycle_violations(graph: &LockGraph) -> Vec<(String, Finding)> {
    graph
        .cycles()
        .iter()
        .map(|cycle| {
            let first = cycle[0];
            let ring: Vec<&str> = cycle
                .iter()
                .map(|e| e.from.as_str())
                .chain(std::iter::once(cycle[0].from.as_str()))
                .collect();
            let sites: Vec<String> = cycle
                .iter()
                .map(|e| format!("`{} -> {}` at {}:{}", e.from, e.to, e.file, e.line))
                .collect();
            (
                first.file.clone(),
                Finding {
                    rule: Rule::LockOrder,
                    line: first.line,
                    message: format!(
                        "lock-order cycle {} — acquisition edges: {} \
                         (establish one global order or narrow a guard's scope)",
                        ring.join(" -> "),
                        sites.join(", ")
                    ),
                },
            )
        })
        .collect()
}

#[derive(Debug)]
struct Held {
    id: String,
    binding: Option<String>,
    depth: u32,
}

/// Run the lock scan over a file: feeds `graph` with acquisition-order
/// edges and `out` with guard-across-blocking findings.
pub(crate) fn analyze_file(
    ctx: &FileCtx<'_>,
    krate: &CrateCtx,
    graph: &mut LockGraph,
    out: &mut Vec<Finding>,
) {
    if ctx.test_like {
        return;
    }
    for f in &ctx.index.functions {
        if f.is_test {
            continue;
        }
        scan_function(f, ctx.path, krate, graph, out);
    }
}

/// Resolve the lock id acquired by `recv.M(…)` (`dot` = index of the `.`).
fn resolve_lock_id(
    body: &[FlatTok],
    dot: usize,
    method: &str,
    f: &Function,
    krate: &CrateCtx,
) -> String {
    let chain = receiver_chain(body, dot);
    let recv_last = chain.first().map(String::as_str).unwrap_or("?");
    // `self.M()`: the enclosing impl's own wrapper
    if chain.len() == 1 && recv_last == "self" {
        if let Some(id) = krate.wrappers.get(&(f.impl_ty.clone(), method.to_string())) {
            return id.clone();
        }
    }
    // receiver-name ↔ wrapper-type match: `shard.lock()` → `Shard::map`
    for ((ty, name), id) in &krate.wrappers {
        if name == method {
            if let Some(ty) = ty {
                if ty.eq_ignore_ascii_case(recv_last) {
                    return id.clone();
                }
            }
        }
    }
    if method != "lock" {
        // a wrapper called through an untyped receiver: unique name wins
        let candidates: Vec<&String> = krate
            .wrappers
            .iter()
            .filter(|((_, name), _)| name == method)
            .map(|(_, id)| id)
            .collect();
        if candidates.len() == 1 {
            return candidates[0].clone();
        }
        return format!("{recv_last}.{method}");
    }
    // direct `.lock()` on a mutex field: `self.<field>.lock()` → Type::field
    if chain.last().map(String::as_str) == Some("self") && chain.len() >= 2 {
        if let Some(ty) = &f.impl_ty {
            return format!("{ty}::{recv_last}");
        }
    }
    recv_last.to_string()
}

/// Whether `M` names a crate lock wrapper (any impl).
fn is_wrapper(method: &str, krate: &CrateCtx) -> bool {
    krate.wrappers.keys().any(|(_, name)| name == method)
}

fn scan_function(
    f: &Function,
    file: &str,
    krate: &CrateCtx,
    graph: &mut LockGraph,
    out: &mut Vec<Finding>,
) {
    let body = &f.body;
    let mut held: Vec<Held> = Vec::new();
    let mut stmt_start = 0usize;
    let mut i = 0usize;
    while i < body.len() {
        let t = &body[i];
        if t.is_punct(";") {
            // statement end: temporaries (un-bound guards) drop here
            held.retain(|h| h.binding.is_some());
            stmt_start = i + 1;
            i += 1;
            continue;
        }
        if t.is_punct("{") {
            stmt_start = i + 1;
            i += 1;
            continue;
        }
        if t.is_punct("}") {
            held.retain(|h| h.depth <= t.depth);
            stmt_start = i + 1;
            i += 1;
            continue;
        }
        if t.kind != TokKind::Ident {
            i += 1;
            continue;
        }
        let name = t.text.as_str();
        let next_open = body.get(i + 1).is_some_and(|n| n.is_punct("("));
        // explicit release
        if name == "drop" && next_open && body.get(i + 3).is_some_and(|n| n.is_punct(")")) {
            if let Some(arg) = body.get(i + 2) {
                held.retain(|h| h.binding.as_deref() != Some(arg.text.as_str()));
            }
            i += 1;
            continue;
        }
        let prev_dot = i > 0 && body[i - 1].is_punct(".");
        let prev_path = i >= 2 && body[i - 1].is_punct("::");
        // condvar wait: exempt when parking on a held guard's own condvar
        if prev_dot && (name == "wait" || name == "wait_timeout") && next_open {
            let first_arg = body.get(i + 2).map(|a| a.text.as_str()).unwrap_or("");
            let own = held.iter().any(|h| h.binding.as_deref() == Some(first_arg));
            if !own {
                for h in &held {
                    out.push(Finding {
                        rule: Rule::GuardAcrossBlocking,
                        line: t.line,
                        message: format!(
                            "`{}` guard held across `.{name}(…)` on a foreign condvar \
                             (the lock stays held while parked; wait on the guard's own \
                             condvar or drop it first)",
                            h.id
                        ),
                    });
                }
            }
            i += 1;
            continue;
        }
        // blocking calls under a held guard
        let blocking = (prev_dot && BLOCKING.contains(&name))
            || (prev_path
                && (name == "sleep"
                    || (body[i - 2].is_ident("fs") && FS_BLOCKING.contains(&name))))
            || (prev_dot
                && name == "join"
                && next_open
                && body.get(i + 2).is_some_and(|n| n.is_punct(")")))
            || (prev_dot
                && name == "read"
                && next_open
                && !body.get(i + 2).is_some_and(|n| n.is_punct(")")));
        if blocking && next_open {
            for h in &held {
                out.push(Finding {
                    rule: Rule::GuardAcrossBlocking,
                    line: t.line,
                    message: format!(
                        "`{}` guard held across blocking `{name}(…)` \
                         (every peer of that mutex stalls; move the IO outside the guard)",
                        h.id
                    ),
                });
            }
            i += 1;
            continue;
        }
        // acquisition: direct `.lock()` or a crate wrapper returning a guard
        let acquires = prev_dot
            && next_open
            && body.get(i + 2).is_some_and(|n| n.is_punct(")"))
            && (name == "lock" || is_wrapper(name, krate));
        if acquires {
            let id = resolve_lock_id(body, i - 1, name, f, krate);
            graph.add_node(&id);
            for h in &held {
                if h.id != id {
                    graph.add_edge(h.id.clone(), id.clone(), file, t.line);
                }
            }
            // adapter chains (`.unwrap_or_else(PoisonError::into_inner)`)
            // still yield the guard; any other continuation consumes it
            // within the statement (a temporary)
            let mut after = i + 3;
            loop {
                let adapter = body.get(after).is_some_and(|n| n.is_punct("."))
                    && body.get(after + 1).is_some_and(|n| {
                        n.is_ident("unwrap_or_else") || n.is_ident("unwrap") || n.is_ident("expect")
                    })
                    && body.get(after + 2).is_some_and(|n| n.is_punct("("));
                if !adapter {
                    break;
                }
                after = matching_close(body, after + 2) + 1;
            }
            let at_stmt_end = body.get(after).is_some_and(|n| n.is_punct(";"));
            let binding = if at_stmt_end {
                let stmt = &body[stmt_start..i];
                if stmt.first().is_some_and(|s| s.is_ident("let")) {
                    let mut b = 1usize;
                    if stmt.get(b).is_some_and(|s| s.is_ident("mut")) {
                        b += 1;
                    }
                    match (stmt.get(b), stmt.get(b + 1)) {
                        (Some(bind), Some(eq))
                            if eq.is_punct("=")
                                && bind.kind == TokKind::Ident
                                && bind.text != "_" =>
                        {
                            Some(bind.text.clone())
                        }
                        _ => None,
                    }
                } else {
                    None
                }
            } else {
                None
            };
            held.push(Held { id, binding, depth: t.depth });
            i += 1;
            continue;
        }
        i += 1;
    }
}
