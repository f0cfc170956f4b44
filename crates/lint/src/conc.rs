//! Cross-file combine — stage two of the analyzer, and the home of the
//! interprocedural concurrency passes.
//!
//! [`combine`] consumes one [`FileFacts`] per workspace file, builds
//! the workspace-wide name-based call graph, propagates held-guard and
//! may-block sets across call edges, and emits the cross-file findings:
//!
//! | pass | invariant |
//! |------|-----------|
//! | `lock-order` | the Mutex/RwLock acquisition graph — extended through call edges, including cross-crate ones — has no cycles |
//! | `blocking` | no socket read/write/writev, `thread::sleep`, channel `recv`, thread `join`, or process `wait` is reachable while a guard is live |
//! | `thread` | spawned threads are joined or explicitly detached (`lint:allow(detach)`); channel recv/send cycles between spawn sites are flagged |
//! | `codec` | every `Encode` has a matching `Decode` (the per-impl checks run in extraction) |
//!
//! ## Call-graph construction rules
//!
//! Functions are keyed by *name* (the scanner has no type information).
//! `self.method(…)` and bare `func(…)` calls always become edges;
//! `recv.method(…)` and `path::func(…)` calls become edges only when
//! exactly one workspace function bears that name — a unique name
//! cannot conflate a std/foreign callee with a workspace one, which is
//! what lets transport↔obs↔audit edges cross crate boundaries without
//! flooding the graph with phantom `push`/`len`/`new` edges.
//!
//! ## Guard propagation
//!
//! A guard is considered held from its acquisition site to the end of
//! its statement-form scope (see `facts::guard_live_range`). Calls made
//! inside that range carry the held set into the callee via the
//! fixpoint `reach` map (locks a call may transitively acquire) and the
//! `may_block` map (whether a call transitively reaches a blocking
//! op). Closures passed to `thread::spawn` are separate contexts:
//! guards held at the spawn site do *not* transfer into the new thread.
//! Functions returning `MutexGuard`/`RwLock*Guard` count as
//! acquisitions of the lock named by their last argument identifier,
//! so poison-tolerant helpers like `lock_clean(&self.streams)`
//! participate fully.

use crate::facts::{AcqFact, CallKind, FileFacts, FnFacts};
use crate::report::{Finding, Report};
use std::collections::{BTreeMap, BTreeSet};

/// Combines per-file facts into the final report, running the
/// cross-file passes.
pub fn combine(facts: &[FileFacts]) -> Report {
    let mut report = Report {
        files_scanned: facts.len(),
        ..Report::default()
    };

    // Local findings and lex errors first.
    for f in facts {
        if let Some((line, msg)) = &f.lex_error {
            report.findings.push(Finding {
                file: f.path.clone(),
                line: *line,
                pass: "lint",
                message: format!("file does not lex: {msg}"),
            });
        }
        report.findings.extend(f.findings.iter().cloned());
    }

    let by_path: BTreeMap<&str, &FileFacts> = facts.iter().map(|f| (f.path.as_str(), f)).collect();
    let suppressed = |file: &str, pass: &str, line: u32| -> bool {
        by_path.get(file).is_some_and(|f| f.suppressed(pass, line))
    };

    let graph = Graph::build(facts);
    finish_codec(facts, &suppressed, &mut report.findings);
    pass_lock_order(&graph, &suppressed, &mut report.findings);
    pass_blocking(&graph, &suppressed, &mut report.findings);
    pass_thread(facts, &graph, &suppressed, &mut report.findings);

    // Meta pass: malformed and unused suppressions.
    for f in facts {
        for (line, msg) in &f.malformed {
            report.findings.push(Finding {
                file: f.path.clone(),
                line: *line,
                pass: "lint",
                message: msg.clone(),
            });
        }
        for a in &f.allows {
            if a.used.get() {
                report.suppressions_used += 1;
            } else {
                report.findings.push(Finding {
                    file: f.path.clone(),
                    line: a.line,
                    pass: "lint",
                    message: format!(
                        "unused suppression lint:allow({}) — nothing to silence here; remove it",
                        a.pass
                    ),
                });
            }
        }
    }

    report.sort();
    report
}

// ---------------------------------------------------------------------
// call graph
// ---------------------------------------------------------------------

/// One context (function or spawn closure) with its owning file.
struct Ctx<'a> {
    file: &'a str,
    f: &'a FnFacts,
    /// Validated acquisitions: direct lock-field ones plus synthesized
    /// acquisitions through guard-returning callees.
    acqs: Vec<AcqFact>,
}

/// The workspace call graph plus derived fixpoint maps.
struct Graph<'a> {
    ctxs: Vec<Ctx<'a>>,
    /// fn name → indices of real (callable) contexts with that name.
    by_name: BTreeMap<&'a str, Vec<usize>>,
    /// name → resolved callee names (union over same-named contexts).
    callees: BTreeMap<&'a str, BTreeSet<&'a str>>,
    /// name → locks transitively acquirable through that name.
    reach: BTreeMap<&'a str, BTreeSet<String>>,
    /// name → witness for "this call may block": (op, file, line) of a
    /// direct blocking op in the named fn, if any.
    direct_block: BTreeMap<&'a str, (String, String, u32)>,
    /// Names that may block directly or transitively.
    may_block: BTreeSet<&'a str>,
}

impl<'a> Graph<'a> {
    fn build(facts: &'a [FileFacts]) -> Graph<'a> {
        // Workspace-wide lock-field set and guard-returning fn names.
        let mut lock_fields: BTreeSet<&str> = BTreeSet::new();
        let mut guard_fns: BTreeSet<&str> = BTreeSet::new();
        for f in facts {
            lock_fields.extend(f.lock_fields.iter().map(String::as_str));
            for fun in &f.fns {
                if fun.returns_guard && fun.spawn_line == 0 {
                    guard_fns.insert(fun.name.as_str());
                }
            }
        }

        let mut ctxs: Vec<Ctx<'a>> = Vec::new();
        let mut by_name: BTreeMap<&str, Vec<usize>> = BTreeMap::new();
        for f in facts {
            for fun in &f.fns {
                let mut acqs: Vec<AcqFact> = fun
                    .acquires
                    .iter()
                    .filter(|a| lock_fields.contains(a.lock.as_str()))
                    .cloned()
                    .collect();
                // Guard-returning callees are acquisitions of the lock
                // named by their last argument identifier.
                for c in &fun.calls {
                    if guard_fns.contains(c.name.as_str())
                        && !c.arg_lock.is_empty()
                        && lock_fields.contains(c.arg_lock.as_str())
                    {
                        acqs.push(AcqFact {
                            lock: c.arg_lock.clone(),
                            method: c.name.clone(),
                            ci: c.ci,
                            line: c.line,
                            live: c.live,
                        });
                    }
                }
                let idx = ctxs.len();
                ctxs.push(Ctx {
                    file: f.path.as_str(),
                    f: fun,
                    acqs,
                });
                if fun.spawn_line == 0 {
                    by_name.entry(fun.name.as_str()).or_default().push(idx);
                }
            }
        }

        // Resolved call edges per name.
        let mut callees: BTreeMap<&str, BTreeSet<&str>> = BTreeMap::new();
        for ctx in &ctxs {
            let entry = callees.entry(ctx.f.name.as_str()).or_default();
            for c in &ctx.f.calls {
                let name = c.name.as_str();
                let Some(targets) = by_name.get(name) else {
                    continue;
                };
                let resolved = match c.kind {
                    CallKind::Bare | CallKind::SelfMethod => true,
                    // Unique-name resolution for other receivers and
                    // path calls: one workspace fn by that name means
                    // no std/foreign conflation is possible.
                    CallKind::Method | CallKind::Path => targets.len() == 1,
                };
                if resolved {
                    entry.insert(name);
                }
            }
        }

        // Lock reachability fixpoint over names.
        let mut reach: BTreeMap<&str, BTreeSet<String>> = BTreeMap::new();
        for ctx in &ctxs {
            reach
                .entry(ctx.f.name.as_str())
                .or_default()
                .extend(ctx.acqs.iter().map(|a| a.lock.clone()));
        }
        loop {
            let mut changed = false;
            let names: Vec<&str> = callees.keys().copied().collect();
            for name in names {
                let mut add: BTreeSet<String> = BTreeSet::new();
                if let Some(cs) = callees.get(name) {
                    for callee in cs {
                        if let Some(r) = reach.get(callee) {
                            add.extend(r.iter().cloned());
                        }
                    }
                }
                let own = reach.entry(name).or_default();
                let before = own.len();
                own.extend(add);
                changed |= own.len() != before;
            }
            if !changed {
                break;
            }
        }

        // May-block fixpoint.
        let mut direct_block: BTreeMap<&str, (String, String, u32)> = BTreeMap::new();
        for ctx in &ctxs {
            if ctx.f.spawn_line != 0 {
                continue; // pseudo-fns are not callable
            }
            if let Some(op) = ctx.f.blocking.first() {
                direct_block
                    .entry(ctx.f.name.as_str())
                    .or_insert_with(|| (op.op.clone(), ctx.file.to_string(), op.line));
            }
        }
        let mut may_block: BTreeSet<&str> = direct_block.keys().copied().collect();
        loop {
            let mut changed = false;
            for (name, cs) in &callees {
                if !may_block.contains(name) && cs.iter().any(|c| may_block.contains(c)) {
                    may_block.insert(name);
                    changed = true;
                }
            }
            if !changed {
                break;
            }
        }

        Graph {
            ctxs,
            by_name,
            callees,
            reach,
            direct_block,
            may_block,
        }
    }

    /// Shortest call chain `from → … → target-ish` where the predicate
    /// accepts the terminal name. BFS over resolved edges.
    fn chain_to(&self, from: &str, accept: impl Fn(&str) -> bool) -> Vec<String> {
        let mut prev: BTreeMap<&str, &str> = BTreeMap::new();
        let mut queue: Vec<&str> = Vec::new();
        let mut seen: BTreeSet<&str> = BTreeSet::new();
        let Some((start, _)) = self.callees.get_key_value(from) else {
            return vec![from.to_string()];
        };
        queue.push(start);
        seen.insert(start);
        let mut head = 0usize;
        while head < queue.len() {
            let Some(&node) = queue.get(head) else { break };
            head += 1;
            if accept(node) {
                // Reconstruct.
                let mut path = vec![node.to_string()];
                let mut cur = node;
                while let Some(&p) = prev.get(cur) {
                    path.push(p.to_string());
                    cur = p;
                }
                path.reverse();
                return path;
            }
            if let Some(nexts) = self.callees.get(node) {
                for &nxt in nexts {
                    if seen.insert(nxt) {
                        prev.insert(nxt, node);
                        queue.push(nxt);
                    }
                }
            }
        }
        vec![from.to_string()]
    }
}

// ---------------------------------------------------------------------
// codec completeness (cross-file half)
// ---------------------------------------------------------------------

fn finish_codec(
    facts: &[FileFacts],
    suppressed: &dyn Fn(&str, &str, u32) -> bool,
    out: &mut Vec<Finding>,
) {
    let mut decodes: BTreeSet<&str> = BTreeSet::new();
    for f in facts {
        decodes.extend(f.decodes.iter().map(String::as_str));
    }
    // First Encode impl per type wins; `has_len` is OR-ed across files.
    let mut encodes: BTreeMap<&str, (&str, u32, bool)> = BTreeMap::new();
    for f in facts {
        for e in &f.encodes {
            let entry = encodes
                .entry(e.ty.as_str())
                .or_insert((f.path.as_str(), e.line, e.has_len));
            entry.2 |= e.has_len;
        }
    }
    for (ty, (file, line, has_len)) in &encodes {
        let decoded = decodes.contains(ty) || decodes.contains(ty.trim_start_matches('&'));
        if !decoded && !suppressed(file, "codec", *line) {
            out.push(Finding {
                file: (*file).to_string(),
                line: *line,
                pass: "codec",
                message: format!(
                    "`impl Encode for {ty}` has no matching `impl Decode` — every wire message \
                     must decode exactly what it encodes"
                ),
            });
        }
        if !has_len && !suppressed(file, "codec", *line) {
            out.push(Finding {
                file: (*file).to_string(),
                line: *line,
                pass: "codec",
                message: format!(
                    "`impl Encode for {ty}` does not override `encoded_len` — the default \
                     scratch-encode defeats single-allocation sends"
                ),
            });
        }
    }
}

// ---------------------------------------------------------------------
// lock-order
// ---------------------------------------------------------------------

/// Site + description of one lock-graph edge.
#[derive(Clone)]
struct EdgeSite {
    file: String,
    line: u32,
    desc: String,
}

fn pass_lock_order(
    graph: &Graph<'_>,
    suppressed: &dyn Fn(&str, &str, u32) -> bool,
    out: &mut Vec<Finding>,
) {
    // Edges: held lock → acquired lock, with a representative site.
    let mut edges: BTreeMap<(String, String), EdgeSite> = BTreeMap::new();
    for ctx in &graph.ctxs {
        // Nested direct acquisitions.
        for a in &ctx.acqs {
            for b in &ctx.acqs {
                if b.ci != a.ci && b.ci > a.live.0 && b.ci <= a.live.1 {
                    edges
                        .entry((a.lock.clone(), b.lock.clone()))
                        .or_insert_with(|| EdgeSite {
                            file: ctx.file.to_string(),
                            line: b.line,
                            desc: format!(
                                "{}() takes `{}.{}()` while holding `{}`",
                                ctx.f.name, b.lock, b.method, a.lock
                            ),
                        });
                }
            }
            // Calls made while holding — pull in the callee's
            // transitively reachable locks, with the call chain.
            for c in &ctx.f.calls {
                if c.ci <= a.live.0 || c.ci > a.live.1 {
                    continue;
                }
                if !edge_resolved(graph, c.kind, &c.name) {
                    continue;
                }
                let Some(r) = graph.reach.get(c.name.as_str()) else {
                    continue;
                };
                for acquired in r {
                    if edges.contains_key(&(a.lock.clone(), acquired.clone())) {
                        continue;
                    }
                    let chain =
                        graph.chain_to(&c.name, |n| {
                            graph
                                .by_name
                                .get(n)
                                .is_some_and(|idxs| idxs.iter().any(|&i| {
                                    graph.ctxs.get(i).is_some_and(|cx| {
                                        cx.acqs.iter().any(|aa| aa.lock == *acquired)
                                    })
                                }))
                        });
                    let rendered = render_chain(&ctx.f.name, &chain);
                    edges.insert(
                        (a.lock.clone(), acquired.clone()),
                        EdgeSite {
                            file: ctx.file.to_string(),
                            line: c.line,
                            desc: format!(
                                "{rendered} acquires `{acquired}` while holding `{}`",
                                a.lock
                            ),
                        },
                    );
                }
            }
        }
    }

    // Cycle detection (DFS, deduplicated by canonical rotation).
    let mut adj: BTreeMap<&str, Vec<&str>> = BTreeMap::new();
    for (held, acquired) in edges.keys() {
        adj.entry(held.as_str()).or_default().push(acquired.as_str());
    }
    let mut cycles: Vec<Vec<String>> = Vec::new();
    let mut reported: BTreeSet<String> = BTreeSet::new();
    let starts: Vec<&str> = adj.keys().copied().collect();
    for start in starts {
        let mut path: Vec<&str> = Vec::new();
        dfs_cycles(start, &adj, &mut path, &mut reported, &mut cycles);
    }

    // Shortest cycle first, then at most one finding per edge site —
    // a large strongly connected component would otherwise repeat the
    // same root cause once per elementary cycle through it.
    cycles.sort_by_key(|c| (c.len(), c.join("->")));
    let mut seen_sites: BTreeSet<(String, u32)> = BTreeSet::new();
    for canon in cycles {
        let first = canon.first().cloned().unwrap_or_default();
        let second = canon.get(1).cloned().unwrap_or_else(|| first.clone());
        let site = edges.get(&(first.clone(), second.clone()));
        let (file, line, hint) = match site {
            Some(e) => (e.file.clone(), e.line, format!(" ({})", e.desc)),
            None => (String::from("<workspace>"), 0, String::new()),
        };
        if !seen_sites.insert((file.clone(), line)) {
            continue;
        }
        if suppressed(&file, "lock-order", line) {
            continue;
        }
        let mut ring = canon.join(" -> ");
        ring.push_str(" -> ");
        ring.push_str(&first);
        out.push(Finding {
            file,
            line,
            pass: "lock-order",
            message: format!("lock acquisition cycle {ring} — deadlock candidate{hint}"),
        });
    }
}

/// Whether a call site's callee name resolves to a workspace fn under
/// the edge rules (always for bare/self, unique-name otherwise).
fn edge_resolved(graph: &Graph<'_>, kind: CallKind, name: &str) -> bool {
    match graph.by_name.get(name) {
        None => false,
        Some(targets) => match kind {
            CallKind::Bare | CallKind::SelfMethod => true,
            CallKind::Method | CallKind::Path => targets.len() == 1,
        },
    }
}

/// `caller() calls a() -> b() -> c()` (chain may be a single name).
fn render_chain(caller: &str, chain: &[String]) -> String {
    let mut s = format!("{caller}() calls ");
    for (i, n) in chain.iter().enumerate() {
        if i > 0 {
            s.push_str(" -> ");
        }
        s.push_str(n);
        s.push_str("()");
    }
    s
}

#[expect(clippy::indexing_slicing, reason = "`pos` comes from `position()` on the same path, and rotation indices are taken modulo the cycle length")]
fn dfs_cycles<'g>(
    node: &'g str,
    adj: &BTreeMap<&'g str, Vec<&'g str>>,
    path: &mut Vec<&'g str>,
    reported: &mut BTreeSet<String>,
    cycles: &mut Vec<Vec<String>>,
) {
    if let Some(pos) = path.iter().position(|&n| n == node) {
        let cycle = &path[pos..];
        // Canonical rotation: smallest name first.
        let min_idx = cycle
            .iter()
            .enumerate()
            .min_by_key(|(_, n)| **n)
            .map_or(0, |(i, _)| i);
        let canon: Vec<String> = (0..cycle.len())
            .map(|k| cycle[(min_idx + k) % cycle.len()].to_string())
            .collect();
        if reported.insert(canon.join("->")) {
            cycles.push(canon);
        }
        return;
    }
    path.push(node);
    if let Some(nexts) = adj.get(node) {
        for &n in nexts {
            dfs_cycles(n, adj, path, reported, cycles);
        }
    }
    path.pop();
}

// ---------------------------------------------------------------------
// blocking-while-locked
// ---------------------------------------------------------------------

fn pass_blocking(
    graph: &Graph<'_>,
    suppressed: &dyn Fn(&str, &str, u32) -> bool,
    out: &mut Vec<Finding>,
) {
    for ctx in &graph.ctxs {
        let mut flagged: BTreeSet<u32> = BTreeSet::new();
        for a in &ctx.acqs {
            // Direct blocking ops inside the guard's live range.
            for op in &ctx.f.blocking {
                if op.ci > a.live.0 && op.ci <= a.live.1 && flagged.insert(op.line) {
                    if suppressed(ctx.file, "blocking", op.line) {
                        continue;
                    }
                    out.push(Finding {
                        file: ctx.file.to_string(),
                        line: op.line,
                        pass: "blocking",
                                message: format!(
                            "`{}` while `{}` guard is live — IO/waiting under a lock stalls \
                             every thread contending for it; drop the guard first or justify \
                             with `// lint:allow(blocking): <reason>`",
                            op.op, a.lock
                        ),
                    });
                }
            }
            // Calls that transitively reach a blocking op.
            for c in &ctx.f.calls {
                if c.ci <= a.live.0 || c.ci > a.live.1 {
                    continue;
                }
                if !edge_resolved(graph, c.kind, &c.name)
                    || !graph.may_block.contains(c.name.as_str())
                {
                    continue;
                }
                if !flagged.insert(c.line) {
                    continue;
                }
                if suppressed(ctx.file, "blocking", c.line) {
                    continue;
                }
                let chain = graph.chain_to(&c.name, |n| graph.direct_block.contains_key(n));
                let witness = chain
                    .last()
                    .and_then(|n| graph.direct_block.get(n.as_str()));
                let site = match witness {
                    Some((op, file, line)) => format!("; {op} at {file}:{line}"),
                    None => String::new(),
                };
                out.push(Finding {
                    file: ctx.file.to_string(),
                    line: c.line,
                    pass: "blocking",
                        message: format!(
                        "call chain {} blocks while `{}` guard is live{site} — drop the guard \
                         before calling, or justify with `// lint:allow(blocking): <reason>`",
                        render_chain_bare(&chain),
                        a.lock
                    ),
                });
            }
        }
    }
}

/// `a() -> b() -> c()`.
fn render_chain_bare(chain: &[String]) -> String {
    let mut s = String::new();
    for (i, n) in chain.iter().enumerate() {
        if i > 0 {
            s.push_str(" -> ");
        }
        s.push_str(n);
        s.push_str("()");
    }
    s
}

// ---------------------------------------------------------------------
// thread lifecycle
// ---------------------------------------------------------------------

fn pass_thread(
    facts: &[FileFacts],
    graph: &Graph<'_>,
    suppressed: &dyn Fn(&str, &str, u32) -> bool,
    out: &mut Vec<Finding>,
) {
    // Unjoined, un-detached spawns.
    for ctx in &graph.ctxs {
        for s in &ctx.f.spawns {
            if s.handled {
                continue;
            }
            if suppressed(ctx.file, "detach", s.line) || suppressed(ctx.file, "thread", s.line) {
                continue;
            }
            out.push(Finding {
                file: ctx.file.to_string(),
                line: s.line,
                pass: "thread",
                message: format!(
                    "spawned thread in {}() is neither joined nor explicitly detached — join \
                     the handle or mark `// lint:allow(detach): <reason>`",
                    ctx.f.name
                ),
            });
        }
    }

    // Channel wait cycles, per file (channel names are file-local).
    for f in facts {
        // Context name → (min recv ci per chan, min send ci overall).
        let mut waits: Vec<(&str, &str, u32, u32)> = Vec::new(); // (ctx, chan, recv_ci, recv_line)
        let mut senders: BTreeMap<&str, BTreeSet<&str>> = BTreeMap::new(); // chan → ctxs
        let mut first_send: BTreeMap<&str, u32> = BTreeMap::new(); // ctx → min send ci
        for fun in &f.fns {
            for s in &fun.sends {
                senders.entry(s.chan.as_str()).or_default().insert(fun.name.as_str());
                let e = first_send.entry(fun.name.as_str()).or_insert(u32::MAX);
                *e = (*e).min(s.ci);
            }
            for r in &fun.recvs {
                waits.push((fun.name.as_str(), r.chan.as_str(), r.ci, r.line));
            }
        }
        if waits.is_empty() {
            continue;
        }
        // Wait edges: ctx A → ctx B when A blocks on a recv (before it
        // has sent anything itself) whose sender is B. A recv *after*
        // the context's own send is a request/response turnaround, not
        // a deadlock shape.
        let mut adj: BTreeMap<&str, Vec<&str>> = BTreeMap::new();
        let mut edge_site: BTreeMap<(String, String), (u32, u32)> = BTreeMap::new();
        for (ctx_name, chan, recv_ci, recv_line) in &waits {
            let sent_before = first_send
                .get(ctx_name)
                .is_some_and(|&send_ci| send_ci < *recv_ci);
            if sent_before {
                continue;
            }
            if let Some(ss) = senders.get(chan) {
                for s in ss {
                    if s != ctx_name {
                        adj.entry(ctx_name).or_default().push(s);
                        edge_site
                            .entry(((*ctx_name).to_string(), (*s).to_string()))
                            .or_insert((*recv_ci, *recv_line));
                    }
                }
            }
        }
        let mut cycles: Vec<Vec<String>> = Vec::new();
        let mut reported: BTreeSet<String> = BTreeSet::new();
        let starts: Vec<&str> = adj.keys().copied().collect();
        for start in starts {
            let mut path: Vec<&str> = Vec::new();
            dfs_cycles(start, &adj, &mut path, &mut reported, &mut cycles);
        }
        cycles.sort_by_key(|c| (c.len(), c.join("->")));
        let mut seen_lines: BTreeSet<u32> = BTreeSet::new();
        for canon in cycles {
            let first = canon.first().cloned().unwrap_or_default();
            let second = canon.get(1).cloned().unwrap_or_else(|| first.clone());
            let Some((_, line)) = edge_site.get(&(first.clone(), second.clone())) else {
                continue;
            };
            if !seen_lines.insert(*line) || suppressed(&f.path, "thread", *line) {
                continue;
            }
            let mut ring = canon.join(" -> ");
            ring.push_str(" -> ");
            ring.push_str(&first);
            out.push(Finding {
                file: f.path.clone(),
                line: *line,
                pass: "thread",
                message: format!(
                    "channel wait cycle {ring} — each context receives before it sends, so all \
                     can starve together; reorder the sends or justify with \
                     `// lint:allow(thread): <reason>`"
                ),
            });
        }
    }
}
