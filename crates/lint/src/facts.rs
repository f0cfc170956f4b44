//! Per-file fact extraction — stage one of the two-stage analyzer.
//!
//! `extract` analyzes one source file in isolation and produces a
//! [`FileFacts`]: the file's local findings (metric-name, consttime,
//! codec-local) plus everything the cross-file stage
//! ([`crate::conc::combine`]) needs — lock field declarations,
//! per-function acquisition/call/blocking-op facts, spawn sites,
//! channel endpoints, codec impls, and the suppression table.

use crate::lexer::{lex, Tok, TokKind};
use crate::passes::{
    collect_codec_impls, pass_consttime, pass_metric_names, EncodeImpl, FileCtx, SourceFile,
};
use crate::report::Finding;
use crate::scan::{is_non_index_keyword, scan, Structure};
use std::cell::Cell;
use std::collections::{BTreeMap, BTreeSet};

/// A `lint:allow` suppression as seen by the combine stage.
#[derive(Debug)]
pub struct AllowFact {
    /// Pass name it silences (free-form: includes pseudo-passes such as
    /// `detach`).
    pub pass: String,
    /// Line the comment sits on.
    pub line: u32,
    /// Inclusive line scope.
    pub scope: (u32, u32),
    /// Consumed by a pass (local or cross-file).
    pub used: Cell<bool>,
}

/// One candidate lock acquisition (`recv.lock()` / `.read()` /
/// `.write()` with an identifier receiver). Validated against the
/// workspace-wide lock-field set during combine.
#[derive(Clone, Debug)]
pub struct AcqFact {
    /// Receiver identifier (the lock's field/binding name).
    pub lock: String,
    /// `lock`, `read`, or `write`.
    pub method: String,
    /// Code-token index of the method name.
    pub ci: u32,
    /// 1-based line.
    pub line: u32,
    /// Code-index range `(lo, hi]` during which the guard is live.
    pub live: (u32, u32),
}

/// How a call site names its callee; decides call-graph resolution.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum CallKind {
    /// `func(…)` — resolved by name.
    Bare,
    /// `self.method(…)` — resolved by name.
    SelfMethod,
    /// `recv.method(…)` — resolved only when the name is unique among
    /// workspace functions (avoids phantom std/foreign edges).
    Method,
    /// `path::func(…)` — resolved only when unique, same rationale.
    Path,
}

/// One call site inside a function body.
#[derive(Clone, Debug)]
pub struct CallFact {
    /// Callee name (final identifier).
    pub name: String,
    /// Resolution class.
    pub kind: CallKind,
    /// Code-token index of the callee name.
    pub ci: u32,
    /// 1-based line.
    pub line: u32,
    /// Guard liveness range if this call's result were a guard
    /// (used when the callee turns out to be a guard-returning fn).
    pub live: (u32, u32),
    /// Last identifier inside the argument list (names the lock for
    /// guard-returning helpers like `lock_clean(&self.streams)`).
    pub arg_lock: String,
}

/// A direct blocking operation (socket IO, sleep, channel recv, thread
/// join, process wait) — already classified during extraction.
#[derive(Clone, Debug)]
pub struct OpFact {
    /// Short operation description (`write_vectored`, `thread::sleep`,
    /// `recv`, `join`, …).
    pub op: String,
    /// Code-token index.
    pub ci: u32,
    /// 1-based line.
    pub line: u32,
}

/// One `thread::spawn` / `Builder::spawn` site.
#[derive(Clone, Debug)]
pub struct SpawnFact {
    /// 1-based line of the `spawn` token.
    pub line: u32,
    /// The handle is joined (directly, via a binding, or via a
    /// collection/field the file later joins elementwise).
    pub handled: bool,
}

/// A channel endpooint use (`tx.send(…)` / `rx.recv()`), named by the
/// canonical pair (the `tx` binding of the `let (tx, rx) = channel()`).
#[derive(Clone, Debug)]
pub struct ChanOp {
    /// Canonical channel name.
    pub chan: String,
    /// Code-token index.
    pub ci: u32,
    /// 1-based line.
    pub line: u32,
}

/// Concurrency-relevant facts about one function body or one closure
/// passed to `thread::spawn` (a *pseudo-function* running on its own
/// thread — guards held by the spawning function do not transfer).
#[derive(Debug, Default)]
pub struct FnFacts {
    /// Function name; pseudo-functions are `parent@spawn:<line>`.
    pub name: String,
    /// 1-based line of the `fn` keyword (or the spawn site).
    pub line: u32,
    /// Non-zero for spawn-closure pseudo-functions: the spawn line.
    pub spawn_line: u32,
    /// Signature mentions `MutexGuard`/`RwLockReadGuard`/
    /// `RwLockWriteGuard` — callers treat calls to this fn as
    /// acquisitions of the lock named by the last argument identifier.
    pub returns_guard: bool,
    /// Candidate acquisitions.
    pub acquires: Vec<AcqFact>,
    /// Call sites.
    pub calls: Vec<CallFact>,
    /// Direct blocking ops.
    pub blocking: Vec<OpFact>,
    /// Spawn sites inside this context.
    pub spawns: Vec<SpawnFact>,
    /// Blocking channel receives, by canonical channel.
    pub recvs: Vec<ChanOp>,
    /// Channel sends, by canonical channel.
    pub sends: Vec<ChanOp>,
}

/// Everything the combine stage needs to know about one file.
#[derive(Debug, Default)]
pub struct FileFacts {
    /// Repo-relative path.
    pub path: String,
    /// Set when the file failed to lex (no other facts collected).
    pub lex_error: Option<(u32, String)>,
    /// Local pass findings (already suppression-filtered).
    pub findings: Vec<Finding>,
    /// Suppression table.
    pub allows: Vec<AllowFact>,
    /// Malformed `lint:` comments.
    pub malformed: Vec<(u32, String)>,
    /// Names declared as `Mutex<…>`/`RwLock<…>` fields or bindings.
    pub lock_fields: Vec<String>,
    /// Per-function/pseudo-function facts.
    pub fns: Vec<FnFacts>,
    /// `impl Encode for T` records.
    pub encodes: Vec<EncodeImpl>,
    /// `impl Decode for T` self types.
    pub decodes: Vec<String>,
}

impl FileFacts {
    /// Finds a live suppression for `pass` covering `line`, marks it
    /// used, and returns whether one existed.
    pub fn suppressed(&self, pass: &str, line: u32) -> bool {
        for a in &self.allows {
            if a.pass == pass && a.scope.0 <= line && line <= a.scope.1 {
                a.used.set(true);
                return true;
            }
        }
        false
    }
}

/// Extracts all per-file facts.
pub fn extract(file: &SourceFile) -> FileFacts {
    let mut facts = FileFacts {
        path: file.path.clone(),
        ..FileFacts::default()
    };
    let toks = match lex(&file.text) {
        Ok(toks) => toks,
        Err(e) => {
            facts.lex_error = Some((e.line, e.msg));
            return facts;
        }
    };
    let st = scan(&file.text, &toks);
    let ctx = FileCtx {
        path: &file.path,
        src: &file.text,
        toks: &toks,
        st: &st,
    };
    pass_metric_names(&ctx, &mut facts.findings);
    pass_consttime(&ctx, &mut facts.findings);
    (facts.encodes, facts.decodes) = collect_codec_impls(&ctx, &mut facts.findings);
    collect_lock_fields(&file.text, &toks, &st, &mut facts.lock_fields);
    collect_fn_facts(&ctx, &mut facts.fns);
    facts.malformed = st.malformed.clone();
    facts.allows = st
        .allows
        .iter()
        .map(|s| AllowFact {
            pass: s.pass.clone(),
            line: s.line,
            scope: s.scope,
            used: Cell::new(s.used.get()),
        })
        .collect();
    facts
}

// ---------------------------------------------------------------------
// lock fields
// ---------------------------------------------------------------------

/// Collects names of fields/statics/bindings declared as `Mutex<…>` or
/// `RwLock<…>` (including through `Arc<…>` wrappers).
#[expect(clippy::indexing_slicing, reason = "`code[]` entries are token indices from the scanner, and `i`/`k` stay below `code.len()`")]
pub(crate) fn collect_lock_fields(src: &str, toks: &[Tok], st: &Structure, out: &mut Vec<String>) {
    let mut set: BTreeSet<String> = out.iter().cloned().collect();
    let code = &st.code;
    for i in 0..code.len() {
        let name_ti = code[i];
        let name = toks[name_ti].text(src);
        if toks[name_ti].kind != TokKind::Ident || is_non_index_keyword(name) {
            continue;
        }
        if code
            .get(i + 1)
            .map(|&ti| toks[ti].text(src))
            .is_none_or(|t| t != ":")
        {
            continue;
        }
        // Scan a handful of tokens after the colon for Mutex/RwLock.
        for k in i + 2..(i + 10).min(code.len()) {
            let t = toks[code[k]].text(src);
            if matches!(t, "," | ";" | "{" | "}" | ")" | "=") {
                break;
            }
            if (t == "Mutex" || t == "RwLock")
                && code.get(k + 1).map(|&ti| toks[ti].text(src)) == Some("<")
            {
                set.insert(name.to_string());
                break;
            }
        }
    }
    *out = set.into_iter().collect();
}

// ---------------------------------------------------------------------
// function facts
// ---------------------------------------------------------------------

/// Operation names recorded as direct blocking ops, with the argument
/// shape that distinguishes them from lock/condvar uses. See
/// `classify_blocking`.
const IO_METHODS: &[&str] = &[
    "write_all",
    "write_vectored",
    "read_exact",
    "read_to_end",
    "read_to_string",
];

/// Classifies a method/path/bare call as a direct blocking op.
///
/// - `.read(buf)` / `.write(buf)` **with** arguments are socket/file IO
///   (zero-arg forms are RwLock acquisitions, handled elsewhere);
/// - `.recv()` / `.recv_timeout(…)` are channel receives;
/// - `.join()` with no arguments is a thread join (`slice.join(sep)`
///   always has one);
/// - `.wait()` with no arguments blocks (`Child::wait`,
///   `Barrier::wait`); condvar `wait(guard)` / `wait_timeout(guard, d)`
///   take the guard as an argument and *release it by design*, so the
///   with-argument forms are exempt;
/// - `thread::sleep` / `park` / `park_timeout` and `TcpStream::connect`
///   block wherever they appear.
fn classify_blocking(name: &str, is_method: bool, is_path: bool, argc: usize) -> Option<String> {
    if is_method {
        return match name {
            "read" | "write" if argc >= 1 => Some(format!("{name}() IO")),
            n if IO_METHODS.contains(&n) => Some(format!("{n}()")),
            "flush" if argc == 0 => Some("flush()".to_string()),
            "recv" | "recv_timeout" => Some(format!("{name}()")),
            "join" if argc == 0 => Some("join()".to_string()),
            "wait" if argc == 0 => Some("wait()".to_string()),
            "accept" if argc == 0 => Some("accept()".to_string()),
            // `TcpStream::shutdown(Shutdown::…)` issues a syscall that
            // can stall on a wedged peer; the workspace's own zero-arg
            // `shutdown()` teardown methods do not match.
            "shutdown" if argc >= 1 => Some("shutdown()".to_string()),
            _ => None,
        };
    }
    match name {
        "sleep" => Some("thread::sleep".to_string()),
        "park" | "park_timeout" => Some(format!("thread::{name}")),
        "connect" if is_path => Some("connect()".to_string()),
        _ => None,
    }
}

/// A spawn site discovered during the pre-scan of a function body.
struct SpawnSite {
    line: u32,
    /// Code-index range of the closure body (exclusive of delimiters);
    /// `None` when no closure literal was passed.
    body: Option<(usize, usize)>,
    handled: bool,
}

/// Collects per-function facts, splitting closures passed to
/// `thread::spawn` into their own pseudo-function contexts.
pub(crate) fn collect_fn_facts(ctx: &FileCtx<'_>, out: &mut Vec<FnFacts>) {
    let joined = joined_names(ctx);
    let chans = channel_pairs(ctx);
    for f in &ctx.st.fns {
        if f.is_test {
            continue;
        }
        let (Some(open), Some(close)) = (f.open_ci, f.close_ci) else {
            continue;
        };
        let returns_guard = signature_returns_guard(ctx, f.kw_ci, open);
        let spawns = find_spawns(ctx, open, close, &joined);

        // One context per spawn-closure body plus the function itself.
        let mut contexts: Vec<FnFacts> = Vec::new();
        for s in &spawns {
            contexts.push(FnFacts {
                name: format!("{}@spawn:{}", f.name, s.line),
                line: s.line,
                spawn_line: s.line,
                ..FnFacts::default()
            });
        }
        let mut main_ctx = FnFacts {
            name: f.name.clone(),
            line: f.start_line,
            returns_guard,
            spawns: spawns
                .iter()
                .map(|s| SpawnFact {
                    line: s.line,
                    handled: s.handled,
                })
                .collect(),
            ..FnFacts::default()
        };

        // Innermost spawn-body containing a code index, if any.
        let owner = |ci: usize| -> Option<usize> {
            let mut best: Option<(usize, usize)> = None; // (span, idx)
            for (k, s) in spawns.iter().enumerate() {
                if let Some((lo, hi)) = s.body {
                    if lo <= ci && ci <= hi {
                        let span = hi - lo;
                        if best.is_none_or(|(bspan, _)| span < bspan) {
                            best = Some((span, k));
                        }
                    }
                }
            }
            best.map(|(_, k)| k)
        };

        let mut ci = open + 1;
        while ci < close {
            let text = ctx.ctext(ci);
            if ctx.ckind(ci) == Some(TokKind::Ident) && ctx.ctext(ci + 1) == "(" {
                collect_call_site(ctx, ci, close, &chans, |fact| match fact {
                    SiteFact::Acq(a) => target(&mut contexts, &mut main_ctx, owner(ci)).acquires.push(a),
                    SiteFact::Call(c) => target(&mut contexts, &mut main_ctx, owner(ci)).calls.push(c),
                    SiteFact::Block(o) => target(&mut contexts, &mut main_ctx, owner(ci)).blocking.push(o),
                    SiteFact::Send(s) => target(&mut contexts, &mut main_ctx, owner(ci)).sends.push(s),
                    SiteFact::Recv(r) => target(&mut contexts, &mut main_ctx, owner(ci)).recvs.push(r),
                });
            } else if text == "for" && ctx.ckind(ci) == Some(TokKind::Ident) {
                // `for x in rx { … }` — iterating a Receiver blocks.
                if let Some(r) = for_loop_recv(ctx, ci, &chans) {
                    let t = target(&mut contexts, &mut main_ctx, owner(ci));
                    t.blocking.push(OpFact {
                        op: "recv (for-loop over Receiver)".to_string(),
                        ci: r.ci,
                        line: r.line,
                    });
                    t.recvs.push(r);
                }
            }
            ci += 1;
        }

        for c in contexts {
            if !c.acquires.is_empty()
                || !c.calls.is_empty()
                || !c.blocking.is_empty()
                || !c.sends.is_empty()
                || !c.recvs.is_empty()
            {
                out.push(c);
            }
        }
        if returns_guard
            || !main_ctx.acquires.is_empty()
            || !main_ctx.calls.is_empty()
            || !main_ctx.blocking.is_empty()
            || !main_ctx.spawns.is_empty()
            || !main_ctx.sends.is_empty()
            || !main_ctx.recvs.is_empty()
        {
            out.push(main_ctx);
        }
    }
}

/// Routes a fact to the owning context (a spawn closure or the fn).
fn target<'a>(
    contexts: &'a mut [FnFacts],
    main_ctx: &'a mut FnFacts,
    owner: Option<usize>,
) -> &'a mut FnFacts {
    match owner.and_then(|k| contexts.get_mut(k)) {
        Some(c) => c,
        None => main_ctx,
    }
}

enum SiteFact {
    Acq(AcqFact),
    Call(CallFact),
    Block(OpFact),
    Send(ChanOp),
    Recv(ChanOp),
}

/// Examines one `ident (` site and reports the facts it contributes.
fn collect_call_site(
    ctx: &FileCtx<'_>,
    ci: usize,
    fn_close: usize,
    chans: &ChannelTable,
    mut sink: impl FnMut(SiteFact),
) {
    let text = ctx.ctext(ci);
    let line = ctx.cline(ci);
    let prev = ctx.ctext(ci.wrapping_sub(1));
    let prev2 = ctx.ctext(ci.wrapping_sub(2));
    let is_method = prev == ".";
    let is_path = prev == ":" && prev2 == ":";
    let call_end = ctx.mate(ci + 1).unwrap_or(ci + 2);
    let argc = count_args(ctx, ci + 1, call_end);

    // Lock acquisition candidate: `recv.lock()` / `.read()` / `.write()`
    // with an identifier receiver and no arguments.
    if is_method && argc == 0 && matches!(text, "lock" | "read" | "write") {
        let recv_ci = ci.wrapping_sub(2);
        if ctx.ckind(recv_ci) == Some(TokKind::Ident) {
            let live = guard_live_range(ctx, recv_ci, call_end, fn_close);
            sink(SiteFact::Acq(AcqFact {
                lock: ctx.ctext(recv_ci).to_string(),
                method: text.to_string(),
                ci: ci as u32,
                line,
                live: (live.0 as u32, live.1 as u32),
            }));
            return;
        }
    }

    // Channel endpoint use?
    if is_method {
        let recv_name = ctx.ctext(ci.wrapping_sub(2));
        if let Some(chan) = chans.resolve(recv_name) {
            match text {
                "send" => {
                    sink(SiteFact::Send(ChanOp {
                        chan: chan.to_string(),
                        ci: ci as u32,
                        line,
                    }));
                    return;
                }
                "recv" | "recv_timeout" | "iter" | "into_iter" => {
                    sink(SiteFact::Recv(ChanOp {
                        chan: chan.to_string(),
                        ci: ci as u32,
                        line,
                    }));
                    sink(SiteFact::Block(OpFact {
                        op: format!("{text}()"),
                        ci: ci as u32,
                        line,
                    }));
                    return;
                }
                _ => {}
            }
        }
    }

    // Direct blocking op?
    if let Some(op) = classify_blocking(text, is_method, is_path, argc) {
        sink(SiteFact::Block(OpFact {
            op,
            ci: ci as u32,
            line,
        }));
        return;
    }

    // Call-graph edge candidate. `drop` is excluded: a bare `drop(x)`
    // is the std destructor call, and resolving it by name to some
    // `impl Drop` method in the workspace fabricates phantom edges.
    if text == "spawn"
        || text == "drop"
        || is_non_index_keyword(text)
        || matches!(text, "Some" | "Ok" | "Err" | "None" | "self" | "Self")
    {
        return;
    }
    let kind = if is_method {
        if prev2 == "self" {
            CallKind::SelfMethod
        } else {
            CallKind::Method
        }
    } else if is_path {
        CallKind::Path
    } else {
        CallKind::Bare
    };
    let live = guard_live_range(ctx, ci, call_end, fn_close);
    let arg_lock = last_arg_ident(ctx, ci + 1, call_end);
    sink(SiteFact::Call(CallFact {
        name: text.to_string(),
        kind,
        ci: ci as u32,
        line,
        live: (live.0 as u32, live.1 as u32),
        arg_lock,
    }));
}

/// Counts top-level arguments between `open` (the `(`) and its mate.
fn count_args(ctx: &FileCtx<'_>, open: usize, close: usize) -> usize {
    if close <= open + 1 {
        return 0;
    }
    let mut depth = 0i32;
    let mut commas = 0usize;
    for k in open + 1..close {
        match ctx.ctext(k) {
            "(" | "[" | "{" => depth += 1,
            ")" | "]" | "}" => depth -= 1,
            "," if depth == 0 => commas += 1,
            "|" => {
                // Closures contain commas in their parameter lists;
                // skipping them precisely is not worth it — argc only
                // distinguishes 0 from >=1 here, and a closure argument
                // already makes argc >= 1.
            }
            _ => {}
        }
    }
    commas + 1
}

/// Last identifier inside an argument list: names the lock in
/// `lock_clean(&self.core.streams)`.
fn last_arg_ident(ctx: &FileCtx<'_>, open: usize, close: usize) -> String {
    let mut last = "";
    for k in open + 1..close {
        if ctx.ckind(k) == Some(TokKind::Ident) {
            let t = ctx.ctext(k);
            if !is_non_index_keyword(t) && t != "self" {
                last = t;
            }
        }
    }
    last.to_string()
}

/// True when the fn signature between `kw_ci` and the body `{` names a
/// guard type after `->` — callers treat such fns as lock acquisitions.
fn signature_returns_guard(ctx: &FileCtx<'_>, kw_ci: usize, open: usize) -> bool {
    let mut saw_arrow = false;
    let mut k = kw_ci;
    while k < open {
        let t = ctx.ctext(k);
        if t == "-" && ctx.ctext(k + 1) == ">" {
            saw_arrow = true;
        }
        if saw_arrow
            && matches!(t, "MutexGuard" | "RwLockReadGuard" | "RwLockWriteGuard")
        {
            return true;
        }
        k += 1;
    }
    false
}

// ---------------------------------------------------------------------
// spawn sites
// ---------------------------------------------------------------------

/// Identifiers the file connects to a `.join()` call: direct receivers,
/// idents in the same statement as a join, and (transitively) any
/// collection whose for-loop binding is joined.
fn joined_names(ctx: &FileCtx<'_>) -> BTreeSet<String> {
    let mut joined: BTreeSet<String> = BTreeSet::new();
    // Alias edges collection → loop binding (`for h in handles`).
    let mut aliases: Vec<(String, String)> = Vec::new();
    let n = ctx.st.code.len();
    for ci in 0..n {
        let text = ctx.ctext(ci);
        if ctx.ckind(ci) != Some(TokKind::Ident) {
            continue;
        }
        if text == "join" && ctx.ctext(ci.wrapping_sub(1)) == "." && ctx.ctext(ci + 1) == "(" {
            let close = ctx.mate(ci + 1).unwrap_or(ci + 2);
            if close != ci + 2 {
                continue; // join with arguments — `slice.join(sep)`
            }
            // Every identifier in the enclosing statement is considered
            // join-connected (`self.thread.take().map(|t| t.join())`).
            let mut b = ci;
            let mut steps = 0;
            while b > 0 && steps < 64 {
                steps += 1;
                b -= 1;
                let t = ctx.ctext(b);
                if matches!(t, ";" | "{" | "}") {
                    break;
                }
                if ctx.ckind(b) == Some(TokKind::Ident) && !is_non_index_keyword(t) {
                    joined.insert(t.to_string());
                }
            }
        } else if text == "for" {
            // `for V in <expr> {` — record expr idents → V aliases.
            let v = ctx.ctext(ci + 1);
            if ctx.ckind(ci + 1) != Some(TokKind::Ident) || ctx.ctext(ci + 2) != "in" {
                continue;
            }
            let mut k = ci + 3;
            let mut depth = 0i32;
            while k < n && ctx.cline(k) != 0 {
                let t = ctx.ctext(k);
                match t {
                    "(" | "[" => depth += 1,
                    ")" | "]" => depth -= 1,
                    "{" if depth == 0 => break,
                    _ => {
                        if ctx.ckind(k) == Some(TokKind::Ident) && !is_non_index_keyword(t) {
                            aliases.push((t.to_string(), v.to_string()));
                        }
                    }
                }
                k += 1;
            }
        }
    }
    // Propagate: a collection is joined when its loop binding is.
    loop {
        let mut changed = false;
        for (coll, binding) in &aliases {
            if joined.contains(binding) && joined.insert(coll.clone()) {
                changed = true;
            }
        }
        if !changed {
            break;
        }
    }
    joined
}

/// Finds `spawn(…)` sites in a fn body, their closure body ranges, and
/// whether each handle is joined.
fn find_spawns(
    ctx: &FileCtx<'_>,
    open: usize,
    close: usize,
    joined: &BTreeSet<String>,
) -> Vec<SpawnSite> {
    let mut out = Vec::new();
    let mut ci = open + 1;
    while ci < close {
        if ctx.ckind(ci) == Some(TokKind::Ident)
            && ctx.ctext(ci) == "spawn"
            && ctx.ctext(ci + 1) == "("
        {
            let call_close = ctx.mate(ci + 1).unwrap_or(ci + 2);
            let body = closure_body(ctx, ci + 1, call_close);
            let handled = spawn_handled(ctx, ci, call_close, joined);
            out.push(SpawnSite {
                line: ctx.cline(ci),
                body,
                handled,
            });
            // Skip past the argument list head so a nested `spawn`
            // inside the closure is still discovered on its own.
            ci += 2;
            continue;
        }
        ci += 1;
    }
    out
}

/// Locates the closure body inside a spawn call's argument list:
/// `spawn(move || { … })` / `spawn(move |x| expr)`.
fn closure_body(ctx: &FileCtx<'_>, open: usize, close: usize) -> Option<(usize, usize)> {
    let mut k = open + 1;
    if ctx.ctext(k) == "move" {
        k += 1;
    }
    if ctx.ctext(k) != "|" {
        return None;
    }
    // Parameter list: `||` (adjacent pipes) or `|a, b|`.
    let mut p = k + 1;
    while p < close && ctx.ctext(p) != "|" {
        p += 1;
    }
    if p >= close {
        return None;
    }
    let body_start = p + 1;
    if ctx.ctext(body_start) == "{" {
        let body_close = ctx.mate(body_start)?;
        Some((body_start + 1, body_close.saturating_sub(1)))
    } else {
        Some((body_start, close.saturating_sub(1)))
    }
}

/// Decides whether a spawn handle is joined: chained `.join()`, or the
/// statement binds/stores it under a name the file join-connects.
fn spawn_handled(
    ctx: &FileCtx<'_>,
    spawn_ci: usize,
    call_close: usize,
    joined: &BTreeSet<String>,
) -> bool {
    // Chained: `spawn(…).join()` (possibly via `.expect(…)`, `.unwrap()`).
    let mut k = call_close + 1;
    let mut hops = 0;
    while ctx.ctext(k) == "." && hops < 4 {
        hops += 1;
        let m = ctx.ctext(k + 1);
        if m == "join" {
            return true;
        }
        if !matches!(m, "expect" | "unwrap") {
            break;
        }
        let Some(mc) = ctx.mate(k + 2) else { break };
        k = mc + 1;
    }
    // Statement backscan: find `let` binding, `X.push(…)`, `field:` or
    // `lhs =` storage, and check the name against the joined set.
    let mut b = spawn_ci;
    let mut steps = 0;
    while b > 0 && steps < 48 {
        steps += 1;
        b -= 1;
        let t = ctx.ctext(b);
        match t {
            ";" | "{" | "}" => break,
            "let" => {
                let mut nb = b + 1;
                if ctx.ctext(nb) == "mut" {
                    nb += 1;
                }
                return ctx.ckind(nb) == Some(TokKind::Ident) && joined.contains(ctx.ctext(nb));
            }
            "push" | "insert" if ctx.ctext(b + 1) == "(" && ctx.ctext(b.wrapping_sub(1)) == "." => {
                let coll = ctx.ctext(b.wrapping_sub(2));
                return joined.contains(coll);
            }
            "=" => {
                // Assignment target: the identifier just before `=`
                // (`self.worker = spawn…` → `worker`).
                let lhs = ctx.ctext(b.wrapping_sub(1));
                return joined.contains(lhs);
            }
            ":" if ctx.ctext(b.wrapping_sub(1)) != ":" && ctx.ctext(b + 1) != ":" => {
                // Struct literal field — `thread: spawn(…)`.
                let field = ctx.ctext(b.wrapping_sub(1));
                return joined.contains(field);
            }
            _ => {}
        }
    }
    false
}

/// `for x in rx`-style receive: returns the channel op when the loop
/// iterates a known Receiver binding directly.
fn for_loop_recv(ctx: &FileCtx<'_>, for_ci: usize, chans: &ChannelTable) -> Option<ChanOp> {
    if ctx.ckind(for_ci + 1) != Some(TokKind::Ident) || ctx.ctext(for_ci + 2) != "in" {
        return None;
    }
    let expr = ctx.ctext(for_ci + 3);
    let chan = chans.resolve(expr)?;
    Some(ChanOp {
        chan: chan.to_string(),
        ci: for_ci as u32 + 3,
        line: ctx.cline(for_ci + 3),
    })
}

// ---------------------------------------------------------------------
// channel pairs
// ---------------------------------------------------------------------

/// File-level channel registry: canonical pair names plus clone/move
/// aliases, all name-based.
pub struct ChannelTable {
    /// endpoint binding name → canonical channel name (the tx binding).
    aliases: BTreeMap<String, String>,
}

impl ChannelTable {
    fn resolve(&self, name: &str) -> Option<&str> {
        self.aliases.get(name).map(String::as_str)
    }
}

/// Finds `let (tx, rx) = channel()` / `sync_channel(n)` pairs and
/// `let tx2 = tx.clone()` aliases across the file.
fn channel_pairs(ctx: &FileCtx<'_>) -> ChannelTable {
    let mut aliases: BTreeMap<String, String> = BTreeMap::new();
    let n = ctx.st.code.len();
    for ci in 0..n {
        if ctx.ctext(ci) != "let" {
            continue;
        }
        if ctx.ctext(ci + 1) == "(" {
            // `let ( a , b ) = … channel ( … )`
            let a = ctx.ctext(ci + 2);
            if ctx.ctext(ci + 3) != "," {
                continue;
            }
            let b = ctx.ctext(ci + 4);
            if ctx.ctext(ci + 5) != ")" || ctx.ctext(ci + 6) != "=" {
                continue;
            }
            let mut k = ci + 7;
            let mut is_chan = false;
            while k < n && k < ci + 14 {
                let t = ctx.ctext(k);
                if t == ";" {
                    break;
                }
                if (t == "channel" || t == "sync_channel") && ctx.ctext(k + 1) == "(" {
                    is_chan = true;
                    break;
                }
                k += 1;
            }
            if is_chan && !a.is_empty() && !b.is_empty() {
                aliases.insert(a.to_string(), a.to_string());
                aliases.insert(b.to_string(), a.to_string());
            }
        } else if ctx.ckind(ci + 1) == Some(TokKind::Ident) {
            // `let tx2 = tx.clone();`
            let new_name = ctx.ctext(ci + 1);
            if ctx.ctext(ci + 2) != "=" {
                continue;
            }
            let src_name = ctx.ctext(ci + 3);
            if ctx.ctext(ci + 4) == "."
                && ctx.ctext(ci + 5) == "clone"
                && ctx.ctext(ci + 6) == "("
            {
                if let Some(canon) = aliases.get(src_name).cloned() {
                    aliases.insert(new_name.to_string(), canon);
                }
            }
        }
    }
    ChannelTable { aliases }
}

// ---------------------------------------------------------------------
// guard liveness
// ---------------------------------------------------------------------

/// True when the method chain continuing after `call_end` projects a
/// non-guard value out of the guard before the statement ends: the
/// binding then holds the projection, not the guard, and the guard
/// temporary dies at the end of the statement. Guard-preserving
/// adapters (`unwrap`, `expect`, `unwrap_or_else` poison recovery,
/// `ok`) keep guard-ness; anything else — further method calls, `?`,
/// operators — projects.
fn chain_projects(ctx: &FileCtx<'_>, call_end: usize) -> bool {
    let mut k = call_end + 1;
    loop {
        match ctx.ctext(k) {
            ";" => return false,
            "." => {
                let m = ctx.ctext(k + 1);
                if matches!(m, "unwrap" | "expect" | "unwrap_or_else" | "ok")
                    && ctx.ctext(k + 2) == "("
                {
                    let Some(mc) = ctx.mate(k + 2) else {
                        return true;
                    };
                    k = mc + 1;
                    continue;
                }
                return true;
            }
            _ => return true,
        }
    }
}

/// Computes the code-index range `(start, end]` during which a guard
/// obtained at `recv_ci … call_end` is live.
///
/// - `let g = x.lock();` (including through `unwrap`/`expect`/poison
///   `unwrap_or_else` and a poison-recovery `match`) → to the end of
///   the enclosing block, or an explicit `drop(g)`;
/// - `let v = x.lock().…projection…;` → the binding holds a projected
///   value, so the guard temporary dies at the statement's `;`;
/// - bare `match x.lock().y { … }` / `for _ in x.lock()… { … }` →
///   through the match/loop body (Rust extends scrutinee temporaries);
/// - `if let` / `while let`, plain `if`/`while` conditions, and
///   expression statements → to the end of the statement (`;`) or the
///   condition's `{`.
pub(crate) fn guard_live_range(
    ctx: &FileCtx<'_>,
    recv_ci: usize,
    call_end: usize,
    fn_close: usize,
) -> (usize, usize) {
    // Backscan to the statement start, recording the nearest head
    // keyword plus whether a `let` (and an `if`/`while` in front of
    // it) governs the statement. A `let` can sit behind a `match`
    // scrutinee (`let g = match x.lock() { … }` poison recovery), so
    // the scan does not stop at the first keyword it meets.
    let mut nearest_kw = String::new();
    let mut saw_let = false;
    let mut let_cond = false;
    let mut binding: Option<String> = None;
    let mut b = recv_ci;
    let mut steps = 0;
    while b > 0 && steps < 96 {
        steps += 1;
        b -= 1;
        let t = ctx.ctext(b);
        match t {
            ";" | "{" | "}" => break,
            ")" | "]" => {
                if let Some(open) = ctx.mate(b) {
                    b = open;
                    continue;
                }
            }
            "let" => {
                saw_let = true;
                let_cond = matches!(ctx.ctext(b.wrapping_sub(1)), "if" | "while");
                let mut nb = b + 1;
                if ctx.ctext(nb) == "mut" {
                    nb += 1;
                }
                if ctx.ckind(nb) == Some(TokKind::Ident) {
                    binding = Some(ctx.ctext(nb).to_string());
                }
                break;
            }
            "match" | "for" | "if" | "while" | "return" if nearest_kw.is_empty() => {
                nearest_kw = t.to_string();
            }
            _ => {}
        }
    }
    let head_kw = if saw_let {
        if let_cond || (nearest_kw != "match" && chain_projects(ctx, call_end)) {
            String::new() // statement-scoped temporary
        } else {
            String::from("let")
        }
    } else {
        nearest_kw
    };
    match head_kw.as_str() {
        "let" => {
            // Live to end of enclosing block, or an explicit drop(g).
            let mut depth = 0i32;
            let mut ci = call_end + 1;
            while ci < fn_close {
                let t = ctx.ctext(ci);
                match t {
                    "(" | "[" | "{" => depth += 1,
                    ")" | "]" | "}" => {
                        depth -= 1;
                        if depth < 0 {
                            return (call_end, ci);
                        }
                    }
                    "drop"
                        if binding.is_some()
                            && ctx.ctext(ci + 1) == "("
                            && Some(ctx.ctext(ci + 2).to_string()) == binding
                            && ctx.ctext(ci + 3) == ")" =>
                    {
                        return (call_end, ci);
                    }
                    _ => {}
                }
                ci += 1;
            }
            (call_end, fn_close)
        }
        "match" | "for" => {
            // Through the body: find the `{` at depth 0, jump to mate.
            let mut depth = 0i32;
            let mut ci = call_end + 1;
            while ci < fn_close {
                let t = ctx.ctext(ci);
                match t {
                    "(" | "[" => depth += 1,
                    ")" | "]" => depth -= 1,
                    "{" if depth == 0 => {
                        return (call_end, ctx.mate(ci).unwrap_or(fn_close));
                    }
                    ";" if depth == 0 => return (call_end, ci),
                    _ => {}
                }
                ci += 1;
            }
            (call_end, fn_close)
        }
        _ => {
            // Statement/condition scope: to `;` or `{` at depth 0.
            let mut depth = 0i32;
            let mut ci = call_end + 1;
            while ci < fn_close {
                let t = ctx.ctext(ci);
                match t {
                    "(" | "[" => depth += 1,
                    ")" | "]" => {
                        depth -= 1;
                        if depth < 0 {
                            return (call_end, ci);
                        }
                    }
                    "{" if depth == 0 => return (call_end, ci),
                    ";" if depth == 0 => return (call_end, ci),
                    _ => {}
                }
                ci += 1;
            }
            (call_end, fn_close)
        }
    }
}
