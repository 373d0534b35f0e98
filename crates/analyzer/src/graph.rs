//! Workspace-wide call graph, built from the per-file token streams.
//!
//! No name resolution beyond what tokens give us: calls are resolved by
//! name within the defining crate (same file preferred for free
//! functions, so sibling `src/bin/*.rs` targets cannot alias each
//! other) and across crates through the file's `use` declarations.
//! Method calls (`.name(`) are over-approximated to every workspace
//! method of that name in the own crate plus every `use`-reachable
//! crate — for a determinism *gate* an extra edge is safe, a missing
//! edge is not.
//!
//! Besides edges, extraction records per function:
//!
//! * **taint sinks** — clock reads, `std::env`, filesystem/process IO,
//!   unseeded RNG construction, hash-order iteration (see
//!   [`crate::purity`] for the lattice);
//! * **lock acquisitions** — direct `.lock()` / zero-arg `.read()` /
//!   `.write()` calls with their guard scopes, feeding the lock-order
//!   lint;
//! * **deterministic-root evidence** — call sites inside
//!   `par_map`/`par_map_indexed`/`par_chunks` closures and inside
//!   `get_or_compute` argument groups.

use std::collections::{BTreeMap, BTreeSet};
use std::path::PathBuf;

use crate::lexer::{LexedFile, Token, TokenKind, Trust};
use crate::lints::FileContext;
use crate::purity::{taint_bit, CLOCK, ENV, HASH_ITER, IO, RNG};
use crate::sig::{parse_all_fns, parse_use_decls, test_region_mask};

/// Why a function is a deterministic root.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
pub enum RootKind {
    /// A trap-kinetics kernel entry point (`TrapBank::advance_all`, or
    /// the fleet's cached-decay `TrapBank::advance_range_cached`).
    Kernel,
    /// Invoked inside a `par_map`/`par_map_indexed`/`par_chunks`
    /// argument group (closure body or bare fn reference).
    ParClosure,
    /// Invoked inside a `get_or_compute` argument group — its result
    /// flows into a content-addressed cache namespace.
    CacheFeed,
}

impl RootKind {
    /// Human phrasing used in findings.
    #[must_use]
    pub fn describe(self) -> &'static str {
        match self {
            RootKind::Kernel => "the trap-kinetics kernel entry point",
            RootKind::ParClosure => "invoked inside a par_map/par_chunks closure",
            RootKind::CacheFeed => "feeds a content-addressed cache namespace",
        }
    }
}

/// One function node of the workspace call graph.
#[derive(Debug, Clone)]
pub struct FnNode {
    /// Package name of the defining crate.
    pub crate_name: String,
    /// Workspace-relative path of the defining file.
    pub file: PathBuf,
    /// `Type::name`-qualified function name.
    pub qualified: String,
    /// Source line of the `fn` keyword.
    pub line: u32,
    /// Taint kinds this function's own body touches (bitset).
    pub own_taint: u8,
    /// Taint kinds exempted by a `// analyzer: trust(...)` annotation.
    pub trusted: u8,
    /// True when the body draws randomness through the `SeedSequence`
    /// contract (`.rng(`, `seed_from_u64`, `SeedSequence`).
    pub seeded: bool,
    /// Per-sink evidence: (taint bit, construct, line) — used to print
    /// the tail of a tainted call path.
    pub sink_notes: Vec<(u8, String, u32)>,
    /// Direct lock acquisitions in body order.
    pub locks: Vec<LockAcquire>,
}

/// One resolved call edge.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Edge {
    /// Callee node index.
    pub to: usize,
    /// Source line of the call site.
    pub line: u32,
    /// Token position of the call site inside the caller's file.
    pub pos: usize,
    /// The root group the call site sits in, if any.
    pub root: Option<RootKind>,
}

/// A direct `Mutex`/`RwLock` acquisition inside one function.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct LockAcquire {
    /// The lock's name (nearest base identifier before the call).
    pub name: String,
    /// Source line of the acquisition.
    pub line: u32,
    /// Token position of the acquisition.
    pub pos: usize,
    /// Token position where the guard's enclosing block closes — the
    /// conservative end of the held region.
    pub scope_end: usize,
}

/// The assembled workspace call graph.
#[derive(Debug, Default)]
pub struct CallGraph {
    /// All non-test function nodes, in (file, line) order.
    pub nodes: Vec<FnNode>,
    /// Out-edges per node, deduplicated by callee.
    pub edges: Vec<Vec<Edge>>,
    /// Root node indices with the strongest reason each qualified.
    pub roots: BTreeMap<usize, RootKind>,
}

/// Per-file artifacts the graph is assembled from.
#[derive(Debug)]
pub struct FileGraph {
    rel: PathBuf,
    crate_name: String,
    fns: Vec<RawFn>,
    uses: Vec<(String, String)>, // local name -> path root segment
    trusts: Vec<Trust>,
}

/// One function with unresolved call sites.
#[derive(Debug)]
struct RawFn {
    qualified: String,
    line: u32,
    end_line: u32,
    in_test_region: bool,
    own_taint: u8,
    seeded: bool,
    sink_notes: Vec<(u8, String, u32)>,
    locks: Vec<LockAcquire>,
    calls: Vec<RawCall>,
}

/// An unresolved call site.
#[derive(Debug)]
struct RawCall {
    /// Path segments; a method call or bare name has exactly one.
    segments: Vec<String>,
    /// True for `.name(` receiver calls.
    is_method: bool,
    line: u32,
    pos: usize,
    root: Option<RootKind>,
}

/// Functions whose argument groups mark deterministic roots.
const PAR_ENTRY_FNS: [&str; 3] = ["par_map", "par_map_indexed", "par_chunks"];

/// `std::env` accessors that make a function env-tainted.
const ENV_FNS: [&str; 9] = [
    "var", "vars", "var_os", "args", "args_os", "current_dir", "temp_dir", "set_var", "remove_var",
];

/// Socket-surface method calls that make a function io-tainted: the
/// accept/read/write primitives the fleet transport funnels through its
/// single trusted chokepoint. Matched only as method calls (`.name(`),
/// so free functions with these names stay clean.
const SOCKET_METHOD_SINKS: [&str; 3] = ["accept", "read_exact", "write_all"];

/// Extracts one file's graph contribution from its lexed form.
#[must_use]
pub fn extract_file(rel: &std::path::Path, lexed: &LexedFile, ctx: &FileContext) -> FileGraph {
    let tokens = &lexed.tokens;
    let mask = test_region_mask(tokens);
    let parsed = parse_all_fns(tokens, &mask);
    let uses = parse_use_decls(tokens)
        .into_iter()
        .map(|b| (b.local, b.root))
        .collect();
    let file_has_rwlock = tokens.iter().any(|t| t.is_ident("RwLock"));

    let mut fns = Vec::new();
    for pf in &parsed {
        if pf.in_test_region {
            continue;
        }
        let body = pf.body_start..pf.body_end;
        let root_groups = root_group_ranges(tokens, body.clone());
        let (own_taint, seeded, sink_notes) = scan_sinks(tokens, body.clone());
        let locks = scan_locks(tokens, body.clone(), file_has_rwlock);
        let calls = scan_calls(tokens, body, &root_groups);
        fns.push(RawFn {
            qualified: pf.qualified.clone(),
            line: pf.line,
            end_line: pf.end_line,
            in_test_region: pf.in_test_region,
            own_taint,
            seeded,
            sink_notes,
            locks,
            calls,
        });
    }
    FileGraph {
        rel: rel.to_path_buf(),
        crate_name: ctx.crate_name.clone(),
        fns,
        uses,
        trusts: lexed.trusts.clone(),
    }
}

/// Finds `par_map(`/`par_chunks(`/`get_or_compute(` argument-group
/// token ranges inside `body`, tagged with the root kind they induce.
fn root_group_ranges(
    tokens: &[Token],
    body: std::ops::Range<usize>,
) -> Vec<(std::ops::Range<usize>, RootKind)> {
    let mut groups = Vec::new();
    let mut i = body.start;
    while i < body.end {
        let t = &tokens[i];
        let kind = if t.kind == TokenKind::Ident && PAR_ENTRY_FNS.contains(&t.text.as_str()) {
            Some(RootKind::ParClosure)
        } else if t.is_ident("get_or_compute") {
            Some(RootKind::CacheFeed)
        } else {
            None
        };
        if let Some(kind) = kind {
            if tokens.get(i + 1).is_some_and(|n| n.is_punct('(')) {
                let close = matching_close(tokens, i + 1, body.end);
                groups.push((i + 2..close, kind));
                i += 2;
                continue;
            }
        }
        i += 1;
    }
    groups
}

/// Index of the token closing the group opened at `open` (exclusive cap
/// at `limit`). Tracks all bracket shapes so nested closures are safe.
fn matching_close(tokens: &[Token], open: usize, limit: usize) -> usize {
    let mut depth = 0i32;
    let mut i = open;
    while i < limit {
        let t = &tokens[i];
        if t.is_punct('(') || t.is_punct('[') || t.is_punct('{') {
            depth += 1;
        } else if t.is_punct(')') || t.is_punct(']') || t.is_punct('}') {
            depth -= 1;
            if depth == 0 {
                return i;
            }
        }
        i += 1;
    }
    limit
}

/// Scans a body for taint sinks and the seeded-RNG marker.
fn scan_sinks(
    tokens: &[Token],
    body: std::ops::Range<usize>,
) -> (u8, bool, Vec<(u8, String, u32)>) {
    let mut taint = 0u8;
    let mut seeded = false;
    let mut notes: Vec<(u8, String, u32)> = Vec::new();
    let mut note = |bit: u8, what: String, line: u32, taint: &mut u8| {
        if notes.iter().all(|(b, w, _)| *b != bit || *w != what) {
            notes.push((bit, what, line));
        }
        *taint |= bit;
    };
    let path2 = |i: usize, a: &str, b: &str| -> bool {
        tokens[i].is_ident(a)
            && tokens.get(i + 1).is_some_and(|n| n.is_punct(':'))
            && tokens.get(i + 2).is_some_and(|n| n.is_punct(':'))
            && tokens.get(i + 3).is_some_and(|n| n.is_ident(b))
    };
    for i in body.clone() {
        let t = &tokens[i];
        if t.kind != TokenKind::Ident {
            continue;
        }
        // Clock.
        if path2(i, "Instant", "now") || path2(i, "SystemTime", "now") {
            note(CLOCK, format!("{}::now", t.text), t.line, &mut taint);
        }
        // Environment.
        if t.is_ident("env")
            && tokens.get(i + 1).is_some_and(|n| n.is_punct(':'))
            && tokens.get(i + 2).is_some_and(|n| n.is_punct(':'))
            && tokens
                .get(i + 3)
                .is_some_and(|n| ENV_FNS.iter().any(|f| n.is_ident(f)))
        {
            note(
                ENV,
                format!("env::{}", tokens[i + 3].text),
                t.line,
                &mut taint,
            );
        }
        // Filesystem / process / network IO.
        if t.is_ident("fs")
            && tokens.get(i + 1).is_some_and(|n| n.is_punct(':'))
            && tokens.get(i + 2).is_some_and(|n| n.is_punct(':'))
            && tokens.get(i + 3).is_some_and(|n| n.kind == TokenKind::Ident)
        {
            note(
                IO,
                format!("fs::{}", tokens[i + 3].text),
                t.line,
                &mut taint,
            );
        }
        if path2(i, "File", "open") || path2(i, "File", "create") || path2(i, "Command", "new") {
            note(
                IO,
                format!("{}::{}", t.text, tokens[i + 3].text),
                t.line,
                &mut taint,
            );
        }
        if t.is_ident("OpenOptions")
            || t.is_ident("TcpStream")
            || t.is_ident("UdpSocket")
            || t.is_ident("TcpListener")
        {
            note(IO, t.text.clone(), t.line, &mut taint);
        }
        // Socket transfer methods (`.accept(` / `.read_exact(` /
        // `.write_all(`): the network read/write surface itself, caught
        // even through generic `impl Read`/`impl Write` parameters that
        // never name a socket type.
        if SOCKET_METHOD_SINKS.iter().any(|m| t.is_ident(m))
            && i > 0
            && tokens[i - 1].is_punct('.')
            && tokens.get(i + 1).is_some_and(|n| n.is_punct('('))
        {
            note(IO, format!(".{}", t.text), t.line, &mut taint);
        }
        // Unseeded RNG.
        if t.is_ident("thread_rng") || t.is_ident("from_entropy") || t.is_ident("OsRng") {
            note(RNG, t.text.clone(), t.line, &mut taint);
        }
        if t.is_ident("random")
            && i >= 3
            && tokens[i - 1].is_punct(':')
            && tokens[i - 2].is_punct(':')
            && tokens[i - 3].is_ident("rand")
        {
            note(RNG, "rand::random".to_string(), t.line, &mut taint);
        }
        // Hash-order iteration: an order-exposing method on a hash
        // collection constructed in the same body.
        if (t.is_ident("HashMap") || t.is_ident("HashSet"))
            && body.contains(&(i + 1))
        {
            note(HASH_ITER, t.text.clone(), t.line, &mut taint);
        }
        // Seeded-RNG marker (classification only, never a taint).
        if t.is_ident("SeedSequence") || t.is_ident("seed_from_u64") {
            seeded = true;
        }
        if t.is_ident("rng")
            && i > 0
            && tokens[i - 1].is_punct('.')
            && tokens.get(i + 1).is_some_and(|n| n.is_punct('('))
        {
            seeded = true;
        }
    }
    (taint, seeded, notes)
}

/// Scans a body for direct lock acquisitions: `.lock()` always,
/// zero-arg `.read()`/`.write()` only in files that mention `RwLock`.
fn scan_locks(
    tokens: &[Token],
    body: std::ops::Range<usize>,
    file_has_rwlock: bool,
) -> Vec<LockAcquire> {
    let mut out = Vec::new();
    for i in body.clone() {
        let t = &tokens[i];
        let is_lock = t.is_ident("lock");
        let is_rw = file_has_rwlock && (t.is_ident("read") || t.is_ident("write"));
        if !(is_lock || is_rw) {
            continue;
        }
        // `. name ( )` — zero-arg method call.
        if !(i > 0
            && tokens[i - 1].is_punct('.')
            && tokens.get(i + 1).is_some_and(|n| n.is_punct('('))
            && tokens.get(i + 2).is_some_and(|n| n.is_punct(')')))
        {
            continue;
        }
        let Some(name) = lock_base_name(tokens, i - 1) else {
            continue;
        };
        out.push(LockAcquire {
            name,
            line: t.line,
            pos: i,
            scope_end: enclosing_block_end(tokens, i, body.end),
        });
    }
    out
}

/// The base identifier before the `.` at `dot`: skips one trailing
/// index/call group (`queues[i].lock()`), then takes the identifier.
fn lock_base_name(tokens: &[Token], dot: usize) -> Option<String> {
    let mut k = dot;
    if k > 0 && (tokens[k - 1].is_punct(']') || tokens[k - 1].is_punct(')')) {
        // Walk back over the balanced group.
        let mut depth = 0i32;
        while k > 0 {
            let t = &tokens[k - 1];
            if t.is_punct(']') || t.is_punct(')') {
                depth += 1;
            } else if t.is_punct('[') || t.is_punct('(') {
                depth -= 1;
                if depth == 0 {
                    k -= 1;
                    break;
                }
            }
            k -= 1;
        }
    }
    let t = tokens.get(k.checked_sub(1)?)?;
    (t.kind == TokenKind::Ident && !t.is_ident("self")).then(|| t.text.clone())
}

/// Token index where the block enclosing `pos` closes (conservative
/// guard-scope end; capped at the body end).
fn enclosing_block_end(tokens: &[Token], pos: usize, limit: usize) -> usize {
    let mut depth = 0i32;
    let mut i = pos;
    while i < limit {
        let t = &tokens[i];
        if t.is_punct('{') {
            depth += 1;
        } else if t.is_punct('}') {
            depth -= 1;
            if depth < 0 {
                return i;
            }
        }
        i += 1;
    }
    limit
}

/// Scans a body for call sites (paths, methods, and — inside root
/// groups — bare fn references).
fn scan_calls(
    tokens: &[Token],
    body: std::ops::Range<usize>,
    root_groups: &[(std::ops::Range<usize>, RootKind)],
) -> Vec<RawCall> {
    let group_of = |i: usize| -> Option<RootKind> {
        root_groups
            .iter()
            .find(|(r, _)| r.contains(&i))
            .map(|(_, k)| *k)
    };
    let mut out = Vec::new();
    let mut i = body.start;
    while i < body.end {
        let t = &tokens[i];
        if t.kind != TokenKind::Ident {
            i += 1;
            continue;
        }
        // Macro invocation: the name itself is not a call (its argument
        // tokens still get scanned and may contain real calls).
        if tokens.get(i + 1).is_some_and(|n| n.is_punct('!')) {
            i += 2;
            continue;
        }
        // `fn name` — a nested definition, not a call.
        if i > 0 && tokens[i - 1].is_ident("fn") {
            i += 1;
            continue;
        }
        let called = call_paren(tokens, i + 1, body.end);
        let is_method = i > 0 && tokens[i - 1].is_punct('.');
        let after_path = tokens.get(i + 1).is_some_and(|n| n.is_punct(':'))
            && tokens.get(i + 2).is_some_and(|n| n.is_punct(':'));
        if let Some(_open) = called {
            if is_method {
                out.push(RawCall {
                    segments: vec![t.text.clone()],
                    is_method: true,
                    line: t.line,
                    pos: i,
                    root: group_of(i),
                });
            } else if i >= 2 && tokens[i - 1].is_punct(':') && tokens[i - 2].is_punct(':') {
                // Tail of a `a::b::name(` path: walk the segments back.
                let segments = path_segments_back(tokens, i);
                out.push(RawCall {
                    segments,
                    is_method: false,
                    line: t.line,
                    pos: i,
                    root: group_of(i),
                });
            } else {
                out.push(RawCall {
                    segments: vec![t.text.clone()],
                    is_method: false,
                    line: t.line,
                    pos: i,
                    root: group_of(i),
                });
            }
            i += 1;
            continue;
        }
        // Bare fn reference inside a root group (`par_map(items, mix)`).
        if group_of(i).is_some() && !is_method && !after_path {
            let prev_path = i >= 2 && tokens[i - 1].is_punct(':') && tokens[i - 2].is_punct(':');
            let next_ok = tokens
                .get(i + 1)
                .is_some_and(|n| n.is_punct(',') || n.is_punct(')'));
            if !prev_path && next_ok {
                out.push(RawCall {
                    segments: vec![t.text.clone()],
                    is_method: false,
                    line: t.line,
                    pos: i,
                    root: group_of(i),
                });
            }
        }
        i += 1;
    }
    out
}

/// If the tokens at `at` open a call's argument list — `(` directly, or
/// a `::<T>(` turbofish — returns the index of the `(`.
fn call_paren(tokens: &[Token], at: usize, limit: usize) -> Option<usize> {
    if tokens.get(at).is_some_and(|t| t.is_punct('(')) {
        return Some(at);
    }
    if tokens.get(at).is_some_and(|t| t.is_punct(':'))
        && tokens.get(at + 1).is_some_and(|t| t.is_punct(':'))
        && tokens.get(at + 2).is_some_and(|t| t.is_punct('<'))
    {
        let mut depth = 0i32;
        let mut i = at + 2;
        while i < limit {
            let t = &tokens[i];
            if t.is_punct('<') {
                depth += 1;
            } else if t.is_punct('>') {
                depth -= 1;
                if depth == 0 {
                    return tokens.get(i + 1).filter(|n| n.is_punct('(')).map(|_| i + 1);
                }
            }
            i += 1;
        }
    }
    None
}

/// Walks `a :: b :: name` backwards from the final segment at `last`,
/// returning the segments in source order.
fn path_segments_back(tokens: &[Token], last: usize) -> Vec<String> {
    let mut segments = vec![tokens[last].text.clone()];
    let mut k = last;
    while k >= 3
        && tokens[k - 1].is_punct(':')
        && tokens[k - 2].is_punct(':')
        && tokens[k - 3].kind == TokenKind::Ident
    {
        segments.push(tokens[k - 3].text.clone());
        k -= 3;
    }
    segments.reverse();
    segments
}

/// Assembles the workspace graph from per-file contributions.
///
/// `crate_names` is the set of workspace package names; `use` roots are
/// matched against it with `_` → `-` normalization.
#[must_use]
pub fn build(files: &[FileGraph], crate_names: &BTreeSet<String>) -> CallGraph {
    // Node table.
    let mut nodes = Vec::new();
    let mut fn_meta: Vec<(usize, usize)> = Vec::new(); // (file idx, raw fn idx)
    for (fi, file) in files.iter().enumerate() {
        for (ri, raw) in file.fns.iter().enumerate() {
            debug_assert!(!raw.in_test_region);
            nodes.push(FnNode {
                crate_name: file.crate_name.clone(),
                file: file.rel.clone(),
                qualified: raw.qualified.clone(),
                line: raw.line,
                own_taint: raw.own_taint,
                trusted: 0,
                seeded: raw.seeded,
                sink_notes: raw.sink_notes.clone(),
                locks: raw.locks.clone(),
            });
            fn_meta.push((fi, ri));
        }
    }

    // Apply trust annotations: each attaches to the innermost fn whose
    // line range contains it, else the next fn below it in the file.
    for (idx, &(fi, _)) in fn_meta.iter().enumerate() {
        let file = &files[fi];
        for trust in &file.trusts {
            let raw = {
                let (_, ri) = fn_meta[idx];
                &file.fns[ri]
            };
            let contains = raw.line <= trust.line && trust.line <= raw.end_line;
            let is_innermost = contains
                && file.fns.iter().all(|other| {
                    !(other.line <= trust.line
                        && trust.line <= other.end_line
                        && other.line > raw.line)
                });
            let is_next_below = !contains
                && raw.line > trust.line
                && file.fns.iter().all(|other| {
                    // no fn between the comment and this one, and the
                    // comment is not inside any fn
                    !(other.line <= trust.line && trust.line <= other.end_line)
                        && !(trust.line < other.line && other.line < raw.line)
                });
            if is_innermost || is_next_below {
                for kind in &trust.kinds {
                    if let Some(bit) = taint_bit(kind) {
                        nodes[idx].trusted |= bit;
                    }
                }
            }
        }
    }

    // Resolution indices.
    let underscore_to_crate: BTreeMap<String, String> = crate_names
        .iter()
        .map(|c| (c.replace('-', "_"), c.clone()))
        .collect();
    // (crate, qualified) -> node indices.
    let mut by_qualified: BTreeMap<(&str, &str), Vec<usize>> = BTreeMap::new();
    // (crate, method name) -> node indices (any `Type::name`).
    let mut by_method: BTreeMap<(&str, &str), Vec<usize>> = BTreeMap::new();
    // (file idx, name) -> node indices (same-file free fns).
    let mut by_file_free: BTreeMap<(usize, &str), Vec<usize>> = BTreeMap::new();
    for (idx, node) in nodes.iter().enumerate() {
        by_qualified
            .entry((node.crate_name.as_str(), node.qualified.as_str()))
            .or_default()
            .push(idx);
        if let Some((_, method)) = node.qualified.rsplit_once("::") {
            by_method
                .entry((node.crate_name.as_str(), method))
                .or_default()
                .push(idx);
        } else {
            let (fi, _) = fn_meta[idx];
            by_file_free
                .entry((fi, node.qualified.as_str()))
                .or_default()
                .push(idx);
        }
    }

    // Per-file use maps: local name -> workspace crate.
    let own_roots = ["crate", "self", "super"];
    let file_use_map: Vec<BTreeMap<&str, &str>> = files
        .iter()
        .map(|file| {
            file.uses
                .iter()
                .filter_map(|(local, root)| {
                    let target = if own_roots.contains(&root.as_str()) {
                        Some(file.crate_name.as_str())
                    } else {
                        underscore_to_crate.get(root).map(String::as_str)
                    };
                    target.map(|t| (local.as_str(), t))
                })
                .collect()
        })
        .collect();

    // Resolve calls into edges.
    let mut edges: Vec<Vec<Edge>> = vec![Vec::new(); nodes.len()];
    let mut roots: BTreeMap<usize, RootKind> = BTreeMap::new();
    for (idx, &(fi, ri)) in fn_meta.iter().enumerate() {
        let file = &files[fi];
        let raw = &file.fns[ri];
        let own_crate = file.crate_name.as_str();
        let use_map = &file_use_map[fi];
        for call in &raw.calls {
            let mut targets: Vec<usize> = Vec::new();
            if call.is_method {
                let name = call.segments[0].as_str();
                let mut crates: BTreeSet<&str> = use_map.values().copied().collect();
                crates.insert(own_crate);
                for c in crates {
                    if let Some(v) = by_method.get(&(c, name)) {
                        targets.extend(v);
                    }
                }
            } else if call.segments.len() == 1 {
                let name = call.segments[0].as_str();
                if let Some(v) = by_file_free.get(&(fi, name)) {
                    targets.extend(v);
                } else if let Some(v) = by_qualified.get(&(own_crate, name)) {
                    targets.extend(v);
                } else if let Some(&c) = use_map.get(name) {
                    if let Some(v) = by_qualified.get(&(c, name)) {
                        targets.extend(v);
                    }
                }
            } else {
                // Path call: determine the crate, then try
                // `Type::name`, falling back to the free `name`.
                let mut segs: Vec<&str> = call.segments.iter().map(String::as_str).collect();
                while segs.len() > 1 && own_roots.contains(&segs[0]) {
                    segs.remove(0);
                }
                let target_crate = use_map
                    .get(segs[0])
                    .copied()
                    .or_else(|| underscore_to_crate.get(segs[0]).map(String::as_str));
                let (in_crate, external_root) = match target_crate {
                    Some(c) => {
                        // The first segment names the crate (or a
                        // module/type alias from it): drop it when more
                        // segments remain.
                        if segs.len() > 1
                            && underscore_to_crate.contains_key(segs[0])
                            || own_roots.contains(&segs[0])
                        {
                            segs.remove(0);
                        } else if segs.len() > 2 && use_map.contains_key(segs[0]) {
                            // `telemetry::metrics::f` — alias + module.
                            segs.remove(0);
                        }
                        (c, false)
                    }
                    None => (own_crate, !segs.is_empty() && is_external_root(segs[0])),
                };
                if !external_root {
                    let name = *segs.last().unwrap_or(&"");
                    if segs.len() >= 2 {
                        let qualified = format!("{}::{name}", segs[segs.len() - 2]);
                        if let Some(v) = by_qualified.get(&(in_crate, qualified.as_str())) {
                            targets.extend(v);
                        }
                    }
                    if targets.is_empty() {
                        if let Some(v) = by_qualified.get(&(in_crate, name)) {
                            targets.extend(v);
                        }
                    }
                }
            }
            targets.sort_unstable();
            targets.dedup();
            for to in targets {
                if to == idx {
                    continue;
                }
                if !edges[idx].iter().any(|e| e.to == to) {
                    edges[idx].push(Edge {
                        to,
                        line: call.line,
                        pos: call.pos,
                        root: call.root,
                    });
                }
                if let Some(kind) = call.root {
                    let entry = roots.entry(to).or_insert(kind);
                    *entry = (*entry).min(kind);
                }
            }
        }
    }

    // The kernel roots are declared, not discovered.
    for (idx, node) in nodes.iter().enumerate() {
        if KERNEL_ROOTS.contains(&node.qualified.as_str()) {
            roots.insert(idx, RootKind::Kernel);
        }
    }

    CallGraph {
        nodes,
        edges,
        roots,
    }
}

/// The trap-kinetics kernel entry points: every experiment's advance
/// bottoms out in `advance_all`, every cached fleet epoch in
/// `advance_range_cached`.
const KERNEL_ROOTS: [&str; 2] = ["TrapBank::advance_all", "TrapBank::advance_range_cached"];

/// Roots that are definitely not workspace crates (std & vendored).
fn is_external_root(seg: &str) -> bool {
    matches!(
        seg,
        "std" | "core" | "alloc" | "rand" | "serde" | "proptest"
    )
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::lexer::lex;
    use std::path::Path;

    fn file(rel: &str, crate_name: &str, src: &str) -> FileGraph {
        extract_file(
            Path::new(rel),
            &lex(src),
            &FileContext::lib(crate_name),
        )
    }

    fn node_idx(g: &CallGraph, qualified: &str) -> usize {
        g.nodes
            .iter()
            .position(|n| n.qualified == qualified)
            .unwrap_or_else(|| panic!("no node {qualified}"))
    }

    fn has_edge(g: &CallGraph, from: &str, to: &str) -> bool {
        let f = node_idx(g, from);
        let t = node_idx(g, to);
        g.edges[f].iter().any(|e| e.to == t)
    }

    #[test]
    fn same_crate_calls_resolve_free_method_and_path() {
        let a = file(
            "crates/x/src/lib.rs",
            "x",
            r"
            pub fn entry() { helper(); Engine::ignite(); }
            fn helper() {}
            pub struct Engine;
            impl Engine {
                pub fn ignite() { self.spin(); }
                fn spin(&self) {}
            }
            ",
        );
        let g = build(&[a], &["x".to_string()].into_iter().collect());
        assert!(has_edge(&g, "entry", "helper"));
        assert!(has_edge(&g, "entry", "Engine::ignite"));
        assert!(has_edge(&g, "Engine::ignite", "Engine::spin"));
    }

    #[test]
    fn cross_crate_calls_resolve_through_use() {
        let caller = file(
            "crates/a/src/lib.rs",
            "crate-a",
            r"
            use crate_b::{Pool, run_free};
            pub fn go(p: &Pool) { p.par_map(); run_free(); }
            ",
        );
        let callee = file(
            "crates/b/src/lib.rs",
            "crate-b",
            r"
            pub struct Pool;
            impl Pool { pub fn par_map(&self) {} }
            pub fn run_free() {}
            ",
        );
        let crates = ["crate-a".to_string(), "crate-b".to_string()]
            .into_iter()
            .collect();
        let g = build(&[caller, callee], &crates);
        assert!(has_edge(&g, "go", "Pool::par_map"));
        assert!(has_edge(&g, "go", "run_free"));
    }

    #[test]
    fn par_map_closure_callees_become_roots() {
        let a = file(
            "crates/x/src/lib.rs",
            "x",
            r"
            pub fn driver(pool: &Pool, items: Vec<u64>) {
                pool.par_map(items, mix);
                pool.par_map_indexed(items, |i, x| work(i, x));
            }
            pub fn mix(x: u64) -> u64 { x }
            pub fn work(i: usize, x: u64) -> u64 { x }
            pub fn bystander() {}
            ",
        );
        let g = build(&[a], &["x".to_string()].into_iter().collect());
        let mix = node_idx(&g, "mix");
        let work = node_idx(&g, "work");
        let bystander = node_idx(&g, "bystander");
        assert_eq!(g.roots.get(&mix), Some(&RootKind::ParClosure));
        assert_eq!(g.roots.get(&work), Some(&RootKind::ParClosure));
        assert!(!g.roots.contains_key(&bystander));
        // The enclosing driver is NOT a root merely for calling par_map.
        assert!(!g.roots.contains_key(&node_idx(&g, "driver")));
    }

    #[test]
    fn cache_closure_callees_are_cache_feed_roots() {
        let a = file(
            "crates/x/src/lib.rs",
            "x",
            r#"
            pub fn run_cached(cache: &ResultCache) -> f64 {
                cache.get_or_compute("ns", 1, "k", || expensive()).0
            }
            pub fn expensive() -> f64 { 1.0 }
            "#,
        );
        let g = build(&[a], &["x".to_string()].into_iter().collect());
        let idx = node_idx(&g, "expensive");
        assert_eq!(g.roots.get(&idx), Some(&RootKind::CacheFeed));
    }

    #[test]
    fn kernel_entry_is_always_a_root() {
        let a = file(
            "crates/bti/src/lib.rs",
            "selfheal-bti",
            "pub struct TrapBank; impl TrapBank { pub fn advance_all(&mut self) {} }",
        );
        let g = build(&[a], &["selfheal-bti".to_string()].into_iter().collect());
        let idx = node_idx(&g, "TrapBank::advance_all");
        assert_eq!(g.roots.get(&idx), Some(&RootKind::Kernel));
    }

    #[test]
    fn sinks_are_detected_per_function() {
        let a = file(
            "crates/x/src/lib.rs",
            "x",
            r#"
            pub fn clocky() { let t = Instant::now(); }
            pub fn envy() -> bool { std::env::var("X").is_ok() }
            pub fn io_heavy(p: &Path) { std::fs::write(p, "x").ok(); }
            pub fn seeded_fn(seeds: &SeedSequence) -> f64 { seeds.rng(0).gen() }
            pub fn clean(x: f64) -> f64 { x * 2.0 }
            "#,
        );
        let g = build(&[a], &["x".to_string()].into_iter().collect());
        assert_eq!(g.nodes[node_idx(&g, "clocky")].own_taint, CLOCK);
        assert_eq!(g.nodes[node_idx(&g, "envy")].own_taint, ENV);
        assert_eq!(g.nodes[node_idx(&g, "io_heavy")].own_taint, IO);
        let seeded = &g.nodes[node_idx(&g, "seeded_fn")];
        assert_eq!(seeded.own_taint, 0);
        assert!(seeded.seeded);
        assert_eq!(g.nodes[node_idx(&g, "clean")].own_taint, 0);
    }

    #[test]
    fn trust_annotations_attach_inside_and_above() {
        let a = file(
            "crates/x/src/lib.rs",
            "x",
            r#"
            pub fn inside() {
                // analyzer: trust(clock): trace timestamps never feed results
                let t = Instant::now();
            }
            // analyzer: trust(env): worker count cannot change results
            pub fn above() -> bool { std::env::var("T").is_ok() }
            pub fn unrelated() { let t = Instant::now(); }
            "#,
        );
        let g = build(&[a], &["x".to_string()].into_iter().collect());
        assert_eq!(g.nodes[node_idx(&g, "inside")].trusted, CLOCK);
        assert_eq!(g.nodes[node_idx(&g, "above")].trusted, ENV);
        assert_eq!(g.nodes[node_idx(&g, "unrelated")].trusted, 0);
    }

    #[test]
    fn locks_record_names_and_order() {
        let a = file(
            "crates/x/src/lib.rs",
            "x",
            r"
            pub fn two_locks(&self) {
                let a = self.park.lock();
                let b = self.queues[0].lock();
            }
            ",
        );
        let names: Vec<String> = a.fns[0].locks.iter().map(|l| l.name.clone()).collect();
        assert_eq!(names, vec!["park", "queues"]);
    }

    #[test]
    fn test_region_fns_are_excluded_from_the_graph() {
        let a = file(
            "crates/x/src/lib.rs",
            "x",
            "pub fn live() {}\n#[cfg(test)]\nmod tests { fn helper() { std::fs::write(1,2); } }",
        );
        let g = build(&[a], &["x".to_string()].into_iter().collect());
        assert_eq!(g.nodes.len(), 1);
        assert_eq!(g.nodes[0].qualified, "live");
    }
}
