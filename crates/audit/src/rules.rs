//! The rule catalog: what each rule enforces, where it applies, and
//! the token-stream checks themselves.
//!
//! Every rule exists to protect one invariant of this reproduction:
//! *fixed seed ⇒ bit-identical output* at any thread count, shard
//! count, or snapshot source (the answers digest pinned in
//! `ci.sh serve`), plus the unsafe-hygiene contract around the
//! mmap/epoll shims. The catalog is documented normatively in
//! `docs/AUDIT.md`; `obf_audit --explain <rule>` prints the entry for
//! one rule.

use crate::lexer::{Tok, TokKind};
use crate::source::SourceFile;

/// Finding severity. `Deny` findings fail the build (`obf_audit`
/// exits 1); `Warn` findings are reported in `results/AUDIT.json`
/// but do not fail.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Severity {
    Deny,
    Warn,
}

impl Severity {
    pub fn as_str(self) -> &'static str {
        match self {
            Severity::Deny => "deny",
            Severity::Warn => "warn",
        }
    }
}

/// One rule violation at a source location.
#[derive(Debug, Clone)]
pub struct Finding {
    pub rule: &'static str,
    pub severity: Severity,
    pub path: String,
    pub line: u32,
    pub message: String,
}

/// Catalog entry: everything `--explain` prints.
pub struct RuleInfo {
    pub id: &'static str,
    pub severity: Severity,
    pub summary: &'static str,
    pub rationale: &'static str,
    pub example: &'static str,
    pub how_to_allow: &'static str,
}

/// The rule catalog, in catalog order (D1–D4, P1, plus pragma
/// hygiene).
pub const RULES: &[RuleInfo] = &[
    RuleInfo {
        id: "map-iter",
        severity: Severity::Deny,
        summary: "no HashMap/HashSet iteration in digest-affecting crates (D1)",
        rationale: "Iterating a hash map visits entries in hasher-layout order. Even with the \
                    workspace's fixed-key FxHasher that order is an implementation detail of the \
                    std HashMap — a toolchain upgrade can silently reorder it, and anything fed \
                    from such an iteration (entropy sums, candidate lists, RNG consumption order) \
                    would drift while every test at one toolchain stays green. Digest-affecting \
                    crates (obf_core, obf_uncertain, obf_graph) must iterate sorted \
                    Vecs/BTree structures, or collect-then-sort before order matters.",
        example: "for (k, v) in &my_hash_map { acc += v; }   // flagged\n\
                  let mut pairs: Vec<_> = set.into_iter().collect();\n\
                  pairs.sort_unstable();                     // fine once sorted, pragma the collect line",
        how_to_allow: "// audit:allow(map-iter, <why the order cannot reach any digest>) on the \
                       offending line (trailing) or the line above (standalone).",
    },
    RuleInfo {
        id: "wall-clock",
        severity: Severity::Deny,
        summary: "no Instant::now/SystemTime/thread_rng/process::id outside timing modules (D2)",
        rationale: "Wall-clock reads, OS entropy and process ids are nondeterministic inputs. \
                    One call inside a digest-affecting path breaks fixed-seed reproducibility in \
                    a way equivalence tests only catch if they happen to race it. Timing belongs \
                    in the bench crate and the allowlisted server-timing module \
                    (server::event_loop idle reaping and drain deadlines); test code is \
                    exempt.",
        example: "let t0 = Instant::now();        // flagged outside the allowlist\n\
                  cand.secs = t0.elapsed()…       // fine *with a pragma* when the value feeds\n\
                                                  // only wall-clock stats excluded from digests",
        how_to_allow: "// audit:allow(wall-clock, <why the value never reaches a digest>)",
    },
    RuleInfo {
        id: "unsafe-hygiene",
        severity: Severity::Deny,
        summary: "every unsafe site carries a SAFETY: comment and lives in an audited module (D3)",
        rationale: "The workspace confines unsafe to three audited modules: server::sys (raw \
                    epoll/poll/rlimit syscalls), uncertain::mmap (mmap/munmap) and \
                    uncertain::mapped (typed views over the mapping). Each unsafe block or impl \
                    must state its proof obligation in a SAFETY: comment on the same line or \
                    within the 6 lines above. unsafe anywhere else is refused outright — new \
                    unsafe code means extending the audited-module registry deliberately, in \
                    this rule's source, with review.",
        example: "// SAFETY: fd is a valid open descriptor for the whole call.\n\
                  let rc = unsafe { epoll_ctl(epfd, op, fd, &mut ev) };",
        how_to_allow: "Not allowable by pragma for the registry check — extend AUDITED_MODULES \
                       in crates/audit/src/rules.rs instead. The SAFETY-comment check is \
                       satisfied only by writing the comment.",
    },
    RuleInfo {
        id: "float-reduce",
        severity: Severity::Deny,
        summary: "float reductions over parallel partials merge via chunk-ordered primitives (D4)",
        rationale: "Floating-point addition is not associative: summing per-chunk partials in \
                    any order other than the engine's fixed ascending chunk order produces \
                    different bits at different thread counts. A bare `.sum::<f64>()` over a \
                    par-shaped collection (partials, shards, handles) is flagged in engine \
                    crates; the merge must go through the obf_graph::parallel primitives or be \
                    annotated as an already-ordered fold.",
        example: "partials.iter().sum()   // flagged unless annotated:\n\
                  // audit:allow(float-reduce, map_chunks returns partials in ascending chunk\n\
                  // order; this left-fold IS the fixed merge order)",
        how_to_allow: "// audit:allow(float-reduce, <why the iteration order is the fixed chunk order>)",
    },
    RuleInfo {
        id: "formats-doc",
        severity: Severity::Deny,
        summary: "wire/snapshot/protocol surface is documented in docs/FORMATS.md (P1)",
        rationale: "docs/FORMATS.md is the normative spec for every on-disk and on-wire format. \
                    This rule lexes the ground truth out of the source — server verbs from \
                    Request::parse, snapshot \
                    version constants and magics — and fails when the spec has fallen behind. (Subsumes the retired \
                    scripts/check_formats_docs.sh.)",
        example: "Adding `\"FROBNICATE\" => Request::Frobnicate` to protocol.rs without a \
                  FORMATS.md row yields: server verb FROBNICATE is not documented.",
        how_to_allow: "Document the surface in docs/FORMATS.md — there is deliberately no pragma \
                       escape for an undocumented wire surface.",
    },
    RuleInfo {
        id: "pragma",
        severity: Severity::Deny,
        summary: "audit:allow pragmas are well-formed, carry reasons, and suppress something",
        rationale: "An allow without a reason is an unreviewable hole; an allow that no longer \
                    suppresses anything is rot that hides the next real finding. Malformed or \
                    reason-less pragmas are deny findings; unused pragmas are warnings.",
        example: "// audit:allow(map-iter)            — deny: missing reason\n\
                  // audit:allow(map-iter, …) on a clean line — warn: unused",
        how_to_allow: "Fix the pragma (add the reason) or delete it.",
    },
];

pub fn rule_info(id: &str) -> Option<&'static RuleInfo> {
    RULES.iter().find(|r| r.id == id)
}

// ---------------------------------------------------------------------
// Scoping: where each rule applies. Paths are workspace-relative.
// ---------------------------------------------------------------------

/// Crates whose output feeds the pinned digests: the Definition 2
/// check, world sampling and CSR construction.
const DIGEST_CRATES: &[&str] = &[
    "crates/core/src/",
    "crates/uncertain/src/",
    "crates/graph/src/",
];

/// Modules allowed to read wall clocks / process ids: the bench
/// harness (timing is its job), the observability crate (spans and
/// request-log timestamps are its job, and concentrating time reads
/// there is how they stay quarantined) and the server-timing module
/// (idle reaping, drain deadlines) whose readings never feed answers.
const WALL_CLOCK_ALLOWED: &[&str] = &[
    "crates/bench/",
    "crates/obs/",
    "crates/server/src/event_loop.rs",
];

/// The audited-module registry for `unsafe` (rule D3). Extending this
/// list is a deliberate, reviewed act — not a pragma.
pub const AUDITED_MODULES: &[&str] = &[
    "crates/server/src/sys.rs",
    "crates/uncertain/src/mmap.rs",
    "crates/uncertain/src/mapped.rs",
];

/// How many lines above an `unsafe` token a `SAFETY:` comment may sit.
const SAFETY_WINDOW: u32 = 6;

fn in_scope(path: &str, prefixes: &[&str]) -> bool {
    prefixes.iter().any(|p| path.starts_with(p))
}

// ---------------------------------------------------------------------
// Token-stream helpers.
// ---------------------------------------------------------------------

fn is_punct(t: &Tok, c: &str) -> bool {
    t.kind == TokKind::Punct && t.text == c
}

fn is_ident(t: &Tok, s: &str) -> bool {
    t.kind == TokKind::Ident && t.text == s
}

/// Map/set types whose iteration order is a hasher implementation
/// detail. BTreeMap/BTreeSet are ordered and deliberately absent.
const MAP_TYPES: &[&str] = &["HashMap", "HashSet", "FxHashMap", "FxHashSet"];

const ITER_METHODS: &[&str] = &[
    "iter",
    "iter_mut",
    "into_iter",
    "keys",
    "into_keys",
    "values",
    "values_mut",
    "into_values",
    "drain",
];

// ---------------------------------------------------------------------
// D1: map-iter.
// ---------------------------------------------------------------------

/// A name bound in the current lexical scope, with whether its
/// (declared or inferred) type is a hash map/set. Non-map rebindings
/// shadow earlier map bindings of the same name.
struct Binding {
    name: String,
    depth: i32,
    is_map: bool,
}

pub fn check_map_iter(file: &SourceFile) -> Vec<Finding> {
    if !in_scope(&file.rel_path, DIGEST_CRATES) || file.is_test_file {
        return Vec::new();
    }
    let toks = &file.tokens;
    let mut findings = Vec::new();
    let mut bindings: Vec<Binding> = Vec::new();
    let mut depth = 0i32;

    let lookup = |bindings: &[Binding], name: &str| -> bool {
        bindings
            .iter()
            .rev()
            .find(|b| b.name == name)
            .is_some_and(|b| b.is_map)
    };

    let mut i = 0usize;
    while i < toks.len() {
        let t = &toks[i];
        if t.kind == TokKind::Punct {
            match t.text.as_str() {
                "{" => depth += 1,
                "}" => {
                    depth -= 1;
                    bindings.retain(|b| b.depth <= depth);
                }
                _ => {}
            }
            i += 1;
            continue;
        }
        if file.is_test_line(t.line) {
            i += 1;
            continue;
        }

        // Binding form A: `let [mut] NAME …` with a type annotation or
        // an initialiser whose head names a map type.
        if is_ident(t, "let") {
            let mut j = i + 1;
            if j < toks.len() && is_ident(&toks[j], "mut") {
                j += 1;
            }
            if j < toks.len() && toks[j].kind == TokKind::Ident {
                let name = toks[j].text.clone();
                let is_map = type_region_mentions_map(toks, j + 1);
                bindings.push(Binding {
                    name,
                    depth,
                    is_map,
                });
                i = j + 1;
                continue;
            }
        }

        // Binding form B: `NAME: …Map…` in params / struct fields —
        // an ident followed by a single `:` whose type region names a
        // map type. (Path segments `a::b` have a double colon and are
        // skipped.)
        if t.kind == TokKind::Ident
            && i + 1 < toks.len()
            && is_punct(&toks[i + 1], ":")
            && !(i + 2 < toks.len() && is_punct(&toks[i + 2], ":"))
            && (i == 0 || !is_punct(&toks[i - 1], ":"))
            && type_region_mentions_map(toks, i + 1)
        {
            bindings.push(Binding {
                name: t.text.clone(),
                depth,
                is_map: true,
            });
        }

        // Iteration site 1: `NAME.iter()` / `.keys()` / `.drain()` / ….
        if t.kind == TokKind::Ident
            && lookup(&bindings, &t.text)
            && i + 2 < toks.len()
            && is_punct(&toks[i + 1], ".")
            && toks[i + 2].kind == TokKind::Ident
            && ITER_METHODS.contains(&toks[i + 2].text.as_str())
        {
            findings.push(Finding {
                rule: "map-iter",
                severity: Severity::Deny,
                path: file.rel_path.clone(),
                line: toks[i + 2].line,
                message: format!(
                    "hash-order iteration `{}.{}()` in a digest-affecting crate; iterate a \
                     sorted structure or collect-and-sort (D1)",
                    t.text,
                    toks[i + 2].text
                ),
            });
        }

        // Iteration site 2: `for PAT in [&[mut]] NAME {`.
        if is_ident(t, "for") {
            // Find `in` at the same nesting (bounded scan over the
            // pattern; patterns are short).
            let mut j = i + 1;
            let mut par = 0i32;
            let mut steps = 0;
            while j < toks.len() && steps < 32 {
                let u = &toks[j];
                if u.kind == TokKind::Punct {
                    match u.text.as_str() {
                        "(" | "[" => par += 1,
                        ")" | "]" => par -= 1,
                        "{" | ";" => break,
                        _ => {}
                    }
                } else if par == 0 && is_ident(u, "in") {
                    let mut k = j + 1;
                    while k < toks.len() && (is_punct(&toks[k], "&") || is_ident(&toks[k], "mut")) {
                        k += 1;
                    }
                    if k + 1 < toks.len()
                        && toks[k].kind == TokKind::Ident
                        && lookup(&bindings, &toks[k].text)
                        && is_punct(&toks[k + 1], "{")
                    {
                        findings.push(Finding {
                            rule: "map-iter",
                            severity: Severity::Deny,
                            path: file.rel_path.clone(),
                            line: toks[k].line,
                            message: format!(
                                "hash-order iteration `for … in {}` in a digest-affecting \
                                 crate; iterate a sorted structure instead (D1)",
                                toks[k].text
                            ),
                        });
                    }
                    break;
                }
                j += 1;
                steps += 1;
            }
        }
        i += 1;
    }
    findings
}

/// Scans a type/initialiser region starting at `start` (the token
/// after the bound name) for a map-type ident. The region ends at the
/// first `;`, `=`, `,`, `)` or `{` at bracket balance 0, or after a
/// bounded number of tokens. For `= init` forms the scan continues a
/// few tokens into the initialiser head (`FxHashSet::default()`).
fn type_region_mentions_map(toks: &[Tok], start: usize) -> bool {
    let mut par = 0i32;
    let mut angle = 0i32;
    let mut seen_eq = false;
    let mut budget = 40usize;
    let mut j = start;
    while j < toks.len() && budget > 0 {
        let t = &toks[j];
        if t.kind == TokKind::Punct {
            match t.text.as_str() {
                "<" => angle += 1,
                ">" => angle -= 1,
                "(" | "[" => par += 1,
                ")" | "]" if par > 0 => par -= 1,
                ")" | "]" => return false,
                ";" | "{" | "}" if par == 0 => return false,
                "," if par == 0 && angle <= 0 => return false,
                "=" if par == 0 && angle <= 0 => {
                    if seen_eq {
                        return false;
                    }
                    seen_eq = true;
                    // Only the initialiser head can name the type.
                    budget = budget.min(8);
                }
                _ => {}
            }
        } else if t.kind == TokKind::Ident && MAP_TYPES.contains(&t.text.as_str()) {
            return true;
        }
        j += 1;
        budget -= 1;
    }
    false
}

// ---------------------------------------------------------------------
// D2: wall-clock.
// ---------------------------------------------------------------------

pub fn check_wall_clock(file: &SourceFile) -> Vec<Finding> {
    if in_scope(&file.rel_path, WALL_CLOCK_ALLOWED) || file.is_test_file {
        return Vec::new();
    }
    let toks = &file.tokens;
    let mut findings = Vec::new();
    for i in 0..toks.len() {
        let t = &toks[i];
        if t.kind != TokKind::Ident || file.is_test_line(t.line) {
            continue;
        }
        let what = match t.text.as_str() {
            "SystemTime" => Some("SystemTime"),
            "thread_rng" => Some("thread_rng (OS-entropy RNG)"),
            "Instant" if path_call(toks, i, "now") => Some("Instant::now"),
            "process" if path_call(toks, i, "id") => Some("std::process::id"),
            _ => None,
        };
        if let Some(what) = what {
            findings.push(Finding {
                rule: "wall-clock",
                severity: Severity::Deny,
                path: file.rel_path.clone(),
                line: t.line,
                message: format!(
                    "{what} outside the timing allowlist — nondeterministic input in a \
                     fixed-seed code path (D2)"
                ),
            });
        }
    }
    findings
}

/// Whether token `i` is followed by `:: <method>`.
fn path_call(toks: &[Tok], i: usize, method: &str) -> bool {
    i + 3 < toks.len()
        && is_punct(&toks[i + 1], ":")
        && is_punct(&toks[i + 2], ":")
        && is_ident(&toks[i + 3], method)
}

// ---------------------------------------------------------------------
// D3: unsafe-hygiene.
// ---------------------------------------------------------------------

pub fn check_unsafe(file: &SourceFile) -> Vec<Finding> {
    let mut findings = Vec::new();
    let registered = AUDITED_MODULES.contains(&file.rel_path.as_str());
    for t in &file.tokens {
        if !is_ident(t, "unsafe") {
            continue;
        }
        if !registered {
            findings.push(Finding {
                rule: "unsafe-hygiene",
                severity: Severity::Deny,
                path: file.rel_path.clone(),
                line: t.line,
                message: "`unsafe` outside the audited-module registry (server::sys, \
                          uncertain::mmap, uncertain::mapped) — extend the registry in \
                          crates/audit/src/rules.rs only with review (D3)"
                    .to_string(),
            });
            continue;
        }
        if !file.comment_near(t.line, SAFETY_WINDOW, "SAFETY") {
            findings.push(Finding {
                rule: "unsafe-hygiene",
                severity: Severity::Deny,
                path: file.rel_path.clone(),
                line: t.line,
                message: format!(
                    "`unsafe` without a SAFETY: comment on the same line or the {SAFETY_WINDOW} \
                     lines above (D3)"
                ),
            });
        }
    }
    findings
}

// ---------------------------------------------------------------------
// D4: float-reduce.
// ---------------------------------------------------------------------

/// Identifier shapes that mark a statement as operating on parallel
/// partial results.
fn par_shaped(ident: &str) -> bool {
    let l = ident.to_ascii_lowercase();
    l == "par"
        || l == "parallelism"
        || l.contains("partial")
        || l.contains("par_")
        || l.contains("_par")
        || l.contains("chunk")
        || l.contains("shard")
        || l.contains("handle")
}

pub fn check_float_reduce(file: &SourceFile) -> Vec<Finding> {
    if !in_scope(&file.rel_path, DIGEST_CRATES) || file.is_test_file {
        return Vec::new();
    }
    let toks = &file.tokens;
    let mut findings = Vec::new();
    for i in 0..toks.len() {
        let t = &toks[i];
        if !(is_ident(t, "sum") && i > 0 && is_punct(&toks[i - 1], ".")) {
            continue;
        }
        if file.is_test_line(t.line) {
            continue;
        }
        // Statement span: walk back to the nearest `;`, `{` or `}`.
        let mut start = i;
        while start > 0 {
            let u = &toks[start - 1];
            if u.kind == TokKind::Punct && matches!(u.text.as_str(), ";" | "{" | "}") {
                break;
            }
            start -= 1;
        }
        let receiver = &toks[start..i];
        if receiver
            .iter()
            .any(|u| u.kind == TokKind::Ident && par_shaped(&u.text))
        {
            findings.push(Finding {
                rule: "float-reduce",
                severity: Severity::Deny,
                path: file.rel_path.clone(),
                line: t.line,
                message: "bare `.sum()` over a par-shaped collection — float merges must use \
                          the chunk-ordered parallel primitives or be annotated as an \
                          already-ordered fold (D4)"
                    .to_string(),
            });
        }
    }
    findings
}

// ---------------------------------------------------------------------
// P1: formats-doc.
// ---------------------------------------------------------------------

/// The format-bearing sources P1 lexes its ground truth from.
pub const FORMAT_SOURCES: &[&str] = &[
    "crates/server/src/protocol.rs",
    "crates/uncertain/src/snapshot.rs",
    "crates/evolve/src/log.rs",
    "crates/obs/src/reqlog.rs",
];

/// Checks docs/FORMATS.md coverage of every format surface. `files`
/// is the full workspace file list; `formats_md` the spec text.
pub fn check_formats_doc(files: &[SourceFile], formats_md: Option<&str>) -> Vec<Finding> {
    let mut findings = Vec::new();
    let Some(spec) = formats_md else {
        findings.push(Finding {
            rule: "formats-doc",
            severity: Severity::Deny,
            path: "docs/FORMATS.md".to_string(),
            line: 1,
            message: "docs/FORMATS.md is missing — it is the normative spec for every \
                      on-disk/on-wire format (P1)"
                .to_string(),
        });
        return findings;
    };
    let by_path = |p: &str| files.iter().find(|f| f.rel_path == p);
    let mut require = |word: &str, path: &str, line: u32, what: &str| {
        if !contains_word(spec, word) {
            findings.push(Finding {
                rule: "formats-doc",
                severity: Severity::Deny,
                path: path.to_string(),
                line,
                message: format!("{what} `{word}` is not documented in docs/FORMATS.md (P1)"),
            });
        }
    };

    // Server verbs: string-literal match arms in Request::parse.
    if let Some(f) = by_path("crates/server/src/protocol.rs") {
        for (verb, line) in verb_arms(f) {
            require(&verb, &f.rel_path, line, "server verb");
        }
    }
    // Snapshot versions + magic.
    if let Some(f) = by_path("crates/uncertain/src/snapshot.rs") {
        for (n, line) in version_consts(f) {
            require(&format!("v{n}"), &f.rel_path, line, "snapshot version");
        }
        for (magic, line) in magic_consts(f) {
            require(&magic, &f.rel_path, line, "file magic");
        }
    }
    // Delta-log magic.
    if let Some(f) = by_path("crates/evolve/src/log.rs") {
        for (magic, line) in magic_consts(f) {
            require(&magic, &f.rel_path, line, "file magic");
        }
    }
    // Request-log magic.
    if let Some(f) = by_path("crates/obs/src/reqlog.rs") {
        for (magic, line) in magic_consts(f) {
            require(&magic, &f.rel_path, line, "file magic");
        }
    }
    findings
}

/// Whole-word containment (the `\b` the retired shell script used).
fn contains_word(hay: &str, needle: &str) -> bool {
    let word = |c: char| c.is_ascii_alphanumeric() || c == '_';
    let mut from = 0usize;
    while let Some(at) = hay[from..].find(needle) {
        let start = from + at;
        let end = start + needle.len();
        let pre_ok = start == 0 || !hay[..start].chars().next_back().is_some_and(word);
        let post_ok = end == hay.len() || !hay[end..].chars().next().is_some_and(word);
        if pre_ok && post_ok {
            return true;
        }
        from = end;
    }
    false
}

/// `"VERB" => …` and `"A" | "B" => …` arms (non-test), verbs being
/// SCREAMING_SNAKE string literals.
fn verb_arms(file: &SourceFile) -> Vec<(String, u32)> {
    let toks = &file.tokens;
    let mut out = Vec::new();
    let mut i = 0usize;
    while i < toks.len() {
        if toks[i].kind == TokKind::Str
            && is_verb(&toks[i].text)
            && !file.is_test_line(toks[i].line)
        {
            // Collect the alternation run `"A" | "B" | …`.
            let mut run = vec![(toks[i].text.clone(), toks[i].line)];
            let mut j = i + 1;
            while j + 1 < toks.len()
                && is_punct(&toks[j], "|")
                && toks[j + 1].kind == TokKind::Str
                && is_verb(&toks[j + 1].text)
            {
                run.push((toks[j + 1].text.clone(), toks[j + 1].line));
                j += 2;
            }
            // Only an arm if the run is followed by `=>`.
            if j + 1 < toks.len() && is_punct(&toks[j], "=") && is_punct(&toks[j + 1], ">") {
                out.extend(run);
            }
            i = j;
            continue;
        }
        i += 1;
    }
    out.sort();
    out.dedup_by(|a, b| a.0 == b.0);
    out
}

fn is_verb(s: &str) -> bool {
    !s.is_empty()
        && s.chars().next().is_some_and(|c| c.is_ascii_uppercase())
        && s.chars().all(|c| c.is_ascii_uppercase() || c == '_')
}

/// `pub const SNAPSHOT…VERSION…: u32 = N` constants.
fn version_consts(file: &SourceFile) -> Vec<(u64, u32)> {
    let toks = &file.tokens;
    let mut out = Vec::new();
    for i in 0..toks.len() {
        if is_ident(&toks[i], "const")
            && i + 1 < toks.len()
            && toks[i + 1].kind == TokKind::Ident
            && toks[i + 1].text.contains("SNAPSHOT")
            && toks[i + 1].text.contains("VERSION")
        {
            // … : u32 = <num>
            for j in i + 2..(i + 8).min(toks.len()) {
                if toks[j].kind == TokKind::Num {
                    if let Ok(n) = toks[j].text.parse::<u64>() {
                        out.push((n, toks[i + 1].line));
                    }
                    break;
                }
            }
        }
    }
    out.sort_unstable();
    out.dedup();
    out
}

/// String/byte-string values of `const …MAGIC…` items.
fn magic_consts(file: &SourceFile) -> Vec<(String, u32)> {
    let toks = &file.tokens;
    let mut out = Vec::new();
    for i in 0..toks.len() {
        if is_ident(&toks[i], "const")
            && i + 1 < toks.len()
            && toks[i + 1].kind == TokKind::Ident
            && toks[i + 1].text.contains("MAGIC")
        {
            // Scan to the item's `;` — the one inside `[u8; 8]` is at
            // bracket depth 1 and must not end the scan.
            let mut depth = 0i32;
            for t in &toks[(i + 2).min(toks.len())..(i + 24).min(toks.len())] {
                if t.kind == TokKind::Punct {
                    match t.text.as_str() {
                        "[" | "(" => depth += 1,
                        "]" | ")" => depth -= 1,
                        ";" if depth == 0 => break,
                        _ => {}
                    }
                }
                if matches!(t.kind, TokKind::Str | TokKind::RawStr) {
                    out.push((t.text.clone(), t.line));
                    break;
                }
            }
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::source::SourceFile;

    fn src(path: &str, code: &str) -> SourceFile {
        SourceFile::parse(path, code)
    }

    #[test]
    fn verb_arms_handle_alternation_and_skip_tests() {
        let f = src(
            "crates/server/src/protocol.rs",
            "fn p(s: &str) {\n  match s {\n    \"PING\" => 1,\n    \"DRAIN\" | \"UNDRAIN\" => 2,\n    \"lowercase\" => 3,\n    _ => 0,\n  };\n}\n#[cfg(test)]\nmod tests {\n  fn t() { let _ = match \"x\" { \"TESTONLY\" => 1, _ => 0 }; }\n}\n",
        );
        let verbs: Vec<String> = verb_arms(&f).into_iter().map(|(v, _)| v).collect();
        assert_eq!(verbs, vec!["DRAIN", "PING", "UNDRAIN"]);
    }

    #[test]
    fn contains_word_respects_boundaries() {
        assert!(contains_word("the EXPECTED verb", "EXPECTED"));
        assert!(!contains_word("only EXPECTED_DEGREE here", "EXPECTED"));
        assert!(contains_word("| `PING` | — |", "PING"));
    }
}
