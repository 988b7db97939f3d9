//! Fixture-based self-tests: each rule catches its known-bad snippet at
//! the right file:line, pragmas suppress with reasons, and the classic
//! false-positive traps (strings, comments, cfg(test), non-map types)
//! stay silent.

use obf_audit::rules::Severity;
use obf_audit::{audit, Workspace};

/// Audits a single in-memory file (no FORMATS.md, so P1 is skipped by
/// passing a spec that can't fail: fixtures don't include format
/// sources).
fn audit_one(path: &str, src: &str) -> obf_audit::Report {
    audit(&Workspace::from_sources([(path, src)], Some("")))
}

fn rule_hits(report: &obf_audit::Report, rule: &str) -> Vec<(String, u32)> {
    report
        .findings
        .iter()
        .filter(|f| f.rule == rule)
        .map(|f| (f.path.clone(), f.line))
        .collect()
}

// ------------------------------------------------------------------ D1

#[test]
fn d1_catches_map_iteration_at_the_right_line() {
    let src = "\
use std::collections::HashMap;

fn entropy(m: &HashMap<u32, f64>) -> f64 {
    let mut acc = 0.0;
    for (_, v) in m.iter() {
        acc += v;
    }
    acc
}
";
    let report = audit_one("crates/core/src/fixture.rs", src);
    assert_eq!(
        rule_hits(&report, "map-iter"),
        vec![("crates/core/src/fixture.rs".to_string(), 5)]
    );
    assert_eq!(report.deny_count(), 1);
}

#[test]
fn d1_catches_for_in_ref_map() {
    let src = "\
fn f() {
    let set: FxHashSet<u32> = FxHashSet::default();
    for x in &set {
        use_it(x);
    }
}
";
    let report = audit_one("crates/uncertain/src/fixture.rs", src);
    assert_eq!(
        rule_hits(&report, "map-iter"),
        vec![("crates/uncertain/src/fixture.rs".to_string(), 3)]
    );
}

#[test]
fn d1_ignores_vec_with_same_name_and_out_of_scope_crates() {
    // `ec` is a Vec here — same name as a map elsewhere must not leak.
    let vec_src = "\
fn f() {
    let ec: Vec<u32> = Vec::new();
    for x in &ec {
        use_it(x);
    }
    let total: f64 = ec.iter().map(|&x| x as f64).sum();
}
";
    let report = audit_one("crates/core/src/fixture.rs", vec_src);
    assert!(
        rule_hits(&report, "map-iter").is_empty(),
        "{:?}",
        report.findings
    );

    // Same bad code outside the digest-affecting crates is fine.
    let map_src = "fn f(m: &HashMap<u32, u32>) { for x in m.keys() { use_it(x); } }\n";
    let report = audit_one("crates/bench/src/fixture.rs", map_src);
    assert!(rule_hits(&report, "map-iter").is_empty());
}

#[test]
fn d1_allows_contains_insert_remove_and_scoped_shadowing() {
    let src = "\
fn f() {
    {
        let ec: FxHashSet<u64> = FxHashSet::default();
        if ec.contains(&1) {
            use_it(ec.len());
        }
    }
    // New scope: same name, now a Vec — iteration is fine.
    let ec: Vec<u64> = Vec::new();
    for x in &ec {
        use_it(x);
    }
}
";
    let report = audit_one("crates/core/src/fixture.rs", src);
    assert!(
        rule_hits(&report, "map-iter").is_empty(),
        "{:?}",
        report.findings
    );
}

#[test]
fn d1_pragma_suppresses_and_is_recorded() {
    let src = "\
fn f(set: FxHashSet<u32>) {
    let mut v: Vec<u32> = set.into_iter().collect(); // audit:allow(map-iter, sorted on the next line)
    v.sort_unstable();
}
";
    let report = audit_one("crates/graph/src/fixture.rs", src);
    assert!(report.findings.is_empty(), "{:?}", report.findings);
    assert_eq!(report.allowed.len(), 1);
    assert_eq!(report.allowed[0].rule, "map-iter");
    assert_eq!(report.allowed[0].reason, "sorted on the next line");
}

// ------------------------------------------------------------------ D2

#[test]
fn d2_catches_instant_now_and_thread_rng() {
    let src = "\
fn f() {
    let t0 = std::time::Instant::now();
    let mut rng = thread_rng();
    use_it(t0, rng);
}
";
    let report = audit_one("crates/core/src/fixture.rs", src);
    let hits = rule_hits(&report, "wall-clock");
    assert_eq!(
        hits.iter().map(|(_, l)| *l).collect::<Vec<_>>(),
        vec![2, 3],
        "{:?}",
        report.findings
    );
}

#[test]
fn d2_skips_allowlisted_modules_and_test_code() {
    let src = "fn f() { let t = Instant::now(); use_it(t); }\n";
    for path in [
        "crates/bench/src/bin/table1.rs",
        "crates/obs/src/span.rs",
        "crates/obs/src/clock.rs",
        "crates/server/src/event_loop.rs",
        "crates/core/tests/equivalence.rs",
    ] {
        let report = audit_one(path, src);
        assert!(rule_hits(&report, "wall-clock").is_empty(), "{path}");
    }

    let cfg_test = "\
#[cfg(test)]
mod tests {
    #[test]
    fn timing() {
        let t = std::time::Instant::now();
        use_it(t);
    }
}
";
    let report = audit_one("crates/core/src/fixture.rs", cfg_test);
    assert!(rule_hits(&report, "wall-clock").is_empty());
}

#[test]
fn d2_allowlist_covers_obs_but_not_code_that_merely_uses_it() {
    // The observability crate quarantines every wall-clock read: the
    // identical source line denies in a digest-affecting crate and
    // passes under crates/obs/, so "route timing through obf_obs" is
    // enforced, not just documented.
    let src = "\
fn sample() -> u64 {
    let t0 = std::time::Instant::now();
    t0.elapsed().as_micros() as u64
}
";
    let inside = audit_one("crates/obs/src/metrics.rs", src);
    assert!(
        rule_hits(&inside, "wall-clock").is_empty(),
        "{:?}",
        inside.findings
    );

    let outside = audit_one("crates/core/src/timing.rs", src);
    assert_eq!(
        rule_hits(&outside, "wall-clock"),
        vec![("crates/core/src/timing.rs".to_string(), 2)]
    );
    assert_eq!(outside.deny_count(), 1);
}

#[test]
fn d2_ignores_mentions_in_strings_and_comments() {
    let src = "\
// Instant::now() would be wrong here.
fn f() {
    let s = \"Instant::now() thread_rng SystemTime\";
    let r = r#\"std::process::id()\"#;
    use_it(s, r);
}
";
    let report = audit_one("crates/core/src/fixture.rs", src);
    assert!(
        rule_hits(&report, "wall-clock").is_empty(),
        "{:?}",
        report.findings
    );
}

// ------------------------------------------------------------------ D3

#[test]
fn d3_requires_safety_comment_in_registry_modules() {
    let src = "\
fn f(p: *const u8) -> u8 {
    unsafe { *p }
}
";
    let report = audit_one("crates/server/src/sys.rs", src);
    assert_eq!(
        rule_hits(&report, "unsafe-hygiene"),
        vec![("crates/server/src/sys.rs".to_string(), 2)]
    );

    let good = "\
fn f(p: *const u8) -> u8 {
    // SAFETY: caller guarantees p is valid for reads.
    unsafe { *p }
}
";
    let report = audit_one("crates/server/src/sys.rs", good);
    assert!(rule_hits(&report, "unsafe-hygiene").is_empty());
}

#[test]
fn d3_rejects_unsafe_outside_the_registry_even_with_comment() {
    let src = "\
fn f(p: *const u8) -> u8 {
    // SAFETY: a comment does not make this module audited.
    unsafe { *p }
}
";
    let report = audit_one("crates/core/src/fixture.rs", src);
    assert_eq!(rule_hits(&report, "unsafe-hygiene").len(), 1);
}

#[test]
fn d3_ignores_unsafe_in_strings_and_comments() {
    let src = "\
// unsafe is mentioned here
fn f() {
    let s = \"unsafe { *p }\";
    let r = r##\"unsafe fn g()\"##;
    use_it(s, r);
}
";
    let report = audit_one("crates/core/src/fixture.rs", src);
    assert!(
        rule_hits(&report, "unsafe-hygiene").is_empty(),
        "{:?}",
        report.findings
    );
}

#[test]
fn d3_safety_comment_outside_window_does_not_count() {
    let mut src = String::from("// SAFETY: too far away\n");
    src.push_str(&"\n".repeat(8));
    src.push_str("fn f(p: *const u8) -> u8 { unsafe { *p } }\n");
    let report = audit_one("crates/uncertain/src/mmap.rs", &src);
    assert_eq!(rule_hits(&report, "unsafe-hygiene").len(), 1);
}

// ------------------------------------------------------------------ D4

#[test]
fn d4_flags_bare_sum_over_partials() {
    let src = "\
fn total(partials: Vec<f64>) -> f64 {
    partials.iter().sum()
}
";
    let report = audit_one("crates/uncertain/src/fixture.rs", src);
    assert_eq!(
        rule_hits(&report, "float-reduce"),
        vec![("crates/uncertain/src/fixture.rs".to_string(), 2)]
    );
}

#[test]
fn d4_ignores_scalar_sums_and_non_engine_crates() {
    let src = "\
fn f(probs: &[f64]) -> f64 {
    let s: f64 = probs.iter().sum();
    s
}
";
    let report = audit_one("crates/uncertain/src/fixture.rs", src);
    assert!(rule_hits(&report, "float-reduce").is_empty());

    let src2 = "fn f(partials: Vec<f64>) -> f64 { partials.iter().sum() }\n";
    let report = audit_one("crates/bench/src/fixture.rs", src2);
    assert!(rule_hits(&report, "float-reduce").is_empty());
}

// ------------------------------------------------------------------ P1

#[test]
fn p1_flags_undocumented_verbs_and_magics() {
    let protocol = "\
pub fn parse(verb: &str) -> u8 {
    match verb {
        \"PING\" => 1,
        \"FROBNICATE\" => 2,
        _ => 0,
    }
}
";
    let snapshot = "\
pub const SNAPSHOT_MAGIC: &[u8; 8] = b\"TESTMAGI\";
pub const SNAPSHOT_VERSION: u32 = 9;
";
    let spec = "PING is documented here. so is v1.";
    let ws = Workspace::from_sources(
        [
            ("crates/server/src/protocol.rs", protocol),
            ("crates/uncertain/src/snapshot.rs", snapshot),
        ],
        Some(spec),
    );
    let report = audit(&ws);
    let msgs: Vec<&str> = report
        .findings
        .iter()
        .filter(|f| f.rule == "formats-doc")
        .map(|f| f.message.as_str())
        .collect();
    assert!(msgs.iter().any(|m| m.contains("FROBNICATE")), "{msgs:?}");
    assert!(msgs.iter().any(|m| m.contains("TESTMAGI")), "{msgs:?}");
    assert!(msgs.iter().any(|m| m.contains("v9")), "{msgs:?}");
    assert!(!msgs.iter().any(|m| m.contains("`PING`")), "{msgs:?}");
}

#[test]
fn p1_has_no_pragma_escape() {
    let protocol = "\
pub fn parse(verb: &str) -> u8 {
    match verb {
        \"SECRETVERB\" => 1, // audit:allow(formats-doc, trying to sneak past)
        _ => 0,
    }
}
";
    let ws = Workspace::from_sources(
        [("crates/server/src/protocol.rs", protocol)],
        Some("nothing documented"),
    );
    let report = audit(&ws);
    assert!(
        report
            .findings
            .iter()
            .any(|f| f.rule == "formats-doc" && f.message.contains("SECRETVERB")),
        "{:?}",
        report.findings
    );
}

// -------------------------------------------------------------- pragmas

#[test]
fn malformed_pragma_is_a_deny_finding() {
    let src = "fn f() { work(); } // audit:allow(map-iter)\n";
    let report = audit_one("crates/core/src/fixture.rs", src);
    let pragma: Vec<_> = report
        .findings
        .iter()
        .filter(|f| f.rule == "pragma")
        .collect();
    assert_eq!(pragma.len(), 1);
    assert_eq!(pragma[0].severity, Severity::Deny);
    assert!(pragma[0].message.contains("mandatory reason"));
}

#[test]
fn unused_pragma_is_a_warning() {
    let src = "fn f() { work(); } // audit:allow(map-iter, nothing here iterates a map)\n";
    let report = audit_one("crates/core/src/fixture.rs", src);
    let pragma: Vec<_> = report
        .findings
        .iter()
        .filter(|f| f.rule == "pragma")
        .collect();
    assert_eq!(pragma.len(), 1);
    assert_eq!(pragma[0].severity, Severity::Warn);
    assert_eq!(report.deny_count(), 0);
}

#[test]
fn unknown_rule_in_pragma_is_a_deny_finding() {
    let src = "fn f() { work(); } // audit:allow(map-itre, typo in the rule id)\n";
    let report = audit_one("crates/core/src/fixture.rs", src);
    assert!(report.findings.iter().any(|f| f.rule == "pragma"
        && f.severity == Severity::Deny
        && f.message.contains("map-itre")));
}

#[test]
fn doc_comment_mentions_are_not_pragmas() {
    let src = "\
/// audit:allow(map-iter, this is documentation prose, not a pragma)
fn f() {
    work();
}
";
    let report = audit_one("crates/core/src/fixture.rs", src);
    assert!(report.findings.is_empty(), "{:?}", report.findings);
}
