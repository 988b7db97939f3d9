//! The workspace must audit clean: zero deny findings, zero warnings,
//! and the real format surfaces must actually be extracted (an empty
//! extraction would make rule P1 vacuously green).

use std::path::PathBuf;

use obf_audit::{audit, Workspace};

fn workspace_root() -> PathBuf {
    PathBuf::from(env!("CARGO_MANIFEST_DIR"))
        .parent()
        .and_then(|p| p.parent())
        .expect("crates/audit has a workspace root two levels up")
        .to_path_buf()
}

#[test]
fn workspace_is_clean_at_deny_and_warn_level() {
    let ws = Workspace::load(&workspace_root()).expect("workspace loads");
    let report = audit(&ws);
    let lines: Vec<String> = report
        .findings
        .iter()
        .map(|f| {
            format!(
                "{}: {}: {}:{}: {}",
                f.severity.as_str(),
                f.rule,
                f.path,
                f.line,
                f.message
            )
        })
        .collect();
    assert!(
        lines.is_empty(),
        "workspace has findings:\n{}",
        lines.join("\n")
    );
}

#[test]
fn workspace_walk_reaches_every_crate() {
    let ws = Workspace::load(&workspace_root()).expect("workspace loads");
    for needle in [
        "crates/core/src/algorithm.rs",
        "crates/server/src/sys.rs",
        "crates/uncertain/src/mmap.rs",
        "crates/uncertain/src/mapped.rs",
        "crates/cluster/src/fleet.rs",
        "crates/audit/src/rules.rs",
    ] {
        assert!(
            ws.files.iter().any(|f| f.rel_path == needle),
            "walk missed {needle}"
        );
    }
    assert!(ws.formats_md.is_some(), "docs/FORMATS.md not loaded");
}

/// Every audited unsafe site is in the registry modules, and the
/// registry modules really contain unsafe (the registry is not dead).
#[test]
fn unsafe_registry_matches_reality() {
    let ws = Workspace::load(&workspace_root()).expect("workspace loads");
    for module in obf_audit::rules::AUDITED_MODULES {
        let file = ws
            .files
            .iter()
            .find(|f| f.rel_path == *module)
            .unwrap_or_else(|| panic!("registry module {module} missing"));
        assert!(
            file.tokens.iter().any(|t| t.text == "unsafe"),
            "{module} is registered but has no unsafe code"
        );
    }
}

/// P1's extractors find the real surfaces — guards against the rule
/// going vacuously green if protocol parsing drifts.
#[test]
fn format_surfaces_are_extracted_not_vacuous() {
    let ws = Workspace::load(&workspace_root()).expect("workspace loads");
    let spec = ws.formats_md.clone().expect("FORMATS.md");

    // Break the spec: every extracted surface must now be reported.
    let broken = Workspace {
        root: ws.root.clone(),
        files: ws.files,
        formats_md: Some(String::new()),
    };
    let report = audit(&broken);
    let missing: Vec<&str> = report
        .findings
        .iter()
        .filter(|f| f.rule == "formats-doc")
        .map(|f| f.message.as_str())
        .collect();
    for surface in [
        "`PING`",        // server verb
        "`RELOAD`",      // server + fleet verb
        "`FLEET_STATS`", // fleet verb
        "`v3`",          // snapshot version
        "`OBFUSNAP`",    // snapshot magic
        "`OBFUDELTA`",   // delta-log magic
        "`OBFUREQLOG`",  // request-log magic
    ] {
        assert!(
            missing.iter().any(|m| m.contains(surface)),
            "P1 did not extract {surface}; extracted set: {missing:#?}"
        );
    }
    // And the real spec documents all of them (sanity on the happy path).
    assert!(spec.contains("OBFUSNAP") && spec.contains("OBFUDELTA") && spec.contains("OBFUREQLOG"));
}
