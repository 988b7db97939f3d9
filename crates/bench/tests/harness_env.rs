//! The experiment binaries' environment knobs at the process boundary:
//! a malformed `OBF_*` value must stop the run with usage and exit 2,
//! naming the variable, rather than fall back to the default.

use std::process::Command;

#[test]
fn malformed_env_value_exits_2_naming_the_variable() {
    for var in [
        "OBF_SCALE",
        "OBF_WORLDS",
        "OBF_DELTA",
        "OBF_SEED",
        "OBF_THREADS",
    ] {
        let out = Command::new(env!("CARGO_BIN_EXE_table2"))
            .env("OBF_FAST", "1")
            .env(var, "abc")
            .output()
            .unwrap();
        let stderr = String::from_utf8_lossy(&out.stderr);
        assert_eq!(out.status.code(), Some(2), "{var}: {stderr}");
        assert!(
            stderr.contains(&format!("invalid value \"abc\" for {var}")),
            "{var}: {stderr}"
        );
        assert!(stderr.contains("environment:"), "{var}: usage missing");
    }
}

#[test]
fn results_dir_env_redirects_the_tsv() {
    let dir = std::env::temp_dir().join(format!("obf_results_dir_{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    let out = Command::new(env!("CARGO_BIN_EXE_table2"))
        .env("OBF_FAST", "1")
        .env("OBF_THREADS", "1")
        .env("OBF_RESULTS_DIR", &dir)
        .output()
        .unwrap();
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert!(out.status.success(), "{stderr}");
    let tsv =
        std::fs::read_to_string(dir.join("table2.tsv")).expect("table2.tsv in OBF_RESULTS_DIR");
    assert!(tsv.starts_with("dataset\tk\teps\tsigma\n"), "{tsv}");
    assert!(stderr.contains(&dir.display().to_string()), "{stderr}");
    std::fs::remove_dir_all(&dir).unwrap();
}

#[test]
fn usage_lists_the_results_dir_variable() {
    let out = Command::new(env!("CARGO_BIN_EXE_table2"))
        .arg("--help")
        .output()
        .unwrap();
    assert!(out.status.success());
    assert!(String::from_utf8_lossy(&out.stdout).contains("OBF_RESULTS_DIR"));
}

#[test]
fn undeclared_flag_exits_2_and_help_writes_nothing() {
    let dir = std::env::temp_dir().join(format!("obf_flags_{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    for (exe, args) in [
        (env!("CARGO_BIN_EXE_table3"), &["--thraeds", "2"][..]),
        (env!("CARGO_BIN_EXE_table1"), &["--bogus"]),
        (env!("CARGO_BIN_EXE_snapshot_bench"), &["--paper-scale=1"]),
    ] {
        let out = Command::new(exe)
            .env("OBF_FAST", "1")
            .env("OBF_RESULTS_DIR", &dir)
            .args(args)
            .output()
            .unwrap();
        let stderr = String::from_utf8_lossy(&out.stderr);
        assert_eq!(out.status.code(), Some(2), "{exe} {args:?}: {stderr}");
        assert!(
            stderr.contains("unknown argument"),
            "{exe} {args:?}: {stderr}"
        );
        assert!(
            stderr.contains("environment:"),
            "{exe} {args:?}: usage missing"
        );
    }
    let out = Command::new(env!("CARGO_BIN_EXE_table1"))
        .env("OBF_RESULTS_DIR", &dir)
        .arg("--help")
        .output()
        .unwrap();
    assert!(out.status.success());
    assert!(String::from_utf8_lossy(&out.stdout).contains("--threads"));
    assert!(
        !dir.join("table1.tsv").exists(),
        "--help ran the experiment"
    );
    let _ = std::fs::remove_dir_all(&dir);
}
