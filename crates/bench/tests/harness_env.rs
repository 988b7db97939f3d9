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
