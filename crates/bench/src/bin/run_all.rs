//! Runs every table/figure experiment in sequence (one-shot reproduction
//! driver). Respects the same `OBF_*` environment knobs as the individual
//! binaries and forwards its own command-line arguments (e.g.
//! `--threads 4`) to every child, so one invocation configures the whole
//! sweep. Sibling binaries are preferred when already built (e.g. via
//! `cargo build --release -p obf_bench`); otherwise each is run through
//! `cargo run`.
//!
//! Every child runs even if an earlier one failed; the driver collects
//! the exit statuses and exits non-zero naming the failed binaries, so a
//! broken table can never hide behind a green `run_all`.

use std::process::Command;

fn main() {
    if obf_bench::help_requested() {
        println!("run_all: run every table/figure binary in sequence");
        println!(
            "binaries driven: table1 table2 table3 table4 table5 fig2 fig3 fig4 table6 snapshot_bench"
        );
        println!(
            "not driven (on-demand tools): loadgen (serving bench; --request-log records an \
             OBFUREQLOG v1 log, --replay re-drives one), republish, \
             snapshot_convert, obf_audit"
        );
        println!("{}", obf_bench::HARNESS_USAGE);
        return;
    }
    let exes = [
        "table1",
        "table2",
        "table3",
        "table4",
        "table5",
        "fig2",
        "fig3",
        "fig4",
        "table6",
        "snapshot_bench",
    ];
    let forwarded: Vec<String> = std::env::args().skip(1).collect();
    let self_path = std::env::current_exe().expect("current exe");
    let dir = self_path.parent().expect("exe dir").to_path_buf();
    let mut failures: Vec<String> = Vec::new();
    for exe in exes {
        eprintln!("==> {exe}");
        let sibling = dir.join(exe);
        let status = if sibling.exists() {
            Command::new(&sibling).args(&forwarded).status()
        } else {
            Command::new("cargo")
                .args(["run", "-q", "--release", "-p", "obf_bench", "--bin", exe])
                .arg("--")
                .args(&forwarded)
                .status()
        };
        match status {
            Ok(s) if s.success() => {}
            Ok(s) => {
                eprintln!("{exe} exited with {s}");
                failures.push(format!("{exe} ({s})"));
            }
            Err(e) => {
                eprintln!("failed to launch {exe}: {e}");
                failures.push(format!("{exe} (spawn failed: {e})"));
            }
        }
    }
    if failures.is_empty() {
        eprintln!(
            "all experiments completed; TSVs in {}",
            obf_bench::results_dir().display()
        );
    } else {
        eprintln!(
            "{} of {} experiments failed: {}",
            failures.len(),
            exes.len(),
            failures.join(", ")
        );
        std::process::exit(1);
    }
}
