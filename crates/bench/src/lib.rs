//! Experiment harness regenerating every table and figure of the paper
//! (Section 7). Each `src/bin/*` binary prints one table/figure and
//! writes a TSV under the results directory (`results/` unless
//! `OBF_RESULTS_DIR` names another); `run_all` drives everything.
//!
//! Scaling knobs (environment variables):
//!
//! * `OBF_FAST=1` — tiny graphs and few worlds, for smoke runs/CI.
//! * `OBF_SCALE=<f64>` — multiply the default dataset sizes.
//! * `OBF_WORLDS=<usize>` — possible worlds per evaluation (default 100,
//!   as in the paper).
//! * `OBF_DELTA=<f64>` — binary-search resolution of Algorithm 1.
//! * `OBF_SEED=<u64>` — master seed.
//! * `OBF_THREADS=<usize>` — worker threads for the parallel engine
//!   (default: all hardware threads). Every binary also accepts a
//!   `--threads <N>` argument, which overrides the environment. A flag
//!   a binary does not declare is an error (see [`Flags`]).
//! * `OBF_RESULTS_DIR=<path>` — where TSV and JSON outputs go (default:
//!   the repository's `results/`).
//!
//! For a fixed seed the tables are identical at every thread count — the
//! sharded loops merge partial results in a fixed chunk order (see
//! [`obf_graph::Parallelism`]); `ci.sh` diffs a `--threads 1` run
//! against a `--threads 4` run to enforce this.
//!
//! # Example
//!
//! ```
//! use obf_bench::HarnessConfig;
//! use obf_datasets::Dataset;
//!
//! let cfg = HarnessConfig { scale: 0.05, worlds: 5, delta: 1e-3, seed: 1, fast: true, threads: 2 };
//! let g = cfg.dataset(Dataset::Dblp);
//! assert_eq!(g.num_vertices(), cfg.dataset_size(Dataset::Dblp));
//! assert_eq!(cfg.obf_params(20, 1e-2).k, 20);
//! assert_eq!(cfg.parallelism().threads(), 2);
//! ```

pub mod experiments;
pub mod json;
pub mod table;
pub mod traffic;

use obf_core::ObfuscationParams;
use obf_datasets::{Dataset, DatasetSpec};
use obf_graph::{Graph, Parallelism};

/// Runtime configuration for all experiment binaries.
#[derive(Debug, Clone, Copy)]
pub struct HarnessConfig {
    pub scale: f64,
    pub worlds: usize,
    pub delta: f64,
    pub seed: u64,
    pub fast: bool,
    /// Worker threads for the parallel engine (1 = sequential).
    pub threads: usize,
}

/// The shared usage text of the experiment binaries: the harness flags
/// plus the `OBF_*` environment knobs. [`Flags`] prints a binary's own
/// lines (e.g. `loadgen`'s) before it.
pub const HARNESS_USAGE: &str = "\
options:
  --threads <N>   worker threads for the parallel engine (default: all cores)
  --help, -h      print this help and exit
environment:
  OBF_FAST=1        tiny graphs and few worlds (smoke runs / CI)
  OBF_SCALE=<f64>   multiply the default dataset sizes
  OBF_WORLDS=<n>    possible worlds per evaluation (default 100)
  OBF_DELTA=<f64>   binary-search resolution of Algorithm 1
  OBF_SEED=<u64>    master seed
  OBF_THREADS=<n>   worker threads (overridden by --threads)
  OBF_RESULTS_DIR=<path>  output directory (default: the repository's results/)";

/// True when the process arguments ask for help (`--help` or `-h`).
pub fn help_requested() -> bool {
    std::env::args().any(|a| a == "--help" || a == "-h")
}

impl HarnessConfig {
    /// The entry point of an experiment binary that takes only the
    /// harness flags: [`HarnessConfig::from_flags`] over
    /// [`Flags::read`] with nothing declared beyond `--threads`.
    pub fn init() -> Self {
        Self::from_flags(&Flags::read("", &[], &[]))
    }

    /// Reads the configuration from the environment, lets the
    /// `--threads <N>` of `flags` override `OBF_THREADS`, and prints the
    /// standard `[config: ..]` banner to stderr. A malformed flag or
    /// environment value prints the error plus the usage and exits with
    /// status 2 instead of panicking — the IO/CLI boundary never
    /// backtraces on user input.
    pub fn from_flags(flags: &Flags) -> Self {
        let cfg = Self::try_from_flags(flags).unwrap_or_else(|msg| flags.fail(&msg));
        eprintln!("[config: {cfg:?}]");
        cfg
    }

    fn try_from_flags(flags: &Flags) -> Result<Self, String> {
        let fast = std::env::var("OBF_FAST").is_ok_and(|v| v != "0" && !v.is_empty());
        let scale = env_or("OBF_SCALE", if fast { 0.1 } else { 1.0 })?;
        let worlds = env_or("OBF_WORLDS", if fast { 10 } else { 100 })?;
        let delta = env_or("OBF_DELTA", if fast { 1e-3 } else { 1e-6 })?;
        let seed = env_or("OBF_SEED", 0xC0FFEE)?;
        let threads = match flags.try_parse("--threads")? {
            Some(t) => t,
            None => env_or("OBF_THREADS", Parallelism::available().threads())?,
        }
        .max(1);
        Ok(Self {
            scale,
            worlds,
            delta,
            seed,
            fast,
            threads,
        })
    }

    /// The sharding configuration the experiments hand to the engine.
    pub fn parallelism(&self) -> Parallelism {
        Parallelism::new(self.threads)
    }

    /// The dataset sizes used under this configuration.
    pub fn dataset_size(&self, ds: Dataset) -> usize {
        ((ds.default_scale() as f64 * self.scale) as usize).max(200)
    }

    /// Synthesises a dataset at the configured scale.
    pub fn dataset(&self, ds: Dataset) -> Graph {
        DatasetSpec::synthetic(ds, self.dataset_size(ds), self.seed).graph
    }

    /// Obfuscation parameters matching the paper's setup (`c = 2`,
    /// `q = 0.01`, `t = 5`), with this harness's search resolution.
    pub fn obf_params(&self, k: usize, eps: f64) -> ObfuscationParams {
        let mut p = ObfuscationParams::new(k, eps)
            .with_seed(self.seed ^ 0x0b)
            .with_threads(self.threads);
        p.delta = self.delta;
        if self.fast {
            p.t = 2;
        }
        p
    }

    /// The (k, ε) grid of the paper's Tables 2–3 — ε values are kept from
    /// the paper; at reduced scale `ε·n` is small but still ≥ 1 vertex.
    pub fn keps_grid(&self) -> (Vec<usize>, Vec<f64>) {
        if self.fast {
            (vec![5, 20], vec![1e-2])
        } else {
            // The paper's eps values plus 1e-2: at reduced scale eps*n for
            // 1e-4 is only a few vertices, which makes some cells
            // infeasible (see EXPERIMENTS.md); the extra column shows the
            // trend.
            (vec![20, 60, 100], vec![1e-2, 1e-3, 1e-4])
        }
    }
}

/// The command-line flags of one harness binary, checked against the
/// flags it declares: each value flag as `--name <value>` or
/// `--name=<value>`, each switch as a bare `--name`. `--threads` (a
/// value flag) and `--help`/`-h` are declared for every binary.
///
/// A misspelled or unknown flag must not silently fall back to a
/// default, and a present-but-unparseable value must not either — a
/// bench run recorded under the wrong thread count would corrupt the
/// Table 3 comparison. Both surface as the error, the usage and exit
/// status 2, never as a panic.
#[derive(Debug, Default)]
pub struct Flags {
    /// `(name, value)` per value flag given, in argument order.
    values: Vec<(String, String)>,
    switches: Vec<String>,
    usage: String,
}

impl Flags {
    /// Reads the process arguments. `usage` is the binary's own usage
    /// text (empty when it declares nothing beyond the harness flags);
    /// [`HARNESS_USAGE`] follows it. `--help`/`-h` prints both and exits
    /// with status 0.
    pub fn read(usage: &str, values: &[&str], switches: &[&str]) -> Self {
        let usage = if usage.is_empty() {
            HARNESS_USAGE.to_string()
        } else {
            format!("{usage}\n{HARNESS_USAGE}")
        };
        let args: Vec<String> = std::env::args().skip(1).collect();
        if args.iter().any(|a| a == "--help" || a == "-h") {
            println!("{usage}");
            std::process::exit(0);
        }
        let flags =
            Self::parse(&args, values, switches).unwrap_or_else(|msg| usage_error(&usage, &msg));
        Flags { usage, ..flags }
    }

    /// Checks `args` (without the program name) against the declared
    /// flags.
    fn parse(args: &[String], values: &[&str], switches: &[&str]) -> Result<Self, String> {
        let mut flags = Flags::default();
        let mut args = args.iter();
        while let Some(a) = args.next() {
            let (name, inline) = match a.split_once('=') {
                Some((name, v)) => (name, Some(v)),
                None => (a.as_str(), None),
            };
            if name == "--threads" || values.contains(&name) {
                let value = match inline {
                    Some(v) => v,
                    None => args
                        .next()
                        .ok_or_else(|| format!("flag {name} needs a value"))?,
                };
                flags.values.push((name.to_string(), value.to_string()));
            } else if inline.is_none() && switches.contains(&name) {
                flags.switches.push(name.to_string());
            } else {
                return Err(format!("unknown argument {a:?}"));
            }
        }
        Ok(flags)
    }

    /// The value of flag `name` as given (the first one if repeated).
    pub fn get(&self, name: &str) -> Option<&str> {
        self.values
            .iter()
            .find(|(n, _)| n == name)
            .map(|(_, v)| v.as_str())
    }

    /// The value of flag `name`, parsed; usage + exit 2 if it does not
    /// parse.
    pub fn parse_value<T: std::str::FromStr>(&self, name: &str) -> Option<T> {
        self.try_parse(name).unwrap_or_else(|msg| self.fail(&msg))
    }

    fn try_parse<T: std::str::FromStr>(&self, name: &str) -> Result<Option<T>, String> {
        self.get(name)
            .map(|raw| {
                raw.parse()
                    .map_err(|_| format!("invalid value {raw:?} for {name}"))
            })
            .transpose()
    }

    /// Whether switch `name` was given.
    pub fn switch(&self, name: &str) -> bool {
        self.switches.iter().any(|s| s == name)
    }

    /// Reports a bad value for flag `name` as usage + exit 2.
    pub fn bad_value(&self, name: &str, value: &str) -> ! {
        self.fail(&format!("invalid value {value:?} for {name}"))
    }

    /// Prints `error: {msg}` and the usage to stderr and exits with
    /// status 2.
    pub fn fail(&self, msg: &str) -> ! {
        usage_error(&self.usage, msg)
    }
}

fn usage_error(usage: &str, msg: &str) -> ! {
    eprintln!("error: {msg}");
    eprintln!("{usage}");
    std::process::exit(2);
}

/// `key` from the environment, parsed, or `default` when it is unset.
/// A set-but-unparseable value is an `Err` naming the variable, for the
/// same reason as a bad flag: `OBF_SCALE=1.0x` must not quietly run at
/// the default scale.
fn env_or<T: std::str::FromStr>(key: &str, default: T) -> Result<T, String> {
    match std::env::var(key) {
        Err(std::env::VarError::NotPresent) => Ok(default),
        Ok(raw) => raw
            .parse()
            .map_err(|_| format!("invalid value {raw:?} for {key}")),
        Err(e) => Err(format!("invalid value for {key}: {e}")),
    }
}

/// Directory for TSV and JSON outputs, created on demand:
/// `OBF_RESULTS_DIR` when set and not empty, else the repository's
/// `results/` (found from this crate's source directory at build time).
pub fn results_dir() -> std::path::PathBuf {
    let dir = match std::env::var_os("OBF_RESULTS_DIR") {
        Some(dir) if !dir.is_empty() => std::path::PathBuf::from(dir),
        _ => std::path::Path::new(env!("CARGO_MANIFEST_DIR")).join("../../results"),
    };
    std::fs::create_dir_all(&dir).ok();
    dir
}

/// Writes a JSON artifact under [`results_dir`] (the bench trajectory
/// the nightly CI job uploads).
pub fn write_json(name: &str, value: &json::Json) {
    let path = results_dir().join(name);
    std::fs::write(&path, value.pretty()).expect("write JSON");
    eprintln!("[wrote {}]", path.display());
}

/// Writes rows as a TSV file under [`results_dir`].
pub fn write_tsv(name: &str, header: &[&str], rows: &[Vec<String>]) {
    use std::io::Write;
    let path = results_dir().join(name);
    let mut f = std::io::BufWriter::new(std::fs::File::create(&path).expect("create TSV"));
    writeln!(f, "{}", header.join("\t")).unwrap();
    for row in rows {
        writeln!(f, "{}", row.join("\t")).unwrap();
    }
    eprintln!("[wrote {}]", path.display());
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn env_parsing_defaults() {
        assert_eq!(env_or("OBF_DOES_NOT_EXIST", 2.5), Ok(2.5));
        assert_eq!(env_or("OBF_DOES_NOT_EXIST", 7usize), Ok(7));
        assert_eq!(env_or("OBF_DOES_NOT_EXIST", 9u64), Ok(9));
    }

    fn argv(parts: &[&str]) -> Vec<String> {
        parts.iter().map(|s| s.to_string()).collect()
    }

    /// `--threads` parsed from `args` with nothing else declared.
    fn threads(args: &[&str]) -> Result<Option<usize>, String> {
        Flags::parse(&argv(args), &[], &[])?.try_parse("--threads")
    }

    #[test]
    fn threads_arg_accepts_both_forms() {
        assert_eq!(threads(&["--threads", "4"]), Ok(Some(4)));
        assert_eq!(threads(&["--threads=8"]), Ok(Some(8)));
        assert_eq!(threads(&[]), Ok(None));
    }

    #[test]
    fn threads_arg_rejects_garbage_as_error() {
        let err = threads(&["--threads", "1x"]).unwrap_err();
        assert!(err.contains("invalid value"), "err={err}");
    }

    #[test]
    fn threads_arg_rejects_missing_value_as_error() {
        let err = threads(&["--threads"]).unwrap_err();
        assert!(err.contains("needs a value"), "err={err}");
    }

    #[test]
    fn undeclared_flags_are_errors() {
        // A misspelt flag and one the binary does not take.
        for args in [&["--thraeds", "2"][..], &["--bogus"], &["--help=1"], &["x"]] {
            let err = Flags::parse(&argv(args), &[], &[]).unwrap_err();
            assert!(err.contains("unknown argument"), "args={args:?} err={err}");
        }
        // A switch takes no `=value`.
        let err = Flags::parse(&argv(&["--paper-scale=1"]), &[], &["--paper-scale"]).unwrap_err();
        assert!(err.contains("unknown argument"), "err={err}");
    }

    #[test]
    fn declared_switches_and_values_are_read() {
        let args = argv(&["--paper-scale", "--churn=0.5", "--k", "7", "--threads=3"]);
        let flags = Flags::parse(&args, &["--churn", "--k"], &["--paper-scale"]).unwrap();
        assert!(flags.switch("--paper-scale"));
        assert!(!flags.switch("--other"));
        assert_eq!(flags.try_parse("--churn"), Ok(Some(0.5)));
        assert_eq!(flags.try_parse("--k"), Ok(Some(7usize)));
        assert_eq!(flags.try_parse("--threads"), Ok(Some(3usize)));
        assert_eq!(flags.get("--eps"), None);
        // A declared switch is not a value flag, and vice versa.
        assert!(Flags::parse(&argv(&["--k"]), &[], &["--paper-scale"]).is_err());
    }

    #[test]
    fn config_scales_datasets() {
        let cfg = HarnessConfig {
            scale: 0.01,
            worlds: 5,
            delta: 1e-3,
            seed: 1,
            fast: true,
            threads: 1,
        };
        assert_eq!(cfg.dataset_size(Dataset::Dblp), 200);
        let g = cfg.dataset(Dataset::Dblp);
        assert_eq!(g.num_vertices(), 200);
    }

    #[test]
    fn obf_params_carry_delta() {
        let cfg = HarnessConfig {
            scale: 1.0,
            worlds: 100,
            delta: 1e-4,
            seed: 1,
            fast: false,
            threads: 3,
        };
        let p = cfg.obf_params(20, 1e-3);
        assert_eq!(p.delta, 1e-4);
        assert_eq!(p.k, 20);
        assert_eq!(p.c, 2.0);
        assert_eq!(p.q, 0.01);
        assert_eq!(p.parallelism.threads(), 3);
    }
}
