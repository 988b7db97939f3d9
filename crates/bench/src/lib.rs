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
//!   `--threads <N>` argument, which overrides the environment.
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
/// plus the `OBF_*` environment knobs. Binaries with extra flags (e.g.
/// `loadgen`) append their own lines before printing it.
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
    /// The shared entry point of every experiment binary: handles
    /// `--help`, reads the configuration
    /// ([`HarnessConfig::try_from_env`], including the `--threads`
    /// argument) and prints the standard `[config: ..]` banner to
    /// stderr. A malformed flag or environment value prints the error
    /// plus [`HARNESS_USAGE`] and exits with status 2 instead of
    /// panicking — the IO/CLI boundary never backtraces on user input.
    pub fn init() -> Self {
        if help_requested() {
            println!("{HARNESS_USAGE}");
            std::process::exit(0);
        }
        match Self::try_from_env() {
            Ok(cfg) => {
                eprintln!("[config: {cfg:?}]");
                cfg
            }
            Err(msg) => {
                eprintln!("error: {msg}");
                eprintln!("{HARNESS_USAGE}");
                std::process::exit(2);
            }
        }
    }

    /// Reads the configuration from the environment, then lets a
    /// `--threads <N>` command-line argument override `OBF_THREADS`.
    /// Malformed values are reported as `Err` rather than panics.
    pub fn try_from_env() -> Result<Self, String> {
        let fast = std::env::var("OBF_FAST").is_ok_and(|v| v != "0" && !v.is_empty());
        let scale = env_or("OBF_SCALE", if fast { 0.1 } else { 1.0 })?;
        let worlds = env_or("OBF_WORLDS", if fast { 10 } else { 100 })?;
        let delta = env_or("OBF_DELTA", if fast { 1e-3 } else { 1e-6 })?;
        let seed = env_or("OBF_SEED", 0xC0FFEE)?;
        let threads = match arg_usize("--threads")? {
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

/// `--name <value>` (or `--name=<value>`) from the process arguments.
/// A present-but-unparseable value is a hard `Err` rather than a silent
/// fallback — a bench run recorded under the wrong thread count would
/// corrupt the Table 3 comparison — but it surfaces as usage + exit 2
/// (see [`HarnessConfig::init`]), not a panic.
fn arg_usize(name: &str) -> Result<Option<usize>, String> {
    let args: Vec<String> = std::env::args().collect();
    parse_arg_usize(&args, name)
}

fn parse_arg_usize(args: &[String], name: &str) -> Result<Option<usize>, String> {
    let eq_prefix = format!("{name}=");
    for (i, a) in args.iter().enumerate() {
        let raw = if a == name {
            args.get(i + 1)
                .ok_or_else(|| format!("flag {name} needs a value"))?
                .as_str()
        } else if let Some(v) = a.strip_prefix(&eq_prefix) {
            v
        } else {
            continue;
        };
        return raw
            .parse()
            .map(Some)
            .map_err(|_| format!("invalid value {raw:?} for {name}"));
    }
    Ok(None)
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

    #[test]
    fn threads_arg_accepts_both_forms() {
        assert_eq!(
            parse_arg_usize(&argv(&["bin", "--threads", "4"]), "--threads"),
            Ok(Some(4))
        );
        assert_eq!(
            parse_arg_usize(&argv(&["bin", "--threads=8"]), "--threads"),
            Ok(Some(8))
        );
        assert_eq!(parse_arg_usize(&argv(&["bin"]), "--threads"), Ok(None));
    }

    #[test]
    fn threads_arg_rejects_garbage_as_error() {
        let err = parse_arg_usize(&argv(&["bin", "--threads", "1x"]), "--threads").unwrap_err();
        assert!(err.contains("invalid value"), "err={err}");
    }

    #[test]
    fn threads_arg_rejects_missing_value_as_error() {
        let err = parse_arg_usize(&argv(&["bin", "--threads"]), "--threads").unwrap_err();
        assert!(err.contains("needs a value"), "err={err}");
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
