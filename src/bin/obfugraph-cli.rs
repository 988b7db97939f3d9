//! Command-line front end for `obfugraph`: obfuscate an edge-list file
//! into a published uncertain graph, evaluate a published graph's
//! statistics, or audit its anonymity levels.
//!
//! ```text
//! obfugraph-cli obfuscate <edges.txt> <out.up> --k 20 --eps 0.01 [--c 2] [--q 0.01] [--seed 7] [--threads N]
//! obfugraph-cli evaluate  <graph.up> [--worlds 50] [--seed 7] [--threads N]
//! obfugraph-cli audit     <edges.txt> <graph.up> [--k 20] [--threads N]
//! ```
//!
//! Edge lists are `u v` lines; uncertain graphs (`.up`) are `u v p` lines
//! (both accept `#` comments). Flags use simple `--name value` parsing so
//! the binary stays dependency-free.
//!
//! `--threads` sets the worker threads (default: all hardware threads).
//! `obfuscate` spends them across the trials of each σ: the main thread
//! draws every trial's random perturbations in order and the other
//! threads run the trials' Definition 2 checks concurrently. `evaluate`
//! shards the world sampling and `audit` the adversary check. Output is
//! identical for every thread count given the same `--seed`.

use std::collections::HashMap;
use std::process::ExitCode;

use obfugraph::baselines::{anonymity_curve, eps_for_k};
use obfugraph::core::adversary::{vertex_obfuscation_levels, AdversaryTable};
use obfugraph::core::{obfuscate, ObfuscationParams};
use obfugraph::graph::io::load_edge_list;
use obfugraph::graph::Parallelism;
use obfugraph::uncertain::degree_dist::DegreeDistMethod;
use obfugraph::uncertain::io::{load_uncertain_edge_list, save_uncertain_edge_list};
use obfugraph::uncertain::statistics::{
    evaluate_uncertain, DistanceEngine, StatSuite, UtilityConfig,
};

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    match run(&args) {
        Ok(()) => ExitCode::SUCCESS,
        Err(msg) => {
            eprintln!("error: {msg}");
            eprintln!();
            eprintln!("{USAGE}");
            ExitCode::FAILURE
        }
    }
}

const USAGE: &str = "usage:
  obfugraph-cli obfuscate <edges.txt> <out.up> --k <K> --eps <EPS> [--c 2] [--q 0.01] [--seed 7] [--delta 1e-6] [--threads N]
  obfugraph-cli evaluate  <graph.up> [--worlds 50] [--seed 7] [--threads N]
  obfugraph-cli audit     <edges.txt> <graph.up> [--k 20] [--threads N]";

/// The `--threads` flag, defaulting to all hardware threads.
fn parallelism_flag(flags: &HashMap<String, String>) -> Result<Parallelism, String> {
    let threads: usize = flag(flags, "threads", Parallelism::available().threads())?;
    Ok(Parallelism::new(threads))
}

fn run(args: &[String]) -> Result<(), String> {
    let (positional, flags) = parse_args(args)?;
    match positional.first().map(String::as_str) {
        Some("obfuscate") => cmd_obfuscate(&positional[1..], &flags),
        Some("evaluate") => cmd_evaluate(&positional[1..], &flags),
        Some("audit") => cmd_audit(&positional[1..], &flags),
        Some(other) => Err(format!("unknown command {other:?}")),
        None => Err("missing command".into()),
    }
}

fn parse_args(args: &[String]) -> Result<(Vec<String>, HashMap<String, String>), String> {
    let mut positional = Vec::new();
    let mut flags = HashMap::new();
    let mut it = args.iter();
    while let Some(a) = it.next() {
        if let Some(name) = a.strip_prefix("--") {
            let value = it
                .next()
                .ok_or_else(|| format!("flag --{name} needs a value"))?;
            flags.insert(name.to_string(), value.clone());
        } else {
            positional.push(a.clone());
        }
    }
    Ok((positional, flags))
}

fn flag<T: std::str::FromStr>(
    flags: &HashMap<String, String>,
    name: &str,
    default: T,
) -> Result<T, String> {
    match flags.get(name) {
        Some(v) => v
            .parse()
            .map_err(|_| format!("invalid value {v:?} for --{name}")),
        None => Ok(default),
    }
}

fn cmd_obfuscate(pos: &[String], flags: &HashMap<String, String>) -> Result<(), String> {
    let [input, output] = pos else {
        return Err("obfuscate needs <edges.txt> <out.up>".into());
    };
    let k: usize = flag(flags, "k", 20)?;
    let eps: f64 = flag(flags, "eps", 0.01)?;
    let loaded = load_edge_list(input).map_err(|e| e.to_string())?;
    eprintln!(
        "loaded {}: n = {}, m = {}",
        input,
        loaded.graph.num_vertices(),
        loaded.graph.num_edges()
    );
    let mut params = ObfuscationParams::new(k, eps);
    params.c = flag(flags, "c", params.c)?;
    params.q = flag(flags, "q", params.q)?;
    params.seed = flag(flags, "seed", params.seed)?;
    params.delta = flag(flags, "delta", 1e-6)?;
    params.parallelism = parallelism_flag(flags)?;
    let res = obfuscate(&loaded.graph, &params).map_err(|e| e.to_string())?;
    eprintln!(
        "(k = {k}, eps = {eps}) satisfied: sigma = {:.6e}, achieved eps = {:.6}, |E_C| = {}",
        res.sigma,
        res.eps_achieved,
        res.graph.num_candidates()
    );
    save_uncertain_edge_list(&res.graph, output).map_err(|e| e.to_string())?;
    eprintln!("wrote {output}");
    Ok(())
}

fn cmd_evaluate(pos: &[String], flags: &HashMap<String, String>) -> Result<(), String> {
    let [input] = pos else {
        return Err("evaluate needs <graph.up>".into());
    };
    let worlds: usize = flag(flags, "worlds", 50)?;
    let seed: u64 = flag(flags, "seed", 7)?;
    let ug = load_uncertain_edge_list(input, 0).map_err(|e| e.to_string())?;
    eprintln!(
        "loaded {}: n = {}, |E_C| = {}, E[edges] = {:.1}",
        input,
        ug.num_vertices(),
        ug.num_candidates(),
        obfugraph::uncertain::expected_num_edges(&ug)
    );
    let cfg = UtilityConfig {
        distance: DistanceEngine::HyperAnf { b: 6 },
        seed,
        parallelism: parallelism_flag(flags)?,
    };
    let suites = evaluate_uncertain(&ug, worlds, seed, &cfg);
    let n = suites.len() as f64;
    println!("{:<12}{:>14}", "statistic", "mean");
    for (i, name) in StatSuite::NAMES.iter().enumerate() {
        let mean = suites.iter().map(|s| s.as_array()[i]).sum::<f64>() / n;
        println!("{name:<12}{mean:>14.4}");
    }
    Ok(())
}

fn cmd_audit(pos: &[String], flags: &HashMap<String, String>) -> Result<(), String> {
    let [orig_path, pub_path] = pos else {
        return Err("audit needs <edges.txt> <graph.up>".into());
    };
    let k: usize = flag(flags, "k", 20)?;
    let loaded = load_edge_list(orig_path).map_err(|e| e.to_string())?;
    let ug = load_uncertain_edge_list(pub_path, loaded.graph.num_vertices())
        .map_err(|e| e.to_string())?;
    if ug.num_vertices() != loaded.graph.num_vertices() {
        return Err(format!(
            "vertex counts differ: original {} vs published {}",
            loaded.graph.num_vertices(),
            ug.num_vertices()
        ));
    }
    let par = parallelism_flag(flags)?;
    let table = AdversaryTable::build_par(&ug, DegreeDistMethod::Auto { threshold: 64 }, &par);
    let levels = vertex_obfuscation_levels(&loaded.graph, &table, &par);
    let eps = eps_for_k(&levels, k);
    println!("vertices below obfuscation level k = {k}: {:.4} (eps)", eps);
    println!("anonymity curve (level -> vertices at or below):");
    for (lvl, count) in anonymity_curve(&levels, k.max(10)) {
        if lvl == 1 || lvl % 5 == 0 {
            println!("  k <= {lvl:<4} {count}");
        }
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parse_flags_and_positionals() {
        let args: Vec<String> = [
            "obfuscate",
            "in.txt",
            "out.up",
            "--k",
            "10",
            "--eps",
            "0.05",
        ]
        .iter()
        .map(|s| s.to_string())
        .collect();
        let (pos, flags) = parse_args(&args).unwrap();
        assert_eq!(pos, vec!["obfuscate", "in.txt", "out.up"]);
        assert_eq!(flags.get("k").unwrap(), "10");
        assert_eq!(flag::<usize>(&flags, "k", 0).unwrap(), 10);
        assert_eq!(flag::<f64>(&flags, "eps", 0.0).unwrap(), 0.05);
        assert_eq!(flag::<u64>(&flags, "seed", 99).unwrap(), 99);
    }

    #[test]
    fn missing_flag_value_rejected() {
        let args: Vec<String> = ["evaluate", "--worlds"]
            .iter()
            .map(|s| s.to_string())
            .collect();
        assert!(parse_args(&args).is_err());
    }

    #[test]
    fn unknown_command_rejected() {
        let args = vec!["bogus".to_string()];
        assert!(run(&args).is_err());
    }
}
