//! Command-line front end for `obfugraph`: obfuscate an edge-list file
//! into a published uncertain graph, evaluate a published graph's
//! statistics, or audit its anonymity levels.
//!
//! ```text
//! obfugraph-cli obfuscate <edges.txt> <out.up> --k 20 --eps 0.01 [--c 2] [--q 0.01] [--seed 3061] [--delta 1e-6] [--threads N]
//! obfugraph-cli evaluate  <graph.up> [--worlds 50] [--seed 7] [--threads N]
//! obfugraph-cli audit     <edges.txt> <graph.up> [--k 20] [--threads N]
//! ```
//!
//! Edge lists are `u v` lines; uncertain graphs (`.up`) are `u v p` lines
//! (both accept `#` comments). Flags use simple `--name value` parsing so
//! the binary stays dependency-free; a flag the subcommand does not take
//! is an error.
//!
//! `--threads` sets the worker threads (default: all hardware threads).
//! `obfuscate` runs the σ search on one pool of that many workers, the
//! main thread among them: each trial draws its random perturbations from
//! its own RNG stream, the worker that draws a trial also runs its
//! Definition 2 check, and idle workers start the trials the search is
//! likely to need next. `evaluate` shards the world sampling and `audit`
//! the adversary check. Output is identical for every thread count given
//! the same `--seed`.

use std::collections::HashMap;
use std::process::ExitCode;

use obfugraph::baselines::anonymity_curve;
use obfugraph::core::{obfuscate_with_stats, ObfuscationCheck, ObfuscationParams};
use obfugraph::graph::io::load_edge_list;
use obfugraph::graph::Parallelism;
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
  obfugraph-cli obfuscate <edges.txt> <out.up> --k <K> --eps <EPS> [--c 2] [--q 0.01] [--seed 3061] [--delta 1e-6] [--threads N]
  obfugraph-cli evaluate  <graph.up> [--worlds 50] [--seed 7] [--threads N]
  obfugraph-cli audit     <edges.txt> <graph.up> [--k 20] [--threads N]";

/// The `--threads` flag, defaulting to all hardware threads.
fn parallelism_flag(flags: &HashMap<String, String>) -> Result<Parallelism, String> {
    let threads: usize = flag(flags, "threads", Parallelism::available().threads())?;
    Ok(Parallelism::new(threads))
}

fn run(args: &[String]) -> Result<(), String> {
    let (positional, flags) = parse_args(args)?;
    let Some(command) = positional.first() else {
        return Err("missing command".into());
    };
    check_flags(command, &flags)?;
    match command.as_str() {
        "obfuscate" => cmd_obfuscate(&positional[1..], &flags),
        "evaluate" => cmd_evaluate(&positional[1..], &flags),
        "audit" => cmd_audit(&positional[1..], &flags),
        other => Err(format!("unknown command {other:?}")),
    }
}

/// Rejects any flag `command` does not take, so a misspelt parameter
/// (`--esp` for `--eps`) is an error instead of a silent default.
fn check_flags(command: &str, flags: &HashMap<String, String>) -> Result<(), String> {
    let known: &[&str] = match command {
        "obfuscate" => &["k", "eps", "c", "q", "seed", "delta", "threads"],
        "evaluate" => &["worlds", "seed", "threads"],
        "audit" => &["k", "threads"],
        _ => return Ok(()), // `run` rejects the command itself
    };
    let mut unknown: Vec<&str> = flags
        .keys()
        .map(String::as_str)
        .filter(|name| !known.contains(name))
        .collect();
    unknown.sort_unstable();
    match unknown.first() {
        Some(name) => Err(format!("unknown flag --{name} for {command}")),
        None => Ok(()),
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
    let (res, stats) = obfuscate_with_stats(&loaded.graph, &params).map_err(|e| e.to_string())?;
    eprintln!(
        "(k = {k}, eps = {eps}) satisfied: sigma = {:.6e}, achieved eps = {:.6}, |E_C| = {}",
        res.sigma,
        res.eps_achieved,
        res.graph.num_candidates()
    );
    save_uncertain_edge_list(&res.graph, output).map_err(|e| e.to_string())?;
    eprintln!("wrote {output}");
    // Trial phases summed over every trial drawn and across the threads
    // that ran them; then the trials of every σ tried (t each), the
    // trials checked, counted in trial order, and every trial drawn,
    // including those drawn ahead of a verdict that no counter counts.
    let phases = stats.phases;
    eprintln!(
        "phases select_ms={:.1} perturb_ms={:.1} build_ms={:.1} check_ms={:.1} trials={} checked={} drawn={}",
        phases.select * 1e3,
        phases.perturb * 1e3,
        phases.build * 1e3,
        phases.check * 1e3,
        stats.trials(),
        stats.checked(),
        stats.drawn
    );
    Ok(())
}

fn cmd_evaluate(pos: &[String], flags: &HashMap<String, String>) -> Result<(), String> {
    let [input] = pos else {
        return Err("evaluate needs <graph.up>".into());
    };
    let worlds: usize = flag(flags, "worlds", 50)?;
    if worlds < 1 {
        return Err("invalid parameter: worlds must be >= 1".into());
    }
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
    if k < 1 {
        return Err("invalid parameter: k must be >= 1".into());
    }
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
    // The publish check's own verdict: the same rows, entropies and
    // pass rule obfuscate certified its release with.
    let check = ObfuscationCheck::run(&loaded.graph, &ug, k, &parallelism_flag(flags)?);
    let levels = check.vertex_obfuscation_levels(&loaded.graph);
    println!(
        "vertices below obfuscation level k = {k}: {:.4} (eps)",
        check.eps_achieved
    );
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

    fn args(words: &[&str]) -> Vec<String> {
        words.iter().map(|s| s.to_string()).collect()
    }

    #[test]
    fn flag_a_subcommand_does_not_take_is_rejected() {
        let typo = args(&["obfuscate", "g.txt", "out.up", "--k", "2", "--esp", "0.5"]);
        let err = run(&typo).unwrap_err();
        assert!(err.contains("unknown flag --esp"), "{err}");
        let foreign = args(&["audit", "g.txt", "out.up", "--worlds", "5"]);
        let err = run(&foreign).unwrap_err();
        assert!(err.contains("unknown flag --worlds"), "{err}");
    }

    #[test]
    fn scripted_flags_are_accepted() {
        // What perfbench and the CI publish-determinism step pass.
        let (_, flags) = parse_args(&args(&[
            "--k",
            "10",
            "--eps",
            "0.05",
            "--seed",
            "7",
            "--threads",
            "4",
        ]))
        .unwrap();
        check_flags("obfuscate", &flags).unwrap();
        let (_, flags) = parse_args(&args(&["--k", "10"])).unwrap();
        check_flags("audit", &flags).unwrap();
    }

    #[test]
    fn audit_rejects_k_zero() {
        // The same message obfuscate gives, before any file is read.
        let err = run(&args(&["audit", "g.txt", "out.up", "--k", "0"])).unwrap_err();
        assert_eq!(err, "invalid parameter: k must be >= 1");
    }

    #[test]
    fn evaluate_rejects_zero_worlds() {
        // Zero worlds have no mean; rejected before any file is read.
        let err = run(&args(&["evaluate", "g.up", "--worlds", "0"])).unwrap_err();
        assert_eq!(err, "invalid parameter: worlds must be >= 1");
    }

    #[test]
    fn unknown_command_rejected() {
        let args = vec!["bogus".to_string()];
        assert!(run(&args).is_err());
    }
}
