//! Converts a published graph to a snapshot: TSV or snapshot in,
//! snapshot out (see docs/FORMATS.md for the byte-level spec).
//! `--verify` re-opens the written file and checks it decodes back to
//! the input graph.

use obf_server::load_published_graph_with_source;
use obf_uncertain::{save_snapshot, UncertainGraph};

const USAGE: &str = "\
usage: snapshot_convert <input> <output> [options]
  input: TSV (`u v p` lines) or snapshot v3; format is sniffed
options:
  --format v3        output snapshot version (v3, the only snapshot format)
  --verify           re-open the output and check it matches the input
  --help, -h         print this help and exit";

fn fail(msg: &str) -> ! {
    eprintln!("error: {msg}");
    eprintln!("{USAGE}");
    std::process::exit(2);
}

fn main() {
    if obf_bench::help_requested() {
        println!("{USAGE}");
        return;
    }
    let mut positional: Vec<String> = Vec::new();
    let mut verify = false;
    let mut args = std::env::args().skip(1);
    while let Some(arg) = args.next() {
        match arg.as_str() {
            "--format" => {
                let format = args
                    .next()
                    .unwrap_or_else(|| fail("--format needs a value"));
                if format != "v3" {
                    fail(&format!("invalid --format {format:?} (expected v3)"));
                }
            }
            "--verify" => verify = true,
            other if other.starts_with("--") => fail(&format!("unknown flag {other:?}")),
            other => positional.push(other.to_string()),
        }
    }
    let [input, output] = &positional[..] else {
        fail("expected exactly <input> and <output> paths");
    };

    let (graph, meta, source) =
        load_published_graph_with_source(input).unwrap_or_else(|e| fail(&e));
    let meta = meta.unwrap_or_default();
    eprintln!(
        "loaded {input} ({source}): n={} candidates={} epoch={}",
        graph.num_vertices(),
        graph.num_candidates(),
        meta.epoch
    );

    let checksum = save_snapshot(&graph, meta, output)
        .unwrap_or_else(|e| fail(&format!("cannot write {output}: {e}")));
    let bytes = std::fs::metadata(output).map(|m| m.len()).unwrap_or(0);
    println!("wrote {output}: format=v3 bytes={bytes} checksum={checksum:#018x}");

    if verify {
        let back = verify_output(output);
        if back != graph {
            fail(&format!(
                "verification failed: {output} does not decode back to the input graph"
            ));
        }
        println!("verified {output}: decodes bit-identically to the input");
    }
}

/// Content-tier verification of the written file: the mmap reader's
/// full `verify()` where the platform supports it, and the heap decoder
/// otherwise (both check every checksum and invariant).
fn verify_output(output: &str) -> UncertainGraph {
    #[cfg(all(unix, target_endian = "little"))]
    match obf_uncertain::MappedSnapshot::open_verified(output) {
        Ok(snap) => UncertainGraph::from_mapped(snap),
        Err(e) => fail(&format!("verification failed for {output}: {e}")),
    }
    #[cfg(not(all(unix, target_endian = "little")))]
    match obf_uncertain::load_snapshot(output) {
        Ok((g, _)) => g,
        Err(e) => fail(&format!("verification failed for {output}: {e}")),
    }
}
