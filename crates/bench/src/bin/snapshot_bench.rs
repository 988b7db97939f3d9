//! Snapshot serving benchmark: measures heap-decode load time against
//! mmap open time of the same snapshot file across graph sizes — the
//! claim under test is that the mmap open, a structural scan that
//! copies nothing, stays well below the heap decode as graphs grow —
//! and proves the two stores answer bit-identically by digesting the
//! candidate stream of both.
//! Writes `results/BENCH_snapshot.json` (nightly artifact; field
//! meanings in docs/OPERATIONS.md).
//!
//! `--paper-scale` additionally synthesises dblp at the paper's full
//! 226 413 vertices, runs one Table 3 cell (k=20, ε=1e-2) of
//! Algorithm 1 on it, and writes the published graph's v3 snapshot —
//! the paper-scale row the nightly job records.

use std::time::Instant;

use obf_bench::experiments::obfuscate_with_fallback_stats;
use obf_bench::json::Json;
use obf_bench::{Flags, HarnessConfig};
use obf_datasets::{dblp_like, Dataset, DatasetSpec};
use obf_uncertain::{load_snapshot, save_snapshot, SnapshotMeta, UncertainGraph};

/// Digest of the candidate stream: the exact bytes every
/// order-dependent consumer (RNG stream, expectation sums, TSV dumps)
/// sees, so equal digests mean bit-identical answers.
fn candidate_digest(g: &UncertainGraph) -> u64 {
    let mut c = obf_uncertain::Checksum64::new(16 * g.num_candidates() as u64);
    for (u, v, p) in g.candidate_pairs() {
        c.update(&u.to_le_bytes());
        c.update(&v.to_le_bytes());
        c.update(&p.to_bits().to_le_bytes());
    }
    c.finish()
}

/// A deterministic uncertain graph with dblp shape at `n` vertices
/// (probabilities seeded per edge; no Algorithm 1 run, this is a
/// serving benchmark, not an obfuscation one).
fn uncertain_dblp(n: usize, seed: u64) -> UncertainGraph {
    let g = dblp_like(n, seed);
    let cands: Vec<(u32, u32, f64)> = g
        .edges()
        .map(|(u, v)| {
            let s = obf_graph::splitmix64((u as u64) << 32 | v as u64 ^ seed);
            (u, v, 0.05 + 0.9 * (s >> 11) as f64 / (1u64 << 53) as f64)
        })
        .collect();
    UncertainGraph::new(n, cands).unwrap()
}

fn bench_one_size(n: usize, seed: u64, dir: &std::path::Path) -> Json {
    let g = uncertain_dblp(n, seed);
    let m = g.num_candidates();
    let v3_path = dir.join(format!("bench_{n}.v3.snap"));
    save_snapshot(&g, SnapshotMeta::default(), &v3_path).expect("write v3");
    let v3_bytes = std::fs::metadata(&v3_path).unwrap().len();

    let t = Instant::now();
    let (heap, _) = load_snapshot(&v3_path).expect("heap load");
    let heap_secs = t.elapsed().as_secs_f64();

    // The open path the server's RELOAD takes: structural tier.
    let (mmap_secs, mmap_graph, served) = open_v3(&v3_path);
    let heap_digest = candidate_digest(&heap);
    let mmap_digest = candidate_digest(&mmap_graph);
    assert_eq!(
        heap_digest, mmap_digest,
        "mmap-served candidates diverge from heap at n={n}"
    );

    std::fs::remove_file(&v3_path).ok();
    eprintln!("n={n} m={m}: heap_load={heap_secs:.6}s mmap_open={mmap_secs:.6}s ({served})");
    Json::obj(vec![
        ("n", Json::from(n)),
        ("candidates", Json::from(m)),
        ("v3_bytes", Json::from(v3_bytes as usize)),
        ("heap_load_secs", Json::Num(heap_secs)),
        ("mmap_open_secs", Json::Num(mmap_secs)),
        ("source", Json::str(served)),
        ("digest", Json::Str(format!("{heap_digest:016x}"))),
        ("digest_match", Json::Bool(true)),
    ])
}

/// Opens a v3 snapshot the way the server does: mmap where the platform
/// supports it, heap decode otherwise. Returns (open seconds, graph,
/// source label).
fn open_v3(path: &std::path::Path) -> (f64, UncertainGraph, &'static str) {
    #[cfg(all(unix, target_endian = "little"))]
    {
        let t = Instant::now();
        let snap = obf_uncertain::MappedSnapshot::open(path).expect("mmap open");
        let g = UncertainGraph::from_mapped(snap);
        return (t.elapsed().as_secs_f64(), g, "mmap");
    }
    #[allow(unreachable_code)]
    {
        let t = Instant::now();
        let (g, _) = load_snapshot(path).expect("heap load of v3");
        (t.elapsed().as_secs_f64(), g, "heap")
    }
}

const USAGE: &str = "snapshot_bench: heap-decode vs mmap-open time of v3 snapshots
usage:
  snapshot_bench [--paper-scale]
options:
  --paper-scale   also publish dblp at the paper's n (one Table 3 cell) and
                  write its v3 snapshot";

fn main() {
    let flags = Flags::read(USAGE, &[], &["--paper-scale"]);
    let cfg = HarnessConfig::from_flags(&flags);
    let paper_scale = flags.switch("--paper-scale");
    let dir = obf_bench::results_dir().join("snapshot_bench_tmp");
    std::fs::create_dir_all(&dir).expect("create bench dir");

    // Geometric size ladder: if mmap open were O(bytes) like the heap
    // path, its column would grow ~16x end to end; ~flat numbers are
    // the acceptance signal.
    let sizes: &[usize] = if cfg.fast {
        &[2_000, 8_000, 32_000]
    } else {
        &[20_000, 80_000, 320_000]
    };
    let mut records: Vec<Json> = sizes
        .iter()
        .map(|&n| bench_one_size(n, cfg.seed, &dir))
        .collect();

    let mut fields = vec![
        ("bench", Json::str("snapshot")),
        (
            "config",
            Json::obj([
                ("fast", Json::Bool(cfg.fast)),
                ("seed", Json::from(cfg.seed)),
                ("paper_scale", Json::Bool(paper_scale)),
            ]),
        ),
    ];

    if paper_scale {
        // The paper-scale Table 3 row: full-size dblp through
        // Algorithm 1, published graph written as v3.
        let ds = Dataset::Dblp;
        eprintln!(
            "--paper-scale: synthesising dblp at n={} (paper Table 1)",
            ds.paper_n()
        );
        let g = DatasetSpec::paper_scale(ds, cfg.seed).graph;
        let (k, eps) = (20, 1e-2);
        let t = Instant::now();
        let outcome = obfuscate_with_fallback_stats(&g, cfg.obf_params(k, eps));
        let elapsed = t.elapsed().as_secs_f64();
        let row = match outcome {
            Ok((res, stats, c_used)) => {
                let published_path = dir.join("dblp_paper.v3.snap");
                let t = Instant::now();
                save_snapshot(&res.graph, SnapshotMeta::default(), &published_path)
                    .expect("paper-scale v3 write");
                let build_secs = t.elapsed().as_secs_f64();
                let v3_bytes = std::fs::metadata(&published_path).unwrap().len();
                let (open_secs, mapped, served) = open_v3(&published_path);
                let digest = candidate_digest(&mapped);
                std::fs::remove_file(&published_path).ok();
                Json::obj([
                    ("dataset", Json::str(ds.name())),
                    ("n", Json::from(g.num_vertices())),
                    ("edges", Json::from(g.num_edges())),
                    ("k", Json::from(k)),
                    ("eps", Json::Num(eps)),
                    ("c", Json::Num(c_used)),
                    ("status", Json::str("ok")),
                    ("sigma", Json::Num(res.sigma)),
                    ("eps_achieved", Json::Num(res.eps_achieved)),
                    ("seconds", Json::Num(elapsed)),
                    (
                        "edges_per_sec",
                        Json::Num(g.num_edges() as f64 / elapsed.max(1e-9)),
                    ),
                    ("generate_calls", Json::from(res.generate_calls as usize)),
                    (
                        "candidates_tried",
                        Json::from(stats.candidates_tried() as usize),
                    ),
                    ("v3_build_secs", Json::Num(build_secs)),
                    ("v3_bytes", Json::from(v3_bytes as usize)),
                    ("v3_open_secs", Json::Num(open_secs)),
                    ("v3_source", Json::str(served)),
                    ("digest", Json::Str(format!("{digest:016x}"))),
                ])
            }
            Err(e) => Json::obj([
                ("dataset", Json::str(ds.name())),
                ("n", Json::from(g.num_vertices())),
                ("k", Json::from(k)),
                ("eps", Json::Num(eps)),
                ("status", Json::str("failed")),
                ("error", Json::Str(e)),
            ]),
        };
        fields.push(("table3_paper_row", row));
    }

    let flat = std::mem::take(&mut records);
    fields.push(("sizes", Json::Arr(flat)));
    obf_bench::write_json("BENCH_snapshot.json", &Json::obj(fields));
    std::fs::remove_dir_all(&dir).ok();
}
