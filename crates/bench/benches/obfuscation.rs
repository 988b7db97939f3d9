//! Criterion benchmarks of the obfuscation algorithms themselves:
//! `GenerateObfuscation` (Algorithm 2) at a fixed σ, and the full binary
//! search (Algorithm 1), across graph sizes and privacy levels.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use obf_core::{generate_obfuscation, obfuscate, ObfuscationParams};
use obf_datasets::dblp_like;
use obf_graph::Parallelism;

fn params(k: usize, eps: f64) -> ObfuscationParams {
    let mut p = ObfuscationParams::new(k, eps).with_seed(7);
    p.delta = 1e-3; // keep the search short for benchmarking
    p.t = 2;
    p.parallelism = Parallelism::sequential(); // measure algorithmic cost
    p
}

fn bench_generate(c: &mut Criterion) {
    let mut group = c.benchmark_group("generate_obfuscation");
    group.sample_size(10);
    for &n in &[500usize, 1000, 2000] {
        let g = dblp_like(n, 1);
        group.bench_with_input(BenchmarkId::new("sigma=0.01", n), &g, |b, g| {
            b.iter(|| generate_obfuscation(g, &params(10, 0.05), 0.01, 3));
        });
    }
    group.finish();
}

fn bench_full_search(c: &mut Criterion) {
    let mut group = c.benchmark_group("obfuscate_binary_search");
    group.sample_size(10);
    let g = dblp_like(1000, 1);
    for &k in &[5usize, 20] {
        group.bench_with_input(BenchmarkId::new("k", k), &k, |b, &k| {
            b.iter(|| obfuscate(&g, &params(k, 0.05)).unwrap());
        });
    }
    group.finish();
}

criterion_group!(benches, bench_generate, bench_full_search);
criterion_main!(benches);
