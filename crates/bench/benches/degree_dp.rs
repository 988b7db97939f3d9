//! Benchmark of Lemma 1's exact Poisson-binomial DP, the per-vertex
//! degree distribution behind every (k, ε) certification.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use obf_uncertain::degree_dist::poisson_binomial;
use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};

fn probs(len: usize, seed: u64) -> Vec<f64> {
    let mut rng = SmallRng::seed_from_u64(seed);
    (0..len).map(|_| rng.gen()).collect()
}

fn bench_poisson_binomial(c: &mut Criterion) {
    let mut group = c.benchmark_group("poisson_binomial_exact");
    for &len in &[8usize, 32, 128, 512] {
        let p = probs(len, 1);
        group.bench_with_input(BenchmarkId::from_parameter(len), &p, |b, p| {
            b.iter(|| poisson_binomial(p));
        });
    }
    group.finish();
}

criterion_group!(benches, bench_poisson_binomial);
criterion_main!(benches);
