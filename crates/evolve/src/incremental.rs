//! The incremental Definition 2 adversary check.
//!
//! An edge batch only changes the incident-probability rows — and hence
//! the degree distributions `X_v(ω)` (Lemma 1) — of its endpoint
//! vertices. Everything else the check consumes is a *column* reduction
//! over those rows: the entropy of `Y_ω` needs `(Σ_v X_v(ω),
//! Σ_v X_v(ω)·log₂ X_v(ω))`. So a republish only has to
//!
//! 1. re-derive the rows of the touched endpoints, and
//! 2. patch the column accumulators.
//!
//! Floating-point subtraction is not exact, so "subtract the old row,
//! add the new row" on a flat accumulator would drift from a
//! from-scratch build. Instead the accumulators are kept **per chunk**
//! of the engine's fixed chunk decomposition ([`Parallelism`]): a patch
//! recomputes, in full, only the partials of chunks containing touched
//! vertices — the old rows' contributions are *replaced*, never
//! subtracted — and a query merges the per-chunk partials in chunk
//! order, exactly like
//! [`MemoizedAdversary::entropies`](obf_core::MemoizedAdversary::entropies).
//! Every surviving operation therefore runs in the same order as a
//! from-scratch build, and the entropies — and the (k, ε) verdict — are
//! **bit-identical** to it at any thread count (property-tested in
//! `crates/evolve/tests`). The per-chunk state is the shared
//! [`ColumnPartials`] kernel of `obf_core`, and the verdict is the
//! shared [`ObfuscationCheck::from_entropies`] tail.

use std::ops::Range;

use obf_core::{ColumnPartials, DegreeProfile, ObfuscationCheck};
use obf_graph::Parallelism;
use obf_uncertain::degree_dist::vertex_degree_distribution;
use obf_uncertain::UncertainGraph;

/// Maintained adversary state of one published release: every `X_v` row
/// plus chunk-ordered entropy partials, patchable per delta batch.
#[derive(Debug, Clone)]
pub struct IncrementalAdversary {
    /// Chunk decomposition the partials are kept under — fixed at build
    /// time so patched and from-scratch reductions share one merge tree.
    chunk_size: usize,
    /// Full (untruncated) degree-distribution rows, one per vertex.
    rows: Vec<Vec<f64>>,
    /// Partials per chunk of `0..n`, each covering `ω ∈ 0..=omega_cap`.
    chunks: Vec<ColumnPartials>,
    /// Largest ω any accumulator covers; grows when a batch raises a
    /// vertex's incident-candidate count past it, never shrinks.
    omega_cap: usize,
    rows_built: u64,
    rows_patched: u64,
}

impl IncrementalAdversary {
    /// Builds the full state: one Lemma 1 row per vertex (sharded), then
    /// the chunk partials. `par.chunk_size()` is captured as the fixed
    /// reduction granularity for the lifetime of this value.
    pub fn build(g: &UncertainGraph, par: &Parallelism) -> Self {
        let n = g.num_vertices();
        let rows: Vec<Vec<f64>> = par.map_collect(n, |v| vertex_degree_distribution(g, v as u32));
        let omega_cap = rows.iter().map(|r| r.len() - 1).max().unwrap_or(0);
        let mut out = Self {
            chunk_size: par.chunk_size(),
            rows,
            chunks: Vec::new(),
            omega_cap,
            rows_built: n as u64,
            rows_patched: 0,
        };
        out.chunks = par.map_chunks(n, |range| out.accumulate(range, 0));
        out
    }

    /// Number of vertices (rows).
    pub fn num_vertices(&self) -> usize {
        self.rows.len()
    }

    /// Largest column index the accumulators cover.
    pub fn omega_cap(&self) -> usize {
        self.omega_cap
    }

    /// Lemma 1 rows computed in total (initial build + every patch).
    pub fn rows_built(&self) -> u64 {
        self.rows_built
    }

    /// Rows recomputed by patches alone — the incremental work metric
    /// (`rows_built - num_vertices` for a never-rebuilt instance).
    pub fn rows_patched(&self) -> u64 {
        self.rows_patched
    }

    /// Column partials over `vertices` for `ω ∈ from_omega..=omega_cap`
    /// (the rows are untruncated, so the span form keeps the cost
    /// proportional to the row lengths).
    fn accumulate(&self, vertices: Range<usize>, from_omega: usize) -> ColumnPartials {
        ColumnPartials::span(vertices, from_omega..self.omega_cap + 1, |v| &self.rows[v])
    }

    /// Vertex range of stored chunk `c` — the build-time decomposition
    /// (same rule as [`Parallelism::chunk_ranges`]), never the caller's.
    fn chunk_vertices(&self, c: usize) -> Range<usize> {
        c * self.chunk_size..((c + 1) * self.chunk_size).min(self.rows.len())
    }

    /// Patches the state for a new release of the published graph.
    /// `touched` must be the sorted endpoints of every candidate pair
    /// whose probability changed (insertions, overwrites and removals
    /// alike); all other vertices must have bit-identical incident rows
    /// in `g` — exactly what
    /// [`UncertainGraph::apply_delta`] guarantees for the endpoints of
    /// its change list.
    ///
    /// Only the touched rows are re-derived (the `O(ℓ²)` Lemma 1 work),
    /// and only the chunks containing them are re-accumulated. The
    /// resulting state is bit-identical to
    /// [`IncrementalAdversary::build`] over `g`.
    pub fn patch(&mut self, g: &UncertainGraph, touched: &[u32], par: &Parallelism) {
        assert_eq!(
            g.num_vertices(),
            self.rows.len(),
            "evolving releases share one vertex set"
        );
        if touched.is_empty() {
            return;
        }
        debug_assert!(touched.windows(2).all(|w| w[0] < w[1]));
        // 1. Re-derive the touched rows (sharded; deterministic order).
        let fresh: Vec<Vec<f64>> =
            par.map_collect(touched.len(), |i| vertex_degree_distribution(g, touched[i]));
        for (&v, row) in touched.iter().zip(fresh) {
            self.rows[v as usize] = row;
        }
        self.rows_built += touched.len() as u64;
        self.rows_patched += touched.len() as u64;

        // 2. Grow the accumulators if a row now reaches past the cap.
        // The extension columns are accumulated for *every* chunk from
        // the (already current) rows; untouched chunks keep their old
        // prefix — those sums are unchanged by construction.
        let new_cap = self
            .rows
            .iter()
            .map(|r| r.len() - 1)
            .max()
            .unwrap_or(0)
            .max(self.omega_cap);
        if new_cap > self.omega_cap {
            let from_omega = self.omega_cap + 1;
            self.omega_cap = new_cap;
            // One extension per *stored* chunk — the build-time
            // decomposition, never the caller's (a `par` with a
            // different chunk size only changes how the work is
            // dispatched, not which ranges are accumulated).
            let extensions: Vec<ColumnPartials> = par.map_collect(self.chunks.len(), |c| {
                self.accumulate(self.chunk_vertices(c), from_omega)
            });
            for (chunk, ext) in self.chunks.iter_mut().zip(extensions) {
                chunk.append(ext);
            }
        }

        // 3. Recompute the partials of every chunk containing a touched
        // vertex — full replacement, no subtraction, so the per-column
        // accumulation chain is the same one a fresh build would run.
        let mut dirty: Vec<usize> = touched
            .iter()
            .map(|&v| v as usize / self.chunk_size)
            .collect();
        dirty.dedup(); // touched is sorted, so chunk ids arrive sorted
        let recomputed: Vec<ColumnPartials> = par.map_collect(dirty.len(), |i| {
            self.accumulate(self.chunk_vertices(dirty[i]), 0)
        });
        for (&c, partials) in dirty.iter().zip(recomputed) {
            self.chunks[c] = partials;
        }
    }

    /// Entropies `H(Y_ω)` for the requested columns, parallel to
    /// `omegas` — the chunk-order merge of the maintained partials,
    /// bit-identical to
    /// [`MemoizedAdversary::entropies`](obf_core::MemoizedAdversary::entropies)
    /// over the same graph and chunk size.
    ///
    /// Columns beyond [`IncrementalAdversary::omega_cap`] have no
    /// support anywhere and report entropy 0, like every other empty
    /// column.
    pub fn entropies(&self, omegas: &[usize]) -> Vec<f64> {
        let total = ColumnPartials::fold(self.omega_cap + 1, &self.chunks);
        omegas
            .iter()
            .map(|&omega| {
                if omega > self.omega_cap {
                    0.0
                } else {
                    total.entropy(omega)
                }
            })
            .collect()
    }

    /// The Definition 2 verdict against the original graph's degree
    /// profile, assembled by the same
    /// [`ObfuscationCheck::from_entropies`] tail as
    /// [`ObfuscationCheck::run`], so ε̃ and the failed-vertex count are
    /// bit-identical to it.
    pub fn check(&self, profile: &DegreeProfile, k: usize) -> ObfuscationCheck {
        assert_eq!(
            profile.num_vertices(),
            self.rows.len(),
            "vertex sets differ"
        );
        ObfuscationCheck::from_entropies(profile, self.entropies(profile.distinct()), k)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use obf_core::adversary::AdversaryTable;
    use obf_core::MemoizedAdversary;
    use obf_graph::Graph;

    fn published() -> UncertainGraph {
        UncertainGraph::new(
            6,
            vec![
                (0, 1, 0.7),
                (0, 2, 0.9),
                (0, 3, 0.8),
                (1, 2, 0.8),
                (1, 3, 0.1),
                (2, 3, 0.0),
                (4, 5, 0.5),
            ],
        )
        .unwrap()
    }

    #[test]
    fn build_matches_exhaustive_entropies() {
        let g = published();
        for chunk in [1, 2, 64] {
            let par = Parallelism::sequential().with_chunk_size(chunk);
            let inc = IncrementalAdversary::build(&g, &par);
            let table = AdversaryTable::build(&g);
            let omegas: Vec<usize> = (0..=4).collect();
            assert_eq!(
                inc.entropies(&omegas),
                table.entropies(&omegas, &par),
                "chunk={chunk}"
            );
        }
    }

    #[test]
    fn patch_is_bit_identical_to_rebuild() {
        let g = published();
        let par = Parallelism::sequential().with_chunk_size(2);
        let mut inc = IncrementalAdversary::build(&g, &par);
        // Overwrite (0,1), remove (1,3), insert (3,5): touches 0,1,3,5.
        let g2 = g
            .apply_delta(&[(0, 1, Some(0.2)), (1, 3, None), (3, 5, Some(0.9))])
            .unwrap();
        inc.patch(&g2, &[0, 1, 3, 5], &par);
        assert_eq!(inc.rows_patched(), 4);

        let fresh = IncrementalAdversary::build(&g2, &par);
        let omegas: Vec<usize> = (0..=5).collect();
        assert_eq!(inc.entropies(&omegas), fresh.entropies(&omegas));
        // And both agree with the memoized fast-path table.
        let mut memo = MemoizedAdversary::new(&g2, 5, &par);
        assert_eq!(inc.entropies(&omegas), memo.entropies(&omegas, &par));
    }

    #[test]
    fn cap_grows_when_a_hub_gains_candidates() {
        // Vertex 4 starts with 1 incident candidate; the delta raises it
        // to 3, past the old accumulator cap on its chunk.
        let g = UncertainGraph::new(5, vec![(4, 0, 0.5)]).unwrap();
        let par = Parallelism::sequential().with_chunk_size(2);
        let mut inc = IncrementalAdversary::build(&g, &par);
        assert_eq!(inc.omega_cap(), 1);
        let g2 = g
            .apply_delta(&[(1, 4, Some(0.8)), (2, 4, Some(0.7))])
            .unwrap();
        inc.patch(&g2, &[1, 2, 4], &par);
        assert_eq!(inc.omega_cap(), 3);
        let fresh = IncrementalAdversary::build(&g2, &par);
        let omegas: Vec<usize> = (0..=3).collect();
        assert_eq!(inc.entropies(&omegas), fresh.entropies(&omegas));
        // Beyond-cap columns are empty, entropy 0.
        assert_eq!(inc.entropies(&[9]), vec![0.0]);
    }

    #[test]
    fn patch_with_mismatched_parallelism_chunking_still_correct() {
        // The stored accumulators are laid out by the *build-time*
        // chunk decomposition; a patch driven by a Parallelism with a
        // different chunk size must still extend/replace the right
        // vertex ranges (regression: the cap-growth step once used the
        // caller's decomposition).
        let g = UncertainGraph::new(10, vec![(9, 0, 0.5), (1, 2, 0.8)]).unwrap();
        let build_par = Parallelism::sequential().with_chunk_size(2);
        let mut inc = IncrementalAdversary::build(&g, &build_par);
        assert_eq!(inc.omega_cap(), 1);
        // Raise vertex 9's candidate count past the cap, patching with
        // a coarser (and threaded) Parallelism.
        let g2 = g
            .apply_delta(&[(3, 9, Some(0.9)), (4, 9, Some(0.7)), (5, 9, Some(0.6))])
            .unwrap();
        let patch_par = Parallelism::new(4).with_chunk_size(4);
        inc.patch(&g2, &[3, 4, 5, 9], &patch_par);
        assert_eq!(inc.omega_cap(), 4);
        let fresh = IncrementalAdversary::build(&g2, &build_par);
        let omegas: Vec<usize> = (0..=4).collect();
        assert_eq!(inc.entropies(&omegas), fresh.entropies(&omegas));
    }

    #[test]
    fn check_matches_obfuscation_check() {
        let original = Graph::from_edges(6, &[(0, 1), (0, 2), (0, 3), (2, 3), (4, 5)]);
        let g = published();
        let par = Parallelism::sequential();
        let inc = IncrementalAdversary::build(&g, &par);
        let table = AdversaryTable::build(&g);
        let profile = DegreeProfile::new(&original);
        for k in 1..=4 {
            let want = ObfuscationCheck::from_entropies(
                &profile,
                table.entropies(profile.distinct(), &par),
                k,
            );
            let got = inc.check(&profile, k);
            assert_eq!(got.eps_achieved, want.eps_achieved, "k={k}");
            assert_eq!(got.failed_vertices, want.failed_vertices);
            assert_eq!(got.entropy_by_degree, want.entropy_by_degree);
            assert_eq!(got.satisfies(0.2), want.satisfies(0.2));
        }
    }

    #[test]
    fn empty_patch_is_a_no_op() {
        let g = published();
        let par = Parallelism::sequential();
        let mut inc = IncrementalAdversary::build(&g, &par);
        let before = inc.entropies(&[0, 1, 2]);
        inc.patch(&g, &[], &par);
        assert_eq!(inc.entropies(&[0, 1, 2]), before);
        assert_eq!(inc.rows_patched(), 0);
    }
}
