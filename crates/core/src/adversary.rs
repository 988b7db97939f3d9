//! The adversary's view of an uncertain graph (paper Section 4).
//!
//! For the degree property, `X_v(ω) = Pr(deg_{G̃}(v) = ω)` is the
//! Poisson-binomial distribution over the candidate pairs incident to `v`
//! (Lemma 1). The normalised column `Y_ω(v) = X_v(ω)/Σ_u X_u(ω)` (Eq. 3)
//! is the posterior over published vertices for a target with original
//! degree `ω`; its entropy certifies k-obfuscation (Definition 2).
//!
//! Every Definition 2 verdict reads its rows from the memoized,
//! support-truncated [`MemoizedAdversary`] and ends in the one
//! [`ObfuscationCheck::from_entropies`] tail. [`AdversaryTable`] keeps
//! every row in full; it is the exhaustive oracle the tests hold those
//! verdicts to.

use std::ops::Range;

use obf_graph::{Graph, Parallelism};
use obf_stats::entropy::{entropy_bits_normalized, entropy_from_partials, obfuscation_level};
use obf_uncertain::degree_dist::vertex_degree_distribution;
use obf_uncertain::UncertainGraph;

use crate::fastpath::MemoizedAdversary;

/// Degree statistics of the *original* graph that every Definition 2
/// check consumes: per-vertex degrees, sorted distinct degrees with
/// multiplicities, and the column sweep order of the budgeted fast path.
///
/// Algorithm 1 re-checks Definition 2 at every candidate σ of the
/// doubling/binary search while the original graph never changes, so the
/// σ-search fast path computes this once per search instead of once per
/// check (see [`crate::fastpath`]).
#[derive(Debug, Clone)]
pub struct DegreeProfile {
    degrees: Vec<usize>,
    /// Sorted ascending.
    distinct: Vec<usize>,
    /// Parallel to `distinct`.
    multiplicity: Vec<usize>,
}

impl DegreeProfile {
    /// Precomputes the profile of `g`.
    pub fn new(g: &Graph) -> Self {
        let degrees: Vec<usize> = (0..g.num_vertices() as u32).map(|v| g.degree(v)).collect();
        let mut distinct: Vec<usize> = degrees.clone();
        distinct.sort_unstable();
        distinct.dedup();
        let multiplicity: Vec<usize> = {
            let mut counts = vec![0usize; distinct.last().map_or(0, |&d| d + 1)];
            for &d in &degrees {
                counts[d] += 1;
            }
            distinct.iter().map(|&d| counts[d]).collect()
        };
        Self {
            degrees,
            distinct,
            multiplicity,
        }
    }

    /// Number of vertices of the profiled graph.
    pub fn num_vertices(&self) -> usize {
        self.degrees.len()
    }

    /// Per-vertex degrees, in vertex order.
    pub fn degrees(&self) -> &[usize] {
        &self.degrees
    }

    /// Sorted distinct degrees.
    pub fn distinct(&self) -> &[usize] {
        &self.distinct
    }

    /// Multiplicities parallel to [`DegreeProfile::distinct`].
    pub fn multiplicity(&self) -> &[usize] {
        &self.multiplicity
    }

    /// Largest degree (0 for an empty graph) — the support cap the fast
    /// path hands to the truncated Lemma 1 DP.
    pub fn max_degree(&self) -> usize {
        self.distinct.last().copied().unwrap_or(0)
    }

    /// Column order of the budgeted sweep: indices into
    /// [`DegreeProfile::distinct`], largest degree first. High degrees are
    /// the likeliest to fail the entropy test — hubs have small crowds,
    /// and in a power-law graph every degree above the bulk is rare — so
    /// sweeping them first lets a failing check stop after a few
    /// columns, before the crowded low degrees whose rows dominate the
    /// cost. On graphs without hubs (Erdős–Rényi) the failing degrees
    /// are both tails, and a failing check sweeps nearly every column
    /// before it stops.
    pub fn sweep_order(&self) -> impl Iterator<Item = usize> {
        (0..self.distinct.len()).rev()
    }
}

/// Column partial sums of the Definition 2 entropy reduction over a set
/// of adversary rows: `mass[j] = Σ_v x` and `xlogx[j] = Σ_v x·log₂ x`,
/// summed over the positive entries `x` of column `j`.
///
/// This is the one kernel behind every entropy front end
/// ([`MemoizedAdversary::entropies`], the [`AdversaryTable::entropies`]
/// oracle and the per-chunk state of `obf_evolve`'s incremental check).
/// Each front end is only a *row source*: a closure mapping a vertex to
/// its `X_v` row. The kernel fixes the floating-point order:
///
/// 1. a chunk accumulates its vertex range ascending, and within a
///    vertex the columns in caller order;
/// 2. chunks merge in ascending chunk order ([`ColumnPartials::fold`]);
/// 3. each column finishes with [`entropy_from_partials`].
///
/// Two front ends that feed the same rows under the same chunk
/// decomposition therefore produce the same entropy bits.
///
/// # Examples
///
/// ```
/// use obf_core::ColumnPartials;
///
/// let rows: Vec<Vec<f64>> = vec![vec![0.5, 0.5], vec![0.0, 1.0], vec![1.0]];
/// // Columns 1 and 0, in that order; chunks {0, 1} and {2}.
/// let chunks = [
///     ColumnPartials::gather(0..2, &[1, 0], |v| Some(rows[v].as_slice())),
///     ColumnPartials::gather(2..3, &[1, 0], |v| Some(rows[v].as_slice())),
/// ];
/// let h = ColumnPartials::fold(2, &chunks).entropies();
/// // Column 1 holds (0.5, 1.0, 0): normalised (1/3, 2/3).
/// let want = -(1.0f64 / 3.0) * (1.0f64 / 3.0).log2() - (2.0f64 / 3.0) * (2.0f64 / 3.0).log2();
/// assert!((h[0] - want).abs() < 1e-12);
/// ```
#[derive(Debug, Clone, PartialEq)]
pub struct ColumnPartials {
    mass: Vec<f64>,
    xlogx: Vec<f64>,
}

impl ColumnPartials {
    /// All-zero partials over `width` columns.
    fn zeros(width: usize) -> Self {
        Self {
            mass: vec![0.0; width],
            xlogx: vec![0.0; width],
        }
    }

    /// Number of columns.
    fn width(&self) -> usize {
        self.mass.len()
    }

    /// Adds one entry of column `j`. Only positive mass counts, so an
    /// absent entry and an explicit zero contribute the same bits.
    #[inline(always)]
    fn add(&mut self, j: usize, x: f64) {
        if x > 0.0 {
            self.mass[j] += x;
            self.xlogx[j] += x * x.log2();
        }
    }

    /// Accumulates the rows of `vertices` (ascending) into the columns
    /// `omegas` (in caller order): column `j` reads entry `omegas[j]` of
    /// each row, zero past the row's end. `row(v)` may return `None` for
    /// a vertex with no mass in any requested column.
    #[inline]
    pub fn gather<'r, R>(vertices: Range<usize>, omegas: &[usize], row: R) -> Self
    where
        R: Fn(usize) -> Option<&'r [f64]>,
    {
        let mut out = Self::zeros(omegas.len());
        for v in vertices {
            let Some(row) = row(v) else { continue };
            for (j, &omega) in omegas.iter().enumerate() {
                out.add(j, row.get(omega).copied().unwrap_or(0.0));
            }
        }
        out
    }

    /// Accumulates the rows of `vertices` (ascending) into the
    /// contiguous columns `columns`: column `j` reads entry
    /// `columns.start + j` of each row, zero past the row's end. Same
    /// bits as [`ColumnPartials::gather`] over the column list
    /// `columns`, at a cost proportional to the row lengths instead of
    /// to the span width.
    #[inline]
    pub fn span<'r, R>(vertices: Range<usize>, columns: Range<usize>, row: R) -> Self
    where
        R: Fn(usize) -> &'r [f64],
    {
        let mut out = Self::zeros(columns.len());
        for v in vertices {
            let row = row(v);
            let hi = row.len().min(columns.end);
            for (j, &x) in row[columns.start.min(hi)..hi].iter().enumerate() {
                out.add(j, x);
            }
        }
        out
    }

    /// Adds `other` column by column — one step of the chunk-order
    /// merge.
    fn merge(&mut self, other: &ColumnPartials) {
        assert_eq!(self.width(), other.width(), "partials widths differ");
        for (acc, &x) in self.mass.iter_mut().zip(&other.mass) {
            *acc += x;
        }
        for (acc, &x) in self.xlogx.iter_mut().zip(&other.xlogx) {
            *acc += x;
        }
    }

    /// Appends `other`'s columns after this one's: the partials of a
    /// column span that starts where this one ends.
    pub fn append(&mut self, other: ColumnPartials) {
        self.mass.extend(other.mass);
        self.xlogx.extend(other.xlogx);
    }

    /// Merges per-chunk partials of `width` columns in iteration order,
    /// starting from zero — the fixed reduction tree that makes the
    /// result independent of which thread computed which chunk.
    ///
    /// # Panics
    /// Panics if a chunk's width is not `width`.
    pub fn fold<'a>(width: usize, chunks: impl IntoIterator<Item = &'a ColumnPartials>) -> Self {
        let mut total = Self::zeros(width);
        for chunk in chunks {
            total.merge(chunk);
        }
        total
    }

    /// `H` in bits of column `j`'s normalised posterior (0 for an empty
    /// column).
    pub fn entropy(&self, j: usize) -> f64 {
        entropy_from_partials(self.mass[j], self.xlogx[j])
    }

    /// [`ColumnPartials::entropy`] of every column, in column order.
    pub fn entropies(&self) -> Vec<f64> {
        (0..self.width()).map(|j| self.entropy(j)).collect()
    }

    /// The whole sharded reduction over vertices `0..len`: gathers every
    /// chunk of `par`'s fixed decomposition (on `par`'s threads), folds
    /// the chunks in chunk order and finishes each column. Output is
    /// parallel to `omegas` and bit-identical for every thread count.
    pub fn sharded_entropies<'r, R>(
        len: usize,
        omegas: &[usize],
        par: &Parallelism,
        row: R,
    ) -> Vec<f64>
    where
        R: Fn(usize) -> Option<&'r [f64]> + Sync,
    {
        if omegas.is_empty() {
            return Vec::new();
        }
        let chunks = par.map_chunks(len, |range| Self::gather(range, omegas, &row));
        Self::fold(omegas.len(), &chunks).entropies()
    }
}

/// Per-vertex degree distributions of an uncertain graph — the rows of the
/// matrix `X_v(ω)`, each in full.
///
/// The exhaustive oracle: no Definition 2 verdict reads it (they read the
/// [`MemoizedAdversary`], whose entries and entropies are bit-identical
/// to this table's), but tests hold every verdict to it, and it carries
/// the worked example's whole matrix.
#[derive(Debug, Clone)]
pub struct AdversaryTable {
    /// `rows[v][ω] = X_v(ω)`; rows have individual lengths (bounded by
    /// each vertex's incident candidate count + 1).
    rows: Vec<Vec<f64>>,
}

impl AdversaryTable {
    /// Builds the table for all vertices of `g`, sequentially.
    /// Equivalent to [`AdversaryTable::build_par`] with
    /// [`Parallelism::sequential`].
    pub fn build(g: &UncertainGraph) -> Self {
        Self::build_par(g, &Parallelism::sequential())
    }

    /// Builds the table with each worker thread owning contiguous vertex
    /// ranges. The per-vertex Poisson-binomial DP (Lemma 1) is `O(ℓ_v²)`
    /// and rows are independent. Output is identical for every thread
    /// count.
    ///
    /// # Examples
    ///
    /// ```
    /// use obf_core::adversary::AdversaryTable;
    /// use obf_graph::Parallelism;
    /// use obf_uncertain::UncertainGraph;
    ///
    /// let ug = UncertainGraph::new(3, vec![(0, 1, 0.5), (1, 2, 0.25)]).unwrap();
    /// let seq = AdversaryTable::build(&ug);
    /// let par = AdversaryTable::build_par(&ug, &Parallelism::new(4));
    /// assert_eq!(seq.row(1), par.row(1));
    /// ```
    pub fn build_par(g: &UncertainGraph, par: &Parallelism) -> Self {
        let rows = par.map_collect(g.num_vertices(), |v| {
            vertex_degree_distribution(g, v as u32)
        });
        Self { rows }
    }

    /// Number of vertices.
    pub fn num_vertices(&self) -> usize {
        self.rows.len()
    }

    /// `X_v(ω)`; zero outside the stored support.
    pub fn x(&self, v: u32, omega: usize) -> f64 {
        self.rows[v as usize].get(omega).copied().unwrap_or(0.0)
    }

    /// Full row of vertex `v` (its degree distribution).
    pub fn row(&self, v: u32) -> &[f64] {
        &self.rows[v as usize]
    }

    /// The unnormalised column `[X_u(ω)]_u` over all vertices.
    pub fn column(&self, omega: usize) -> Vec<f64> {
        self.rows
            .iter()
            .map(|r| r.get(omega).copied().unwrap_or(0.0))
            .collect()
    }

    /// The posterior `Y_ω` (Eq. 3): the column normalised by its sum.
    /// Returns all zeros if the column has no mass.
    pub fn posterior(&self, omega: usize) -> Vec<f64> {
        let mut col = self.column(omega);
        let total: f64 = col.iter().sum();
        if total > 0.0 {
            for x in &mut col {
                *x /= total;
            }
        }
        col
    }

    /// Entropy in bits of `Y_ω` (Definition 2's measure).
    pub fn entropy(&self, omega: usize) -> f64 {
        entropy_bits_normalized(&self.column(omega))
    }

    /// `2^H(Y_ω)` — the equivalent uniform crowd size (Figure 4's x-axis).
    pub fn obfuscation_level(&self, omega: usize) -> f64 {
        obfuscation_level(&self.column(omega))
    }

    /// The *a-posteriori belief* obfuscation level of Hay et al. /
    /// Ying et al. (paper Section 2): `(max_u Y_ω(u))⁻¹`. The paper
    /// adopts the entropy measure instead because, as Bonchi et al.
    /// showed, `2^H(Y_ω) >= (max_u Y_ω(u))⁻¹` always — the entropy
    /// distinguishes situations the belief measure conflates. Returns 0
    /// when the column carries no mass.
    pub fn belief_obfuscation_level(&self, omega: usize) -> f64 {
        let y = self.posterior(omega);
        let max = y.iter().copied().fold(0.0f64, f64::max);
        if max <= 0.0 {
            0.0
        } else {
            1.0 / max
        }
    }

    /// Entropies `H(Y_ω)` for many property values at once, sharded over
    /// contiguous vertex ranges.
    ///
    /// The rows feed the [`ColumnPartials`] kernel: each chunk of
    /// vertices contributes partial column sums
    /// `(Σ_v X_v(ω), Σ_v X_v(ω)·log₂ X_v(ω))` for every requested `ω`;
    /// the partials are merged in chunk order and finalised with the same
    /// `H = log₂ W − (Σ x log₂ x)/W` identity as
    /// [`entropy_bits_normalized`], so the result is bit-identical for
    /// every thread count (see [`Parallelism`]). Output is parallel to
    /// `omegas`.
    ///
    /// # Examples
    ///
    /// ```
    /// use obf_core::adversary::AdversaryTable;
    /// use obf_graph::Parallelism;
    /// use obf_uncertain::UncertainGraph;
    ///
    /// let ug = UncertainGraph::new(4, vec![(0, 1, 0.6), (1, 2, 0.4), (2, 3, 0.9)]).unwrap();
    /// let t = AdversaryTable::build(&ug);
    /// let seq = t.entropies(&[0, 1, 2], &Parallelism::sequential());
    /// let par = t.entropies(&[0, 1, 2], &Parallelism::new(4));
    /// assert_eq!(seq, par);
    /// ```
    pub fn entropies(&self, omegas: &[usize], par: &Parallelism) -> Vec<f64> {
        ColumnPartials::sharded_entropies(self.rows.len(), omegas, par, |v| {
            Some(self.rows[v].as_slice())
        })
    }
}

/// Result of checking Definition 2 on an uncertain graph against the
/// original graph's degrees.
#[derive(Debug, Clone)]
pub struct ObfuscationCheck {
    /// Entropy `H(Y_ω)` for each distinct original degree, as
    /// `(degree, entropy)` pairs sorted by degree.
    pub entropy_by_degree: Vec<(usize, f64)>,
    /// Fraction of vertices *not* k-obfuscated (the ε̃ of Algorithm 2
    /// line 20).
    pub eps_achieved: f64,
    /// Number of vertices not k-obfuscated.
    pub failed_vertices: usize,
}

impl ObfuscationCheck {
    /// Runs the Definition 2 test: for every vertex `v` of the original
    /// graph, the entropy of `Y_{deg_G(v)}` must reach `log₂ k`. The rows
    /// come from a [`MemoizedAdversary`] capped at `max_deg(G)`, every
    /// distinct-degree column is swept (sharded across `par`'s worker
    /// threads), and the verdict is bit-identical for every thread count
    /// and to the exhaustive [`AdversaryTable`] oracle.
    ///
    /// `original` and `published` must have the same vertex set.
    ///
    /// # Examples
    ///
    /// ```
    /// use obf_core::ObfuscationCheck;
    /// use obf_graph::{Graph, Parallelism};
    /// use obf_uncertain::UncertainGraph;
    ///
    /// // A certain 4-cycle: every vertex hides in a crowd of four.
    /// let g = Graph::from_edges(4, &[(0, 1), (1, 2), (2, 3), (0, 3)]);
    /// let ug = UncertainGraph::from_certain(&g);
    /// let check = ObfuscationCheck::run(&g, &ug, 4, &Parallelism::sequential());
    /// assert_eq!(check.eps_achieved, 0.0);
    /// assert_eq!(check.vertex_obfuscation_levels(&g), vec![4.0; 4]);
    /// ```
    pub fn run(original: &Graph, published: &UncertainGraph, k: usize, par: &Parallelism) -> Self {
        let profile = DegreeProfile::new(original);
        assert_eq!(
            profile.num_vertices(),
            published.num_vertices(),
            "vertex sets differ"
        );
        let mut adv = MemoizedAdversary::new(published, profile.max_degree(), par);
        let entropies = adv.entropies(profile.distinct(), par);
        Self::from_entropies(&profile, entropies, k)
    }

    /// Assembles the Definition 2 verdict from already-computed column
    /// entropies (parallel to [`DegreeProfile::distinct`]). This is the
    /// shared tail of every check front end — [`ObfuscationCheck::run`]
    /// and the patched incremental state of `obf_evolve` hand their
    /// entropies to the same comparison and counting code, so a front
    /// end that reproduces the entropy bits reproduces the verdict and ε̃
    /// bits too.
    pub fn from_entropies(profile: &DegreeProfile, entropies: Vec<f64>, k: usize) -> Self {
        assert!(k >= 1, "k must be at least 1");
        assert_eq!(
            entropies.len(),
            profile.distinct().len(),
            "one entropy per distinct degree"
        );
        let n = profile.num_vertices();
        if n == 0 {
            return Self {
                entropy_by_degree: Vec::new(),
                eps_achieved: 0.0,
                failed_vertices: 0,
            };
        }
        let threshold = (k as f64).log2();
        let entropy_by_degree: Vec<(usize, f64)> =
            profile.distinct().iter().copied().zip(entropies).collect();
        // Map degree -> pass/fail.
        let mut pass = vec![false; profile.max_degree() + 1];
        for &(d, h) in &entropy_by_degree {
            pass[d] = h >= threshold - 1e-12;
        }
        let failed_vertices = profile.degrees().iter().filter(|&&d| !pass[d]).count();
        Self {
            entropy_by_degree,
            eps_achieved: failed_vertices as f64 / n as f64,
            failed_vertices,
        }
    }

    /// Convenience: whether the published graph is a (k, ε)-obfuscation.
    pub fn satisfies(&self, eps: f64) -> bool {
        self.eps_achieved <= eps
    }

    /// Per-vertex obfuscation levels `2^H(Y_{deg_G(v)})` for the
    /// anonymity curves of Figure 4, in vertex order. `original` must be
    /// the graph the check ran against.
    pub fn vertex_obfuscation_levels(&self, original: &Graph) -> Vec<f64> {
        let max_degree = self.entropy_by_degree.last().map_or(0, |&(d, _)| d);
        let mut level = vec![0.0f64; max_degree + 1];
        for &(d, h) in &self.entropy_by_degree {
            level[d] = h.exp2();
        }
        (0..original.num_vertices() as u32)
            .map(|v| level[original.degree(v)])
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Paper Figure 1: original graph (a) and uncertain graph (b).
    fn paper_pair() -> (Graph, UncertainGraph) {
        let original = Graph::from_edges(4, &[(0, 1), (0, 2), (0, 3), (2, 3)]);
        let published = UncertainGraph::new(
            4,
            vec![
                (0, 1, 0.7),
                (0, 2, 0.9),
                (0, 3, 0.8),
                (1, 2, 0.8),
                (1, 3, 0.1),
                (2, 3, 0.0),
            ],
        )
        .unwrap();
        (original, published)
    }

    #[test]
    fn table1_y_matrix_columns() {
        let (_, ug) = paper_pair();
        let t = AdversaryTable::build(&ug);
        let expected: [(usize, [f64; 4]); 4] = [
            (0, [0.023, 0.208, 0.077, 0.692]),
            (1, [0.064, 0.242, 0.180, 0.514]),
            (2, [0.229, 0.311, 0.414, 0.046]),
            (3, [0.900, 0.100, 0.000, 0.000]),
        ];
        for (omega, want) in expected {
            let y = t.posterior(omega);
            for (v, &w) in want.iter().enumerate() {
                assert!(
                    (y[v] - w).abs() < 1.5e-3,
                    "omega={omega} v={} got={} want={w}",
                    v + 1,
                    y[v]
                );
            }
        }
    }

    #[test]
    fn example2_entropies() {
        let (_, ug) = paper_pair();
        let t = AdversaryTable::build(&ug);
        // Example 2: H(deg=3) ≈ 0.469; H(deg=1) ≈ 1.688; H(deg=2) ≈ 1.742.
        assert!((t.entropy(3) - 0.469).abs() < 1e-3, "h3={}", t.entropy(3));
        assert!((t.entropy(1) - 1.688).abs() < 1e-3, "h1={}", t.entropy(1));
        assert!((t.entropy(2) - 1.742).abs() < 1e-3, "h2={}", t.entropy(2));
    }

    #[test]
    fn example2_is_3_025_obfuscation() {
        // "as three out of four vertices are 3-obfuscated, the graph
        // provides a (3, 0.25)-obfuscation".
        let (g, ug) = paper_pair();
        let check = ObfuscationCheck::run(&g, &ug, 3, &Parallelism::sequential());
        assert_eq!(check.failed_vertices, 1); // v1 (degree 3)
        assert!((check.eps_achieved - 0.25).abs() < 1e-12);
        assert!(check.satisfies(0.25));
        assert!(!check.satisfies(0.2));
    }

    #[test]
    fn certain_graph_entropy_is_log_crowd_size() {
        // In a certain graph, Y_ω is uniform over the k vertices with
        // degree ω (Section 3 discussion).
        let g = Graph::from_edges(5, &[(0, 1), (1, 2), (2, 3), (3, 4)]);
        // Degrees: 1,2,2,2,1.
        let ug = UncertainGraph::from_certain(&g);
        let t = AdversaryTable::build(&ug);
        assert!((t.entropy(1) - 1.0).abs() < 1e-12); // two vertices
        assert!((t.entropy(2) - (3.0f64).log2()).abs() < 1e-12);
        assert!((t.obfuscation_level(2) - 3.0).abs() < 1e-9);
    }

    #[test]
    fn row_and_x_accessors() {
        let (_, ug) = paper_pair();
        let t = AdversaryTable::build(&ug);
        assert!((t.x(0, 2) - 0.398).abs() < 1e-12);
        assert_eq!(t.x(0, 99), 0.0);
        assert_eq!(t.row(3).len(), 4); // 3 incident candidates + 1
    }

    #[test]
    fn parallel_entropies_match_serial() {
        let (_, ug) = paper_pair();
        let t = AdversaryTable::build(&ug);
        let omegas: Vec<usize> = (0..4).collect();
        // Chunk size 1 forces multiple chunks even on this 4-vertex graph.
        let serial = t.entropies(&omegas, &Parallelism::sequential().with_chunk_size(1));
        for threads in [2, 4] {
            let par = Parallelism::new(threads).with_chunk_size(1);
            assert_eq!(serial, t.entropies(&omegas, &par), "threads={threads}");
        }
        // The chunked accumulation agrees with the single-column formula.
        for &w in &omegas {
            assert!((serial[w] - t.entropy(w)).abs() < 1e-12);
        }
    }

    #[test]
    fn parallel_build_matches_serial() {
        let (_, ug) = paper_pair();
        let seq = AdversaryTable::build(&ug);
        for threads in [2, 4] {
            let par = AdversaryTable::build_par(&ug, &Parallelism::new(threads).with_chunk_size(1));
            for v in 0..4u32 {
                assert_eq!(seq.row(v), par.row(v), "threads={threads} v={v}");
            }
        }
    }

    #[test]
    fn entropy_level_dominates_belief_level() {
        // Section 2: "the obfuscation level quantified by means of the
        // entropy is always greater than [or equal to] the one based on
        // a-posteriori belief probabilities".
        let (_, ug) = paper_pair();
        let t = AdversaryTable::build(&ug);
        for omega in 0..4usize {
            let entropy_level = t.obfuscation_level(omega);
            let belief_level = t.belief_obfuscation_level(omega);
            assert!(
                entropy_level >= belief_level - 1e-9,
                "omega={omega}: entropy {entropy_level} < belief {belief_level}"
            );
        }
    }

    #[test]
    fn belief_level_on_certain_graph_is_crowd_size() {
        let g = Graph::from_edges(5, &[(0, 1), (1, 2), (2, 3), (3, 4)]);
        let ug = UncertainGraph::from_certain(&g);
        let t = AdversaryTable::build(&ug);
        // Uniform over the crowd: belief level equals entropy level.
        assert!((t.belief_obfuscation_level(2) - 3.0).abs() < 1e-9);
        assert!((t.belief_obfuscation_level(1) - 2.0).abs() < 1e-9);
        assert_eq!(t.belief_obfuscation_level(4), 0.0); // no mass at 4
    }

    #[test]
    fn obfuscation_levels_per_vertex() {
        let (g, ug) = paper_pair();
        let t = AdversaryTable::build(&ug);
        let check = ObfuscationCheck::run(&g, &ug, 1, &Parallelism::sequential());
        let levels = check.vertex_obfuscation_levels(&g);
        assert_eq!(levels.len(), 4);
        // v1 has degree 3: level 2^0.469 ≈ 1.38.
        assert!((levels[0] - 2f64.powf(t.entropy(3))).abs() < 1e-12);
        // v3, v4 share degree 2 and thus share a level.
        assert_eq!(levels[2], levels[3]);
    }

    #[test]
    fn degree_profile_orders_largest_degree_first() {
        let (g, _) = paper_pair(); // degrees 3, 1, 2, 2
        let p = DegreeProfile::new(&g);
        assert_eq!(p.num_vertices(), 4);
        assert_eq!(p.degrees(), &[3, 1, 2, 2]);
        assert_eq!(p.distinct(), &[1, 2, 3]);
        assert_eq!(p.multiplicity(), &[1, 2, 1]);
        assert_eq!(p.max_degree(), 3);
        // Degree descending, whatever the multiplicities.
        assert_eq!(p.sweep_order().collect::<Vec<_>>(), [2, 1, 0]);
    }

    #[test]
    fn run_matches_the_exhaustive_oracle() {
        // The memoized rows of `run` against the full table through the
        // shared `from_entropies` tail: the same bits at every k.
        let (g, ug) = paper_pair();
        let t = AdversaryTable::build(&ug);
        let profile = DegreeProfile::new(&g);
        for chunk_size in [1usize, 4] {
            let par = Parallelism::sequential().with_chunk_size(chunk_size);
            for k in 1..=4 {
                let got = ObfuscationCheck::run(&g, &ug, k, &par);
                let want = ObfuscationCheck::from_entropies(
                    &profile,
                    t.entropies(profile.distinct(), &par),
                    k,
                );
                assert_eq!(got.entropy_by_degree, want.entropy_by_degree, "k={k}");
                assert_eq!(got.eps_achieved.to_bits(), want.eps_achieved.to_bits());
                assert_eq!(got.failed_vertices, want.failed_vertices);
            }
        }
    }

    #[test]
    fn chunked_partials_fold_to_table_entropies() {
        // `ColumnPartials` gathered per chunk range and folded in chunk
        // order must equal the table's `entropies` bits, for every chunk
        // decomposition and any column order (5 is past every row).
        let (_, ug) = paper_pair();
        let t = AdversaryTable::build(&ug);
        let bits = |h: &[f64]| h.iter().map(|x| x.to_bits()).collect::<Vec<_>>();
        let omegas: Vec<usize> = vec![3, 0, 5, 2, 1];
        let row = |v: usize| Some(t.row(v as u32));
        for chunk_size in [1usize, 2, 3, 4, 5] {
            let par = Parallelism::sequential().with_chunk_size(chunk_size);
            let want = t.entropies(&omegas, &par);
            let chunks: Vec<ColumnPartials> = par
                .chunk_ranges(t.num_vertices())
                .map(|r| ColumnPartials::gather(r, &omegas, row))
                .collect();
            let got = ColumnPartials::fold(omegas.len(), &chunks).entropies();
            assert_eq!(bits(&got), bits(&want), "chunk_size={chunk_size}");
        }
        // The contiguous `span` accumulation equals `gather` over the
        // same columns, on ragged vertex ranges and spans past 0.
        for r in [0..4, 0..1, 1..3, 3..4, 2..2] {
            for columns in [0..5usize, 2..4, 4..6] {
                let list: Vec<usize> = columns.clone().collect();
                let spanned = ColumnPartials::span(r.clone(), columns.clone(), |v| t.row(v as u32));
                let gathered = ColumnPartials::gather(r.clone(), &list, row);
                assert_eq!(spanned, gathered, "range={r:?} columns={columns:?}");
            }
        }
    }

    #[test]
    fn empty_graph_check() {
        let g = Graph::empty(0);
        let ug = UncertainGraph::new(0, vec![]).unwrap();
        let check = ObfuscationCheck::run(&g, &ug, 5, &Parallelism::sequential());
        assert_eq!(check.eps_achieved, 0.0);
    }

    #[test]
    #[should_panic(expected = "vertex sets differ")]
    fn mismatched_vertex_sets_rejected() {
        let g = Graph::empty(3);
        let ug = UncertainGraph::new(2, vec![]).unwrap();
        let _ = ObfuscationCheck::run(&g, &ug, 2, &Parallelism::sequential());
    }
}
