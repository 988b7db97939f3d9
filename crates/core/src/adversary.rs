//! The adversary's view of an uncertain graph (paper Section 4).
//!
//! For the degree property, `X_v(ω) = Pr(deg_{G̃}(v) = ω)` is the
//! Poisson-binomial distribution over the candidate pairs incident to `v`
//! (Lemma 1). The normalised column `Y_ω(v) = X_v(ω)/Σ_u X_u(ω)` (Eq. 3)
//! is the posterior over published vertices for a target with original
//! degree `ω`; its entropy certifies k-obfuscation (Definition 2).

use std::ops::Range;

use obf_graph::{Graph, Parallelism};
use obf_stats::entropy::{entropy_bits_normalized, entropy_from_partials, obfuscation_level};
use obf_uncertain::degree_dist::{vertex_degree_distribution, DegreeDistMethod};
use obf_uncertain::UncertainGraph;

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
/// ([`AdversaryTable::entropies`],
/// [`MemoizedAdversary::entropies`](crate::MemoizedAdversary::entropies)
/// and the per-chunk state of `obf_evolve`'s incremental check). Each
/// front end is only a *row source*: a closure mapping a vertex to its
/// `X_v` row. The kernel fixes the floating-point order:
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
/// matrix `X_v(ω)`.
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
    pub fn build(g: &UncertainGraph, method: DegreeDistMethod) -> Self {
        Self::build_par(g, method, &Parallelism::sequential())
    }

    /// Builds the table with each worker thread owning contiguous vertex
    /// ranges. The per-vertex Poisson-binomial DP (Lemma 1) is `O(ℓ_v²)`
    /// and rows are independent, so this is the dominant parallel win of
    /// Algorithm 2's Definition 2 check. Output is identical for every
    /// thread count.
    ///
    /// # Examples
    ///
    /// ```
    /// use obf_core::AdversaryTable;
    /// use obf_graph::Parallelism;
    /// use obf_uncertain::{degree_dist::DegreeDistMethod, UncertainGraph};
    ///
    /// let ug = UncertainGraph::new(3, vec![(0, 1, 0.5), (1, 2, 0.25)]).unwrap();
    /// let seq = AdversaryTable::build(&ug, DegreeDistMethod::Exact);
    /// let par = AdversaryTable::build_par(&ug, DegreeDistMethod::Exact, &Parallelism::new(4));
    /// assert_eq!(seq.row(1), par.row(1));
    /// ```
    pub fn build_par(g: &UncertainGraph, method: DegreeDistMethod, par: &Parallelism) -> Self {
        let rows = par.map_collect(g.num_vertices(), |v| {
            vertex_degree_distribution(g, v as u32, method)
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
    /// use obf_core::AdversaryTable;
    /// use obf_graph::Parallelism;
    /// use obf_uncertain::{degree_dist::DegreeDistMethod, UncertainGraph};
    ///
    /// let ug = UncertainGraph::new(4, vec![(0, 1, 0.6), (1, 2, 0.4), (2, 3, 0.9)]).unwrap();
    /// let t = AdversaryTable::build(&ug, DegreeDistMethod::Exact);
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
    /// graph, the entropy of `Y_{deg_G(v)}` must reach `log₂ k`. The
    /// entropy columns are sharded across `par`'s worker threads (see
    /// [`AdversaryTable::entropies`]); the verdict is bit-identical for
    /// every thread count.
    ///
    /// `original` and `published` must have the same vertex set.
    pub fn run(original: &Graph, published: &AdversaryTable, k: usize, par: &Parallelism) -> Self {
        Self::run_with_profile(&DegreeProfile::new(original), published, k, par)
    }

    /// [`ObfuscationCheck::run`] with a precomputed [`DegreeProfile`] of
    /// the original graph — bit-identical output, but the degree sort is
    /// paid once per σ search instead of once per check.
    pub fn run_with_profile(
        profile: &DegreeProfile,
        published: &AdversaryTable,
        k: usize,
        par: &Parallelism,
    ) -> Self {
        assert_eq!(
            profile.num_vertices(),
            published.num_vertices(),
            "vertex sets differ"
        );
        let entropies = published.entropies(profile.distinct(), par);
        Self::from_entropies(profile, entropies, k)
    }

    /// Assembles the Definition 2 verdict from already-computed column
    /// entropies (parallel to [`DegreeProfile::distinct`]). This is the
    /// shared tail of every check front end — the exhaustive table here
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
}

/// Per-vertex obfuscation levels `2^H(Y_{deg_G(v)})` for the anonymity
/// curves of Figure 4, with the entropy columns sharded across `par`'s
/// worker threads.
pub fn vertex_obfuscation_levels(
    original: &Graph,
    published: &AdversaryTable,
    par: &Parallelism,
) -> Vec<f64> {
    let profile = DegreeProfile::new(original);
    let entropies = published.entropies(profile.distinct(), par);
    let mut level = vec![0.0f64; profile.max_degree() + 1];
    for (&d, &h) in profile.distinct().iter().zip(&entropies) {
        level[d] = h.exp2();
    }
    profile.degrees().iter().map(|&d| level[d]).collect()
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
        let t = AdversaryTable::build(&ug, DegreeDistMethod::Exact);
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
        let t = AdversaryTable::build(&ug, DegreeDistMethod::Exact);
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
        let t = AdversaryTable::build(&ug, DegreeDistMethod::Exact);
        let check = ObfuscationCheck::run(&g, &t, 3, &Parallelism::sequential());
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
        let t = AdversaryTable::build(&ug, DegreeDistMethod::Exact);
        assert!((t.entropy(1) - 1.0).abs() < 1e-12); // two vertices
        assert!((t.entropy(2) - (3.0f64).log2()).abs() < 1e-12);
        assert!((t.obfuscation_level(2) - 3.0).abs() < 1e-9);
    }

    #[test]
    fn row_and_x_accessors() {
        let (_, ug) = paper_pair();
        let t = AdversaryTable::build(&ug, DegreeDistMethod::Exact);
        assert!((t.x(0, 2) - 0.398).abs() < 1e-12);
        assert_eq!(t.x(0, 99), 0.0);
        assert_eq!(t.row(3).len(), 4); // 3 incident candidates + 1
    }

    #[test]
    fn parallel_entropies_match_serial() {
        let (_, ug) = paper_pair();
        let t = AdversaryTable::build(&ug, DegreeDistMethod::Exact);
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
        let seq = AdversaryTable::build(&ug, DegreeDistMethod::Exact);
        for threads in [2, 4] {
            let par = AdversaryTable::build_par(
                &ug,
                DegreeDistMethod::Exact,
                &Parallelism::new(threads).with_chunk_size(1),
            );
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
        let t = AdversaryTable::build(&ug, DegreeDistMethod::Exact);
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
        let t = AdversaryTable::build(&ug, DegreeDistMethod::Exact);
        // Uniform over the crowd: belief level equals entropy level.
        assert!((t.belief_obfuscation_level(2) - 3.0).abs() < 1e-9);
        assert!((t.belief_obfuscation_level(1) - 2.0).abs() < 1e-9);
        assert_eq!(t.belief_obfuscation_level(4), 0.0); // no mass at 4
    }

    #[test]
    fn obfuscation_levels_per_vertex() {
        let (g, ug) = paper_pair();
        let t = AdversaryTable::build(&ug, DegreeDistMethod::Exact);
        let levels = vertex_obfuscation_levels(&g, &t, &Parallelism::sequential());
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
    fn run_with_profile_matches_run() {
        let (g, ug) = paper_pair();
        let t = AdversaryTable::build(&ug, DegreeDistMethod::Exact);
        let par = Parallelism::sequential();
        let a = ObfuscationCheck::run(&g, &t, 3, &par);
        let b = ObfuscationCheck::run_with_profile(&DegreeProfile::new(&g), &t, 3, &par);
        assert_eq!(a.entropy_by_degree, b.entropy_by_degree);
        assert_eq!(a.eps_achieved, b.eps_achieved);
        assert_eq!(a.failed_vertices, b.failed_vertices);
    }

    #[test]
    fn from_entropies_matches_run_with_profile() {
        let (g, ug) = paper_pair();
        let t = AdversaryTable::build(&ug, DegreeDistMethod::Exact);
        let par = Parallelism::sequential();
        let profile = DegreeProfile::new(&g);
        let direct = ObfuscationCheck::run_with_profile(&profile, &t, 3, &par);
        let entropies = t.entropies(profile.distinct(), &par);
        let assembled = ObfuscationCheck::from_entropies(&profile, entropies, 3);
        assert_eq!(direct.entropy_by_degree, assembled.entropy_by_degree);
        assert_eq!(direct.eps_achieved, assembled.eps_achieved);
        assert_eq!(direct.failed_vertices, assembled.failed_vertices);
    }

    #[test]
    fn chunked_partials_fold_to_table_entropies() {
        // `ColumnPartials` gathered per chunk range and folded in chunk
        // order must equal the table's `entropies` bits, for every chunk
        // decomposition and any column order (5 is past every row).
        let (_, ug) = paper_pair();
        let t = AdversaryTable::build(&ug, DegreeDistMethod::Exact);
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
        let t = AdversaryTable::build(&ug, DegreeDistMethod::Exact);
        let check = ObfuscationCheck::run(&g, &t, 5, &Parallelism::sequential());
        assert_eq!(check.eps_achieved, 0.0);
    }

    #[test]
    #[should_panic(expected = "vertex sets differ")]
    fn mismatched_vertex_sets_rejected() {
        let g = Graph::empty(3);
        let ug = UncertainGraph::new(2, vec![]).unwrap();
        let t = AdversaryTable::build(&ug, DegreeDistMethod::Exact);
        let _ = ObfuscationCheck::run(&g, &t, 2, &Parallelism::sequential());
    }
}
