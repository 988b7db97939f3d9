//! The [`UncertainGraph`] type (paper Definition 1, restricted to a
//! candidate set `E_C` as in Section 3).
//!
//! The graph is stored as one SoA-CSR — `offsets`/`targets`/`probs` —
//! heap-owned or mapped from a v3 snapshot, and nothing else: the
//! canonical candidate list `E_C` is the per-row `target > row` suffix
//! of that CSR, streamed by [`UncertainGraph::candidate_pairs`]. Arrays
//! that do not come from [`UncertainGraph::new`]'s checked candidate
//! list (a decoded or mapped snapshot, a merged delta) are checked by
//! the one CSR validator in `crate::csr`.

use obf_graph::Graph;

use crate::csr::{self, CsrError};
use crate::mapped::MappedSnapshot;

/// Backing storage for the SoA-CSR incidence arrays: heap-owned vectors
/// or borrowed zero-copy slices out of an mmap'd v3 snapshot, read
/// through [`UncertainGraph::csr`] either way.
#[derive(Debug)]
enum Store {
    /// `targets[offsets[v]..offsets[v+1]]` (and the same range of
    /// `probs`) describes the candidates incident to `v`.
    Owned {
        offsets: Vec<u64>,
        targets: Vec<u32>,
        probs: Vec<f64>,
    },
    Mapped(MappedSnapshot),
}

/// An uncertain graph `G̃ = (V, p)`: `n` vertices and a list of candidate
/// pairs with existence probabilities; pairs not listed are certain
/// non-edges (`p = 0`).
///
/// The incidence structure is stored as structure-of-arrays CSR —
/// separate `offsets`/`targets`/`probs` arrays — so the sharded hot
/// loops (the per-vertex Poisson-binomial rows of the adversary matrix,
/// expected-triangle merges) stream each array with unit stride instead
/// of skipping over interleaved `(u32, f64)` pairs. The arrays are
/// either heap-owned or, via [`UncertainGraph::from_mapped`], zero-copy
/// views into an mmap'd v3 snapshot (`docs/FORMATS.md`); every accessor
/// returns bit-identical data either way.
#[derive(Debug)]
pub struct UncertainGraph {
    n: usize,
    /// Number of candidate pairs `|E_C|`.
    m: usize,
    store: Store,
}

impl UncertainGraph {
    /// Builds an uncertain graph from candidate pairs.
    ///
    /// Duplicate pairs are rejected, as are probabilities outside `[0, 1]`
    /// and self loops.
    pub fn new(n: usize, mut candidates: Vec<(u32, u32, f64)>) -> Result<Self, String> {
        for (u, v, p) in candidates.iter_mut() {
            if *u == *v {
                return Err(format!("self loop at vertex {u}"));
            }
            if (*u as usize) >= n || (*v as usize) >= n {
                return Err(format!("pair ({u},{v}) out of range for n={n}"));
            }
            if !p.is_finite() || !(0.0..=1.0).contains(p) {
                return Err(format!("probability {p} out of [0,1] for ({u},{v})"));
            }
            if u > v {
                std::mem::swap(u, v);
            }
        }
        candidates.sort_unstable_by_key(|a| (a.0, a.1));
        for w in candidates.windows(2) {
            if (w[0].0, w[0].1) == (w[1].0, w[1].1) {
                return Err(format!("duplicate candidate pair ({}, {})", w[0].0, w[0].1));
            }
        }
        // Build the incidence CSR: filling in canonical order appends
        // each row's `a < v` partners before its `w > v` partners, each
        // run ascending, so every row comes out sorted by target.
        let mut deg = vec![0usize; n];
        for &(u, v, _) in &candidates {
            deg[u as usize] += 1;
            deg[v as usize] += 1;
        }
        let mut offsets = Vec::with_capacity(n + 1);
        let mut cursor = Vec::with_capacity(n);
        let mut acc = 0;
        offsets.push(0);
        for &d in &deg {
            cursor.push(acc);
            acc += d;
            offsets.push(acc as u64);
        }
        let mut targets = vec![0u32; acc];
        let mut probs = vec![0.0f64; acc];
        for &(u, v, p) in &candidates {
            targets[cursor[u as usize]] = v;
            probs[cursor[u as usize]] = p;
            cursor[u as usize] += 1;
            targets[cursor[v as usize]] = u;
            probs[cursor[v as usize]] = p;
            cursor[v as usize] += 1;
        }
        Ok(Self {
            n,
            m: candidates.len(),
            store: Store::Owned {
                offsets,
                targets,
                probs,
            },
        })
    }

    /// Takes ownership of CSR arrays that did not come from a checked
    /// candidate list (a decoded snapshot, a merged delta) once both
    /// tiers of the `crate::csr` validator accept them — which holds
    /// exactly when they are what [`UncertainGraph::new`] would build.
    pub(crate) fn from_csr(
        n: usize,
        m: usize,
        offsets: Vec<u64>,
        targets: Vec<u32>,
        probs: Vec<f64>,
    ) -> Result<Self, CsrError> {
        csr::check_structure(n, m, &offsets, &targets, &probs)?;
        csr::check_content(n, &offsets, &targets, &probs)?;
        Ok(Self {
            n,
            m,
            store: Store::Owned {
                offsets,
                targets,
                probs,
            },
        })
    }

    /// Wraps an opened [`MappedSnapshot`] as a zero-copy uncertain
    /// graph: the CSR accessors read straight from the mapping, no
    /// array is copied onto the heap, and dropping the graph unmaps the
    /// file.
    ///
    /// [`MappedSnapshot::open`] already ran the structural tier of the
    /// CSR validator, which makes every access in-bounds; callers that
    /// need the content guarantees of the heap decoder (ascending rows,
    /// probabilities in `[0, 1]`, mirror symmetry) should open with
    /// [`MappedSnapshot::open_verified`], which runs the same checks.
    pub fn from_mapped(snap: MappedSnapshot) -> Self {
        Self {
            n: snap.num_vertices(),
            m: snap.num_candidates(),
            store: Store::Mapped(snap),
        }
    }

    /// Whether this graph serves from an mmap'd snapshot (vs heap-owned
    /// arrays) — surfaced by `obf_server`'s RELOAD replies.
    pub fn is_mapped(&self) -> bool {
        matches!(self.store, Store::Mapped(_))
    }

    /// The three CSR arrays, from either store.
    #[inline]
    fn csr(&self) -> (&[u64], &[u32], &[f64]) {
        match &self.store {
            Store::Owned {
                offsets,
                targets,
                probs,
            } => (offsets, targets, probs),
            Store::Mapped(snap) => (snap.offsets(), snap.targets(), snap.probs()),
        }
    }

    /// The "certain" embedding of a deterministic graph: every edge gets
    /// probability 1.
    pub fn from_certain(g: &Graph) -> Self {
        let candidates = g.edges().map(|(u, v)| (u, v, 1.0)).collect();
        Self::new(g.num_vertices(), candidates).expect("certain graph is valid")
    }

    /// Number of vertices.
    #[inline]
    pub fn num_vertices(&self) -> usize {
        self.n
    }

    /// Number of candidate pairs `|E_C|` (including any with `p = 0` or
    /// `p = 1`).
    #[inline]
    pub fn num_candidates(&self) -> usize {
        self.m
    }

    /// Iterates the candidate pairs in canonical `(lo, hi)` order — the
    /// per-row `target > row` suffix of the CSR walked in row order,
    /// which is exactly the sorted list [`UncertainGraph::new`] was
    /// given, entry for entry and bit for bit. Every
    /// candidate-order-dependent consumer (world sampling, Eq. 1,
    /// probability-mass sums) goes through this, which is what makes
    /// mmap-served answers bit-identical to heap-served ones.
    #[inline]
    pub fn candidate_pairs(&self) -> CandidatePairs<'_> {
        let (offsets, targets, probs) = self.csr();
        CandidatePairs {
            offsets,
            targets,
            probs,
            row: 0,
            i: 0,
            remaining: self.m,
        }
    }

    /// Candidate pairs incident to `v` as `(other, p)` pairs, zipped from
    /// the SoA arrays. Prefer [`UncertainGraph::incident_targets`] /
    /// [`UncertainGraph::incident_probs`] in hot loops that only need one
    /// of the two.
    #[inline]
    pub fn incident(&self, v: u32) -> impl ExactSizeIterator<Item = (u32, f64)> + '_ {
        self.incident_targets(v)
            .iter()
            .copied()
            .zip(self.incident_probs(v).iter().copied())
    }

    /// The CSR bounds of vertex `v`'s incidence row.
    #[inline]
    fn row_bounds(&self, v: usize) -> (usize, usize) {
        // Clamped: a snapshot is mapped `MAP_PRIVATE`, so another
        // process rewriting the file in place can still change its
        // pages after `MappedSnapshot::open`'s structural scan. A
        // changed entry must yield a wrong (empty) row, never an
        // out-of-bounds slice.
        let offsets = self.csr().0;
        let len = 2 * self.m;
        let lo = (offsets[v] as usize).min(len);
        (lo, (offsets[v + 1] as usize).clamp(lo, len))
    }

    /// Other endpoints of the candidate pairs incident to `v`, in
    /// ascending target order.
    #[inline]
    pub fn incident_targets(&self, v: u32) -> &[u32] {
        let (start, end) = self.row_bounds(v as usize);
        &self.csr().1[start..end]
    }

    /// Probabilities of the candidate pairs incident to `v`, parallel to
    /// [`UncertainGraph::incident_targets`]. This is the row the
    /// Poisson-binomial DP (Lemma 1) consumes — borrowing it directly
    /// avoids a per-vertex allocation in the sharded adversary build.
    #[inline]
    pub fn incident_probs(&self, v: u32) -> &[f64] {
        let (start, end) = self.row_bounds(v as usize);
        &self.csr().2[start..end]
    }

    /// Number of candidate pairs incident to `v`.
    #[inline]
    pub fn incident_count(&self, v: u32) -> usize {
        let (start, end) = self.row_bounds(v as usize);
        end - start
    }

    /// Exact support interval of the vertex's degree distribution, as
    /// `(ones, pos)` with `ones` = incident candidates that are certain
    /// (`p = 1`) and `pos` = incident candidates that are possible
    /// (`p > 0`). Under the exact Poisson binomial (Lemma 1),
    /// `X_v(ω) > 0` **iff** `ones ≤ ω ≤ pos` — the zero-DP column
    /// precheck of the budgeted Definition 2 sweep counts these intervals
    /// instead of evaluating rows.
    ///
    /// # Examples
    ///
    /// ```
    /// use obf_uncertain::UncertainGraph;
    ///
    /// let g = UncertainGraph::new(3, vec![(0, 1, 1.0), (0, 2, 0.4)]).unwrap();
    /// assert_eq!(g.degree_support(0), (1, 2)); // deg ∈ {1, 2}
    /// assert_eq!(g.degree_support(2), (0, 1)); // deg ∈ {0, 1}
    /// ```
    pub fn degree_support(&self, v: u32) -> (usize, usize) {
        let probs = self.incident_probs(v);
        let ones = probs.iter().filter(|p| **p >= 1.0).count();
        let pos = probs.iter().filter(|p| **p > 0.0).count();
        (ones, pos)
    }

    /// Probability of the pair `(u, v)` (0 if not a candidate; vertices
    /// out of range are never candidates).
    ///
    /// Binary-searches the shorter endpoint's incidence row (rows are
    /// sorted ascending by target): O(log deg) on either store.
    pub fn probability(&self, u: u32, v: u32) -> f64 {
        if u == v || (u as usize) >= self.n || (v as usize) >= self.n {
            return 0.0;
        }
        let (a, b) = if self.incident_count(u) <= self.incident_count(v) {
            (u, v)
        } else {
            (v, u)
        };
        match self.incident_targets(a).binary_search(&b) {
            Ok(i) => self.incident_probs(a)[i],
            Err(_) => 0.0,
        }
    }

    /// Expected degree `μ_v = Σ_{e ∋ v} p(e)`.
    pub fn expected_degree(&self, v: u32) -> f64 {
        self.incident_probs(v).iter().sum()
    }

    /// Degree variance contribution `σ_v² = Σ_{e ∋ v} p(e)(1 − p(e))`.
    pub fn degree_variance_term(&self, v: u32) -> f64 {
        self.incident_probs(v).iter().map(|&p| p * (1.0 - p)).sum()
    }

    /// Log-probability of a possible world given as the subset of
    /// candidate indices that are present (Eq. 1). Indices must be sorted
    /// and unique.
    pub fn world_log_probability(&self, present: &[usize]) -> f64 {
        debug_assert!(present.windows(2).all(|w| w[0] < w[1]));
        let mut lp = 0.0;
        let mut iter = present.iter().peekable();
        for (i, (_, _, p)) in self.candidate_pairs().enumerate() {
            let included = iter.peek() == Some(&&i);
            if included {
                iter.next();
                lp += p.ln(); // -inf if p = 0: impossible world
            } else {
                lp += (1.0 - p).ln();
            }
        }
        lp
    }

    /// Total expected number of edges `Σ_e p(e)` (summed in canonical
    /// candidate order on either store — FP summation order is part of
    /// the bit-identity contract).
    pub fn total_probability_mass(&self) -> f64 {
        self.candidate_pairs().map(|(_, _, p)| p).sum()
    }

    /// Whether `(u, v)` is a candidate pair (even with `p = 0`).
    pub fn is_candidate(&self, u: u32, v: u32) -> bool {
        if u == v || (u as usize) >= self.n || (v as usize) >= self.n {
            return false;
        }
        let (a, b) = if self.incident_count(u) <= self.incident_count(v) {
            (u, v)
        } else {
            (v, u)
        };
        self.incident_targets(a).binary_search(&b).is_ok()
    }

    /// Applies a sorted batch of candidate changes by merging it into
    /// the SoA-CSR incidence rows — no re-sort, no CSR rebuild from
    /// scratch. `Some(p)` inserts the pair or overwrites its
    /// probability; `None` removes the pair entirely (turning it back
    /// into a certain non-edge). The result is identical to
    /// [`UncertainGraph::new`] over the updated candidate list
    /// (property-tested in `crates/evolve/tests/proptests.rs`), and the
    /// merge costs `O(n + m + |changes|)`; the CSR validator then
    /// re-checks the result in `O(n + m log d)`.
    ///
    /// `changes` must be strictly sorted canonical `(lo, hi)` pairs;
    /// removing a pair that is not a candidate is an error.
    ///
    /// # Examples
    ///
    /// ```
    /// use obf_uncertain::UncertainGraph;
    ///
    /// let g = UncertainGraph::new(4, vec![(0, 1, 0.5), (1, 2, 0.9)]).unwrap();
    /// let g2 = g
    ///     .apply_delta(&[(0, 1, Some(0.25)), (1, 2, None), (2, 3, Some(1.0))])
    ///     .unwrap();
    /// let pairs: Vec<_> = g2.candidate_pairs().collect();
    /// assert_eq!(pairs, [(0, 1, 0.25), (2, 3, 1.0)]);
    /// ```
    pub fn apply_delta(&self, changes: &[(u32, u32, Option<f64>)]) -> Result<Self, String> {
        let n = self.n;
        let mut prev: Option<(u32, u32)> = None;
        for &(u, v, p) in changes {
            if u >= v {
                return Err(format!("change ({u},{v}) not in canonical order"));
            }
            if (v as usize) >= n {
                return Err(format!("change ({u},{v}) out of range for n={n}"));
            }
            if let Some(p) = p {
                if !p.is_finite() || !(0.0..=1.0).contains(&p) {
                    return Err(format!("probability {p} out of [0,1] for ({u},{v})"));
                }
            }
            if prev.is_some_and(|q| q >= (u, v)) {
                return Err(format!("changes not strictly sorted at ({u},{v})"));
            }
            prev = Some((u, v));
        }
        // Per-row sorted change runs: a single canonical-order pass
        // appends to both endpoints, and each row's run comes out sorted
        // by target (all `(a, x)` with `a < x` precede all `(x, w)`).
        let mut row_changes: Vec<Vec<(u32, Option<f64>)>> = vec![Vec::new(); n];
        for &(u, v, p) in changes {
            row_changes[u as usize].push((v, p));
            row_changes[v as usize].push((u, p));
        }
        let capacity = 2 * (self.m + changes.len());
        let mut offsets = Vec::with_capacity(n + 1);
        offsets.push(0u64);
        let mut targets: Vec<u32> = Vec::with_capacity(capacity);
        let mut probs: Vec<f64> = Vec::with_capacity(capacity);
        for (v, run) in row_changes.iter().enumerate() {
            let old_t = self.incident_targets(v as u32);
            let old_p = self.incident_probs(v as u32);
            let (mut i, mut j) = (0usize, 0usize);
            while i < old_t.len() || j < run.len() {
                let take_old = j >= run.len() || (i < old_t.len() && old_t[i] < run[j].0);
                if take_old {
                    targets.push(old_t[i]);
                    probs.push(old_p[i]);
                    i += 1;
                } else {
                    let (t, p) = run[j];
                    let existing = i < old_t.len() && old_t[i] == t;
                    if existing {
                        i += 1; // overwritten or removed below
                    }
                    match p {
                        Some(p) => {
                            targets.push(t);
                            probs.push(p);
                        }
                        // Row `v` is the pair's lower endpoint: rows
                        // merge in order, so it sees the pair first.
                        None if !existing => {
                            return Err(format!("removal of non-candidate pair ({v},{t})"));
                        }
                        None => {}
                    }
                    j += 1;
                }
            }
            offsets.push(targets.len() as u64);
        }
        // The validator re-checks every `new()` invariant, so a merge
        // bug can never escape as a malformed graph.
        let m = targets.len() / 2;
        Self::from_csr(n, m, offsets, targets, probs).map_err(|e| e.to_string())
    }
}

/// Iterator over the canonical candidate list: the CSR rows walked in
/// order, yielding each row's `target > row` suffix — see
/// [`UncertainGraph::candidate_pairs`].
pub struct CandidatePairs<'a> {
    offsets: &'a [u64],
    targets: &'a [u32],
    probs: &'a [f64],
    row: u32,
    i: usize,
    remaining: usize,
}

impl Iterator for CandidatePairs<'_> {
    type Item = (u32, u32, f64);

    #[inline]
    fn next(&mut self) -> Option<Self::Item> {
        if self.remaining == 0 {
            return None;
        }
        loop {
            // After the structural check, remaining > 0 implies
            // row < n and i < 2m. The explicit guards cover a mapped
            // file another process rewrote in place after that check
            // (the mapping is `MAP_PRIVATE`, which does not freeze
            // pages this process has not written): the stream ends
            // short instead of indexing out of bounds.
            if self.row as usize + 1 >= self.offsets.len() || self.i >= self.targets.len() {
                self.remaining = 0;
                return None;
            }
            if self.i >= self.offsets[self.row as usize + 1] as usize {
                self.row += 1;
                continue;
            }
            let (t, p) = (self.targets[self.i], self.probs[self.i]);
            self.i += 1;
            if t > self.row {
                self.remaining -= 1;
                return Some((self.row, t, p));
            }
        }
    }

    #[inline]
    fn size_hint(&self) -> (usize, Option<usize>) {
        (self.remaining, Some(self.remaining))
    }
}

impl ExactSizeIterator for CandidatePairs<'_> {}

impl Clone for UncertainGraph {
    /// Cloning always yields a heap-owned graph: a clone of an
    /// mmap-served graph deep-copies the arrays (the mapping stays with
    /// the original).
    fn clone(&self) -> Self {
        let (offsets, targets, probs) = self.csr();
        Self {
            n: self.n,
            m: self.m,
            store: Store::Owned {
                offsets: offsets.to_vec(),
                targets: targets.to_vec(),
                probs: probs.to_vec(),
            },
        }
    }
}

impl PartialEq for UncertainGraph {
    /// Two graphs are equal when they describe the same `(V, p)` —
    /// same vertex count and identical canonical candidate sequences
    /// (f64 semantics). The CSR arrays are a function of the candidate
    /// list, and the store kind deliberately does not participate: a
    /// mapped graph equals its heap-decoded twin.
    fn eq(&self, other: &Self) -> bool {
        self.n == other.n && self.m == other.m && self.candidate_pairs().eq(other.candidate_pairs())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The uncertain graph of paper Figure 1(b), reconstructed from
    /// Table 1 (see DESIGN.md).
    pub(crate) fn figure1b() -> UncertainGraph {
        UncertainGraph::new(
            4,
            vec![
                (0, 1, 0.7), // (v1, v2)
                (0, 2, 0.9), // (v1, v3)
                (0, 3, 0.8), // (v1, v4)
                (1, 2, 0.8), // (v2, v3)
                (1, 3, 0.1), // (v2, v4)
                (2, 3, 0.0), // (v3, v4): fully removed edge
            ],
        )
        .unwrap()
    }

    #[test]
    fn construction_and_indexing() {
        let g = figure1b();
        assert_eq!(g.num_vertices(), 4);
        assert_eq!(g.num_candidates(), 6);
        assert_eq!(g.probability(0, 1), 0.7);
        assert_eq!(g.probability(1, 0), 0.7);
        assert_eq!(g.probability(2, 3), 0.0);
        assert_eq!(g.incident_count(0), 3);
        assert_eq!(g.incident_targets(0), &[1, 2, 3]);
        assert_eq!(g.incident_probs(0), &[0.7, 0.9, 0.8]);
        let pairs: Vec<(u32, f64)> = g.incident(3).collect();
        assert_eq!(pairs, vec![(0, 0.8), (1, 0.1), (2, 0.0)]);
    }

    #[test]
    fn expected_degrees_of_figure1b() {
        let g = figure1b();
        assert!((g.expected_degree(0) - 2.4).abs() < 1e-12);
        assert!((g.expected_degree(1) - 1.6).abs() < 1e-12);
        assert!((g.expected_degree(2) - 1.7).abs() < 1e-12);
        assert!((g.expected_degree(3) - 0.9).abs() < 1e-12);
    }

    #[test]
    fn degree_support_brackets_positive_mass() {
        let g = figure1b();
        for v in 0..4u32 {
            let (ones, pos) = g.degree_support(v);
            let dist = crate::degree_dist::vertex_degree_distribution(&g, v);
            for (omega, &x) in dist.iter().enumerate() {
                assert_eq!(
                    x > 0.0,
                    (ones..=pos).contains(&omega),
                    "v={v} omega={omega} x={x}"
                );
            }
        }
        // Certain edges shift the lower end of the support.
        let g = UncertainGraph::new(3, vec![(0, 1, 1.0), (0, 2, 1.0)]).unwrap();
        assert_eq!(g.degree_support(0), (2, 2));
    }

    #[test]
    fn from_certain_round_trip() {
        let g = Graph::from_edges(4, &[(0, 1), (2, 3)]);
        let ug = UncertainGraph::from_certain(&g);
        assert_eq!(ug.num_candidates(), 2);
        assert_eq!(ug.probability(0, 1), 1.0);
        assert_eq!(ug.probability(0, 2), 0.0);
    }

    #[test]
    fn rejects_bad_inputs() {
        assert!(UncertainGraph::new(3, vec![(0, 0, 0.5)]).is_err());
        assert!(UncertainGraph::new(3, vec![(0, 5, 0.5)]).is_err());
        assert!(UncertainGraph::new(3, vec![(0, 1, 1.5)]).is_err());
        assert!(UncertainGraph::new(3, vec![(0, 1, f64::NAN)]).is_err());
        assert!(UncertainGraph::new(3, vec![(0, 1, 0.5), (1, 0, 0.7)]).is_err());
    }

    #[test]
    fn canonicalises_orientation() {
        let g = UncertainGraph::new(3, vec![(2, 0, 0.3)]).unwrap();
        assert_eq!(g.candidate_pairs().collect::<Vec<_>>(), [(0, 2, 0.3)]);
        assert_eq!(g.probability(2, 0), 0.3);
    }

    #[test]
    fn world_log_probability_matches_eq1() {
        let g = UncertainGraph::new(3, vec![(0, 1, 0.5), (0, 2, 0.25), (1, 2, 1.0)]).unwrap();
        // World containing candidates 0 and 2 only.
        let lp = g.world_log_probability(&[0, 2]);
        let expect = (0.5f64).ln() + (0.75f64).ln() + (1.0f64).ln();
        assert!((lp - expect).abs() < 1e-12);
        // Excluding the certain edge (index 2) is impossible.
        assert_eq!(g.world_log_probability(&[0]), f64::NEG_INFINITY);
    }

    #[test]
    fn apply_delta_matches_rebuild() {
        let g = figure1b();
        // Overwrite, remove, and insert in one batch.
        let delta = [
            (0, 1, Some(0.25)),
            (1, 3, None),
            (2, 3, Some(0.6)),
            (1, 2, None),
        ];
        let mut sorted = delta;
        sorted.sort_by_key(|&(u, v, _)| (u, v));
        let got = g.apply_delta(&sorted).unwrap();
        let want =
            UncertainGraph::new(4, vec![(0, 1, 0.25), (0, 2, 0.9), (0, 3, 0.8), (2, 3, 0.6)])
                .unwrap();
        assert_eq!(got, want);
        // Empty delta is the identity.
        assert_eq!(g.apply_delta(&[]).unwrap(), g);
    }

    #[test]
    fn apply_delta_rejects_bad_changes() {
        let g = figure1b();
        assert!(g.apply_delta(&[(1, 0, Some(0.5))]).is_err()); // orientation
        assert!(g.apply_delta(&[(0, 9, Some(0.5))]).is_err()); // range
        assert!(g.apply_delta(&[(0, 1, Some(1.5))]).is_err()); // prob
        assert!(g.apply_delta(&[(0, 1, Some(f64::NAN))]).is_err());
        assert!(g
            .apply_delta(&[(0, 2, Some(0.1)), (0, 1, Some(0.1))])
            .is_err()); // unsorted
        assert!(g.apply_delta(&[(0, 1, None), (0, 1, None)]).is_err()); // dup
        let without = g.apply_delta(&[(1, 3, None)]).unwrap();
        assert!(without.apply_delta(&[(1, 3, None)]).is_err()); // not a candidate
    }

    #[test]
    fn is_candidate_sees_zero_probability_pairs() {
        let g = figure1b();
        assert!(g.is_candidate(2, 3)); // p = 0.0 but still a candidate
        assert!(g.is_candidate(3, 2));
        assert!(!g.is_candidate(0, 0));
        // (1, 3) removed by a delta stops being a candidate.
        let g2 = g.apply_delta(&[(1, 3, None)]).unwrap();
        assert!(!g2.is_candidate(1, 3));
    }

    #[test]
    fn mass_and_variance_terms() {
        let g = figure1b();
        assert!((g.total_probability_mass() - 3.3).abs() < 1e-12);
        let v0 = 0.7 * 0.3 + 0.9 * 0.1 + 0.8 * 0.2;
        assert!((g.degree_variance_term(0) - v0).abs() < 1e-12);
    }
}
