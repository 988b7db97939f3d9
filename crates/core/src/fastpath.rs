//! The σ-search fast path: memoized, support-truncated adversary rows
//! and a budgeted early-exit Definition 2 check.
//!
//! Algorithm 1 re-runs the Definition 2 test at every candidate σ of its
//! doubling/binary search, and each test previously (a) ran the full
//! `O(ℓ_v²)` Lemma 1 DP for every vertex and (b) swept the entropy of
//! every distinct-degree column. Both halves do provably redundant work:
//!
//! * **Row memoization** — vertices whose incident-probability rows
//!   (CSR slices from [`UncertainGraph::incident_probs`]) are
//!   bit-identical share one DP evaluation. The rows are grouped into
//!   classes by hashing the raw `f64` bits (collisions resolved by slice
//!   comparison, so sharing is exact, never approximate).
//! * **Support truncation** — the check only reads `X_v(ω)` at the
//!   original graph's degrees, so rows are computed with the truncated
//!   recurrence of [`poisson_binomial_capped`] at `cap = max_deg(G)`:
//!   bit-identical prefixes at a fraction of the work when
//!   `|E_C| ≫ |E|` inflates the incident candidate counts.
//! * **Lazy evaluation** — rows are only materialised when a column that
//!   their support intersects is actually swept, so a check that aborts
//!   early never pays for the rest of the table.
//! * **Zero-DP support precheck** — `H(Y_ω) ≤ log₂ |supp(Y_ω)|`, and the
//!   exact support of a column is countable from per-vertex
//!   [`UncertainGraph::degree_support`] intervals without any DP. A
//!   column whose support is smaller than `k` provably fails
//!   Definition 2 (for `k ≥ 2` the entropy gap `log₂(k/(k−1))` dwarfs
//!   float rounding), so hub degrees are rejected for free.
//! * **Budgeted sweep** — columns are swept largest degree first (see
//!   [`DegreeProfile::sweep_order`]) in fixed batches of
//!   [`SWEEP_BATCH_COLUMNS`], and the check aborts as soon as the
//!   accumulated failing-vertex mass provably exceeds the ε budget — or,
//!   when the caller does not need the exact ε̃, as soon as it provably
//!   cannot. Hubs fail first, and their columns touch only the few rows
//!   whose support reaches them, so a failing check stops before the
//!   crowded low degrees that every row reaches.
//!
//! Every surviving floating-point operation is performed in the same
//! order as the exhaustive
//! [`AdversaryTable`](crate::adversary::AdversaryTable) oracle, so
//! `satisfies` verdicts and completed-sweep ε̃ values are
//! **bit-identical** (property-tested in `crates/core/tests`), and the
//! chunk-ordered column reductions keep every result independent of the
//! thread count (see [`Parallelism`]).

use obf_graph::{splitmix64, FxHashMap, Parallelism};
use obf_uncertain::degree_dist::poisson_binomial_capped;
use obf_uncertain::UncertainGraph;

use crate::adversary::{ColumnPartials, DegreeProfile};

/// Columns evaluated per batch of the budgeted sweep. The sweep runs
/// from the largest degree down, so a batch only materialises the rows
/// whose support reaches its lowest degree: small batches let a failing
/// check stop among the hub columns, before the low degrees that pull
/// in every row.
pub const SWEEP_BATCH_COLUMNS: usize = 8;

/// Lazily evaluated, memoized, support-truncated adversary table.
///
/// Semantically this is the `X_v(ω)` matrix of the exhaustive
/// [`AdversaryTable`](crate::adversary::AdversaryTable) restricted to
/// `ω ≤ cap`, but rows are shared between vertices with bit-identical
/// probability rows and only computed when a sweep actually needs them.
/// Every Definition 2 verdict reads its rows from here: the budgeted
/// check of the σ search and
/// [`ObfuscationCheck::run`](crate::ObfuscationCheck::run).
#[derive(Debug)]
pub struct MemoizedAdversary<'g> {
    g: &'g UncertainGraph,
    cap: usize,
    /// Row class of each vertex.
    class_of: Vec<u32>,
    /// Representative vertex of each class (first member in vertex order).
    reps: Vec<u32>,
    /// Member count of each class.
    members: Vec<u32>,
    /// Support interval `(ones, pos)` of each class: the row is zero
    /// outside `ones..=pos` (see [`UncertainGraph::degree_support`]).
    support: Vec<(usize, usize)>,
    /// Lazily computed class rows, truncated at `cap`.
    rows: Vec<Option<Vec<f64>>>,
    /// Whether the class has been counted into `rows_requested` yet
    /// (each class's members are counted once per table, mirroring what
    /// a naive build would have paid for them).
    requested: Vec<bool>,
    /// `lo_le[j]` = vertices whose support lower end (clamped to
    /// `cap + 1`) is `≤ j`, for `j ∈ 0..=cap + 1`.
    lo_le: Vec<usize>,
    /// `hi_le[j]` = vertices whose support upper end (clamped to `cap`)
    /// is `≤ j`, for `j ∈ 0..=cap`.
    hi_le: Vec<usize>,
    dp_evaluations: u64,
    rows_requested: u64,
}

impl<'g> MemoizedAdversary<'g> {
    /// Groups the rows of `g` into identical-row classes and precomputes
    /// the column-support histograms. No DP runs yet.
    ///
    /// `cap` must be at least the largest `ω` the caller will query
    /// (Algorithm 2 uses `max_deg(G)` of the original graph).
    pub fn new(g: &'g UncertainGraph, cap: usize, par: &Parallelism) -> Self {
        let n = g.num_vertices();
        // One parallel pass per vertex: row signature + support interval.
        let per_vertex: Vec<(u64, (usize, usize))> = par.map_collect(n, |v| {
            let probs = g.incident_probs(v as u32);
            // Fx-style rotate-xor-multiply fold (one multiply per prob),
            // finalised with splitmix64 so the bucket filter can mask low
            // bits. A weak-ish hash is fine: equality is always verified
            // on the raw rows before any sharing.
            let mut h = probs.len() as u64 ^ 0x0bf5_a11e;
            let (mut ones, mut pos) = (0usize, 0usize);
            for &p in probs {
                h = (h.rotate_left(5) ^ p.to_bits()).wrapping_mul(0x51_7c_c1_b7_27_22_0a_95);
                ones += (p >= 1.0) as usize;
                pos += (p > 0.0) as usize;
            }
            (splitmix64(h), (ones, pos))
        });
        // Duplicate filter: identical rows imply identical signatures.
        // Two bitmaps over hashed buckets find, in one linear pass, the
        // buckets holding ≥ 2 signatures; only vertices in those buckets
        // enter the exact grouping map. Perturbed graphs draw continuous
        // probabilities, so almost every row is unique and the map stays
        // near-empty — the grouping cost is then proportional to the
        // duplicate mass instead of to `n`.
        let bits = n
            .saturating_mul(8)
            .next_power_of_two()
            .clamp(1 << 12, 1 << 22);
        let mask = bits - 1;
        let mut seen = vec![0u64; bits / 64];
        let mut dup = vec![0u64; bits / 64];
        for &(h, _) in &per_vertex {
            let b = (h as usize) & mask;
            let (w, bit) = (b / 64, 1u64 << (b % 64));
            if seen[w] & bit != 0 {
                dup[w] |= bit;
            } else {
                seen[w] |= bit;
            }
        }
        // Exact grouping, restricted to duplicated buckets. True 64-bit
        // collisions (equal signatures, different bits) go to a linear
        // overflow list that is empty in practice. Sharing stays exact:
        // a class is only joined after a full row comparison.
        let mut first: FxHashMap<u64, u32> = FxHashMap::default();
        let mut overflow: Vec<(u64, u32)> = Vec::new();
        let mut class_of = vec![0u32; n];
        let mut reps: Vec<u32> = Vec::new();
        let mut members: Vec<u32> = Vec::new();
        for v in 0..n {
            let sig = per_vertex[v].0;
            let b = (sig as usize) & mask;
            let new_class = |reps: &mut Vec<u32>, members: &mut Vec<u32>| {
                let c = reps.len() as u32;
                reps.push(v as u32);
                members.push(1);
                c
            };
            if dup[b / 64] & (1 << (b % 64)) == 0 {
                class_of[v] = new_class(&mut reps, &mut members);
                continue;
            }
            let probs = g.incident_probs(v as u32);
            class_of[v] = match first.entry(sig) {
                std::collections::hash_map::Entry::Vacant(e) => {
                    *e.insert(new_class(&mut reps, &mut members))
                }
                std::collections::hash_map::Entry::Occupied(e) => {
                    let c0 = *e.get();
                    if g.incident_probs(reps[c0 as usize]) == probs {
                        members[c0 as usize] += 1;
                        c0
                    } else if let Some(&(_, c)) = overflow
                        .iter()
                        .find(|&&(s, c)| s == sig && g.incident_probs(reps[c as usize]) == probs)
                    {
                        members[c as usize] += 1;
                        c
                    } else {
                        let c = new_class(&mut reps, &mut members);
                        overflow.push((sig, c));
                        c
                    }
                }
            };
        }
        let support: Vec<(usize, usize)> = reps.iter().map(|&r| per_vertex[r as usize].1).collect();
        // Column-support histograms: support_count(ω) for ω <= cap needs
        // #\{v : lo_v <= ω\} and #\{v : hi_v < ω\}, so clamp the ends just
        // past the queryable range and take prefix sums. Built over all
        // vertices (class-independent).
        let mut lo_le = vec![0usize; cap + 2];
        let mut hi_le = vec![0usize; cap + 1];
        for &(_, (lo, hi)) in &per_vertex {
            lo_le[lo.min(cap + 1)] += 1;
            hi_le[hi.min(cap)] += 1;
        }
        for j in 1..lo_le.len() {
            lo_le[j] += lo_le[j - 1];
        }
        for j in 1..hi_le.len() {
            hi_le[j] += hi_le[j - 1];
        }
        let rows = vec![None; reps.len()];
        let requested = vec![false; reps.len()];
        Self {
            g,
            cap,
            class_of,
            reps,
            members,
            support,
            rows,
            requested,
            lo_le,
            hi_le,
            dp_evaluations: 0,
            rows_requested: 0,
        }
    }

    /// Number of vertices.
    pub fn num_vertices(&self) -> usize {
        self.class_of.len()
    }

    /// Number of distinct row classes (`= num_vertices` when every row is
    /// unique).
    pub fn num_classes(&self) -> usize {
        self.reps.len()
    }

    /// The support cap rows are truncated at.
    pub fn cap(&self) -> usize {
        self.cap
    }

    /// Row DP evaluations run so far (one per class actually needed).
    pub fn dp_evaluations(&self) -> u64 {
        self.dp_evaluations
    }

    /// Vertex rows the sweeps have needed so far — what a naive build
    /// restricted to the touched columns would have computed. Each
    /// vertex is counted at most once per table.
    pub fn rows_requested(&self) -> u64 {
        self.rows_requested
    }

    /// Needed rows served by identical-row sharing instead of a fresh DP
    /// (`rows_requested − dp_evaluations`).
    pub fn dp_cache_hits(&self) -> u64 {
        self.rows_requested - self.dp_evaluations
    }

    /// The number of vertices whose support interval holds `ω`, i.e.
    /// with `X_v(ω) > 0`. Costs `O(1)` — no DP.
    ///
    /// # Panics
    /// Panics if `omega > cap`.
    pub fn support_count(&self, omega: usize) -> usize {
        assert!(omega <= self.cap, "omega {omega} beyond cap {}", self.cap);
        // #\{lo <= ω\} − #\{hi < ω\}; the two excluded sets are disjoint
        // because lo <= hi.
        let hi_lt = if omega == 0 { 0 } else { self.hi_le[omega - 1] };
        self.lo_le[omega] - hi_lt
    }

    /// Materialises every class row whose support intersects `omegas`
    /// (each class evaluated at most once, ever). The evaluation order is
    /// deterministic — class id order — so the DP/hit counters are
    /// identical for every thread count.
    pub fn ensure_columns(&mut self, omegas: &[usize], par: &Parallelism) {
        // Prefix counts of the requested columns over 0..=cap, so each
        // class's support test is O(1) instead of O(|omegas|).
        let mut requested_le = vec![0u32; self.cap + 2];
        for &w in omegas {
            requested_le[w.min(self.cap) + 1] += 1;
        }
        for j in 1..requested_le.len() {
            requested_le[j] += requested_le[j - 1];
        }
        let mut missing: Vec<u32> = Vec::new();
        for c in 0..self.reps.len() {
            let (lo, hi) = self.support[c];
            // Any requested ω in [lo, hi]?
            if requested_le[(hi + 1).min(self.cap + 1)] > requested_le[lo.min(self.cap + 1)] {
                if !self.requested[c] {
                    self.requested[c] = true;
                    self.rows_requested += self.members[c] as u64;
                }
                if self.rows[c].is_none() {
                    missing.push(c as u32);
                }
            }
        }
        if missing.is_empty() {
            return;
        }
        self.dp_evaluations += missing.len() as u64;
        let (g, cap, reps) = (self.g, self.cap, &self.reps);
        let computed: Vec<Vec<f64>> = par.map_collect(missing.len(), |i| {
            poisson_binomial_capped(g.incident_probs(reps[missing[i] as usize]), cap)
        });
        for (&c, row) in missing.iter().zip(computed) {
            self.rows[c as usize] = Some(row);
        }
    }

    /// `X_v(ω)` for `ω ≤ cap`, materialising the class row on demand.
    /// Bit-identical to the same entry of the exhaustive
    /// [`AdversaryTable`](crate::adversary::AdversaryTable).
    pub fn x(&mut self, v: u32, omega: usize, par: &Parallelism) -> f64 {
        self.ensure_columns(&[omega], par);
        match &self.rows[self.class_of[v as usize] as usize] {
            Some(row) => row.get(omega).copied().unwrap_or(0.0),
            None => 0.0, // support precheck proved the entry is zero
        }
    }

    /// Entropies `H(Y_ω)` for the requested columns, parallel to
    /// `omegas` — the same column-partials reduction as
    /// [`AdversaryTable::entropies`](crate::adversary::AdversaryTable::entropies),
    /// hence bit-identical to it for every thread count and any batching
    /// of the columns.
    ///
    /// # Panics
    /// Panics if any `ω > cap`.
    pub fn entropies(&mut self, omegas: &[usize], par: &Parallelism) -> Vec<f64> {
        if omegas.is_empty() {
            return Vec::new();
        }
        assert!(omegas.iter().all(|&w| w <= self.cap), "omega beyond cap");
        self.ensure_columns(omegas, par);
        let (rows, class_of) = (&self.rows, &self.class_of);
        // Vertices whose class row was never materialised have no
        // support in any requested column.
        ColumnPartials::sharded_entropies(class_of.len(), omegas, par, |v| {
            rows[class_of[v] as usize].as_deref()
        })
    }
}

/// Outcome of a budgeted Definition 2 check.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct BudgetedCheck {
    /// The Definition 2 verdict — always bit-identical to
    /// `ObfuscationCheck::run(..).satisfies(eps)`.
    pub satisfies: bool,
    /// The exact ε̃ (fraction of under-obfuscated vertices) when the
    /// sweep resolved every column; `None` when it exited early (the
    /// verdict is still exact, the fraction is not).
    pub eps_exact: Option<f64>,
    /// Vertices proven to fail before the sweep stopped — a lower bound
    /// on the true count, exact when `eps_exact` is `Some`.
    pub failed_at_least: usize,
    /// Columns whose entropy was actually computed.
    pub columns_evaluated: usize,
    /// Total distinct-degree columns of the check.
    pub columns_total: usize,
    /// Columns rejected by the zero-DP support precheck.
    pub support_only_failures: usize,
    /// True when the sweep stopped before resolving every column.
    pub early_exit: bool,
}

/// The largest number of failing vertices that still satisfies the ε
/// tolerance: `max { f : f/n <= eps }` under the *same* floating-point
/// comparison the exhaustive check uses, so budget-based early verdicts
/// are bit-identical to `eps_achieved <= eps`.
///
/// # Examples
///
/// ```
/// use obf_core::fastpath::fail_budget;
///
/// assert_eq!(fail_budget(4, 0.25), 1);
/// assert_eq!(fail_budget(4, 0.24), 0);
/// assert_eq!(fail_budget(0, 0.5), 0);
/// ```
pub fn fail_budget(n: usize, eps: f64) -> usize {
    if n == 0 {
        return 0;
    }
    let nf = n as f64;
    // f ↦ f/n is monotone in IEEE arithmetic, so nudge the estimate until
    // it is exactly the last passing integer.
    let mut b = ((eps * nf).floor().max(0.0) as usize).min(n);
    while b > 0 && (b as f64) / nf > eps {
        b -= 1;
    }
    while b < n && ((b + 1) as f64) / nf <= eps {
        b += 1;
    }
    b
}

/// The budgeted Definition 2 check (the early-exit ε accounting of the
/// σ-search fast path).
///
/// Sweeps the distinct-degree columns in `profile.sweep_order()`
/// (largest degree first) in batches of [`SWEEP_BATCH_COLUMNS`],
/// accumulating the failing-vertex count,
/// and stops as soon as the ε budget is provably exceeded — or, when
/// `need_exact` is false, provably met. With `need_exact` set, a
/// satisfying sweep always runs to completion so `eps_exact` can feed
/// Algorithm 2's best-trial selection bit-identically.
///
/// `adv.cap()` must cover `profile.max_degree()`.
pub fn run_budgeted(
    profile: &DegreeProfile,
    adv: &mut MemoizedAdversary,
    k: usize,
    eps: f64,
    need_exact: bool,
    par: &Parallelism,
) -> BudgetedCheck {
    assert_eq!(
        profile.num_vertices(),
        adv.num_vertices(),
        "vertex sets differ"
    );
    assert!(k >= 1, "k must be at least 1");
    assert!(
        adv.cap() >= profile.max_degree(),
        "adversary cap {} below max degree {}",
        adv.cap(),
        profile.max_degree()
    );
    let n = profile.num_vertices();
    let columns_total = profile.distinct().len();
    let exact = |failed: usize, evaluated: usize, support_only: usize| BudgetedCheck {
        satisfies: n == 0 || failed as f64 / n as f64 <= eps,
        eps_exact: Some(if n == 0 {
            0.0
        } else {
            failed as f64 / n as f64
        }),
        failed_at_least: failed,
        columns_evaluated: evaluated,
        columns_total,
        support_only_failures: support_only,
        early_exit: false,
    };
    if n == 0 {
        return exact(0, 0, 0);
    }
    if k == 1 {
        // The threshold log₂ 1 = 0 never exceeds the (clamped, hence
        // non-negative) column entropies: every column passes, exactly
        // and without a sweep (`columns_evaluated = 0` records the
        // shortcut; this is a fully resolved verdict, not an early exit).
        return exact(0, 0, 0);
    }
    let budget = fail_budget(n, eps);
    let threshold = (k as f64).log2();
    let mut failed = 0usize;
    let mut support_only = 0usize;
    // Zero-DP precheck: H(Y_ω) <= log₂|supp(Y_ω)| < log₂ k whenever the
    // support is smaller than k, so those columns fail without a row.
    let mut pending: Vec<usize> = Vec::new();
    let mut remaining = 0usize;
    for i in profile.sweep_order() {
        if adv.support_count(profile.distinct()[i]) < k {
            failed += profile.multiplicity()[i];
            support_only += 1;
        } else {
            pending.push(i);
            remaining += profile.multiplicity()[i];
        }
    }
    let mut evaluated = 0usize;
    loop {
        if remaining == 0 {
            return exact(failed, evaluated, support_only);
        }
        if failed > budget {
            return BudgetedCheck {
                satisfies: false,
                eps_exact: None,
                failed_at_least: failed,
                columns_evaluated: evaluated,
                columns_total,
                support_only_failures: support_only,
                early_exit: true,
            };
        }
        if !need_exact && failed + remaining <= budget {
            return BudgetedCheck {
                satisfies: true,
                eps_exact: None,
                failed_at_least: failed,
                columns_evaluated: evaluated,
                columns_total,
                support_only_failures: support_only,
                early_exit: true,
            };
        }
        let batch = &pending[evaluated..(evaluated + SWEEP_BATCH_COLUMNS).min(pending.len())];
        let omegas: Vec<usize> = batch.iter().map(|&i| profile.distinct()[i]).collect();
        let entropies = adv.entropies(&omegas, par);
        for (&i, &h) in batch.iter().zip(&entropies) {
            evaluated += 1;
            remaining -= profile.multiplicity()[i];
            // The same pass condition (and tolerance) as the exhaustive
            // check — bit-identical verdicts per column.
            if h < threshold - 1e-12 {
                failed += profile.multiplicity()[i];
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::adversary::{AdversaryTable, ObfuscationCheck};
    use obf_graph::Graph;

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
    fn memoized_entries_match_exhaustive_table() {
        let (_, ug) = paper_pair();
        let par = Parallelism::sequential();
        let table = AdversaryTable::build(&ug);
        let mut memo = MemoizedAdversary::new(&ug, 3, &par);
        for v in 0..4u32 {
            for omega in 0..=3usize {
                assert_eq!(
                    memo.x(v, omega, &par),
                    table.x(v, omega),
                    "v={v} omega={omega}"
                );
            }
        }
    }

    #[test]
    fn memoized_entropies_match_exhaustive_in_any_batching() {
        let (_, ug) = paper_pair();
        let par = Parallelism::sequential().with_chunk_size(1);
        let table = AdversaryTable::build(&ug);
        let omegas: Vec<usize> = (0..=3).collect();
        let full = table.entropies(&omegas, &par);
        // One batch.
        let mut memo = MemoizedAdversary::new(&ug, 3, &par);
        assert_eq!(memo.entropies(&omegas, &par), full);
        // Column-by-column, reversed.
        let mut memo = MemoizedAdversary::new(&ug, 3, &par);
        for (j, &w) in omegas.iter().enumerate().rev() {
            assert_eq!(memo.entropies(&[w], &par), vec![full[j]], "omega={w}");
        }
    }

    #[test]
    fn identical_rows_share_one_dp() {
        // A certain 4-cycle: all four vertices have the row [1.0, 1.0].
        let g = Graph::from_edges(4, &[(0, 1), (1, 2), (2, 3), (0, 3)]);
        let ug = UncertainGraph::from_certain(&g);
        let par = Parallelism::sequential();
        let mut memo = MemoizedAdversary::new(&ug, 2, &par);
        assert_eq!(memo.num_classes(), 1);
        let h = memo.entropies(&[2], &par);
        assert!((h[0] - 2.0).abs() < 1e-12); // uniform over 4 vertices
        assert_eq!(memo.dp_evaluations(), 1);
        assert_eq!(memo.rows_requested(), 4);
        assert_eq!(memo.dp_cache_hits(), 3);
    }

    #[test]
    fn support_counts_are_exact() {
        let (_, ug) = paper_pair();
        let par = Parallelism::sequential();
        let memo = MemoizedAdversary::new(&ug, 3, &par);
        let table = AdversaryTable::build(&ug);
        for omega in 0..=3usize {
            let truth = (0..4u32).filter(|&v| table.x(v, omega) > 0.0).count();
            assert_eq!(memo.support_count(omega), truth, "omega={omega}");
        }
    }

    #[test]
    fn fail_budget_matches_float_comparison() {
        for n in [1usize, 3, 4, 7, 100, 1000] {
            for eps in [0.0, 1e-4, 0.01, 0.1, 0.25, 1.0 / 3.0, 0.999] {
                let b = fail_budget(n, eps);
                assert!(b as f64 / n as f64 <= eps || b == 0, "n={n} eps={eps}");
                if b < n {
                    assert!((b + 1) as f64 / n as f64 > eps, "n={n} eps={eps}");
                }
            }
        }
    }

    #[test]
    fn budgeted_matches_exhaustive_on_paper_example() {
        let (g, ug) = paper_pair();
        let par = Parallelism::sequential();
        let profile = DegreeProfile::new(&g);
        let table = AdversaryTable::build(&ug);
        for k in 1..=4usize {
            for eps in [0.0, 0.2, 0.25, 0.5, 0.75] {
                let check = ObfuscationCheck::from_entropies(
                    &profile,
                    table.entropies(profile.distinct(), &par),
                    k,
                );
                for need_exact in [false, true] {
                    let mut memo = MemoizedAdversary::new(&ug, 3, &par);
                    let v = run_budgeted(&profile, &mut memo, k, eps, need_exact, &par);
                    assert_eq!(v.satisfies, check.satisfies(eps), "k={k} eps={eps}");
                    if let Some(e) = v.eps_exact {
                        assert_eq!(e, check.eps_achieved, "k={k} eps={eps}");
                        assert_eq!(v.failed_at_least, check.failed_vertices);
                    } else {
                        assert!(v.early_exit);
                    }
                }
            }
        }
    }

    #[test]
    fn support_precheck_can_resolve_without_any_dp() {
        // Star: the hub's degree-(n-1) column has support {hub} < k, and
        // eps = 0 tolerates no failures — verdict needs zero DP.
        let g = obf_graph::generators::star(8);
        let ug = UncertainGraph::from_certain(&g);
        let par = Parallelism::sequential();
        let profile = DegreeProfile::new(&g);
        let mut memo = MemoizedAdversary::new(&ug, 7, &par);
        let v = run_budgeted(&profile, &mut memo, 3, 0.0, true, &par);
        assert!(!v.satisfies);
        assert!(v.early_exit);
        assert_eq!(v.support_only_failures, 1);
        assert_eq!(v.columns_evaluated, 0);
        assert_eq!(memo.dp_evaluations(), 0);
        // The full check agrees.
        assert!(!ObfuscationCheck::run(&g, &ug, 3, &par).satisfies(0.0));
    }

    #[test]
    fn met_exit_skips_columns_when_exactness_not_needed() {
        // Certain 4-cycle: every column passes at k = 3 (crowd of 4), so
        // with eps = 0 the "provably met" exit fires after the support
        // precheck plus at most one batch.
        let g = Graph::from_edges(4, &[(0, 1), (1, 2), (2, 3), (0, 3)]);
        let ug = UncertainGraph::from_certain(&g);
        let par = Parallelism::sequential();
        let profile = DegreeProfile::new(&g);
        let mut memo = MemoizedAdversary::new(&ug, 2, &par);
        let v = run_budgeted(&profile, &mut memo, 3, 0.0, false, &par);
        assert!(v.satisfies);
        // Single distinct degree: the sweep resolves everything at once,
        // so the outcome is exact despite need_exact = false.
        assert_eq!(v.eps_exact, Some(0.0));
    }

    #[test]
    #[should_panic(expected = "vertex sets differ")]
    fn mismatched_vertex_sets_rejected() {
        let g = Graph::empty(3);
        let ug = UncertainGraph::new(2, vec![]).unwrap();
        let par = Parallelism::sequential();
        let mut memo = MemoizedAdversary::new(&ug, 0, &par);
        let _ = run_budgeted(&DegreeProfile::new(&g), &mut memo, 2, 0.1, true, &par);
    }
}
