//! A shared memo of per-world statistics, keyed by epoch.
//!
//! A query server answering Monte-Carlo statistics re-visits the same
//! worlds constantly: every `STAT` request over `(master_seed, r)`
//! touches worlds `0..r` of the same deterministic stream. The cache
//! keys each world by `(epoch, master_seed, index)` — the epoch names
//! the published graph the world was drawn from, the other two are the
//! exact arguments of [`sample_indexed_world`] — and keeps only the
//! world's [`WorldStats`]: the five [`WorldStat`] values, computed once
//! when the world is sampled. The sampled graph is dropped right after,
//! so an entry is 40 bytes instead of a whole graph, and a warm `STAT`
//! is `r` lookups. Answers stay bit-identical at any thread count and
//! any cache size: a hit returns the values a miss would have computed,
//! by construction.
//!
//! [`WorldCache::swap_graph`] supports live reload of an evolved
//! release: it atomically replaces the published [`Release`], bumps the
//! epoch, and purges every stale-epoch entry — a world sampled from
//! release `t` can never answer a query against release `t + 1`.
//! In-flight queries that pinned a [`Release`] before the swap keep
//! sampling correct old-epoch worlds; their statistics just stop being
//! retained.
//!
//! The cache's counters are `obf_cache_*` series in the [`Registry`]
//! its owner passes to [`WorldCache::new`]; a server renders them
//! through `METRICS`, the only way to read them.

use std::collections::HashMap;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, OnceLock, RwLock};

use obf_graph::degstats::degree_histogram;
use obf_graph::{global_clustering_coefficient, Graph};
use obf_obs::{Counter, Gauge, Histogram, Registry, Span};

use crate::expected::{expected_average_degree, expected_degree_variance, expected_num_edges};
use crate::graph::UncertainGraph;
use crate::sampling::sample_indexed_world;
use crate::triangles::expected_triangles;

/// Statistics estimated by sampling possible worlds (the server's
/// `STAT` verb, the Eq. 9 mean).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum WorldStat {
    NumEdges,
    AvgDegree,
    MaxDegree,
    DegreeVariance,
    Clustering,
}

impl WorldStat {
    pub fn parse(s: &str) -> Option<Self> {
        Some(match s {
            "num_edges" => WorldStat::NumEdges,
            "avg_degree" => WorldStat::AvgDegree,
            "max_degree" => WorldStat::MaxDegree,
            "degree_variance" => WorldStat::DegreeVariance,
            "clustering" => WorldStat::Clustering,
            _ => return None,
        })
    }

    /// All sampled statistics (loadgen's traffic mix).
    pub const ALL: [WorldStat; 5] = [
        WorldStat::NumEdges,
        WorldStat::AvgDegree,
        WorldStat::MaxDegree,
        WorldStat::DegreeVariance,
        WorldStat::Clustering,
    ];

    pub fn name(&self) -> &'static str {
        match self {
            WorldStat::NumEdges => "num_edges",
            WorldStat::AvgDegree => "avg_degree",
            WorldStat::MaxDegree => "max_degree",
            WorldStat::DegreeVariance => "degree_variance",
            WorldStat::Clustering => "clustering",
        }
    }
}

/// One possible world's value of every [`WorldStat`] — what the cache
/// retains per world instead of the world itself.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct WorldStats {
    /// `S_NE`.
    pub num_edges: f64,
    /// `S_AD`.
    pub average_degree: f64,
    /// `S_MD`.
    pub max_degree: f64,
    /// `S_DV`, the population variance of the degrees.
    pub degree_variance: f64,
    /// `S_CC`, the global clustering coefficient.
    pub clustering: f64,
}

const _: () = assert!(std::mem::size_of::<WorldStats>() == 40);

impl WorldStats {
    /// Computes all five statistics of `world`. Maximum degree and
    /// variance come from one degree histogram, so the values are
    /// bit-equal to `Graph::max_degree` and
    /// `DegreeStats::of(world).degree_variance` without the power-law
    /// fit the latter also runs.
    pub fn of(world: &Graph) -> Self {
        let hist = degree_histogram(world);
        Self {
            num_edges: world.num_edges() as f64,
            average_degree: world.average_degree(),
            max_degree: hist.max_value().unwrap_or(0) as f64,
            degree_variance: hist.variance(),
            clustering: global_clustering_coefficient(world),
        }
    }

    /// The value of one statistic.
    pub fn get(&self, stat: WorldStat) -> f64 {
        match stat {
            WorldStat::NumEdges => self.num_edges,
            WorldStat::AvgDegree => self.average_degree,
            WorldStat::MaxDegree => self.max_degree,
            WorldStat::DegreeVariance => self.degree_variance,
            WorldStat::Clustering => self.clustering,
        }
    }
}

/// A published release as one pinnable unit: its epoch, its graph, and
/// what is derived from the graph once per release.
///
/// The derived values — the degree ceiling and the exact whole-graph
/// answers (probability mass and the Section 6.2 expectations) — are
/// each computed on first use by the one function that defines them and
/// then read from a `OnceLock`, so building or swapping in a release
/// stays O(1) and every later read returns the same bits. They need no
/// invalidation: a new release is a new `Release`, and readers pinned
/// to the old one keep the old values.
#[derive(Debug)]
pub struct Release {
    pub epoch: u64,
    pub graph: Arc<UncertainGraph>,
    degree_ceiling: OnceLock<usize>,
    probability_mass: OnceLock<f64>,
    expected_num_edges: OnceLock<f64>,
    expected_average_degree: OnceLock<f64>,
    expected_degree_variance: OnceLock<f64>,
    expected_triangles: OnceLock<f64>,
}

impl Release {
    fn new(epoch: u64, graph: Arc<UncertainGraph>) -> Self {
        Self {
            epoch,
            graph,
            degree_ceiling: OnceLock::new(),
            probability_mass: OnceLock::new(),
            expected_num_edges: OnceLock::new(),
            expected_average_degree: OnceLock::new(),
            expected_degree_variance: OnceLock::new(),
            expected_triangles: OnceLock::new(),
        }
    }

    /// `f(graph)`, computed on the first call for this `cell` and read
    /// from it afterwards.
    fn once(&self, cell: &OnceLock<f64>, f: fn(&UncertainGraph) -> f64) -> f64 {
        *cell.get_or_init(|| f(&self.graph))
    }

    /// [`UncertainGraph::total_probability_mass`], once per release.
    pub fn probability_mass(&self) -> f64 {
        self.once(
            &self.probability_mass,
            UncertainGraph::total_probability_mass,
        )
    }

    /// [`expected_num_edges`], once per release.
    pub fn expected_num_edges(&self) -> f64 {
        self.once(&self.expected_num_edges, expected_num_edges)
    }

    /// [`expected_average_degree`], once per release.
    pub fn expected_average_degree(&self) -> f64 {
        self.once(&self.expected_average_degree, expected_average_degree)
    }

    /// [`expected_degree_variance`], once per release.
    pub fn expected_degree_variance(&self) -> f64 {
        self.once(&self.expected_degree_variance, expected_degree_variance)
    }

    /// [`expected_triangles`], once per release (its O(Σ deg²) sweep is
    /// the costliest of the five).
    pub fn expected_triangles(&self) -> f64 {
        self.once(&self.expected_triangles, expected_triangles)
    }

    /// Largest candidate count incident to any vertex: no possible world
    /// of this release has a higher degree. Scanned (O(n)) on first use
    /// rather than at swap time, so a reload stays O(1); later calls
    /// read the stored value.
    pub fn degree_ceiling(&self) -> usize {
        *self.degree_ceiling.get_or_init(|| {
            (0..self.graph.num_vertices() as u32)
                .map(|v| self.graph.incident_count(v))
                .max()
                .unwrap_or(0)
        })
    }
}

/// A memo of [`WorldStats`] keyed by `(epoch, master_seed, index)`.
///
/// Reads take a shared lock; a miss samples the world and computes its
/// statistics *outside* any lock (two racing misses for the same key do
/// duplicate work but produce the same values — determinism is never at
/// stake) and then inserts under the write lock. When full, new entries
/// are simply not retained: bounded memory, no eviction scan, and the
/// determinism guarantee is unaffected because a miss always recomputes
/// the identical values.
///
/// Hits, misses, invalidations and evictions count into the
/// `obf_cache_*_total` series of the registry given to
/// [`WorldCache::new`]; the `obf_cache_resident` gauge equals the memo's
/// length whenever no lookup is running.
///
/// # Examples
///
/// ```
/// use std::sync::Arc;
/// use obf_obs::metrics::text_value;
/// use obf_obs::Registry;
/// use obf_uncertain::{UncertainGraph, WorldCache, WorldStat};
///
/// let registry = Registry::new();
/// let g = Arc::new(UncertainGraph::new(3, vec![(0, 1, 0.5), (1, 2, 0.5)]).unwrap());
/// let cache = WorldCache::new(g, 64, &registry);
/// let release = cache.current();
/// let a = cache.get_or_sample_pinned(&release, 7, 0);
/// let b = cache.get_or_sample_pinned(&release, 7, 0);
/// assert_eq!(a, b); // second lookup is a hit
/// assert_eq!(text_value(&registry.render_text(), "obf_cache_hits_total"), Some(1));
/// assert!(a.get(WorldStat::NumEdges) <= 2.0);
///
/// // Swapping in a new release invalidates the resident entries.
/// let g2 = Arc::new(UncertainGraph::new(3, vec![(0, 1, 1.0)]).unwrap());
/// assert_eq!(cache.swap_graph(g2).epoch, 1);
/// let text = registry.render_text();
/// assert_eq!(text_value(&text, "obf_cache_invalidations_total"), Some(1));
/// assert_eq!(text_value(&text, "obf_cache_resident"), Some(0));
/// ```
#[derive(Debug)]
pub struct WorldCache {
    /// The current release, swapped as one unit so a reader can pin a
    /// consistent epoch, graph and degree ceiling.
    current: RwLock<Arc<Release>>,
    /// Lock-free mirror of the current epoch, for the retention guard
    /// (avoids nesting the `current` lock inside the `worlds` lock).
    epoch: AtomicU64,
    capacity: usize,
    worlds: RwLock<HashMap<(u64, u64, u64), WorldStats>>,
    hits: Arc<Counter>,
    misses: Arc<Counter>,
    invalidations: Arc<Counter>,
    evictions: Arc<Counter>,
    resident: Arc<Gauge>,
    epoch_gauge: Arc<Gauge>,
    sample_micros: Arc<Histogram>,
}

impl WorldCache {
    /// Creates a cache over the published graph (epoch 0) holding at
    /// most `capacity` worlds' statistics, with its counters registered
    /// in `registry` under the `obf_cache_*` names, so an embedding
    /// server serves them from its one `METRICS` dump.
    pub fn new(graph: Arc<UncertainGraph>, capacity: usize, registry: &Registry) -> Self {
        registry.gauge("obf_cache_capacity").set(capacity as u64);
        Self {
            current: RwLock::new(Arc::new(Release::new(0, graph))),
            epoch: AtomicU64::new(0),
            capacity,
            worlds: RwLock::new(HashMap::new()),
            hits: registry.counter("obf_cache_hits_total"),
            misses: registry.counter("obf_cache_misses_total"),
            invalidations: registry.counter("obf_cache_invalidations_total"),
            evictions: registry.counter("obf_cache_evictions_total"),
            resident: registry.gauge("obf_cache_resident"),
            epoch_gauge: registry.gauge("obf_cache_epoch"),
            sample_micros: registry.histogram("obf_cache_sample_micros"),
        }
    }

    /// The published graph the worlds are currently drawn from.
    pub fn graph(&self) -> Arc<UncertainGraph> {
        Arc::clone(&self.current().graph)
    }

    /// The current epoch.
    pub fn epoch(&self) -> u64 {
        self.epoch.load(Ordering::SeqCst)
    }

    /// Pins the current [`Release`]. A request that performs several
    /// lookups pins once and passes the release to
    /// [`WorldCache::get_or_sample_pinned`], so a concurrent
    /// [`WorldCache::swap_graph`] cannot split it across releases.
    pub fn current(&self) -> Arc<Release> {
        Arc::clone(&self.current.read().expect("world cache poisoned"))
    }

    /// Atomically replaces the published graph, bumping the epoch and
    /// purging every entry sampled from older releases. Returns the new
    /// release. Pinned readers keep their old [`Release`] and finish on
    /// it.
    pub fn swap_graph(&self, graph: Arc<UncertainGraph>) -> Arc<Release> {
        let mut current = self.current.write().expect("world cache poisoned");
        let new_epoch = current.epoch + 1;
        let release = Arc::new(Release::new(new_epoch, graph));
        *current = Arc::clone(&release);
        self.epoch.store(new_epoch, Ordering::SeqCst);
        // Purge while still holding the `current` write lock so no new
        // lookup can interleave between the swap and the purge (the
        // lock order current → worlds is used everywhere).
        let mut map = self.worlds.write().expect("world cache poisoned");
        let before = map.len();
        map.retain(|k, _| k.0 == new_epoch);
        self.invalidations.add((before - map.len()) as u64);
        self.resident.set(map.len() as u64);
        self.epoch_gauge.set(new_epoch);
        release
    }

    /// Statistics of world `index` of the `master_seed` stream over the
    /// pinned `release` — served from the memo when resident, sampled
    /// and computed (and retained, capacity permitting) otherwise.
    /// Always equal to
    /// [`WorldStats::of`]`(&`[`sample_indexed_world`]`(graph, master_seed, index))`.
    /// If the pinned epoch went stale mid-request the values are still
    /// computed correctly from the pinned graph — they are just not
    /// retained (counted as an eviction).
    pub fn get_or_sample_pinned(
        &self,
        release: &Release,
        master_seed: u64,
        index: usize,
    ) -> WorldStats {
        let key = (release.epoch, master_seed, index as u64);
        if let Some(&stats) = self.worlds.read().expect("world cache poisoned").get(&key) {
            self.hits.inc();
            return stats;
        }
        self.misses.inc();
        // The span observes sampling plus the five statistics; both are
        // pure functions of (graph, master_seed, index).
        let span = Span::start();
        let stats = WorldStats::of(&sample_indexed_world(&release.graph, master_seed, index));
        self.sample_micros.record(span.finish());
        let mut map = self.worlds.write().expect("world cache poisoned");
        if map.contains_key(&key) {
            // A racing miss inserted the identical values first.
            return stats;
        }
        // Retention guard: never retain statistics for a graph that is
        // no longer current — the purge in `swap_graph` must stay
        // complete.
        if self.epoch.load(Ordering::SeqCst) == release.epoch && map.len() < self.capacity {
            map.insert(key, stats);
            self.resident.set(map.len() as u64);
        } else {
            self.evictions.inc();
        }
        stats
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use obf_obs::metrics::text_value;

    fn graph() -> Arc<UncertainGraph> {
        Arc::new(
            UncertainGraph::new(5, vec![(0, 1, 0.5), (1, 2, 0.7), (2, 3, 0.2), (3, 4, 0.9)])
                .unwrap(),
        )
    }

    /// A cache over `graph()` and the registry its counters count into.
    fn cache(capacity: usize) -> (WorldCache, Registry) {
        let registry = Registry::new();
        (WorldCache::new(graph(), capacity, &registry), registry)
    }

    /// The current values of the named `obf_cache_*` series.
    fn read<const N: usize>(registry: &Registry, names: [&str; N]) -> [u64; N] {
        let text = registry.render_text();
        names.map(|name| text_value(&text, &format!("obf_cache_{name}")).expect(name))
    }

    /// The statistics of an out-of-band resample of world `index`.
    fn resampled(g: &UncertainGraph, seed: u64, index: usize) -> WorldStats {
        WorldStats::of(&sample_indexed_world(g, seed, index))
    }

    #[test]
    fn hit_returns_identical_stats() {
        let (c, r) = cache(8);
        let pin = c.current();
        let first = c.get_or_sample_pinned(&pin, 42, 3);
        let again = c.get_or_sample_pinned(&pin, 42, 3);
        assert_eq!(first, again);
        assert_eq!(first, resampled(&c.graph(), 42, 3));
        assert_eq!(
            read(&r, ["hits_total", "misses_total", "resident"]),
            [1, 1, 1]
        );
    }

    #[test]
    fn distinct_keys_are_distinct_entries() {
        let (c, r) = cache(8);
        let pin = c.current();
        for (seed, index) in [(1, 0), (2, 0), (1, 1)] {
            assert_eq!(
                c.get_or_sample_pinned(&pin, seed, index),
                resampled(&c.graph(), seed, index)
            );
        }
        assert_eq!(
            read(&r, ["hits_total", "misses_total", "resident"]),
            [0, 3, 3]
        );
    }

    #[test]
    fn capacity_bounds_residency_without_breaking_answers() {
        let (c, r) = cache(2);
        let pin = c.current();
        for i in 0..10 {
            assert_eq!(
                c.get_or_sample_pinned(&pin, 9, i),
                resampled(&c.graph(), 9, i)
            );
        }
        assert_eq!(
            read(&r, ["resident", "capacity", "evictions_total"]),
            [2, 2, 8]
        );
        // Unretained worlds still answer correctly (and count as misses).
        assert_eq!(
            c.get_or_sample_pinned(&pin, 9, 7),
            resampled(&c.graph(), 9, 7)
        );
        assert_eq!(read(&r, ["misses_total"]), [11]);
    }

    #[test]
    fn zero_capacity_recomputes_every_lookup() {
        let (c, r) = cache(0);
        let pin = c.current();
        let a = c.get_or_sample_pinned(&pin, 4, 2);
        let b = c.get_or_sample_pinned(&pin, 4, 2);
        assert_eq!(a, b);
        assert_eq!(
            read(
                &r,
                ["hits_total", "misses_total", "resident", "evictions_total"]
            ),
            [0, 2, 0, 2]
        );
    }

    #[test]
    fn swap_invalidates_stale_entries() {
        let (c, r) = cache(64);
        let pin = c.current();
        for i in 0..6 {
            c.get_or_sample_pinned(&pin, 3, i);
        }
        assert_eq!(read(&r, ["resident"]), [6]);

        let g2 = Arc::new(UncertainGraph::new(5, vec![(0, 1, 1.0), (2, 4, 1.0)]).unwrap());
        assert_eq!(c.swap_graph(Arc::clone(&g2)).epoch, 1);
        assert_eq!(
            read(&r, ["epoch", "invalidations_total", "resident"]),
            [1, 6, 0]
        );

        // The same (seed, index) now resolves against the new release —
        // never the stale entry. Both candidates are certain, so every
        // world of g2 has exactly two edges.
        let pin = c.current();
        assert_eq!(pin.epoch, 1);
        let fresh = c.get_or_sample_pinned(&pin, 3, 0);
        assert_eq!(fresh, resampled(&g2, 3, 0));
        assert_eq!(fresh.num_edges.to_bits(), 2.0f64.to_bits());
        assert_eq!(read(&r, ["misses_total"]), [7]);
    }

    #[test]
    fn pinned_lookups_survive_a_swap_without_polluting_the_memo() {
        let (c, r) = cache(64);
        let old = c.current();
        // Swap happens while a request is mid-flight on the old pin.
        let g2 = Arc::new(UncertainGraph::new(5, vec![(0, 1, 1.0)]).unwrap());
        c.swap_graph(g2);
        // The pinned request still answers from the old graph...
        let stats = c.get_or_sample_pinned(&old, 11, 4);
        assert_eq!(stats, resampled(&old.graph, 11, 4));
        // ...but its statistics are not retained for the new epoch.
        assert_eq!(read(&r, ["resident", "evictions_total"]), [0, 1]);
    }

    #[test]
    fn release_carries_its_degree_ceiling() {
        let (c, _r) = cache(4);
        // graph() is a path: every inner vertex has two candidates.
        assert_eq!(c.current().degree_ceiling(), 2);
        let star = Arc::new(UncertainGraph::new(6, (1..6).map(|v| (0, v, 0.5)).collect()).unwrap());
        c.swap_graph(star);
        assert_eq!(c.current().degree_ceiling(), 5);
        c.swap_graph(Arc::new(UncertainGraph::new(0, vec![]).unwrap()));
        assert_eq!(c.current().degree_ceiling(), 0);
    }

    #[test]
    fn release_answers_match_the_direct_functions_and_follow_a_swap() {
        let (c, _r) = cache(4);
        let check = |r: &Release, g: &UncertainGraph| {
            let pairs = [
                (r.probability_mass(), g.total_probability_mass()),
                (r.expected_num_edges(), expected_num_edges(g)),
                (r.expected_average_degree(), expected_average_degree(g)),
                (r.expected_degree_variance(), expected_degree_variance(g)),
                (r.expected_triangles(), expected_triangles(g)),
            ];
            for (memo, direct) in pairs {
                assert_eq!(memo.to_bits(), direct.to_bits());
            }
        };
        let old = c.current();
        check(&old, &graph());
        check(&old, &graph()); // second read comes from the locks
        let triangle = Arc::new(
            UncertainGraph::new(3, vec![(0, 1, 0.5), (1, 2, 0.25), (0, 2, 0.75)]).unwrap(),
        );
        c.swap_graph(Arc::clone(&triangle));
        check(&c.current(), &triangle);
        // The pinned old release keeps its own values.
        check(&old, &graph());
        assert_ne!(old.expected_triangles(), c.current().expected_triangles());
    }

    #[test]
    fn concurrent_lookups_agree() {
        let (c, r) = cache(64);
        let c = Arc::new(c);
        let handles: Vec<_> = (0..4)
            .map(|_| {
                let c = Arc::clone(&c);
                std::thread::spawn(move || {
                    let pin = c.current();
                    (0..16)
                        .map(|i| c.get_or_sample_pinned(&pin, 5, i))
                        .collect::<Vec<_>>()
                })
            })
            .collect();
        let results: Vec<Vec<WorldStats>> =
            handles.into_iter().map(|h| h.join().unwrap()).collect();
        for r in &results[1..] {
            assert_eq!(r, &results[0]);
        }
        let [hits, misses, resident] = read(&r, ["hits_total", "misses_total", "resident"]);
        assert_eq!(hits + misses, 64);
        assert_eq!(resident, 16);
    }
}
