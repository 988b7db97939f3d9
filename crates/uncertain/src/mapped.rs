//! Zero-copy snapshot serving: a v3 snapshot file viewed through
//! `mmap(2)`.
//!
//! A v3 file (see `crate::snapshot` and `docs/FORMATS.md` § "Snapshot
//! files") stores its CSR sections little-endian at page-aligned
//! offsets, so on a little-endian host the mapped bytes *are* the
//! `&[u64]`/`&[u32]`/`&[f64]` arrays — opening a snapshot touches the
//! header page plus the `offsets` and `targets` sections for the
//! structural scan, and everything else is faulted in lazily by the
//! page cache as queries read it. Load time stays ~flat as the graph
//! grows (measured in `BENCH_snapshot.json`), and N server replicas
//! mapping the same file share one physical copy of the pages.
//!
//! # Verification tiers
//!
//! The file holds the graph's one CSR (`offsets`/`targets`/`probs`),
//! and both tiers run the crate's one CSR validator (`crate::csr`) on
//! it — the same checks the heap decoder runs, reporting the same byte
//! offsets.
//!
//! [`MappedSnapshot::open`] performs the **structural** tier: header
//! checksum and section layout (O(1)), then the validator's structural
//! check — an O(n) `offsets` scan (monotone, spans exactly `[0, 2m]`)
//! and an O(m) `targets` scan (`< n`, no self-loop, exactly `m`
//! canonical entries). After it succeeds, no access through the view
//! can index out of bounds — a corrupted-but-structurally-sound file
//! can at worst return wrong *values*, never a panic.
//!
//! [`MappedSnapshot::open_verified`] (or [`MappedSnapshot::verify`])
//! adds the **content** tier: all three section checksums plus the
//! validator's content check (per-row strictly-ascending targets,
//! probabilities in `[0, 1]`, bit-exact mirror symmetry).
//! `snapshot_convert --verify` runs this tier; `obf_server`'s RELOAD
//! deliberately runs only the structural tier and trusts the producing
//! writer for content, which is what keeps reload cheap (the trade-off
//! is documented in `docs/OPERATIONS.md`).

use std::path::Path;

use crate::csr;
use crate::mmap::MmapFile;
use crate::snapshot::{SnapshotError, SnapshotMeta, V3Header};

/// A v3 snapshot served directly from a read-only file mapping.
///
/// The accessors hand out slices borrowed from the mapping; the value
/// is `Send + Sync`, so an `Arc<UncertainGraph>` wrapping it can be
/// shared across server threads exactly like a heap-built graph.
pub struct MappedSnapshot {
    map: MmapFile,
    header: V3Header,
}

impl MappedSnapshot {
    /// Maps `path` and runs the structural verification tier (header
    /// checksum, layout, offsets/targets scans) — see the module doc.
    ///
    /// Fails with [`SnapshotError::Io`] where `mmap(2)` is unavailable
    /// (non-Unix targets) and with [`SnapshotError::Invalid`] on
    /// big-endian hosts, where the zero-copy view cannot exist; callers
    /// should fall back to the heap decoder in both cases, as
    /// `obf_server::load_published_graph_with_source` does.
    pub fn open<P: AsRef<Path>>(path: P) -> Result<Self, SnapshotError> {
        if cfg!(target_endian = "big") {
            return Err(SnapshotError::Invalid(
                "big-endian host: the little-endian zero-copy view is unavailable, \
                 use the heap decoder"
                    .into(),
            ));
        }
        let map = MmapFile::open(path)?;
        let header = V3Header::parse(map.bytes())?;
        let this = Self { map, header };
        let (n, m) = (header.n, header.m);
        csr::check_structure(n, m, this.offsets(), this.targets(), this.probs())
            .map_err(|e| header.invalid(&e))?;
        Ok(this)
    }

    /// [`MappedSnapshot::open`] followed by [`MappedSnapshot::verify`].
    pub fn open_verified<P: AsRef<Path>>(path: P) -> Result<Self, SnapshotError> {
        let this = Self::open(path)?;
        this.verify()?;
        Ok(this)
    }

    /// The content tier: section checksums plus the validator's content
    /// check. O(n + m log d) and touches every page — run it at
    /// convert/audit time, not per reload.
    pub fn verify(&self) -> Result<(), SnapshotError> {
        self.header.verify_sections(self.map.bytes())?;
        csr::check_content(self.header.n, self.offsets(), self.targets(), self.probs())
            .map_err(|e| self.header.invalid(&e))
    }

    /// Number of vertices.
    #[inline]
    pub fn num_vertices(&self) -> usize {
        self.header.n
    }

    /// Number of candidate pairs.
    #[inline]
    pub fn num_candidates(&self) -> usize {
        self.header.m
    }

    /// Release metadata from the header.
    #[inline]
    pub fn meta(&self) -> SnapshotMeta {
        self.header.meta
    }

    /// The stored (header) checksum — the value an epoch-chained child
    /// records as its parent checksum.
    #[inline]
    pub fn header_checksum(&self) -> u64 {
        self.header.header_checksum
    }

    /// Total file length in bytes.
    #[inline]
    pub fn file_len(&self) -> usize {
        self.header.file_len
    }

    /// Casts a section of the mapping to a typed slice.
    ///
    /// SAFETY pre-conditions, all established at `open`: the extent is
    /// in bounds (`V3Header::parse` checked the layout against the file
    /// length), the start is 4096-aligned within a page-aligned mapping
    /// (so aligned for any `T` below), the mapping is immutable for
    /// `self`'s lifetime, and `T` is a plain-old-data type for which
    /// every bit pattern is valid (`u64`/`u32`/`f64`).
    #[inline]
    fn section<T>(&self, start: usize, count: usize) -> &[T] {
        let bytes = self.map.bytes();
        debug_assert!(start + count * std::mem::size_of::<T>() <= bytes.len());
        debug_assert_eq!(start % std::mem::align_of::<T>(), 0);
        // SAFETY: the doc-comment pre-conditions above — in-bounds,
        // aligned, immutable mapping, bit-valid POD `T` — hold for
        // every caller, all of which pass header-validated extents.
        unsafe { std::slice::from_raw_parts(bytes.as_ptr().add(start) as *const T, count) }
    }

    /// The CSR offsets array (`n + 1` entries).
    #[inline]
    pub fn offsets(&self) -> &[u64] {
        self.section(self.header.offsets_off, self.header.n + 1)
    }

    /// The CSR targets array (`2m` entries).
    #[inline]
    pub fn targets(&self) -> &[u32] {
        self.section(self.header.targets_off, 2 * self.header.m)
    }

    /// The CSR probabilities array (`2m` entries).
    #[inline]
    pub fn probs(&self) -> &[f64] {
        self.section(self.header.probs_off, 2 * self.header.m)
    }
}

impl std::fmt::Debug for MappedSnapshot {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("MappedSnapshot")
            .field("n", &self.header.n)
            .field("m", &self.header.m)
            .field("file_len", &self.header.file_len)
            .field("meta", &self.header.meta)
            .finish_non_exhaustive()
    }
}

#[cfg(all(test, unix, target_endian = "little"))]
mod tests {
    use super::*;
    use crate::snapshot::{save_snapshot, snapshot_bytes};
    use crate::UncertainGraph;

    fn figure1b() -> UncertainGraph {
        UncertainGraph::new(
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
        .unwrap()
    }

    fn tmp(name: &str) -> std::path::PathBuf {
        let dir = std::env::temp_dir().join("obfugraph_mapped_test");
        std::fs::create_dir_all(&dir).unwrap();
        dir.join(name)
    }

    #[test]
    fn mapped_view_matches_heap_arrays() {
        let g = figure1b();
        let meta = SnapshotMeta {
            epoch: 4,
            parent_checksum: 77,
        };
        let path = tmp("view.snap");
        let checksum = save_snapshot(&g, meta, &path).unwrap();
        let snap = MappedSnapshot::open_verified(&path).unwrap();
        assert_eq!(snap.num_vertices(), 4);
        assert_eq!(snap.num_candidates(), 6);
        assert_eq!(snap.meta(), meta);
        assert_eq!(snap.header_checksum(), checksum);
        assert_eq!(snap.offsets(), &[0, 3, 6, 9, 12]);
        for v in 0..4u32 {
            let (s, e) = (
                snap.offsets()[v as usize] as usize,
                snap.offsets()[v as usize + 1] as usize,
            );
            assert_eq!(&snap.targets()[s..e], g.incident_targets(v));
            assert_eq!(&snap.probs()[s..e], g.incident_probs(v));
        }
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn overwriting_a_mapped_file_keeps_the_old_mapping_readable() {
        // A 20k-vertex path maps to several hundred KiB; the 3-vertex
        // replacement fits in three pages. Had the writer truncated the
        // file in place, reading the old mapping's tail would SIGBUS.
        let n = 20_000u32;
        let big =
            UncertainGraph::new(n as usize, (1..n).map(|v| (v - 1, v, 0.5)).collect()).unwrap();
        let path = tmp("overwrite.snap");
        save_snapshot(&big, SnapshotMeta::default(), &path).unwrap();
        let snap = MappedSnapshot::open(&path).unwrap();
        let small = UncertainGraph::new(3, vec![(0, 1, 0.25), (1, 2, 0.75)]).unwrap();
        save_snapshot(&small, SnapshotMeta::default(), &path).unwrap();
        assert_eq!(snap.num_vertices(), n as usize);
        assert_eq!(snap.offsets()[n as usize], 2 * u64::from(n - 1));
        assert!(snap.probs().iter().all(|&p| p == 0.5));
        assert!(snap.verify().is_ok());
        let reopened = MappedSnapshot::open(&path).unwrap();
        assert_eq!(UncertainGraph::from_mapped(reopened), small);
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn probability_out_of_range_caught_by_verify() {
        let g = UncertainGraph::new(2, vec![(0, 1, 0.5)]).unwrap();
        let mut bytes = snapshot_bytes(&g, SnapshotMeta::default());
        let p_off = u64::from_le_bytes(bytes[64..72].try_into().unwrap()) as usize;
        bytes[p_off..p_off + 8].copy_from_slice(&2.0f64.to_le_bytes());
        bytes[p_off + 8..p_off + 16].copy_from_slice(&2.0f64.to_le_bytes());
        let path = tmp("badprob.snap");
        std::fs::write(&path, &bytes).unwrap();
        // Structural open succeeds; both verify paths must fail (the
        // section checksum fires first).
        let snap = MappedSnapshot::open(&path).unwrap();
        assert!(matches!(
            snap.verify(),
            Err(SnapshotError::ChecksumMismatch { .. })
        ));
        assert!(MappedSnapshot::open_verified(&path).is_err());
        std::fs::remove_file(&path).ok();
    }
}
