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
//! [`MappedSnapshot::open_trusted`] is the **O(1)** tier: header
//! checksum and layout only, no section byte touched — open time is
//! independent of graph size. It is for files whose content is trusted
//! (just written by this process, or verified out-of-band); see its
//! docs for the exact contract.
//!
//! [`MappedSnapshot::open`] performs the **structural** tier: header
//! checksum (O(1)), section layout/alignment, an O(n) `offsets` scan
//! (monotone, spans exactly `[0, 2m]`) and an O(m) `targets` range scan
//! (`< n`, no self-loop). After it succeeds, no access through the view
//! can index out of bounds — a corrupted-but-structurally-sound file
//! can at worst return wrong *values*, never a panic.
//!
//! [`MappedSnapshot::open_verified`] (or [`MappedSnapshot::verify`])
//! adds the **content** tier: all three section checksums plus the full
//! canonical-graph invariants (per-row strictly-ascending targets,
//! probabilities in `[0, 1]`, bit-exact mirror symmetry) — everything
//! the heap decoder checks. `snapshot_convert --verify` runs this tier;
//! `obf_server`'s RELOAD deliberately runs only the structural tier and
//! trusts the producing writer for content, which is what keeps reload
//! ~constant-time (the trade-off is documented in `docs/OPERATIONS.md`).

use std::path::Path;

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
        let this = Self::open_trusted(path)?;
        this.verify_structure()?;
        Ok(this)
    }

    /// [`MappedSnapshot::open`] followed by [`MappedSnapshot::verify`].
    pub fn open_verified<P: AsRef<Path>>(path: P) -> Result<Self, SnapshotError> {
        let this = Self::open(path)?;
        this.verify()?;
        Ok(this)
    }

    /// The O(1) tier: maps the file and validates only the header page
    /// — magic, version, header checksum, section layout and file
    /// length. No section byte is touched, so open time is independent
    /// of graph size (the page cache faults data in as queries read
    /// it).
    ///
    /// The header checksum transitively commits to the section
    /// checksums, but the sections themselves are **trusted**, not
    /// re-hashed: use this tier only for files this process just wrote
    /// or that were verified out-of-band (`snapshot_convert --verify`).
    /// Memory safety never depends on section content — the graph view
    /// clamps row bounds and the candidate scan is guarded — but a file
    /// whose sections rotted under an intact header can return wrong
    /// values or out-of-range vertex ids that panic downstream
    /// consumers. [`MappedSnapshot::open`] (the structural tier) is the
    /// floor for untrusted input.
    pub fn open_trusted<P: AsRef<Path>>(path: P) -> Result<Self, SnapshotError> {
        if cfg!(target_endian = "big") {
            return Err(SnapshotError::Invalid(
                "big-endian host: the little-endian zero-copy view is unavailable, \
                 use the heap decoder"
                    .into(),
            ));
        }
        let map = MmapFile::open(path)?;
        let header = V3Header::parse(map.bytes())?;
        Ok(Self { map, header })
    }

    /// The structural tier: after this, every `offsets` entry is a
    /// valid index into the incidence arrays and every target a valid
    /// vertex, so the view can never cause an out-of-bounds access.
    fn verify_structure(&self) -> Result<(), SnapshotError> {
        let (n, m) = (self.header.n, self.header.m);
        let incidents = 2 * m;
        let offsets = self.offsets();
        if offsets[0] != 0 || offsets[n] != incidents as u64 {
            return Err(SnapshotError::Invalid(format!(
                "CSR offsets span [{}, {}], expected [0, {incidents}] \
                 (offsets section at byte offset {})",
                offsets[0], offsets[n], self.header.offsets_off
            )));
        }
        if let Some(v) = offsets.windows(2).position(|w| w[0] > w[1]) {
            return Err(SnapshotError::Invalid(format!(
                "CSR offsets not monotone at row {v} (byte offset {})",
                self.header.offsets_off + 8 * v
            )));
        }
        let targets = self.targets();
        let mut canonical = 0usize;
        for (row, w) in offsets.windows(2).enumerate() {
            for (i, &raw) in targets
                .iter()
                .enumerate()
                .take(w[1] as usize)
                .skip(w[0] as usize)
            {
                let t = raw as usize;
                if t >= n || t == row {
                    return Err(SnapshotError::Invalid(format!(
                        "row {row} target {t} out of range (targets section byte offset {})",
                        self.header.targets_off + 4 * i
                    )));
                }
                if t > row {
                    canonical += 1;
                }
            }
        }
        // The candidate-pair scan iterator terminates after exactly m
        // canonical entries; that count being right is a structural
        // property, not just a content one.
        if canonical != m {
            return Err(SnapshotError::Invalid(format!(
                "found {canonical} canonical (target > row) entries, header declared {m}"
            )));
        }
        Ok(())
    }

    /// The content tier: section checksums plus the full canonical
    /// invariants the heap decoder enforces. O(n + m log d) and touches
    /// every page — run it at convert/audit time, not per reload.
    pub fn verify(&self) -> Result<(), SnapshotError> {
        self.header.verify_sections(self.map.bytes())?;
        let offsets = self.offsets();
        let targets = self.targets();
        let probs = self.probs();
        let mut canonical = 0usize;
        for row in 0..self.header.n {
            let (start, end) = (offsets[row] as usize, offsets[row + 1] as usize);
            let row_t = &targets[start..end];
            if let Some(i) = row_t.windows(2).position(|w| w[0] >= w[1]) {
                return Err(SnapshotError::Invalid(format!(
                    "row {row} targets not strictly ascending at byte offset {}",
                    self.header.targets_off + 4 * (start + i)
                )));
            }
            for i in start..end {
                let (t, p) = (targets[i], probs[i]);
                if !p.is_finite() || !(0.0..=1.0).contains(&p) {
                    return Err(SnapshotError::Invalid(format!(
                        "probability {p} out of [0,1] at byte offset {}",
                        self.header.probs_off + 8 * i
                    )));
                }
                if t as usize > row {
                    canonical += 1;
                }
                // Bit-exact mirror: the (t, row) entry must exist with
                // the same probability bits. Rows are ascending (just
                // checked), so binary search is sound.
                let (ms, me) = (
                    offsets[t as usize] as usize,
                    offsets[t as usize + 1] as usize,
                );
                let mirror = targets[ms..me]
                    .binary_search(&(row as u32))
                    .map(|j| probs[ms + j]);
                if mirror.map(f64::to_bits) != Ok(p.to_bits()) {
                    return Err(SnapshotError::Invalid(format!(
                        "row {row} entry ({t}, {p}) has no bit-identical mirror in row {t} \
                         (targets section byte offset {})",
                        self.header.targets_off + 4 * i
                    )));
                }
            }
        }
        if canonical != self.header.m {
            return Err(SnapshotError::Invalid(format!(
                "found {canonical} canonical pairs, header declared {}",
                self.header.m
            )));
        }
        Ok(())
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
    fn open_rejects_structural_corruption_and_verify_catches_content() {
        let g = figure1b();
        let bytes = snapshot_bytes(&g, SnapshotMeta::default());
        let t_off = u64::from_le_bytes(bytes[56..64].try_into().unwrap()) as usize;

        // Out-of-range target: structural tier must reject at open.
        let mut structural = bytes.clone();
        structural[t_off] = 200; // row 0 first target -> 200 >= n
        let path = tmp("structural.snap");
        std::fs::write(&path, &structural).unwrap();
        assert!(matches!(
            MappedSnapshot::open(&path),
            Err(SnapshotError::Invalid(_))
        ));

        // In-range but asymmetric target: open passes (structurally
        // sound), verify rejects.
        let mut content = bytes.clone();
        content[t_off] = 2; // row 0: [1,2,3] -> [2,2,3]: not ascending
        std::fs::write(&path, &content).unwrap();
        let snap = MappedSnapshot::open(&path).unwrap();
        let err = snap.verify().unwrap_err();
        assert!(err.to_string().contains("byte offset"), "{err}");
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
