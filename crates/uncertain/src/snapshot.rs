//! Versioned binary snapshots of published uncertain graphs.
//!
//! The TSV publication format (`io`) is the human-auditable artifact; a
//! long-running consumer like `obf_server` wants start-up to be an
//! O(bytes) read, not a float re-parse. A snapshot stores the graph's
//! SoA-CSR incidence arrays directly:
//!
//! ```text
//! offset  size          field                       [v1/v2 packed layout]
//! 0       8             magic  b"OBFUSNAP"
//! 8       4             format version, u32 LE
//! 12      8             epoch (release number), u64 LE          [v2 only]
//! 20      8             parent snapshot checksum, u64 LE        [v2 only]
//! 28      8             n   = number of vertices, u64 LE
//! 36      8             m   = number of candidate pairs, u64 LE
//! 44      8·(n+1)       CSR offsets, u64 LE each
//! ..      4·2m          CSR targets, u32 LE each
//! ..      8·2m          CSR probabilities, f64 LE bit patterns
//! end−8   8             checksum of bytes [8, end−8), u64 LE
//! ```
//!
//! Version 2 adds the epoch/parent fields for the evolving-graph
//! republish pipeline (`obf_evolve`): each release snapshot names its
//! epoch and the checksum of the snapshot it was derived from, so a
//! consumer (e.g. `obf_server`'s `RELOAD`) can verify it is walking an
//! unbroken release chain. Version 1 files (no epoch fields, 28-byte
//! header) still decode, with [`SnapshotMeta::default`] metadata.
//!
//! **Version 3** keeps the same three CSR arrays but lays them out for
//! zero-copy serving: a fixed 4096-byte header page carrying the
//! section offsets and per-section checksums, followed by the
//! `offsets`/`targets`/`probs` sections each aligned to a
//! [`V3_SECTION_ALIGN`]-byte boundary. A little-endian host can
//! `mmap(2)` the file and hand out the sections as `&[u64]`/`&[u32]`/
//! `&[f64]` slices directly (see [`crate::mapped::MappedSnapshot`]);
//! every other host still decodes it through the heap path below. The
//! normative byte-level spec for all three versions lives in
//! `docs/FORMATS.md` § "Snapshot files (OBFUSNAP v1/v2/v3)".
//!
//! ```text
//! offset  size          field                       [v3 header page]
//! 0       8             magic  b"OBFUSNAP"
//! 8       4             format version, u32 LE (= 3)
//! 12      4             reserved, must be 0
//! 16      8             epoch (release number), u64 LE
//! 24      8             parent snapshot checksum, u64 LE
//! 32      8             n   = number of vertices, u64 LE
//! 40      8             m   = number of candidate pairs, u64 LE
//! 48      8             offsets section start, u64 LE (= 4096)
//! 56      8             targets section start, u64 LE
//! 64      8             probs section start, u64 LE
//! 72      8             total file length, u64 LE
//! 80      8             checksum of the offsets section, u64 LE
//! 88      8             checksum of the targets section, u64 LE
//! 96      8             checksum of the probs section, u64 LE
//! 104     8             header checksum of bytes [8, 104), u64 LE
//! 112     3984          zero padding to the first section
//! 4096    8·(n+1)       CSR offsets, u64 LE each
//! ..pad..               zero padding to a 4096 boundary
//! ..      4·2m          CSR targets, u32 LE each
//! ..pad..               zero padding to a 4096 boundary
//! ..      8·2m          CSR probabilities, f64 LE bit patterns
//! ```
//!
//! In v3 the header checksum plays the role of the v1/v2 trailing
//! checksum for epoch chaining ([`stored_checksum`] reads whichever the
//! version uses): it covers the section checksums, so it transitively
//! commits to the whole file while staying inside the header page, so
//! the O(1) open tier can check it without touching a section.
//!
//! Every multi-byte value is little-endian; the checksum covers the
//! header (minus the magic) and the whole payload, so a flipped bit
//! anywhere is caught before the graph is reconstructed, and the
//! reconstruction re-verifies every [`UncertainGraph`] invariant
//! (via the crate-internal `from_csr_parts` fast path) — a
//! corrupted-but-checksummed file can still never produce an invalid
//! graph.
//!
//! The checksum is a SplitMix64 chain over 8-byte words (zero-padded
//! tail, length folded into the seed): every step is a bijection of the
//! running state, so any single-bit change alters the sum, and it runs
//! an order of magnitude faster than a byte-at-a-time FNV — the
//! checksum must not dominate the O(bytes) load it protects.

use std::path::Path;

use crate::graph::UncertainGraph;

/// Magic bytes identifying a snapshot file.
pub const SNAPSHOT_MAGIC: [u8; 8] = *b"OBFUSNAP";

/// Version written by the packed heap encoders ([`snapshot_bytes`] and
/// friends) — the default interchange format.
pub const SNAPSHOT_VERSION: u32 = 2;

/// Version written by the page-aligned encoders ([`snapshot_bytes_v3`]
/// and friends) — the mmap-servable format.
pub const SNAPSHOT_VERSION_V3: u32 = 3;

/// The oldest snapshot version the decoder still accepts.
pub const SNAPSHOT_MIN_VERSION: u32 = 1;

/// The newest snapshot version the decoder accepts.
pub const SNAPSHOT_MAX_VERSION: u32 = 3;

/// Alignment, in bytes, of every v3 section (one 4 KiB page): the mmap
/// base address is page-aligned, so page-aligned section starts make
/// the zero-copy `&[u64]`/`&[f64]` casts well-aligned by construction.
pub const V3_SECTION_ALIGN: usize = 4096;

/// Length of the meaningful v3 header prefix; bytes `[8, 104)` are
/// covered by the header checksum stored at offset 104, and bytes
/// `[112, 4096)` are zero padding.
pub const V3_HEADER_LEN: usize = 112;

/// Byte offset of the v3 header checksum field.
const V3_HEADER_CHECKSUM_AT: usize = 104;

/// Release metadata carried in a version-2 snapshot header.
///
/// `epoch` is the release number of the published graph; a freshly
/// published (non-evolving) graph is epoch 0. `parent_checksum` is the
/// stored checksum of the snapshot this release was derived from (0 for
/// a root release), letting consumers verify an unbroken release chain
/// via [`stored_checksum`].
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct SnapshotMeta {
    /// Release number of this snapshot.
    pub epoch: u64,
    /// [`stored_checksum`] of the parent release's snapshot (0 = root).
    pub parent_checksum: u64,
}

/// Errors from snapshot reading. Every variant that can point at a byte
/// names the failing file offset, so a corruption report is actionable
/// without a hex dump session.
#[derive(Debug)]
pub enum SnapshotError {
    Io(std::io::Error),
    /// The file does not start with [`SNAPSHOT_MAGIC`] (bytes `[0, 8)`).
    BadMagic,
    /// The version at byte offset 8 is outside
    /// [`SNAPSHOT_MIN_VERSION`]`..=`[`SNAPSHOT_MAX_VERSION`].
    BadVersion(u32),
    /// The file ends before the declared payload does.
    Truncated {
        expected: usize,
        actual: usize,
    },
    /// The stored checksum does not match the content. `region` names
    /// the checksummed region ("payload" for v1/v2, "header" or a v3
    /// section) and `at` is the byte offset where that region starts.
    ChecksumMismatch {
        region: &'static str,
        at: u64,
        stored: u64,
        computed: u64,
    },
    /// A v3 section start is not [`V3_SECTION_ALIGN`]-aligned (or the
    /// sections overlap / run past the declared file length).
    Misaligned {
        section: &'static str,
        offset: u64,
    },
    /// The decoded arrays do not form a valid uncertain graph.
    Invalid(String),
}

impl std::fmt::Display for SnapshotError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            SnapshotError::Io(e) => write!(f, "I/O error: {e}"),
            SnapshotError::BadMagic => {
                write!(f, "not a snapshot: bad magic at byte offset 0")
            }
            SnapshotError::BadVersion(v) => {
                write!(
                    f,
                    "unsupported snapshot version {v} at byte offset 8 \
                     (accepted: {SNAPSHOT_MIN_VERSION}..={SNAPSHOT_MAX_VERSION})"
                )
            }
            SnapshotError::Truncated { expected, actual } => {
                write!(
                    f,
                    "truncated snapshot: expected {expected} bytes, got {actual} \
                     (file ends at byte offset {actual})"
                )
            }
            SnapshotError::ChecksumMismatch {
                region,
                at,
                stored,
                computed,
            } => write!(
                f,
                "snapshot checksum mismatch in {region} (starting at byte offset {at}): \
                 stored {stored:#018x}, computed {computed:#018x}"
            ),
            SnapshotError::Misaligned { section, offset } => write!(
                f,
                "snapshot {section} section start {offset} (byte offset {offset}) is not \
                 aligned to {V3_SECTION_ALIGN} bytes or overlaps a neighboring section"
            ),
            SnapshotError::Invalid(msg) => write!(f, "snapshot decodes to invalid graph: {msg}"),
        }
    }
}

impl std::error::Error for SnapshotError {}

impl From<std::io::Error> for SnapshotError {
    fn from(e: std::io::Error) -> Self {
        SnapshotError::Io(e)
    }
}

/// Incremental form of [`checksum64`] for callers that checksum a
/// stream without materialising it (e.g. a digest over a graph's
/// candidate stream): the total region length must be known up front
/// (it is folded into the seed), then bytes arrive in arbitrarily sized
/// [`Checksum64::update`] calls.
///
/// `Checksum64::new(bytes.len()).update(bytes).finish()` is
/// byte-for-byte equivalent to `checksum64(bytes)` (tested below).
#[derive(Debug, Clone)]
pub struct Checksum64 {
    h: u64,
    /// Carry buffer for a partial trailing word between `update` calls.
    pending: [u8; 8],
    pending_len: usize,
}

impl Checksum64 {
    /// Starts a checksum over a region of exactly `total_len` bytes.
    pub fn new(total_len: u64) -> Self {
        Self {
            h: 0x9e37_79b9_7f4a_7c15u64 ^ total_len,
            pending: [0u8; 8],
            pending_len: 0,
        }
    }

    #[inline]
    fn mix(&mut self, word: u64) {
        self.h = obf_graph::splitmix64(self.h ^ word);
    }

    /// Feeds the next `bytes` of the region.
    pub fn update(&mut self, mut bytes: &[u8]) -> &mut Self {
        if self.pending_len > 0 {
            let need = 8 - self.pending_len;
            let take = need.min(bytes.len());
            self.pending[self.pending_len..self.pending_len + take].copy_from_slice(&bytes[..take]);
            self.pending_len += take;
            bytes = &bytes[take..];
            if self.pending_len < 8 {
                // All input drained into the carry without filling it.
                return self;
            }
            let word = u64::from_le_bytes(self.pending);
            self.mix(word);
            self.pending_len = 0;
        }
        let mut chunks = bytes.chunks_exact(8);
        for c in &mut chunks {
            let word = u64::from_le_bytes(c.try_into().unwrap());
            self.mix(word);
        }
        let rem = chunks.remainder();
        self.pending[..rem.len()].copy_from_slice(rem);
        self.pending_len = rem.len();
        self
    }

    /// Finishes the chain (zero-padding any partial trailing word).
    pub fn finish(&self) -> u64 {
        if self.pending_len == 0 {
            return self.h;
        }
        let mut last = [0u8; 8];
        last[..self.pending_len].copy_from_slice(&self.pending[..self.pending_len]);
        let mut h = self.h;
        h = obf_graph::splitmix64(h ^ u64::from_le_bytes(last));
        h
    }
}

/// Word-at-a-time SplitMix64 chain — dependency-free integrity check,
/// not a cryptographic signature. Seeding with the length and
/// zero-padding the tail keeps distinct-length inputs distinct.
pub fn checksum64(bytes: &[u8]) -> u64 {
    Checksum64::new(bytes.len() as u64).update(bytes).finish()
}

/// Serialises the graph into the snapshot byte layout with default
/// (epoch-0, root) metadata.
pub fn snapshot_bytes(g: &UncertainGraph) -> Vec<u8> {
    snapshot_bytes_with_meta(g, SnapshotMeta::default())
}

/// The stored checksum of a well-formed snapshot byte buffer, or `None`
/// for anything too short to be a snapshot. This is the value an
/// epoch-chained child records as [`SnapshotMeta::parent_checksum`].
///
/// For v1/v2 this is the trailing 8 bytes; for v3 it is the header
/// checksum at byte offset 104 (which transitively commits to the
/// whole file through the section checksums). Converting a snapshot
/// between versions therefore changes its stored checksum — children
/// derived from the original keep referencing the original's value.
pub fn stored_checksum(bytes: &[u8]) -> Option<u64> {
    if bytes.len() < 28 + 8 || !bytes.starts_with(&SNAPSHOT_MAGIC) {
        return None;
    }
    let version = u32::from_le_bytes(bytes[8..12].try_into().unwrap());
    let at = if version == SNAPSHOT_VERSION_V3 {
        if bytes.len() < V3_HEADER_LEN {
            return None;
        }
        V3_HEADER_CHECKSUM_AT
    } else {
        bytes.len() - 8
    };
    Some(u64::from_le_bytes(bytes[at..at + 8].try_into().unwrap()))
}

/// Serialises the graph into the version-2 snapshot byte layout with the
/// given release metadata.
pub fn snapshot_bytes_with_meta(g: &UncertainGraph, meta: SnapshotMeta) -> Vec<u8> {
    let n = g.num_vertices();
    let m = g.num_candidates();
    let mut buf = Vec::with_capacity(44 + 8 * (n + 1) + 12 * 2 * m + 8);
    buf.extend_from_slice(&SNAPSHOT_MAGIC);
    buf.extend_from_slice(&SNAPSHOT_VERSION.to_le_bytes());
    buf.extend_from_slice(&meta.epoch.to_le_bytes());
    buf.extend_from_slice(&meta.parent_checksum.to_le_bytes());
    buf.extend_from_slice(&(n as u64).to_le_bytes());
    buf.extend_from_slice(&(m as u64).to_le_bytes());
    let mut acc = 0u64;
    buf.extend_from_slice(&acc.to_le_bytes());
    for v in 0..n as u32 {
        acc += g.incident_count(v) as u64;
        buf.extend_from_slice(&acc.to_le_bytes());
    }
    for v in 0..n as u32 {
        for &t in g.incident_targets(v) {
            buf.extend_from_slice(&t.to_le_bytes());
        }
    }
    for v in 0..n as u32 {
        for &p in g.incident_probs(v) {
            buf.extend_from_slice(&p.to_le_bytes());
        }
    }
    let checksum = checksum64(&buf[SNAPSHOT_MAGIC.len()..]);
    buf.extend_from_slice(&checksum.to_le_bytes());
    buf
}

/// Saves the snapshot to a file path.
pub fn save_snapshot<P: AsRef<Path>>(g: &UncertainGraph, path: P) -> std::io::Result<()> {
    std::fs::write(path, snapshot_bytes(g))
}

/// Saves an epoch-tagged snapshot, returning the stored checksum so the
/// caller can chain the next release's [`SnapshotMeta::parent_checksum`].
pub fn save_snapshot_with_meta<P: AsRef<Path>>(
    g: &UncertainGraph,
    meta: SnapshotMeta,
    path: P,
) -> std::io::Result<u64> {
    let bytes = snapshot_bytes_with_meta(g, meta);
    let checksum = stored_checksum(&bytes).expect("snapshot_bytes is well formed");
    std::fs::write(path, &bytes)?;
    Ok(checksum)
}

/// Rounds `x` up to the next [`V3_SECTION_ALIGN`] boundary (checked).
fn align_up(x: usize) -> Option<usize> {
    Some(x.checked_add(V3_SECTION_ALIGN - 1)? & !(V3_SECTION_ALIGN - 1))
}

/// The v3 section layout implied by `(n, m)`: byte offsets of the three
/// sections and the total file length. `None` when the sizes overflow
/// `usize` — the caller turns that into [`SnapshotError::Invalid`].
///
/// The layout is fully determined by `(n, m)`: each section starts at
/// the lowest aligned offset after the previous one. The header still
/// stores the offsets explicitly (readers should not have to replay
/// this arithmetic), and the parser re-derives them to reject any file
/// whose stored offsets disagree.
pub(crate) fn v3_layout(n: usize, m: usize) -> Option<(usize, usize, usize, usize)> {
    let offsets_len = n.checked_add(1)?.checked_mul(8)?;
    let targets_len = m.checked_mul(8)?; // 2m entries × 4 bytes
    let probs_len = m.checked_mul(16)?; // 2m entries × 8 bytes
    let offsets_off = V3_SECTION_ALIGN;
    let targets_off = align_up(offsets_off.checked_add(offsets_len)?)?;
    let probs_off = align_up(targets_off.checked_add(targets_len)?)?;
    let file_len = probs_off.checked_add(probs_len)?;
    Some((offsets_off, targets_off, probs_off, file_len))
}

/// A parsed-and-verified v3 header. Construction performs the O(1)
/// "quick" verification tier: magic, version, header checksum, and the
/// structural layout checks (alignment, section extents, exact file
/// length) — everything needed to know the section slices are in
/// bounds. Section *content* checksums are deliberately not verified
/// here; see [`crate::mapped::MappedSnapshot`] for the tiers.
#[derive(Debug, Clone, Copy)]
pub(crate) struct V3Header {
    pub meta: SnapshotMeta,
    pub n: usize,
    pub m: usize,
    pub offsets_off: usize,
    pub targets_off: usize,
    pub probs_off: usize,
    pub file_len: usize,
    /// Stored checksums of the offsets/targets/probs section bytes.
    pub section_checksums: [u64; 3],
    /// Stored header checksum (the v3 [`stored_checksum`] value).
    pub header_checksum: u64,
}

impl V3Header {
    /// Parses and quick-verifies the header of a complete v3 file image.
    pub(crate) fn parse(bytes: &[u8]) -> Result<Self, SnapshotError> {
        if bytes.len() < 8 || bytes[..8] != SNAPSHOT_MAGIC {
            return Err(SnapshotError::BadMagic);
        }
        if bytes.len() < V3_HEADER_LEN {
            return Err(SnapshotError::Truncated {
                expected: V3_HEADER_LEN,
                actual: bytes.len(),
            });
        }
        let u32_at = |at: usize| u32::from_le_bytes(bytes[at..at + 4].try_into().unwrap());
        let u64_at = |at: usize| u64::from_le_bytes(bytes[at..at + 8].try_into().unwrap());
        let version = u32_at(8);
        if version != SNAPSHOT_VERSION_V3 {
            return Err(SnapshotError::BadVersion(version));
        }
        // Verify the header checksum before trusting any field it
        // covers: a flipped header byte must report as a checksum
        // mismatch, not as whatever structural error it happens to
        // masquerade as.
        let stored = u64_at(V3_HEADER_CHECKSUM_AT);
        let computed = checksum64(&bytes[8..V3_HEADER_CHECKSUM_AT]);
        if stored != computed {
            return Err(SnapshotError::ChecksumMismatch {
                region: "header",
                at: 8,
                stored,
                computed,
            });
        }
        if u32_at(12) != 0 {
            return Err(SnapshotError::Invalid(format!(
                "reserved header field at byte offset 12 is {:#x}, must be 0",
                u32_at(12)
            )));
        }
        let meta = SnapshotMeta {
            epoch: u64_at(16),
            parent_checksum: u64_at(24),
        };
        let (n, m) = (u64_at(32), u64_at(40));
        let to_usize = |x: u64, what: &str| {
            usize::try_from(x)
                .map_err(|_| SnapshotError::Invalid(format!("{what} {x} overflows usize")))
        };
        let n = to_usize(n, "vertex count n")?;
        let m = to_usize(m, "candidate count m")?;
        let (offsets_off, targets_off, probs_off, file_len) = v3_layout(n, m)
            .ok_or_else(|| SnapshotError::Invalid(format!("header sizes n={n}, m={m} overflow")))?;
        // The stored offsets must match the canonical layout exactly —
        // anything else is a misaligned or overlapping section.
        for (section, stored_off, expected_off) in [
            ("offsets", u64_at(48), offsets_off),
            ("targets", u64_at(56), targets_off),
            ("probs", u64_at(64), probs_off),
        ] {
            if stored_off != expected_off as u64 {
                return Err(SnapshotError::Misaligned {
                    section,
                    offset: stored_off,
                });
            }
        }
        if u64_at(72) != file_len as u64 {
            return Err(SnapshotError::Invalid(format!(
                "header file length {} at byte offset 72 disagrees with layout ({file_len})",
                u64_at(72)
            )));
        }
        if bytes.len() != file_len {
            return Err(SnapshotError::Truncated {
                expected: file_len,
                actual: bytes.len(),
            });
        }
        Ok(Self {
            meta,
            n,
            m,
            offsets_off,
            targets_off,
            probs_off,
            file_len,
            section_checksums: [u64_at(80), u64_at(88), u64_at(96)],
            header_checksum: stored,
        })
    }

    /// The three `(name, start, length-in-bytes)` section extents.
    pub(crate) fn sections(&self) -> [(&'static str, usize, usize); 3] {
        [
            ("offsets section", self.offsets_off, 8 * (self.n + 1)),
            ("targets section", self.targets_off, 8 * self.m),
            ("probs section", self.probs_off, 16 * self.m),
        ]
    }

    /// Verifies the three stored section checksums against `bytes`.
    pub(crate) fn verify_sections(&self, bytes: &[u8]) -> Result<(), SnapshotError> {
        for ((region, start, len), &stored) in
            self.sections().into_iter().zip(&self.section_checksums)
        {
            let computed = checksum64(&bytes[start..start + len]);
            if stored != computed {
                return Err(SnapshotError::ChecksumMismatch {
                    region,
                    at: start as u64,
                    stored,
                    computed,
                });
            }
        }
        Ok(())
    }
}

/// Serialises the graph into the v3 page-aligned byte layout with
/// default (epoch-0, root) metadata.
pub fn snapshot_bytes_v3(g: &UncertainGraph) -> Vec<u8> {
    snapshot_bytes_v3_with_meta(g, SnapshotMeta::default())
}

/// Serialises the graph into the v3 page-aligned byte layout with the
/// given release metadata. The result can be written to disk and
/// memory-mapped by [`crate::mapped::MappedSnapshot`].
pub fn snapshot_bytes_v3_with_meta(g: &UncertainGraph, meta: SnapshotMeta) -> Vec<u8> {
    let n = g.num_vertices();
    let m = g.num_candidates();
    let (offsets_off, targets_off, probs_off, file_len) =
        v3_layout(n, m).expect("in-memory graph sizes cannot overflow the v3 layout");
    let mut buf = vec![0u8; file_len];
    buf[..8].copy_from_slice(&SNAPSHOT_MAGIC);
    buf[8..12].copy_from_slice(&SNAPSHOT_VERSION_V3.to_le_bytes());
    // bytes [12, 16) stay zero (reserved)
    buf[16..24].copy_from_slice(&meta.epoch.to_le_bytes());
    buf[24..32].copy_from_slice(&meta.parent_checksum.to_le_bytes());
    buf[32..40].copy_from_slice(&(n as u64).to_le_bytes());
    buf[40..48].copy_from_slice(&(m as u64).to_le_bytes());
    buf[48..56].copy_from_slice(&(offsets_off as u64).to_le_bytes());
    buf[56..64].copy_from_slice(&(targets_off as u64).to_le_bytes());
    buf[64..72].copy_from_slice(&(probs_off as u64).to_le_bytes());
    buf[72..80].copy_from_slice(&(file_len as u64).to_le_bytes());
    let mut at = offsets_off;
    let mut acc = 0u64;
    buf[at..at + 8].copy_from_slice(&acc.to_le_bytes());
    at += 8;
    for v in 0..n as u32 {
        acc += g.incident_count(v) as u64;
        buf[at..at + 8].copy_from_slice(&acc.to_le_bytes());
        at += 8;
    }
    let mut at = targets_off;
    for v in 0..n as u32 {
        for &t in g.incident_targets(v) {
            buf[at..at + 4].copy_from_slice(&t.to_le_bytes());
            at += 4;
        }
    }
    let mut at = probs_off;
    for v in 0..n as u32 {
        for &p in g.incident_probs(v) {
            buf[at..at + 8].copy_from_slice(&p.to_le_bytes());
            at += 8;
        }
    }
    for (i, (_, start, len)) in [
        ("offsets", offsets_off, 8 * (n + 1)),
        ("targets", targets_off, 8 * m),
        ("probs", probs_off, 16 * m),
    ]
    .into_iter()
    .enumerate()
    {
        let checksum = checksum64(&buf[start..start + len]);
        buf[80 + 8 * i..88 + 8 * i].copy_from_slice(&checksum.to_le_bytes());
    }
    let header_checksum = checksum64(&buf[8..V3_HEADER_CHECKSUM_AT]);
    buf[V3_HEADER_CHECKSUM_AT..V3_HEADER_CHECKSUM_AT + 8]
        .copy_from_slice(&header_checksum.to_le_bytes());
    buf
}

/// Saves a v3 snapshot, returning its stored checksum (the header
/// checksum) for epoch chaining — the v3 analogue of
/// [`save_snapshot_with_meta`].
pub fn save_snapshot_v3_with_meta<P: AsRef<Path>>(
    g: &UncertainGraph,
    meta: SnapshotMeta,
    path: P,
) -> std::io::Result<u64> {
    let bytes = snapshot_bytes_v3_with_meta(g, meta);
    let checksum = stored_checksum(&bytes).expect("snapshot_bytes_v3 is well formed");
    std::fs::write(path, &bytes)?;
    Ok(checksum)
}

struct Cursor<'a> {
    bytes: &'a [u8],
    pos: usize,
}

impl<'a> Cursor<'a> {
    fn take(&mut self, len: usize) -> Result<&'a [u8], SnapshotError> {
        let end = self.pos.checked_add(len).filter(|&e| e <= self.bytes.len());
        match end {
            Some(end) => {
                let s = &self.bytes[self.pos..end];
                self.pos = end;
                Ok(s)
            }
            None => Err(SnapshotError::Truncated {
                expected: self.pos.saturating_add(len),
                actual: self.bytes.len(),
            }),
        }
    }

    fn u32(&mut self) -> Result<u32, SnapshotError> {
        Ok(u32::from_le_bytes(self.take(4)?.try_into().unwrap()))
    }

    fn u64(&mut self) -> Result<u64, SnapshotError> {
        Ok(u64::from_le_bytes(self.take(8)?.try_into().unwrap()))
    }
}

/// Decodes a snapshot from its full byte content, dropping the release
/// metadata. See [`decode_snapshot_with_meta`].
pub fn decode_snapshot(bytes: &[u8]) -> Result<UncertainGraph, SnapshotError> {
    decode_snapshot_with_meta(bytes).map(|(g, _)| g)
}

/// Rebuilds a verified [`UncertainGraph`] from decoded CSR arrays — the
/// common tail of the v1/v2 and v3 heap decoders.
///
/// Reconstructs the canonical candidate list (each pair `(u, v)` with
/// `u < v` appears in `u`'s row with target `v > u`, exactly once), and
/// `from_csr_parts` re-verifies every graph invariant against the
/// decoded arrays without re-sorting or rebuilding the CSR.
pub(crate) fn graph_from_csr_arrays(
    n: usize,
    m: usize,
    offsets: Vec<usize>,
    targets: Vec<u32>,
    probs: Vec<f64>,
) -> Result<UncertainGraph, SnapshotError> {
    let incidents = 2 * m;
    if offsets[0] != 0 || offsets[n] != incidents {
        return Err(SnapshotError::Invalid(format!(
            "CSR offsets span [{}, {}], expected [0, {incidents}]",
            offsets[0], offsets[n]
        )));
    }
    let mut candidates = Vec::with_capacity(m);
    for u in 0..n {
        let (start, end) = (offsets[u], offsets[u + 1]);
        if start > end || end > incidents {
            return Err(SnapshotError::Invalid(format!(
                "CSR row {u} has invalid bounds [{start}, {end})"
            )));
        }
        for i in start..end {
            if targets[i] as usize > u {
                candidates.push((u as u32, targets[i], probs[i]));
            }
        }
    }
    if candidates.len() != m {
        return Err(SnapshotError::Invalid(format!(
            "decoded {} candidate pairs, header declared {m}",
            candidates.len()
        )));
    }
    UncertainGraph::from_csr_parts(n, candidates, offsets, targets, probs)
        .map_err(SnapshotError::Invalid)
}

/// Decodes a snapshot (version 1, 2, or 3) and its release metadata.
///
/// Verification order: magic → version → length → checksum → graph
/// validation, so the error names the outermost layer that failed.
/// For v3 this is the portable heap path — it copies the sections into
/// owned arrays and fully verifies every checksum, working on any
/// endianness; zero-copy serving goes through
/// [`crate::mapped::MappedSnapshot`] instead.
pub fn decode_snapshot_with_meta(
    bytes: &[u8],
) -> Result<(UncertainGraph, SnapshotMeta), SnapshotError> {
    let mut c = Cursor { bytes, pos: 0 };
    if c.take(8).map_err(|_| SnapshotError::BadMagic)? != SNAPSHOT_MAGIC {
        return Err(SnapshotError::BadMagic);
    }
    let version = c.u32()?;
    if !(SNAPSHOT_MIN_VERSION..=SNAPSHOT_MAX_VERSION).contains(&version) {
        return Err(SnapshotError::BadVersion(version));
    }
    if version == SNAPSHOT_VERSION_V3 {
        return decode_snapshot_v3(bytes);
    }
    let meta = if version >= 2 {
        SnapshotMeta {
            epoch: c.u64()?,
            parent_checksum: c.u64()?,
        }
    } else {
        SnapshotMeta::default()
    };
    let header_len = c.pos + 16; // n and m still to come
    let n = c.u64()? as usize;
    let m = c.u64()? as usize;
    // All size arithmetic on the untrusted header is checked: a crafted
    // n/m must surface as an Err, never as an overflow panic or a
    // wrapped length that dodges the size check.
    let header_overflow = || SnapshotError::Invalid(format!("header sizes n={n}, m={m} overflow"));
    let offsets_len = n
        .checked_add(1)
        .and_then(|x| x.checked_mul(8))
        .ok_or_else(header_overflow)?;
    let incidents = m.checked_mul(2).ok_or_else(header_overflow)?;
    let expected = incidents
        .checked_mul(12) // 4 target bytes + 8 prob bytes per incident
        .and_then(|x| x.checked_add(offsets_len))
        .and_then(|x| x.checked_add(header_len + 8))
        .ok_or_else(header_overflow)?;
    if bytes.len() != expected {
        return Err(SnapshotError::Truncated {
            expected,
            actual: bytes.len(),
        });
    }
    let stored = u64::from_le_bytes(bytes[bytes.len() - 8..].try_into().unwrap());
    let computed = checksum64(&bytes[8..bytes.len() - 8]);
    if stored != computed {
        return Err(SnapshotError::ChecksumMismatch {
            region: "payload",
            at: 8,
            stored,
            computed,
        });
    }
    // Bulk-decode the three arrays (lengths were verified above, so the
    // takes cannot fail).
    let offsets: Vec<usize> = c
        .take(offsets_len)?
        .chunks_exact(8)
        .map(|b| u64::from_le_bytes(b.try_into().unwrap()) as usize)
        .collect();
    let targets: Vec<u32> = c
        .take(incidents * 4)?
        .chunks_exact(4)
        .map(|b| u32::from_le_bytes(b.try_into().unwrap()))
        .collect();
    let probs: Vec<f64> = c
        .take(incidents * 8)?
        .chunks_exact(8)
        .map(|b| f64::from_bits(u64::from_le_bytes(b.try_into().unwrap())))
        .collect();
    graph_from_csr_arrays(n, m, offsets, targets, probs).map(|g| (g, meta))
}

/// The heap decode path for a v3 file image: full verification (header
/// checksum, layout, all three section checksums), then owned-array
/// reconstruction — the graceful fallback when mmap is unavailable
/// (non-Unix, big-endian) or undesired.
fn decode_snapshot_v3(bytes: &[u8]) -> Result<(UncertainGraph, SnapshotMeta), SnapshotError> {
    let h = V3Header::parse(bytes)?;
    h.verify_sections(bytes)?;
    let incidents = 2 * h.m;
    let offsets: Vec<usize> = bytes[h.offsets_off..h.offsets_off + 8 * (h.n + 1)]
        .chunks_exact(8)
        .map(|b| u64::from_le_bytes(b.try_into().unwrap()) as usize)
        .collect();
    let targets: Vec<u32> = bytes[h.targets_off..h.targets_off + 4 * incidents]
        .chunks_exact(4)
        .map(|b| u32::from_le_bytes(b.try_into().unwrap()))
        .collect();
    let probs: Vec<f64> = bytes[h.probs_off..h.probs_off + 8 * incidents]
        .chunks_exact(8)
        .map(|b| f64::from_bits(u64::from_le_bytes(b.try_into().unwrap())))
        .collect();
    graph_from_csr_arrays(h.n, h.m, offsets, targets, probs).map(|g| (g, h.meta))
}

/// Loads a snapshot from a file path.
pub fn load_snapshot<P: AsRef<Path>>(path: P) -> Result<UncertainGraph, SnapshotError> {
    decode_snapshot(&std::fs::read(path)?)
}

/// Loads a snapshot and its release metadata from a file path.
pub fn load_snapshot_with_meta<P: AsRef<Path>>(
    path: P,
) -> Result<(UncertainGraph, SnapshotMeta), SnapshotError> {
    decode_snapshot_with_meta(&std::fs::read(path)?)
}

#[cfg(test)]
mod tests {
    use super::*;

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

    #[test]
    fn round_trip_preserves_graph() {
        let g = figure1b();
        let back = decode_snapshot(&snapshot_bytes(&g)).unwrap();
        assert_eq!(g, back);
    }

    #[test]
    fn round_trip_empty_and_isolated() {
        for g in [
            UncertainGraph::new(0, vec![]).unwrap(),
            UncertainGraph::new(7, vec![]).unwrap(),
            UncertainGraph::new(5, vec![(3, 4, 1e-300)]).unwrap(),
        ] {
            assert_eq!(decode_snapshot(&snapshot_bytes(&g)).unwrap(), g);
        }
    }

    #[test]
    fn file_round_trip() {
        let dir = std::env::temp_dir().join("obfugraph_snapshot_test");
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("g.snap");
        let g = figure1b();
        save_snapshot(&g, &path).unwrap();
        assert_eq!(load_snapshot(&path).unwrap(), g);
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn rejects_bad_magic_and_version() {
        let mut bytes = snapshot_bytes(&figure1b());
        let mut wrong_magic = bytes.clone();
        wrong_magic[0] ^= 0xFF;
        assert!(matches!(
            decode_snapshot(&wrong_magic),
            Err(SnapshotError::BadMagic)
        ));
        // Bump the version and re-stamp the checksum so only the version
        // check can fire.
        bytes[8] = 99;
        let cksum_at = bytes.len() - 8;
        let recomputed = checksum64(&bytes[8..cksum_at]);
        bytes[cksum_at..].copy_from_slice(&recomputed.to_le_bytes());
        assert!(matches!(
            decode_snapshot(&bytes),
            Err(SnapshotError::BadVersion(99))
        ));
    }

    #[test]
    fn rejects_corrupted_payload() {
        let g = figure1b();
        let bytes = snapshot_bytes(&g);
        // Flip one bit in every byte position after the version in turn
        // — every flip must be rejected, and flips that leave the
        // declared sizes intact must be caught by the checksum
        // specifically (a flipped n/m fails the length check first).
        for pos in 12..bytes.len() - 8 {
            let mut corrupt = bytes.clone();
            corrupt[pos] ^= 0x01;
            assert!(decode_snapshot(&corrupt).is_err(), "flip at {pos} accepted");
            if !(28..44).contains(&pos) {
                assert!(
                    matches!(
                        decode_snapshot(&corrupt),
                        Err(SnapshotError::ChecksumMismatch { .. })
                    ),
                    "flip at {pos} undetected by checksum"
                );
            }
        }
    }

    #[test]
    fn rejects_truncation_at_every_length() {
        let bytes = snapshot_bytes(&figure1b());
        for len in 8..bytes.len() {
            assert!(
                decode_snapshot(&bytes[..len]).is_err(),
                "truncation to {len} bytes accepted"
            );
        }
    }

    /// A v2 header (magic, version, epoch 0, parent 0) followed by the
    /// given n/m and a placeholder checksum.
    fn crafted_header(n: u64, m: u64) -> Vec<u8> {
        let mut bytes = Vec::new();
        bytes.extend_from_slice(&SNAPSHOT_MAGIC);
        bytes.extend_from_slice(&SNAPSHOT_VERSION.to_le_bytes());
        bytes.extend_from_slice(&0u64.to_le_bytes()); // epoch
        bytes.extend_from_slice(&0u64.to_le_bytes()); // parent checksum
        bytes.extend_from_slice(&n.to_le_bytes());
        bytes.extend_from_slice(&m.to_le_bytes());
        bytes.extend_from_slice(&0u64.to_le_bytes()); // placeholder checksum
        bytes
    }

    #[test]
    fn crafted_huge_header_is_an_error_not_a_panic() {
        // n = u64::MAX (m = 0): the size arithmetic must reject it via
        // Err instead of overflowing or indexing out of bounds.
        assert!(matches!(
            decode_snapshot(&crafted_header(u64::MAX, 0)),
            Err(SnapshotError::Invalid(_))
        ));
        // A huge-but-representable n must fail the length check without
        // allocating terabytes.
        assert!(matches!(
            decode_snapshot(&crafted_header(1 << 40, 0)),
            Err(SnapshotError::Truncated { .. })
        ));
        // And a huge m must be rejected the same way.
        assert!(decode_snapshot(&crafted_header(0, u64::MAX)).is_err());
    }

    #[test]
    fn meta_round_trips_and_chains() {
        let g = figure1b();
        let meta = SnapshotMeta {
            epoch: 7,
            parent_checksum: 0xDEAD_BEEF,
        };
        let bytes = snapshot_bytes_with_meta(&g, meta);
        let (back, got) = decode_snapshot_with_meta(&bytes).unwrap();
        assert_eq!(back, g);
        assert_eq!(got, meta);
        // The stored checksum is what the next release's parent field
        // should carry — and it differs per epoch (the header is summed).
        let checksum = stored_checksum(&bytes).unwrap();
        let root = snapshot_bytes(&g);
        assert_ne!(checksum, stored_checksum(&root).unwrap());
        assert_eq!(stored_checksum(b"short"), None);
        // Default meta on the plain constructor.
        let (_, root_meta) = decode_snapshot_with_meta(&root).unwrap();
        assert_eq!(root_meta, SnapshotMeta::default());
    }

    #[test]
    fn version1_snapshots_still_decode() {
        // Re-encode figure1b in the 28-byte v1 header layout; the
        // decoder must accept it with default metadata.
        let g = figure1b();
        let v2 = snapshot_bytes(&g);
        let mut v1 = Vec::new();
        v1.extend_from_slice(&SNAPSHOT_MAGIC);
        v1.extend_from_slice(&1u32.to_le_bytes());
        v1.extend_from_slice(&v2[28..v2.len() - 8]); // n, m, payload
        let checksum = checksum64(&v1[8..]);
        v1.extend_from_slice(&checksum.to_le_bytes());
        let (back, meta) = decode_snapshot_with_meta(&v1).unwrap();
        assert_eq!(back, g);
        assert_eq!(meta, SnapshotMeta::default());
    }

    #[test]
    fn file_round_trip_with_meta() {
        let dir = std::env::temp_dir().join("obfugraph_snapshot_meta_test");
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("g.snap");
        let g = figure1b();
        let meta = SnapshotMeta {
            epoch: 3,
            parent_checksum: 42,
        };
        let checksum = save_snapshot_with_meta(&g, meta, &path).unwrap();
        let (back, got) = load_snapshot_with_meta(&path).unwrap();
        assert_eq!((back, got), (g, meta));
        assert_eq!(
            checksum,
            stored_checksum(&std::fs::read(&path).unwrap()).unwrap()
        );
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn incremental_checksum_matches_one_shot() {
        let bytes: Vec<u8> = (0..1000u32).flat_map(|i| i.to_le_bytes()).collect();
        for take in [1usize, 3, 7, 8, 13, 64, 999, 4000] {
            let mut c = Checksum64::new(bytes.len() as u64);
            for chunk in bytes.chunks(take) {
                c.update(chunk);
            }
            assert_eq!(c.finish(), checksum64(&bytes), "chunk size {take}");
        }
        // Odd-length tail exercises the zero-padded final word.
        let odd = &bytes[..995];
        let mut c = Checksum64::new(odd.len() as u64);
        c.update(&odd[..500]).update(&odd[500..]);
        assert_eq!(c.finish(), checksum64(odd));
    }

    #[test]
    fn v3_round_trips_through_the_heap_decoder() {
        let g = figure1b();
        let meta = SnapshotMeta {
            epoch: 9,
            parent_checksum: 0xFEED,
        };
        let bytes = snapshot_bytes_v3_with_meta(&g, meta);
        assert_eq!(bytes.len() % 8, 0);
        assert!(bytes.len() >= 3 * V3_SECTION_ALIGN);
        let (back, got) = decode_snapshot_with_meta(&bytes).unwrap();
        assert_eq!(back, g);
        assert_eq!(got, meta);
        // Empty / isolated-vertex graphs still lay out correctly.
        for g in [
            UncertainGraph::new(0, vec![]).unwrap(),
            UncertainGraph::new(7, vec![]).unwrap(),
            UncertainGraph::new(5, vec![(3, 4, 1e-300)]).unwrap(),
        ] {
            assert_eq!(decode_snapshot(&snapshot_bytes_v3(&g)).unwrap(), g);
        }
    }

    #[test]
    fn v3_stored_checksum_is_the_header_checksum() {
        let g = figure1b();
        let bytes = snapshot_bytes_v3(&g);
        let stored = stored_checksum(&bytes).unwrap();
        assert_eq!(
            stored,
            u64::from_le_bytes(bytes[104..112].try_into().unwrap())
        );
        // Distinct from the v2 stored checksum of the same graph, and
        // sensitive to the metadata (the header is summed).
        assert_ne!(stored, stored_checksum(&snapshot_bytes(&g)).unwrap());
        let tagged = snapshot_bytes_v3_with_meta(
            &g,
            SnapshotMeta {
                epoch: 1,
                parent_checksum: stored,
            },
        );
        assert_ne!(stored, stored_checksum(&tagged).unwrap());
    }

    #[test]
    fn v3_sections_are_page_aligned() {
        let g = figure1b();
        let bytes = snapshot_bytes_v3(&g);
        let u64_at = |at: usize| u64::from_le_bytes(bytes[at..at + 8].try_into().unwrap()) as usize;
        for at in [48, 56, 64] {
            assert_eq!(u64_at(at) % V3_SECTION_ALIGN, 0, "section at {at}");
        }
        assert_eq!(u64_at(48), V3_SECTION_ALIGN);
        assert_eq!(u64_at(72), bytes.len());
    }

    #[test]
    fn v3_rejects_header_and_section_corruption() {
        let g = figure1b();
        let bytes = snapshot_bytes_v3(&g);
        // Any flipped non-padding byte must be rejected.
        let (t_off, p_off) = (
            u64::from_le_bytes(bytes[56..64].try_into().unwrap()) as usize,
            u64::from_le_bytes(bytes[64..72].try_into().unwrap()) as usize,
        );
        // (A flipped version byte in [8, 12) reports BadVersion or falls
        // to the v1/v2 path instead — checked elsewhere.)
        let meaningful = (12..V3_HEADER_LEN)
            .chain(4096..4096 + 8 * (g.num_vertices() + 1))
            .chain(t_off..t_off + 8 * g.num_candidates())
            .chain(p_off..p_off + 16 * g.num_candidates());
        for pos in meaningful {
            let mut corrupt = bytes.clone();
            corrupt[pos] ^= 0x01;
            assert!(
                matches!(
                    decode_snapshot(&corrupt),
                    Err(SnapshotError::ChecksumMismatch { .. })
                ),
                "flip at {pos} undetected by a checksum"
            );
        }
    }

    #[test]
    fn checksummed_but_invalid_probability_rejected() {
        let g = UncertainGraph::new(2, vec![(0, 1, 0.5)]).unwrap();
        let mut bytes = snapshot_bytes(&g);
        // Overwrite the probability with 2.0 and re-stamp the checksum:
        // the graph validation layer must still reject it.
        let prob_at = bytes.len() - 8 - 16; // two incident f64 copies
        bytes[prob_at..prob_at + 8].copy_from_slice(&2.0f64.to_le_bytes());
        bytes[prob_at + 8..prob_at + 16].copy_from_slice(&2.0f64.to_le_bytes());
        let cksum_at = bytes.len() - 8;
        let recomputed = checksum64(&bytes[8..cksum_at]);
        bytes[cksum_at..].copy_from_slice(&recomputed.to_le_bytes());
        assert!(matches!(
            decode_snapshot(&bytes),
            Err(SnapshotError::Invalid(_))
        ));
    }
}
