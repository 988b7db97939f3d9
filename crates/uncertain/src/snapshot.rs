//! Binary snapshots of published uncertain graphs (`OBFUSNAP` v3).
//!
//! The TSV publication format (`io`) is the human-auditable artifact; a
//! long-running consumer like `obf_server` wants start-up to be a
//! mapping, not a float re-parse. A snapshot stores the graph's SoA-CSR
//! incidence arrays directly, laid out for zero-copy serving: a fixed
//! 4096-byte header page carrying the release metadata, the section
//! offsets and per-section checksums, followed by the
//! `offsets`/`targets`/`probs` sections each aligned to a
//! [`V3_SECTION_ALIGN`]-byte boundary. A little-endian host can
//! `mmap(2)` the file and hand out the sections as `&[u64]`/`&[u32]`/
//! `&[f64]` slices directly (see [`crate::mapped::MappedSnapshot`]);
//! every other host decodes it through the heap path below. The
//! normative byte-level spec lives in `docs/FORMATS.md` § "Snapshot
//! files (OBFUSNAP v3)".
//!
//! ```text
//! offset  size          field
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
//! The epoch and parent checksum serve the evolving-graph republish
//! pipeline (`obf_evolve`): each release snapshot names its epoch and
//! the [`stored_checksum`] of the snapshot it was derived from, so a
//! consumer (e.g. `obf_server`'s `RELOAD`) can verify it is walking an
//! unbroken release chain. The stored checksum is the header checksum:
//! it covers the section checksums, so it transitively commits to the
//! whole file while staying inside the header page, and a reader can
//! check it without touching a section.
//!
//! Every multi-byte value is little-endian, so a flipped bit anywhere
//! is caught by a checksum before the graph is reconstructed, and the
//! decoded arrays then pass the crate's one CSR validator (`crate::csr`)
//! — a corrupted-but-checksummed file can still never produce an
//! invalid graph, and its error names the failing byte offset.
//!
//! The checksum is a SplitMix64 chain over 8-byte words (zero-padded
//! tail, length folded into the seed): every step is a bijection of the
//! running state, so any single-bit change alters the sum, and it runs
//! an order of magnitude faster than a byte-at-a-time FNV — the
//! checksum must not dominate the O(bytes) load it protects.
//!
//! The API is five functions: [`snapshot_bytes`] and [`save_snapshot`]
//! write, [`decode_snapshot`] and [`load_snapshot`] read on the heap,
//! and [`stored_checksum`] reads the chaining value.

use std::ffi::{OsStr, OsString};
use std::fs::{File, OpenOptions};
use std::io::{self, Write};
use std::path::{Path, PathBuf};

use crate::csr::{CsrError, Section};
use crate::graph::UncertainGraph;

/// Magic bytes identifying a snapshot file.
pub const SNAPSHOT_MAGIC: [u8; 8] = *b"OBFUSNAP";

/// The snapshot format version: the only one written and read.
pub const SNAPSHOT_VERSION: u32 = 3;

/// Alignment, in bytes, of every section (one 4 KiB page): the mmap
/// base address is page-aligned, so page-aligned section starts make
/// the zero-copy `&[u64]`/`&[f64]` casts well-aligned by construction.
pub const V3_SECTION_ALIGN: usize = 4096;

/// Length of the meaningful header prefix; bytes `[8, 104)` are covered
/// by the header checksum stored at offset 104, and bytes `[112, 4096)`
/// are zero padding.
pub const V3_HEADER_LEN: usize = 112;

/// Byte offset of the header checksum field.
const V3_HEADER_CHECKSUM_AT: usize = 104;

/// Release metadata carried in a snapshot header.
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
    /// The version at byte offset 8 is not [`SNAPSHOT_VERSION`].
    BadVersion(u32),
    /// The file ends before the declared payload does.
    Truncated {
        expected: usize,
        actual: usize,
    },
    /// The stored checksum does not match the content. `region` names
    /// the checksummed region ("header" or a section) and `at` is the
    /// byte offset where that region starts.
    ChecksumMismatch {
        region: &'static str,
        at: u64,
        stored: u64,
        computed: u64,
    },
    /// A section start is not [`V3_SECTION_ALIGN`]-aligned (or the
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
                     (expected {SNAPSHOT_VERSION})"
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

/// The stored checksum of a snapshot byte buffer — the header checksum
/// at byte offset 104 — or `None` for anything shorter than a header or
/// not starting with a version-3 snapshot header. This is the value an
/// epoch-chained child records as [`SnapshotMeta::parent_checksum`]; it
/// commits to the whole file through the section checksums.
pub fn stored_checksum(bytes: &[u8]) -> Option<u64> {
    let header = bytes.get(..V3_HEADER_LEN)?;
    if header[..8] != SNAPSHOT_MAGIC || header[8..12] != SNAPSHOT_VERSION.to_le_bytes() {
        return None;
    }
    Some(u64::from_le_bytes(
        header[V3_HEADER_CHECKSUM_AT..].try_into().unwrap(),
    ))
}

/// Rounds `x` up to the next [`V3_SECTION_ALIGN`] boundary (checked).
fn align_up(x: usize) -> Option<usize> {
    Some(x.checked_add(V3_SECTION_ALIGN - 1)? & !(V3_SECTION_ALIGN - 1))
}

/// The section layout implied by `(n, m)`: byte offsets of the three
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

/// A parsed-and-verified v3 header. Construction is O(1): magic,
/// version, header checksum, and the layout checks (alignment, section
/// extents, exact file length) — everything needed to know the section
/// slices are in bounds. Section checksums and the CSR validator are
/// the readers' next steps; see [`crate::mapped::MappedSnapshot`] for
/// the tiers.
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
    /// Stored header checksum (the [`stored_checksum`] value).
    pub header_checksum: u64,
}

impl V3Header {
    /// Parses and quick-verifies the header of a complete snapshot file
    /// image. The version is checked as soon as its 4 bytes exist, so a
    /// file in any other layout reports [`SnapshotError::BadVersion`]
    /// whatever its length.
    pub(crate) fn parse(bytes: &[u8]) -> Result<Self, SnapshotError> {
        if bytes.len() < 8 || bytes[..8] != SNAPSHOT_MAGIC {
            return Err(SnapshotError::BadMagic);
        }
        if let Some(v) = bytes.get(8..12) {
            let version = u32::from_le_bytes(v.try_into().unwrap());
            if version != SNAPSHOT_VERSION {
                return Err(SnapshotError::BadVersion(version));
            }
        }
        if bytes.len() < V3_HEADER_LEN {
            return Err(SnapshotError::Truncated {
                expected: V3_HEADER_LEN,
                actual: bytes.len(),
            });
        }
        let u32_at = |at: usize| u32::from_le_bytes(bytes[at..at + 4].try_into().unwrap());
        let u64_at = |at: usize| u64::from_le_bytes(bytes[at..at + 8].try_into().unwrap());
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

    /// Turns a CSR validator error into [`SnapshotError::Invalid`]
    /// naming the file byte offset of the failing element: its section
    /// start plus its width times its index. Both readers, heap and
    /// mapped, report through this, so they name the same offset.
    pub(crate) fn invalid(&self, e: &CsrError) -> SnapshotError {
        let (start, width) = match e.section {
            Section::Offsets => (self.offsets_off, 8),
            Section::Targets => (self.targets_off, 4),
            Section::Probs => (self.probs_off, 8),
        };
        SnapshotError::Invalid(format!("{e} at byte offset {}", start + width * e.index))
    }
}

/// Serialises the graph and its release metadata into the snapshot byte
/// layout. The result can be written to disk and memory-mapped by
/// [`crate::mapped::MappedSnapshot`].
pub fn snapshot_bytes(g: &UncertainGraph, meta: SnapshotMeta) -> Vec<u8> {
    let n = g.num_vertices();
    let m = g.num_candidates();
    let (offsets_off, targets_off, probs_off, file_len) =
        v3_layout(n, m).expect("in-memory graph sizes cannot overflow the layout");
    let mut buf = vec![0u8; file_len];
    buf[..8].copy_from_slice(&SNAPSHOT_MAGIC);
    buf[8..12].copy_from_slice(&SNAPSHOT_VERSION.to_le_bytes());
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
    for (i, (start, len)) in [
        (offsets_off, 8 * (n + 1)),
        (targets_off, 8 * m),
        (probs_off, 16 * m),
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

/// Writes the graph's snapshot to `path`, returning its stored checksum
/// so the caller can chain the next release's
/// [`SnapshotMeta::parent_checksum`].
///
/// The write is atomic: the bytes go to a fresh sibling file, which is
/// synced and renamed over `path`, and on Unix the directory is synced
/// too. A reader that mapped the previous file keeps it — the old inode
/// lives until its last mapping goes — so overwriting a release that is
/// being served cannot shrink the pages under a live
/// [`crate::mapped::MappedSnapshot`] (an in-place truncate would, and the
/// reader's next access would die with `SIGBUS`). A crash mid-write
/// leaves the previous file intact, plus at worst a stray
/// `.<name>.<k>.tmp` sibling.
pub fn save_snapshot<P: AsRef<Path>>(
    g: &UncertainGraph,
    meta: SnapshotMeta,
    path: P,
) -> io::Result<u64> {
    let path = path.as_ref();
    let bytes = snapshot_bytes(g, meta);
    let checksum = stored_checksum(&bytes).expect("snapshot_bytes writes a full header");
    let name = path.file_name().ok_or_else(|| {
        io::Error::new(
            io::ErrorKind::InvalidInput,
            format!("{} does not name a file", path.display()),
        )
    })?;
    let dir = match path.parent() {
        Some(d) if !d.as_os_str().is_empty() => d,
        _ => Path::new("."),
    };
    let (tmp, mut file) = create_sibling(dir, name)?;
    let written = file
        .write_all(&bytes)
        .and_then(|()| file.sync_all())
        .and_then(|()| std::fs::rename(&tmp, path));
    if let Err(e) = written {
        std::fs::remove_file(&tmp).ok();
        return Err(e);
    }
    #[cfg(unix)]
    File::open(dir)?.sync_all()?;
    Ok(checksum)
}

/// Creates `dir/.<name>.<k>.tmp` for the first `k` whose file does not
/// exist yet, so concurrent writers (and leftovers of a crashed one)
/// never share a temp file.
fn create_sibling(dir: &Path, name: &OsStr) -> io::Result<(PathBuf, File)> {
    for k in 0..u32::MAX {
        let mut tmp_name = OsString::from(".");
        tmp_name.push(name);
        tmp_name.push(format!(".{k}.tmp"));
        let tmp = dir.join(tmp_name);
        match OpenOptions::new().write(true).create_new(true).open(&tmp) {
            Ok(file) => return Ok((tmp, file)),
            Err(e) if e.kind() == io::ErrorKind::AlreadyExists => {}
            Err(e) => return Err(e),
        }
    }
    Err(io::Error::new(
        io::ErrorKind::AlreadyExists,
        format!("no free temp name next to {}", dir.join(name).display()),
    ))
}

/// Decodes a snapshot and its release metadata onto the heap.
///
/// Verification order: magic → version → header checksum → layout and
/// length → section checksums → both tiers of the CSR validator, so
/// the error names the outermost layer that failed, and a validator
/// error names the same byte offset [`crate::mapped::MappedSnapshot`]
/// reports for it. This is the portable path: it copies the sections
/// into owned arrays and works on any endianness; zero-copy serving
/// goes through [`crate::mapped::MappedSnapshot`] instead.
pub fn decode_snapshot(bytes: &[u8]) -> Result<(UncertainGraph, SnapshotMeta), SnapshotError> {
    let h = V3Header::parse(bytes)?;
    h.verify_sections(bytes)?;
    let (n, m) = (h.n, h.m);
    let incidents = 2 * m;
    let offsets: Vec<u64> = bytes[h.offsets_off..h.offsets_off + 8 * (n + 1)]
        .chunks_exact(8)
        .map(|b| u64::from_le_bytes(b.try_into().unwrap()))
        .collect();
    let targets: Vec<u32> = bytes[h.targets_off..h.targets_off + 4 * incidents]
        .chunks_exact(4)
        .map(|b| u32::from_le_bytes(b.try_into().unwrap()))
        .collect();
    let probs: Vec<f64> = bytes[h.probs_off..h.probs_off + 8 * incidents]
        .chunks_exact(8)
        .map(|b| f64::from_bits(u64::from_le_bytes(b.try_into().unwrap())))
        .collect();
    UncertainGraph::from_csr(n, m, offsets, targets, probs)
        .map(|g| (g, h.meta))
        .map_err(|e| h.invalid(&e))
}

/// Reads and decodes a snapshot file onto the heap; see
/// [`decode_snapshot`].
pub fn load_snapshot<P: AsRef<Path>>(
    path: P,
) -> Result<(UncertainGraph, SnapshotMeta), SnapshotError> {
    decode_snapshot(&std::fs::read(path)?)
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

    fn root(g: &UncertainGraph) -> Vec<u8> {
        snapshot_bytes(g, SnapshotMeta::default())
    }

    fn decode(bytes: &[u8]) -> Result<UncertainGraph, SnapshotError> {
        decode_snapshot(bytes).map(|(g, _)| g)
    }

    /// Re-stamps the header checksum after a test edits a header field,
    /// so only the edit itself can fail the parse.
    fn restamp_header(bytes: &mut [u8]) {
        let sum = checksum64(&bytes[8..V3_HEADER_CHECKSUM_AT]);
        bytes[V3_HEADER_CHECKSUM_AT..V3_HEADER_LEN].copy_from_slice(&sum.to_le_bytes());
    }

    #[test]
    fn round_trip_preserves_graph_and_meta() {
        let g = figure1b();
        let meta = SnapshotMeta {
            epoch: 9,
            parent_checksum: 0xFEED,
        };
        let bytes = snapshot_bytes(&g, meta);
        assert_eq!(bytes.len() % 8, 0);
        assert!(bytes.len() >= 3 * V3_SECTION_ALIGN);
        let (back, got) = decode_snapshot(&bytes).unwrap();
        assert_eq!(back, g);
        assert_eq!(got, meta);
    }

    #[test]
    fn round_trip_empty_and_isolated() {
        for g in [
            UncertainGraph::new(0, vec![]).unwrap(),
            UncertainGraph::new(7, vec![]).unwrap(),
            UncertainGraph::new(5, vec![(3, 4, 1e-300)]).unwrap(),
        ] {
            assert_eq!(decode(&root(&g)).unwrap(), g);
        }
    }

    #[test]
    fn file_round_trip() {
        let dir = std::env::temp_dir().join("obfugraph_snapshot_test");
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("g.snap");
        let g = figure1b();
        let meta = SnapshotMeta {
            epoch: 3,
            parent_checksum: 42,
        };
        let checksum = save_snapshot(&g, meta, &path).unwrap();
        assert_eq!(load_snapshot(&path).unwrap(), (g, meta));
        assert_eq!(
            checksum,
            stored_checksum(&std::fs::read(&path).unwrap()).unwrap()
        );
        // Overwriting goes through a temp sibling that is renamed away.
        let star = UncertainGraph::new(3, vec![(0, 1, 0.5), (0, 2, 0.5)]).unwrap();
        save_snapshot(&star, SnapshotMeta::default(), &path).unwrap();
        assert_eq!(load_snapshot(&path).unwrap().0, star);
        let leftovers: Vec<_> = std::fs::read_dir(&dir)
            .unwrap()
            .map(|e| e.unwrap().file_name())
            .filter(|f| f.to_string_lossy().ends_with(".tmp"))
            .collect();
        assert!(leftovers.is_empty(), "{leftovers:?}");
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn rejects_bad_magic_and_version() {
        let mut bytes = root(&figure1b());
        let mut wrong_magic = bytes.clone();
        wrong_magic[0] ^= 0xFF;
        assert!(matches!(decode(&wrong_magic), Err(SnapshotError::BadMagic)));
        // The version is checked before the header checksum.
        bytes[8] = 99;
        assert!(matches!(decode(&bytes), Err(SnapshotError::BadVersion(99))));
    }

    /// The retired packed layout: magic, version, (v2 only) epoch and
    /// parent checksum, n, m, the three CSR arrays back to back, then a
    /// trailing checksum of everything after the magic.
    fn packed(version: u32, g: &UncertainGraph) -> Vec<u8> {
        let mut buf = SNAPSHOT_MAGIC.to_vec();
        buf.extend_from_slice(&version.to_le_bytes());
        if version == 2 {
            buf.extend_from_slice(&[0u8; 16]);
        }
        buf.extend_from_slice(&(g.num_vertices() as u64).to_le_bytes());
        buf.extend_from_slice(&(g.num_candidates() as u64).to_le_bytes());
        let v3 = root(g);
        for (_, start, len) in V3Header::parse(&v3).unwrap().sections() {
            buf.extend_from_slice(&v3[start..start + len]);
        }
        let sum = checksum64(&buf[8..]);
        buf.extend_from_slice(&sum.to_le_bytes());
        buf
    }

    #[test]
    fn checksummed_version_1_and_2_files_are_rejected() {
        for g in [figure1b(), UncertainGraph::new(0, vec![]).unwrap()] {
            for version in [1, 2] {
                let bytes = packed(version, &g);
                let err = decode(&bytes).unwrap_err();
                assert!(
                    matches!(err, SnapshotError::BadVersion(v) if v == version),
                    "v{version}: {err:?}"
                );
                let msg = err.to_string();
                assert!(
                    msg.contains("byte offset 8") && msg.contains("expected 3"),
                    "{msg}"
                );
                assert_eq!(stored_checksum(&bytes), None);
                // A v3 header re-labelled and re-checksummed is refused
                // the same way.
                let mut relabelled = root(&g);
                relabelled[8..12].copy_from_slice(&version.to_le_bytes());
                restamp_header(&mut relabelled);
                assert!(matches!(
                    decode(&relabelled),
                    Err(SnapshotError::BadVersion(v)) if v == version
                ));
            }
        }
    }

    #[test]
    fn rejects_truncation_at_every_length() {
        let bytes = root(&figure1b());
        for len in 0..bytes.len() {
            assert!(
                decode(&bytes[..len]).is_err(),
                "truncation to {len} bytes accepted"
            );
        }
    }

    /// A checksummed header declaring `n`/`m`, with the canonical
    /// section offsets and file length when the layout exists.
    fn crafted_header(n: u64, m: u64) -> Vec<u8> {
        let mut bytes = vec![0u8; V3_HEADER_LEN];
        bytes[..8].copy_from_slice(&SNAPSHOT_MAGIC);
        bytes[8..12].copy_from_slice(&SNAPSHOT_VERSION.to_le_bytes());
        bytes[32..40].copy_from_slice(&n.to_le_bytes());
        bytes[40..48].copy_from_slice(&m.to_le_bytes());
        if let Some((o, t, p, len)) = v3_layout(n as usize, m as usize) {
            for (at, x) in [(48, o), (56, t), (64, p), (72, len)] {
                bytes[at..at + 8].copy_from_slice(&(x as u64).to_le_bytes());
            }
        }
        restamp_header(&mut bytes);
        bytes
    }

    #[test]
    fn crafted_huge_header_is_an_error_not_a_panic() {
        // n = u64::MAX (m = 0): the layout arithmetic must reject it via
        // Err instead of overflowing or indexing out of bounds.
        assert!(matches!(
            decode(&crafted_header(u64::MAX, 0)),
            Err(SnapshotError::Invalid(_))
        ));
        // A huge-but-representable n must fail the length check without
        // allocating terabytes.
        assert!(matches!(
            decode(&crafted_header(1 << 40, 0)),
            Err(SnapshotError::Truncated { .. })
        ));
        // And a huge m must be rejected the same way.
        assert!(decode(&crafted_header(0, u64::MAX)).is_err());
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
    fn stored_checksum_is_the_header_checksum_and_chains() {
        let g = figure1b();
        let bytes = root(&g);
        let stored = stored_checksum(&bytes).unwrap();
        assert_eq!(
            stored,
            u64::from_le_bytes(bytes[104..112].try_into().unwrap())
        );
        assert_eq!(stored_checksum(b"short"), None);
        assert_eq!(stored_checksum(&bytes[..V3_HEADER_LEN - 1]), None);
        // Sensitive to the metadata (the header is summed), so each
        // epoch's child records a distinct parent.
        let tagged = snapshot_bytes(
            &g,
            SnapshotMeta {
                epoch: 1,
                parent_checksum: stored,
            },
        );
        assert_ne!(stored, stored_checksum(&tagged).unwrap());
        assert_eq!(decode_snapshot(&tagged).unwrap().1.parent_checksum, stored);
    }

    #[test]
    fn v3_sections_are_page_aligned() {
        let bytes = root(&figure1b());
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
        let bytes = root(&g);
        // Any flipped non-padding byte past the version must be caught
        // by a checksum (a flipped version byte reports BadVersion).
        let meaningful = V3Header::parse(&bytes)
            .unwrap()
            .sections()
            .into_iter()
            .flat_map(|(_, start, len)| start..start + len)
            .chain(12..V3_HEADER_LEN);
        for pos in meaningful {
            let mut corrupt = bytes.clone();
            corrupt[pos] ^= 0x01;
            assert!(
                matches!(
                    decode(&corrupt),
                    Err(SnapshotError::ChecksumMismatch { .. })
                ),
                "flip at {pos} undetected by a checksum"
            );
        }
    }

    #[test]
    fn checksummed_but_invalid_csr_names_its_byte_offset_on_both_readers() {
        // Figure 1(b): rows [1,2,3], [0,2,3], [0,1,3], [0,1,2]; the
        // copies of (0, 3) are probs 2 and 9. Each case overwrites one
        // element of a section (0 offsets, 1 targets, 2 probs) and
        // re-stamps that section's and the header checksum, so only
        // the CSR validator can reject the file; `structural` says
        // whether `MappedSnapshot::open` already does.
        let le64 = |x: u64| x.to_le_bytes().to_vec();
        let le32 = |x: u32| x.to_le_bytes().to_vec();
        let ulp_above = le64(0.8f64.to_bits() + 1);
        // (case, section, index, new bytes, reported index, structural)
        let cases = [
            ("offsets not monotone", 0, 2, le64(2), 2, true),
            ("target out of range", 1, 4, le32(9), 4, true),
            ("self-loop", 1, 4, le32(1), 4, true),
            ("wrong canonical count", 1, 3, le32(2), 8, true),
            ("row not ascending", 1, 1, le32(3), 2, false),
            ("probability 2.0", 2, 4, le64(2.0f64.to_bits()), 4, false),
            ("mirror bits differ", 2, 9, ulp_above, 2, false),
        ];
        let clean = root(&figure1b());
        let sections = V3Header::parse(&clean).unwrap().sections();
        for (case, section, index, value, reported, structural) in cases {
            let (_, start, len) = sections[section];
            let mut bytes = clean.clone();
            let at = start + value.len() * index;
            bytes[at..at + value.len()].copy_from_slice(&value);
            let sum = checksum64(&bytes[start..start + len]);
            bytes[80 + 8 * section..88 + 8 * section].copy_from_slice(&sum.to_le_bytes());
            restamp_header(&mut bytes);
            let want = format!("at byte offset {}", start + value.len() * reported);
            let heap = match decode(&bytes) {
                Err(SnapshotError::Invalid(msg)) => msg,
                other => panic!("{case}: heap decoder gave {other:?}"),
            };
            assert!(heap.ends_with(&want), "{case}: {heap:?}, want {want:?}");
            #[cfg(all(unix, target_endian = "little"))]
            {
                let dir = std::env::temp_dir().join("obfugraph_snapshot_test");
                std::fs::create_dir_all(&dir).unwrap();
                let path = dir.join(format!("invalid_csr_{section}_{index}.snap"));
                std::fs::write(&path, &bytes).unwrap();
                let opened = crate::MappedSnapshot::open(&path);
                let mapped = crate::MappedSnapshot::open_verified(&path);
                std::fs::remove_file(&path).ok();
                assert_eq!(opened.is_err(), structural, "{case}");
                match mapped {
                    Err(SnapshotError::Invalid(msg)) => assert_eq!(msg, heap, "{case}"),
                    other => panic!("{case}: mapped reader gave {other:?}"),
                }
            }
        }
    }
}
