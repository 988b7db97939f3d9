//! Snapshot v3 integration campaign: corruption/truncation rejection on
//! real files, and the bit-identity guarantee — an mmap-served graph
//! must answer the full server line protocol byte-for-byte identically
//! to the same graph decoded onto the heap.
//!
//! Byte-level format spec: docs/FORMATS.md § "Snapshot files".

use obf_uncertain::{save_snapshot, snapshot_bytes, SnapshotError, SnapshotMeta, UncertainGraph};
use proptest::prelude::*;

fn tmp(name: &str) -> std::path::PathBuf {
    let dir = std::env::temp_dir().join("obfugraph_snapshot_v3_test");
    std::fs::create_dir_all(&dir).unwrap();
    dir.join(name)
}

fn sample_graph() -> UncertainGraph {
    UncertainGraph::new(
        5,
        vec![
            (0, 1, 0.7),
            (0, 2, 0.9),
            (1, 2, 0.8),
            (1, 3, 0.1),
            (2, 4, 0.35),
            (3, 4, 1.0),
        ],
    )
    .unwrap()
}

fn decode(bytes: &[u8]) -> Result<UncertainGraph, SnapshotError> {
    obf_uncertain::decode_snapshot(bytes).map(|(g, _)| g)
}

#[test]
fn v3_rejects_bad_magic() {
    let mut bytes = snapshot_bytes(&sample_graph(), SnapshotMeta::default());
    bytes[0] ^= 0xFF;
    let err = decode(&bytes).unwrap_err();
    assert!(matches!(err, SnapshotError::BadMagic));
    assert!(err.to_string().contains("byte offset 0"), "{err}");
}

#[test]
fn v3_rejects_misaligned_section_offset() {
    let g = sample_graph();
    let mut bytes = snapshot_bytes(&g, SnapshotMeta::default());
    // Nudge the targets section offset off its 4096-aligned position
    // and restamp the header checksum so the misalignment itself is
    // what the parser sees.
    let stored = u64::from_le_bytes(bytes[56..64].try_into().unwrap());
    bytes[56..64].copy_from_slice(&(stored + 8).to_le_bytes());
    let fixed = obf_uncertain::snapshot::checksum64(&bytes[8..104]);
    bytes[104..112].copy_from_slice(&fixed.to_le_bytes());
    let err = decode(&bytes).unwrap_err();
    assert!(
        matches!(err, SnapshotError::Misaligned { .. }),
        "expected Misaligned, got {err:?}"
    );
    assert!(err.to_string().contains("byte offset"), "{err}");
}

#[test]
fn v3_rejects_checksum_flip_in_every_section() {
    let g = sample_graph();
    let clean = snapshot_bytes(&g, SnapshotMeta::default());
    // One representative byte per region: header field, offsets,
    // targets, probs (the snapshot.rs unit suite flips every byte;
    // this is the end-to-end spot check against a written file).
    let offsets_off = u64::from_le_bytes(clean[48..56].try_into().unwrap()) as usize;
    let targets_off = u64::from_le_bytes(clean[56..64].try_into().unwrap()) as usize;
    let probs_off = u64::from_le_bytes(clean[64..72].try_into().unwrap()) as usize;
    for at in [16, offsets_off, targets_off + 1, probs_off + 5] {
        let mut bytes = clean.clone();
        bytes[at] ^= 0x04;
        let err = decode(&bytes).unwrap_err();
        assert!(
            matches!(err, SnapshotError::ChecksumMismatch { .. }),
            "flip at {at}: expected ChecksumMismatch, got {err:?}"
        );
        assert!(err.to_string().contains("byte offset"), "{err}");
    }
}

#[test]
fn v3_rejects_truncation_at_every_boundary() {
    let bytes = snapshot_bytes(&sample_graph(), SnapshotMeta::default());
    // Shorter than the magic, shorter than the header, header-only,
    // mid-section, one byte short of complete.
    for len in [0, 4, 60, 112, 4096, 4100, bytes.len() - 1] {
        let err = decode(&bytes[..len]).unwrap_err();
        assert!(
            matches!(
                err,
                SnapshotError::Truncated { .. } | SnapshotError::BadMagic
            ),
            "truncation to {len}: got {err:?}"
        );
    }
}

#[cfg(all(unix, target_endian = "little"))]
mod mmap_vs_heap {
    use super::*;
    use obf_server::{Client, Server};
    use obf_uncertain::MappedSnapshot;
    use std::sync::Arc;

    /// Every read verb of the line protocol, with answers that depend
    /// on candidate order, probabilities, sampling RNG streams and the
    /// degree-distribution DP — if any byte of the mmap view diverged
    /// from the heap arrays, some reply would differ.
    fn script(n: usize) -> Vec<String> {
        let mut s = vec![
            "PING".to_string(),
            "INFO".to_string(),
            "EXPECTED num_edges".to_string(),
            "EXPECTED avg_degree".to_string(),
            "EXPECTED degree_variance".to_string(),
            "EXPECTED triangles".to_string(),
            "STAT num_edges 6 11".to_string(),
            "STAT avg_degree 4 7".to_string(),
        ];
        for v in 0..n.min(4) {
            s.push(format!("EXPECTED_DEGREE {v}"));
            s.push(format!("DEGREE_DIST {v}"));
            s.push(format!("NEIGHBORHOOD {v}"));
        }
        s
    }

    fn transcript(g: Arc<UncertainGraph>, script: &[String]) -> Vec<String> {
        let server = Server::bind(g, "127.0.0.1:0", 16).unwrap();
        let mut client = Client::connect(server.addr()).unwrap();
        let replies: Vec<String> = script.iter().map(|q| client.request(q).unwrap()).collect();
        drop(client);
        server.shutdown();
        replies
    }

    #[test]
    fn mapped_graph_equals_heap_graph_in_memory() {
        let g = sample_graph();
        let path = tmp("equality.snap");
        save_snapshot(&g, SnapshotMeta::default(), &path).unwrap();
        let mapped = UncertainGraph::from_mapped(MappedSnapshot::open(&path).unwrap());
        assert!(mapped.is_mapped());
        assert_eq!(mapped, g);
        // The clone is a heap deep copy and still equal.
        let cloned = mapped.clone();
        assert!(!cloned.is_mapped());
        assert_eq!(cloned, g);
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn reload_through_protocol_reports_mmap_source_and_switches_answers() {
        let old = UncertainGraph::new(3, vec![(0, 1, 0.5)]).unwrap();
        let new = sample_graph();
        let path = tmp("reload.snap");
        save_snapshot(
            &new,
            SnapshotMeta {
                epoch: 7,
                parent_checksum: 1,
            },
            &path,
        )
        .unwrap();

        let server = Server::bind(Arc::new(old), "127.0.0.1:0", 16).unwrap();
        let mut client = Client::connect(server.addr()).unwrap();
        assert_eq!(client.request("EXPECTED num_edges").unwrap(), "OK 0.5");
        let reply = client
            .request(&format!("RELOAD {}", path.display()))
            .unwrap();
        assert!(reply.starts_with("OK reloaded epoch=1"), "{reply}");
        assert!(reply.contains("snapshot_epoch=7"), "{reply}");
        assert!(reply.ends_with("source=mmap"), "{reply}");
        // Answers now come from the mapped graph.
        assert_eq!(
            client.request("EXPECTED num_edges").unwrap(),
            format!("OK {}", obf_uncertain::expected_num_edges(&new))
        );
        drop(client);
        server.shutdown();
        std::fs::remove_file(&path).ok();
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(12))]

        /// The headline invariant: for random graphs, a server loaded
        /// from the mmap view answers the whole protocol script
        /// byte-identically to one loaded from heap arrays.
        #[test]
        fn server_protocol_is_bit_identical_across_stores(
            n in 2usize..24,
            raw in proptest::collection::vec((0u32..24, 0u32..24, 0.0f64..=1.0), 1..60),
            case in 0u64..u64::MAX,
        ) {
            let mut seen = std::collections::HashSet::new();
            let cands: Vec<(u32, u32, f64)> = raw
                .into_iter()
                .filter(|&(u, v, _)| u != v && (u as usize) < n && (v as usize) < n)
                .filter(|&(u, v, _)| seen.insert((u.min(v), u.max(v))))
                .collect();
            let g = UncertainGraph::new(n, cands).unwrap();
            let path = tmp(&format!("prop_{case}.snap"));
            save_snapshot(&g, SnapshotMeta::default(), &path).unwrap();
            let mapped = UncertainGraph::from_mapped(MappedSnapshot::open(&path).unwrap());

            let script = script(n);
            let heap_replies = transcript(Arc::new(g), &script);
            let mmap_replies = transcript(Arc::new(mapped), &script);
            prop_assert_eq!(heap_replies, mmap_replies);
            std::fs::remove_file(&path).ok();
        }
    }
}
