//! Whitespace-separated edge-list I/O.
//!
//! Real datasets (e.g. SNAP exports of co-authorship networks) ship as
//! `u v` pairs, one edge per line, with `#` comments. The loader maps
//! arbitrary vertex labels to contiguous ids and returns the mapping so
//! published results can be traced back.

use std::io::BufRead;
use std::path::Path;

use crate::builder::GraphBuilder;
use crate::graph::Graph;
use crate::hashers::FxHashMap;

/// Errors from edge-list parsing. Every content error names both the
/// 1-based line and the byte offset where that line starts (counting
/// `\n` line endings), so a report is actionable with either a text
/// editor or `dd`/`xxd`.
#[derive(Debug)]
pub enum IoError {
    Io(std::io::Error),
    Parse {
        line: usize,
        /// Byte offset of the start of the offending line.
        byte: u64,
        content: String,
    },
    /// A line that parses but violates the edge-list contract (self loop,
    /// duplicate pair) — reported with the offending line so the input
    /// file can be fixed rather than silently patched.
    Invalid {
        line: usize,
        /// Byte offset of the start of the offending line.
        byte: u64,
        msg: String,
    },
}

impl std::fmt::Display for IoError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            IoError::Io(e) => write!(f, "I/O error: {e}"),
            IoError::Parse {
                line,
                byte,
                content,
            } => {
                write!(
                    f,
                    "parse error at line {line} (byte offset {byte}): {content:?}"
                )
            }
            IoError::Invalid { line, byte, msg } => {
                write!(
                    f,
                    "invalid edge list at line {line} (byte offset {byte}): {msg}"
                )
            }
        }
    }
}

impl std::error::Error for IoError {}

impl From<std::io::Error> for IoError {
    fn from(e: std::io::Error) -> Self {
        IoError::Io(e)
    }
}

/// Result of loading an edge list: the graph plus the original labels of
/// each contiguous vertex id.
#[derive(Debug)]
pub struct LoadedGraph {
    pub graph: Graph,
    /// `labels[v]` is the original label of vertex `v`.
    pub labels: Vec<u64>,
}

/// Parses an edge list from a reader: one `u v` pair per line, `#`-prefixed
/// lines and blank lines skipped. Labels are arbitrary u64s, remapped to
/// `0..n` in first-appearance order.
///
/// Self loops (`u == v`) and duplicate pairs (the same undirected pair
/// listed twice, in either orientation) are rejected with
/// [`IoError::Invalid`] naming the offending line: both are almost always
/// artifacts of a broken export, and silently dropping them would publish
/// a graph that disagrees with its source file's edge count.
pub fn read_edge_list<R: BufRead>(reader: R) -> Result<LoadedGraph, IoError> {
    let mut id_of: FxHashMap<u64, u32> = FxHashMap::default();
    let mut labels: Vec<u64> = Vec::new();
    let mut edges: Vec<(u32, u32)> = Vec::new();
    let mut seen: crate::hashers::FxHashSet<(u32, u32)> = crate::hashers::FxHashSet::default();
    let intern = |label: u64, labels: &mut Vec<u64>, id_of: &mut FxHashMap<u64, u32>| -> u32 {
        *id_of.entry(label).or_insert_with(|| {
            let id = labels.len() as u32;
            labels.push(label);
            id
        })
    };
    // Byte offset of the current line's first byte, assuming `\n`
    // line endings (what `lines()` strips).
    let mut line_start: u64 = 0;
    for (lineno, line) in reader.lines().enumerate() {
        let line = line?;
        let byte = line_start;
        line_start += line.len() as u64 + 1;
        let t = line.trim();
        if t.is_empty() || t.starts_with('#') || t.starts_with('%') {
            continue;
        }
        let mut parts = t.split_whitespace();
        let (Some(a), Some(b)) = (parts.next(), parts.next()) else {
            return Err(IoError::Parse {
                line: lineno + 1,
                byte,
                content: line.clone(),
            });
        };
        let (Ok(a), Ok(b)) = (a.parse::<u64>(), b.parse::<u64>()) else {
            return Err(IoError::Parse {
                line: lineno + 1,
                byte,
                content: line.clone(),
            });
        };
        if a == b {
            return Err(IoError::Invalid {
                line: lineno + 1,
                byte,
                msg: format!("self loop at vertex {a}"),
            });
        }
        let u = intern(a, &mut labels, &mut id_of);
        let v = intern(b, &mut labels, &mut id_of);
        if !seen.insert((u.min(v), u.max(v))) {
            return Err(IoError::Invalid {
                line: lineno + 1,
                byte,
                msg: format!("duplicate edge ({a}, {b})"),
            });
        }
        edges.push((u, v));
    }
    let mut builder = GraphBuilder::with_capacity(labels.len(), edges.len());
    builder.extend_edges(edges);
    Ok(LoadedGraph {
        graph: builder.build(),
        labels,
    })
}

/// Loads an edge list from a file path.
pub fn load_edge_list<P: AsRef<Path>>(path: P) -> Result<LoadedGraph, IoError> {
    let file = std::fs::File::open(path)?;
    read_edge_list(std::io::BufReader::new(file))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parse_simple() {
        let input = "# comment\n1 2\n2 3\n\n3 1\n";
        let loaded = read_edge_list(input.as_bytes()).unwrap();
        assert_eq!(loaded.graph.num_vertices(), 3);
        assert_eq!(loaded.graph.num_edges(), 3);
        assert_eq!(loaded.labels, vec![1, 2, 3]);
    }

    #[test]
    fn labels_remapped_in_first_appearance_order() {
        let input = "100 7\n7 55\n";
        let loaded = read_edge_list(input.as_bytes()).unwrap();
        assert_eq!(loaded.labels, vec![100, 7, 55]);
        assert!(loaded.graph.has_edge(0, 1));
        assert!(loaded.graph.has_edge(1, 2));
    }

    #[test]
    fn self_loop_rejected_with_line_and_byte() {
        let input = "1 2\n3 3\n";
        match read_edge_list(input.as_bytes()) {
            Err(IoError::Invalid { line, byte, msg }) => {
                assert_eq!(line, 2);
                assert_eq!(byte, 4);
                assert!(msg.contains("self loop"), "msg={msg}");
            }
            other => panic!("expected invalid error, got {other:?}"),
        }
    }

    #[test]
    fn duplicate_rejected_with_line_either_orientation() {
        for input in ["1 2\n1 2\n", "1 2\n2 1\n"] {
            match read_edge_list(input.as_bytes()) {
                Err(IoError::Invalid { line, byte, msg }) => {
                    assert_eq!(line, 2);
                    assert_eq!(byte, 4);
                    assert!(msg.contains("duplicate"), "msg={msg}");
                }
                other => panic!("expected invalid error, got {other:?}"),
            }
        }
    }

    #[test]
    fn parse_error_reported_with_line_and_byte() {
        let input = "# header\n1 2\nbogus\n";
        match read_edge_list(input.as_bytes()) {
            Err(IoError::Parse { line, byte, .. }) => {
                assert_eq!(line, 3);
                assert_eq!(byte, 13);
            }
            other => panic!("expected parse error, got {other:?}"),
        }
        let err = read_edge_list("bogus\n".as_bytes()).unwrap_err();
        assert!(err.to_string().contains("byte offset 0"), "{err}");
    }

    #[test]
    fn missing_second_field() {
        let input = "1\n";
        assert!(read_edge_list(input.as_bytes()).is_err());
    }

    #[test]
    fn tab_separated_input() {
        let input = "0\t1\n1\t2\n2\t3\n0\t3\n";
        let loaded = read_edge_list(input.as_bytes()).unwrap();
        let g = Graph::from_edges(4, &[(0, 1), (1, 2), (2, 3), (0, 3)]);
        assert_eq!(loaded.graph, g);
    }

    #[test]
    fn load_from_file() {
        let dir = std::env::temp_dir().join("obfugraph_io_test");
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("g.txt");
        std::fs::write(&path, "0 1\n1 2\n").unwrap();
        let loaded = load_edge_list(&path).unwrap();
        assert_eq!(loaded.graph.num_edges(), 2);
        std::fs::remove_file(&path).ok();
    }
}
