//! Incremental obfuscation of **evolving** graphs.
//!
//! The paper obfuscates one static snapshot; real social graphs grow
//! continuously, and re-running Algorithms 1–2 from scratch on every
//! release repays the dominant cost — the Definition 2 adversary check
//! — for rows that did not change. This crate turns the one-shot
//! reproduction into a republish pipeline:
//!
//! * [`DeltaLog`] — a versioned, auditable text format for timestamped
//!   edge insert/delete batches ([`obf_graph::EdgeBatch`]), applied to
//!   CSR graphs by sorted-run merges (no rebuild);
//! * [`IncrementalAdversary`] — the patched Definition 2 check: an edge
//!   batch only changes the degree distributions of its endpoint
//!   vertices, so only those Lemma 1 rows are re-derived, and the
//!   per-chunk entropy accumulators of the touched chunks are replaced
//!   — bit-identical to a from-scratch build at any thread count;
//! * [`Republisher`] — delta in, (k, ε)-certified release out: the
//!   patched check at the previous σ usually suffices; otherwise the σ
//!   search re-runs warm-started from the previous minimal σ.
//!
//! Downstream, `obf_uncertain::snapshot` tags each release
//! with an epoch and its parent's checksum, and `obf_server` swaps
//! releases in live via `RELOAD` with epoch-keyed world-cache
//! invalidation.
//!
//! # Example
//!
//! ```
//! use obf_core::ObfuscationParams;
//! use obf_evolve::{EvolveParams, Republisher};
//! use obf_graph::EdgeBatch;
//!
//! let g = obf_datasets::dblp_like(300, 7);
//! let mut params = ObfuscationParams::new(3, 0.1).with_seed(5);
//! params.delta = 1e-2; // coarse search for the example
//! params.t = 2;
//! let (mut rep, _) = Republisher::publish(g, EvolveParams::new(params)).unwrap();
//!
//! // One edge appears; republish without a from-scratch search.
//! let (u, v) = (0u32, 299u32);
//! assert!(!rep.original().has_edge(u, v));
//! let batch = EdgeBatch::new(1, vec![(u, v)], vec![]).unwrap();
//! let report = rep.republish(&batch).unwrap();
//! assert_eq!(report.epoch, 1);
//! assert!(report.eps_achieved <= 0.1);
//! assert!(report.rows_recomputed <= 2 || !report.incremental);
//! ```

pub mod incremental;
pub mod log;
pub mod republish;

pub use incremental::IncrementalAdversary;
pub use log::{DeltaLog, DeltaLogError, DELTA_LOG_MAGIC, DELTA_LOG_VERSION};
pub use republish::{EvolveParams, RepublishError, RepublishReport, Republisher};
