//! Scale-out serving: a replica fleet behind one router.
//!
//! A [`fleet::Router`] accepts `obf_server` protocol connections and
//! fans them out over replica servers, with health/drain verbs and an
//! epoch-consistent two-phase `RELOAD` rollout: every replica stages the
//! new release first (`RELOAD_PREPARE`), then each replica is drained
//! and flipped (`RELOAD_COMMIT`) in turn, so no routed connection ever
//! observes answers from two epochs. Routing never changes an answer
//! byte: the fleet path serves the same answers digest as one server.
//!
//! # Example
//!
//! ```
//! use std::sync::Arc;
//!
//! use obf_cluster::{Fleet, RouterConfig};
//! use obf_server::{Client, ServerConfig};
//! use obf_uncertain::UncertainGraph;
//!
//! let published = UncertainGraph::new(4, vec![(0, 1, 0.9), (1, 2, 0.5), (2, 3, 0.8)]).unwrap();
//! let fleet = Fleet::launch(
//!     Arc::new(published),
//!     2,
//!     ServerConfig::default(),
//!     RouterConfig::default(),
//! )
//! .unwrap();
//! let mut client = Client::connect(fleet.addr()).unwrap();
//! let reply = client.request("EXPECTED num_edges").unwrap();
//! assert!(reply.starts_with("OK "), "{reply}");
//! fleet.shutdown();
//! ```

// `unsafe` in this workspace is confined to audited modules (see
// docs/AUDIT.md, rule unsafe-hygiene); within them, every unsafe
// operation must sit in its own `unsafe` block with a SAFETY note.
#![deny(unsafe_op_in_unsafe_fn)]

pub mod fleet;

pub use fleet::{Fleet, Router, RouterConfig};
