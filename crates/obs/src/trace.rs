//! Per-request trace ids.
//!
//! A trace id is a process-unique, nonzero `u64` minted when a request
//! enters the serving layer. It appears in request-log lines only; it
//! never influences an answer byte.

use std::sync::atomic::{AtomicU64, Ordering};

static NEXT: AtomicU64 = AtomicU64::new(1);

/// Mint a fresh, process-unique trace id (never 0).
pub fn next_trace_id() -> u64 {
    NEXT.fetch_add(1, Ordering::Relaxed)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn ids_are_unique_and_nonzero() {
        let a = next_trace_id();
        let b = next_trace_id();
        assert_ne!(a, b);
        assert_ne!(a, 0);
    }
}
