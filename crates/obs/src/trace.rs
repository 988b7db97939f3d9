//! Per-request trace ids.
//!
//! A trace id is a process-unique `u64` minted when a request enters
//! the serving layer. It appears in request-log lines only; it never
//! influences an answer byte.

use std::fmt;
use std::sync::atomic::{AtomicU64, Ordering};

/// A process-unique request trace id. `TraceId(0)` means "none".
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct TraceId(pub u64);

impl TraceId {
    pub const NONE: TraceId = TraceId(0);

    pub fn is_none(self) -> bool {
        self.0 == 0
    }
}

impl fmt::Display for TraceId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{:016x}", self.0)
    }
}

static NEXT: AtomicU64 = AtomicU64::new(1);

/// Mint a fresh, process-unique trace id (never [`TraceId::NONE`]).
pub fn next_trace_id() -> TraceId {
    TraceId(NEXT.fetch_add(1, Ordering::Relaxed))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn ids_are_unique_and_nonzero() {
        let a = next_trace_id();
        let b = next_trace_id();
        assert_ne!(a, b);
        assert!(!a.is_none());
        assert_eq!(format!("{}", TraceId(0xabc)), "0000000000000abc");
    }
}
