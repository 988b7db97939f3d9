//! `Span`: a wall-clock timer for a region of code.
//!
//! The `Instant::now` reads live here — inside the one crate the D2
//! `wall-clock` audit rule allowlists — so instrumented code elsewhere
//! never reads the clock directly. A span records nothing by itself:
//! its owner folds the duration it returns into a histogram, a stats
//! field or a request-log record. Durations are never part of an
//! answer.

use std::time::Instant;

/// Times the region from [`Span::start`] to [`Span::finish`] (or
/// [`Span::finish_secs`]).
pub struct Span {
    start: Instant,
}

impl Span {
    /// Start timing now.
    pub fn start() -> Span {
        Span {
            start: Instant::now(),
        }
    }

    /// End the span and return its duration in whole microseconds.
    pub fn finish(self) -> u64 {
        u64::try_from(self.start.elapsed().as_micros()).unwrap_or(u64::MAX)
    }

    /// End the span and return its duration as exact
    /// (nanosecond-resolution) float seconds.
    pub fn finish_secs(self) -> f64 {
        self.start.elapsed().as_secs_f64()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn finish_measures_the_region() {
        let s = Span::start();
        std::thread::sleep(std::time::Duration::from_millis(2));
        assert!(s.finish() >= 2_000);
        let s = Span::start();
        std::thread::sleep(std::time::Duration::from_millis(2));
        assert!(s.finish_secs() >= 0.002);
    }
}
