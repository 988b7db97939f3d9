//! The one validator of an uncertain graph's SoA-CSR incidence arrays.
//!
//! `offsets` (`n + 1` entries), `targets` and `probs` (`2m` entries
//! each) are the only stored form of an [`crate::UncertainGraph`],
//! heap-owned or mapped from a v3 snapshot. Every path that accepts
//! arrays it did not build from a checked candidate list — the heap
//! snapshot decoder, [`crate::MappedSnapshot`]'s open and verify tiers,
//! and `UncertainGraph::apply_delta` — checks them here, in two tiers:
//!
//! - [`check_structure`], O(n + m) over `offsets` and `targets`: after
//!   it passes, every row bound and every target is a valid index, so
//!   no accessor can go out of bounds.
//! - [`check_content`], O(m log d) over all three arrays, run after
//!   [`check_structure`]: together they hold exactly when the arrays
//!   are what `UncertainGraph::new` builds from the canonical candidate
//!   list they encode.
//!
//! A failure names the array and the element index, which a snapshot
//! reader turns into a file byte offset.

use std::fmt;

/// One of the three CSR arrays.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum Section {
    Offsets,
    Targets,
    Probs,
}

/// A violated CSR invariant: the array, the element index within it,
/// and what is wrong there.
#[derive(Debug, Clone, PartialEq)]
pub(crate) struct CsrError {
    pub section: Section,
    pub index: usize,
    pub what: String,
}

impl fmt::Display for CsrError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let section = match self.section {
            Section::Offsets => "offsets",
            Section::Targets => "targets",
            Section::Probs => "probs",
        };
        write!(f, "{} ({section} entry {})", self.what, self.index)
    }
}

fn fail(section: Section, index: usize, what: String) -> Result<(), CsrError> {
    Err(CsrError {
        section,
        index,
        what,
    })
}

/// The structural tier: `offsets` is monotone and spans exactly
/// `[0, 2m]`, every target is a vertex `< n` other than its row, and
/// exactly `m` entries are canonical (`target > row`) — the count the
/// candidate-pair scan stops at. The callers size the arrays from
/// `(n, m)`: `n + 1` offsets, `2m` targets and probs.
pub(crate) fn check_structure(
    n: usize,
    m: usize,
    offsets: &[u64],
    targets: &[u32],
    probs: &[f64],
) -> Result<(), CsrError> {
    let incidents = 2 * m;
    debug_assert_eq!(
        (offsets.len(), targets.len(), probs.len()),
        (n + 1, incidents, incidents)
    );
    if offsets[0] != 0 {
        return fail(
            Section::Offsets,
            0,
            format!("CSR offsets start at {}, expected 0", offsets[0]),
        );
    }
    if offsets[n] != incidents as u64 {
        return fail(
            Section::Offsets,
            n,
            format!("CSR offsets end at {}, expected {incidents}", offsets[n]),
        );
    }
    if let Some(v) = offsets.windows(2).position(|w| w[0] > w[1]) {
        return fail(
            Section::Offsets,
            v + 1,
            format!("CSR offsets not monotone after row {v}"),
        );
    }
    let mut canonical = 0usize;
    for (row, w) in offsets.windows(2).enumerate() {
        for (i, &t) in targets
            .iter()
            .enumerate()
            .take(w[1] as usize)
            .skip(w[0] as usize)
        {
            if t as usize >= n || t as usize == row {
                return fail(
                    Section::Targets,
                    i,
                    format!("row {row} target {t} out of range for n={n} or a self loop"),
                );
            }
            if t as usize > row {
                canonical += 1;
                if canonical > m {
                    return fail(
                        Section::Targets,
                        i,
                        format!("more than the declared {m} canonical (target > row) entries"),
                    );
                }
            }
        }
    }
    if canonical != m {
        return fail(
            Section::Targets,
            incidents,
            format!("found {canonical} canonical (target > row) entries, declared {m}"),
        );
    }
    Ok(())
}

/// The content tier, for arrays that passed [`check_structure`]: each
/// row's targets strictly ascend, every probability is in `[0, 1]`,
/// and every entry `(row, t, p)` has a mirror `(t, row)` with the same
/// probability bits.
pub(crate) fn check_content(
    n: usize,
    offsets: &[u64],
    targets: &[u32],
    probs: &[f64],
) -> Result<(), CsrError> {
    for row in 0..n {
        let (start, end) = (offsets[row] as usize, offsets[row + 1] as usize);
        if let Some(i) = targets[start..end].windows(2).position(|w| w[0] >= w[1]) {
            return fail(
                Section::Targets,
                start + i + 1,
                format!("row {row} targets not strictly ascending"),
            );
        }
        for i in start..end {
            let (t, p) = (targets[i] as usize, probs[i]);
            if !p.is_finite() || !(0.0..=1.0).contains(&p) {
                return fail(Section::Probs, i, format!("probability {p} out of [0,1]"));
            }
            // The binary search assumes row `t` ascends. If it does
            // not, its own check above fails before the loop ends, so
            // a pass is only ever reported over sorted rows.
            let (ms, me) = (offsets[t] as usize, offsets[t + 1] as usize);
            match targets[ms..me].binary_search(&(row as u32)) {
                Err(_) => {
                    return fail(
                        Section::Targets,
                        i,
                        format!("row {row} entry {t} has no mirror in row {t}"),
                    )
                }
                Ok(j) if probs[ms + j].to_bits() != p.to_bits() => {
                    return fail(
                        Section::Probs,
                        i,
                        format!(
                            "row {row} entry ({t}, {p}) differs in bits from its mirror \
                             ({row}, {}) in row {t}",
                            probs[ms + j]
                        ),
                    )
                }
                Ok(_) => {}
            }
        }
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use Section::{Offsets, Probs, Targets};

    /// Figure 1(b)'s CSR: rows [1,2,3], [0,2,3], [0,1,3], [0,1,2].
    fn figure1b() -> (Vec<u64>, Vec<u32>, Vec<f64>) {
        (
            vec![0, 3, 6, 9, 12],
            vec![1, 2, 3, 0, 2, 3, 0, 1, 3, 0, 1, 2],
            vec![0.7, 0.9, 0.8, 0.7, 0.8, 0.1, 0.9, 0.8, 0.0, 0.8, 0.1, 0.0],
        )
    }

    fn check(n: usize, o: &[u64], t: &[u32], p: &[f64]) -> Result<(), CsrError> {
        check_structure(n, t.len() / 2, o, t, p)?;
        check_content(n, o, t, p)
    }

    #[test]
    fn accepts_what_new_builds() {
        let (o, t, p) = figure1b();
        assert_eq!(check(4, &o, &t, &p), Ok(()));
        assert_eq!(check(0, &[0], &[], &[]), Ok(()));
        assert_eq!(check(3, &[0, 0, 0, 0], &[], &[]), Ok(()));
    }

    /// One element rewritten per case (the snapshot tests cover the
    /// rest of the invariants, through both readers): the error names
    /// the section and the element index.
    #[test]
    fn each_violation_names_its_section_and_index() {
        let ulp = f64::from_bits(0.8f64.to_bits() + 1);
        let cases = [
            (Offsets, 0, 1.0, (Offsets, 0)),  // does not start at 0
            (Offsets, 4, 11.0, (Offsets, 4)), // does not end at 2m
            (Targets, 4, 0.0, (Targets, 12)), // five canonical entries of six
            (Probs, 4, -0.5, (Probs, 4)),
            (Probs, 4, f64::NAN, (Probs, 4)),
            (Probs, 4, f64::INFINITY, (Probs, 4)),
            (Probs, 9, ulp, (Probs, 2)), // (3, 0) differs from (0, 3)
        ];
        for (section, index, value, want) in cases {
            let (mut o, mut t, mut p) = figure1b();
            match section {
                Offsets => o[index] = value as u64,
                Targets => t[index] = value as u32,
                Probs => p[index] = value,
            }
            let got = check(4, &o, &t, &p).unwrap_err();
            assert_eq!((got.section, got.index), want, "{got}");
        }
        // Ascending rows with the declared four canonical entries, but
        // (0, 2) has no (2, 0) mirror: row 2 is [1, 3].
        let t = [1, 2, 0, 3, 1, 3, 1, 2];
        let got = check(4, &[0, 2, 4, 6, 8], &t, &[0.5; 8]).unwrap_err();
        assert_eq!((got.section, got.index), (Targets, 1), "{got}");
    }
}
