//! HyperLogLog cardinality counters (Flajolet et al., 2007), with the
//! small-range linear-counting correction. Registers are one byte each;
//! HyperANF packs many counters into a flat byte arena, so the core
//! operations are exposed over raw register slices as well.

/// Bias-correction constant `α_m` for `m` registers.
fn alpha(m: usize) -> f64 {
    match m {
        16 => 0.673,
        32 => 0.697,
        64 => 0.709,
        _ => 0.7213 / (1.0 + 1.079 / m as f64),
    }
}

/// A standalone HyperLogLog counter with `2^b` one-byte registers.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct HyperLogLog {
    b: u32,
    registers: Vec<u8>,
}

impl HyperLogLog {
    /// Creates an empty counter with `2^b` registers; `b` must be in
    /// `4..=16`.
    pub fn new(b: u32) -> Self {
        assert!((4..=16).contains(&b), "b must be in 4..=16, got {b}");
        Self {
            b,
            registers: vec![0; 1 << b],
        }
    }

    /// Raw registers.
    #[inline]
    pub fn registers(&self) -> &[u8] {
        &self.registers
    }

    /// Inserts a pre-hashed 64-bit value.
    #[inline]
    pub fn add_hash(&mut self, hash: u64) {
        add_hash_to_registers(&mut self.registers, self.b, hash);
    }

    /// Estimated cardinality.
    pub fn estimate(&self) -> f64 {
        estimate_registers(&self.registers)
    }

    /// Unions another counter into this one (register-wise max).
    ///
    /// # Panics
    /// Panics if the register counts differ.
    pub fn union(&mut self, other: &HyperLogLog) {
        assert_eq!(self.b, other.b, "mismatched register counts");
        union_registers(&mut self.registers, &other.registers);
    }
}

/// Inserts `hash` into a raw register slice of length `2^b`.
///
/// The low `b` bits select the register; the rank of the first set bit of
/// the remaining bits (counting from 1) is the candidate register value.
#[inline]
pub fn add_hash_to_registers(registers: &mut [u8], b: u32, hash: u64) {
    debug_assert_eq!(registers.len(), 1usize << b);
    let idx = (hash & ((1u64 << b) - 1)) as usize;
    let rest = hash >> b;
    // 64 - b bits remain; a zero remainder gets the maximal rank.
    let rank = if rest == 0 {
        (64 - b + 1) as u8
    } else {
        (rest.trailing_zeros() + 1) as u8
    };
    if rank > registers[idx] {
        registers[idx] = rank;
    }
}

/// Register-wise max union; `dst` and `src` must be the same length.
/// Returns `true` if `dst` changed — HyperANF's termination condition.
#[inline]
pub fn union_registers(dst: &mut [u8], src: &[u8]) -> bool {
    debug_assert_eq!(dst.len(), src.len());
    let mut changed = false;
    for (d, &s) in dst.iter_mut().zip(src) {
        if s > *d {
            *d = s;
            changed = true;
        }
    }
    changed
}

/// HyperLogLog estimate from a raw register slice, with the small-range
/// (linear counting) correction.
pub fn estimate_registers(registers: &[u8]) -> f64 {
    let m = registers.len();
    let mut sum = 0.0f64;
    let mut zeros = 0usize;
    for &r in registers {
        sum += f64::from_bits((1023u64 - r as u64) << 52); // 2^-r
        if r == 0 {
            zeros += 1;
        }
    }
    let raw = alpha(m) * (m as f64) * (m as f64) / sum;
    if raw <= 2.5 * m as f64 && zeros > 0 {
        // Linear counting for the small range.
        m as f64 * (m as f64 / zeros as f64).ln()
    } else {
        raw
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use obf_graph::splitmix64;

    #[test]
    fn empty_estimates_zero() {
        let h = HyperLogLog::new(6);
        assert_eq!(h.estimate(), 0.0);
    }

    #[test]
    fn single_element() {
        let mut h = HyperLogLog::new(6);
        h.add_hash(splitmix64(42));
        let e = h.estimate();
        assert!(e > 0.5 && e < 2.0, "e={e}");
    }

    #[test]
    fn duplicates_do_not_inflate() {
        let mut h = HyperLogLog::new(6);
        for _ in 0..1000 {
            h.add_hash(splitmix64(7));
        }
        let e = h.estimate();
        assert!(e < 2.0, "e={e}");
    }

    #[test]
    fn accuracy_envelope_small() {
        // Linear-counting regime: very accurate.
        for &n in &[10u64, 50, 100] {
            let mut h = HyperLogLog::new(6);
            for i in 0..n {
                h.add_hash(splitmix64(i));
            }
            let e = h.estimate();
            let rel = (e - n as f64).abs() / n as f64;
            assert!(rel < 0.25, "n={n} e={e}");
        }
    }

    #[test]
    fn accuracy_envelope_large() {
        // Standard error ≈ 1.04/sqrt(m); with b=10 (m=1024) that is ~3.3%.
        let mut h = HyperLogLog::new(10);
        let n = 200_000u64;
        for i in 0..n {
            h.add_hash(splitmix64(i ^ 0xDEAD_BEEF));
        }
        let e = h.estimate();
        let rel = (e - n as f64).abs() / n as f64;
        assert!(rel < 0.15, "e={e} rel={rel}");
    }

    #[test]
    fn union_is_idempotent_and_monotone() {
        let mut a = HyperLogLog::new(6);
        let mut b = HyperLogLog::new(6);
        for i in 0..500u64 {
            a.add_hash(splitmix64(i));
        }
        for i in 300..800u64 {
            b.add_hash(splitmix64(i));
        }
        let ea = a.estimate();
        let mut u = a.clone();
        u.union(&b);
        let eu = u.estimate();
        assert!(eu >= ea * 0.99, "union should not shrink: {eu} < {ea}");
        // Idempotence.
        let mut uu = u.clone();
        uu.union(&b);
        assert_eq!(uu, u);
    }

    #[test]
    fn union_estimates_set_union() {
        let mut a = HyperLogLog::new(9);
        let mut b = HyperLogLog::new(9);
        for i in 0..4000u64 {
            a.add_hash(splitmix64(i));
        }
        for i in 2000..6000u64 {
            b.add_hash(splitmix64(i));
        }
        a.union(&b);
        let e = a.estimate();
        let rel = (e - 6000.0).abs() / 6000.0;
        assert!(rel < 0.2, "e={e}");
    }

    #[test]
    fn union_registers_reports_change() {
        let mut a = vec![0u8, 3, 1];
        let b = vec![1u8, 2, 1];
        assert!(union_registers(&mut a, &b));
        assert_eq!(a, vec![1, 3, 1]);
        assert!(!union_registers(&mut a, &b));
    }

    #[test]
    #[should_panic(expected = "b must be in 4..=16")]
    fn rejects_bad_b() {
        let _ = HyperLogLog::new(2);
    }

    #[test]
    #[should_panic(expected = "mismatched")]
    fn rejects_mismatched_union() {
        let mut a = HyperLogLog::new(4);
        let b = HyperLogLog::new(5);
        a.union(&b);
    }

    #[test]
    fn two_to_minus_r_bit_trick() {
        // The f64 bit trick must equal 2^-r for all register values.
        for r in 0u8..=60 {
            let fast = f64::from_bits((1023u64 - r as u64) << 52);
            assert_eq!(fast, 2f64.powi(-(r as i32)), "r={r}");
        }
    }
}
