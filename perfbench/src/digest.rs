//! Output digests and the reference table kept with the benchmark.
//!
//! A digest is FNV-1a over the exact bits of what a workload computed
//! (best thresholds and precision/recall/F1 per algorithm and graph), so
//! any change of output, however small, changes it. `reference.tsv` holds
//! the digests this revision produced for a range of seeds; a run whose
//! seed is listed must reproduce its row.

/// FNV-1a, 64 bits.
#[derive(Debug, Clone, Copy)]
pub struct Digest(u64);

impl Default for Digest {
    fn default() -> Self {
        Digest(0xcbf2_9ce4_8422_2325)
    }
}

impl Digest {
    /// Fold raw bytes in.
    pub fn bytes(&mut self, b: &[u8]) -> &mut Self {
        for &x in b {
            self.0 ^= u64::from(x);
            self.0 = self.0.wrapping_mul(0x0100_0000_01b3);
        }
        self
    }

    /// Fold a string in (length-prefixed, so concatenations differ).
    pub fn str(&mut self, s: &str) -> &mut Self {
        self.u64(s.len() as u64).bytes(s.as_bytes())
    }

    /// Fold an integer in.
    pub fn u64(&mut self, v: u64) -> &mut Self {
        self.bytes(&v.to_le_bytes())
    }

    /// Fold the exact bits of a float in.
    pub fn f64(&mut self, v: f64) -> &mut Self {
        self.u64(v.to_bits())
    }

    /// The digest as 16 hex digits.
    pub fn hex(&self) -> String {
        format!("{:016x}", self.0)
    }
}

const REFERENCE: &str = include_str!("../reference.tsv");

/// The stored digest for `(workload, size, seed)`, if the table has one.
pub fn reference(workload: &str, size: &str, seed: u64) -> Option<&'static str> {
    REFERENCE
        .lines()
        .filter(|l| !l.starts_with('#'))
        .map(|l| l.split('\t').collect::<Vec<_>>())
        .find(|c| c.len() == 4 && c[0] == workload && c[1] == size && c[2] == seed.to_string())
        .map(|c| c[3])
}
