//! The benchmark's own random numbers and input digest.
//!
//! Every input (overlay seed, traffic matrix, update bursts, client
//! statements) is drawn from generators in this file, keyed by the
//! `--seed` argument and a per-purpose label, so the inputs do not move
//! when the program under test changes its own generators.

/// SplitMix64: tiny, fast, and good enough to scatter benchmark inputs.
#[derive(Debug, Clone)]
pub struct Rng(u64);

impl Rng {
    pub fn new(seed: u64) -> Rng {
        Rng(seed)
    }

    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9e37_79b9_7f4a_7c15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        z ^ (z >> 31)
    }

    /// Uniform in `0..n` (`n > 0`). The modulo bias is below 2^-40 for the
    /// sizes used here.
    pub fn below(&mut self, n: usize) -> usize {
        (self.next_u64() % n as u64) as usize
    }

    /// Fisher–Yates shuffle.
    pub fn shuffle<T>(&mut self, items: &mut [T]) {
        for i in (1..items.len()).rev() {
            items.swap(i, self.below(i + 1));
        }
    }

    /// Uniform in `[0, 1)`.
    pub fn unit(&mut self) -> f64 {
        (self.next_u64() >> 11) as f64 / (1u64 << 53) as f64
    }
}

/// A sub-seed for one purpose (`"overlay"`, `"flows"`, ...), so that
/// changing how many numbers one generator draws never shifts another.
pub fn derive(seed: u64, label: &str) -> u64 {
    let mut digest = Digest::new();
    digest.str(label);
    Rng::new(seed ^ digest.0).next_u64()
}

/// FNV-1a over the generated inputs; printed as `input_digest` so two runs
/// can be shown to have measured the same inputs.
#[derive(Debug, Clone)]
pub struct Digest(u64);

impl Digest {
    pub fn new() -> Digest {
        Digest(0xcbf2_9ce4_8422_2325)
    }

    pub fn bytes(&mut self, bytes: &[u8]) {
        for &b in bytes {
            self.0 = (self.0 ^ u64::from(b)).wrapping_mul(0x0000_0100_0000_01b3);
        }
    }

    pub fn u64(&mut self, value: u64) {
        self.bytes(&value.to_le_bytes());
    }

    pub fn f64(&mut self, value: f64) {
        self.u64(value.to_bits());
    }

    pub fn str(&mut self, value: &str) {
        self.bytes(value.as_bytes());
        self.bytes(&[0xff]);
    }

    pub fn hex(&self) -> String {
        format!("{:016x}", self.0)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn same_seed_same_stream_and_labels_are_independent() {
        let mut a = Rng::new(7);
        let mut b = Rng::new(7);
        for _ in 0..100 {
            assert_eq!(a.next_u64(), b.next_u64());
        }
        assert_eq!(derive(1, "overlay"), derive(1, "overlay"));
        assert_ne!(derive(1, "overlay"), derive(1, "flows"));
        assert_ne!(derive(1, "overlay"), derive(2, "overlay"));
    }

    #[test]
    fn below_and_unit_stay_in_range() {
        let mut rng = Rng::new(3);
        for _ in 0..10_000 {
            assert!(rng.below(7) < 7);
            let u = rng.unit();
            assert!((0.0..1.0).contains(&u));
        }
    }

    #[test]
    fn shuffle_permutes() {
        let mut items: Vec<u32> = (0..50).collect();
        Rng::new(11).shuffle(&mut items);
        assert_ne!(items, (0..50).collect::<Vec<_>>());
        items.sort_unstable();
        assert_eq!(items, (0..50).collect::<Vec<_>>());
    }

    #[test]
    fn digest_separates_fields() {
        let mut a = Digest::new();
        a.str("ab");
        a.str("c");
        let mut b = Digest::new();
        b.str("a");
        b.str("bc");
        assert_ne!(a.hex(), b.hex());
    }
}
