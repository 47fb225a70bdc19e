//! `sim_fingerprint`: one hash over every simulated counter a workload
//! saw. Two runs of the same code on the same seed must print the same
//! value, so a change meant only to make the simulator faster can cite
//! "fingerprint unchanged".

/// FNV-1a over 64-bit words (each word fed byte by byte, little endian).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Fingerprint(u64);

impl Default for Fingerprint {
    fn default() -> Self {
        Fingerprint(0xcbf2_9ce4_8422_2325)
    }
}

impl Fingerprint {
    pub fn new() -> Self {
        Self::default()
    }

    pub fn push(&mut self, word: u64) {
        for byte in word.to_le_bytes() {
            self.0 ^= u64::from(byte);
            self.0 = self.0.wrapping_mul(0x0000_0100_0000_01b3);
        }
    }

    /// Floats enter by bit pattern: simulated cycles must repeat exactly.
    pub fn push_f64(&mut self, value: f64) {
        self.push(value.to_bits());
    }

    pub fn push_str(&mut self, s: &str) {
        self.push(s.len() as u64);
        for chunk in s.as_bytes().chunks(8) {
            let mut word = [0u8; 8];
            word[..chunk.len()].copy_from_slice(chunk);
            self.push(u64::from_le_bytes(word));
        }
    }

    pub fn hex(self) -> String {
        format!("{:016x}", self.0)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fingerprint_is_stable_and_order_sensitive() {
        let mut a = Fingerprint::new();
        a.push(1);
        a.push(2);
        a.push_f64(0.5);
        a.push_str("health");
        let mut b = Fingerprint::new();
        b.push(1);
        b.push(2);
        b.push_f64(0.5);
        b.push_str("health");
        assert_eq!(a, b);
        // Pinned: a changed hash function would silently invalidate every
        // recorded fingerprint.
        assert_eq!(a.hex(), "deea665c2c0f04eb");
        let mut c = Fingerprint::new();
        c.push(2);
        c.push(1);
        assert_ne!(c.hex(), {
            let mut d = Fingerprint::new();
            d.push(1);
            d.push(2);
            d.hex()
        });
        assert_eq!(Fingerprint::new().hex().len(), 16);
    }
}
