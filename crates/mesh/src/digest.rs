//! A 128-bit content digest: the fold a mesh takes of itself while it is
//! built ([`crate::Mesh::digest`]) and, because this is the one crate every
//! layer above sees, the fold the DSL takes of everything else lowering
//! reads (`pbte_dsl::problem::Problem::plan_key`).
//!
//! It names content inside one process — nothing stores it — so it is not a
//! format: two independent 64-bit lanes, each a folded 64 × 64 → 128
//! multiply per word, which moves every input bit into every state bit (a
//! word-wise FNV would let two flipped sign bits cancel). Variable-length
//! items carry their length, so adjacent items cannot trade content.

/// A running digest; `Copy`, so a stored one can be continued without being
/// disturbed.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct Digest {
    a: u64,
    b: u64,
}

impl Default for Digest {
    fn default() -> Self {
        Digest::new()
    }
}

#[inline(always)]
fn fold(x: u64, k: u64) -> u64 {
    let p = x as u128 * k as u128;
    p as u64 ^ (p >> 64) as u64
}

impl Digest {
    pub const fn new() -> Digest {
        Digest {
            a: 0x243f_6a88_85a3_08d3,
            b: 0x1319_8a2e_0370_7344,
        }
    }

    /// Fold one word.
    #[inline(always)]
    pub fn word(&mut self, w: u64) {
        self.a = fold(self.a ^ w, 0x9e37_79b9_7f4a_7c15);
        self.b = fold(self.b ^ w, 0xd1b5_4a32_d192_ed03).rotate_left(23);
    }

    /// Fold a size or an id.
    #[inline(always)]
    pub fn size(&mut self, n: usize) {
        self.word(n as u64);
    }

    /// Fold a float by its bits: `0.0` and `-0.0` differ, as do two values
    /// one ulp apart.
    #[inline(always)]
    pub fn f64(&mut self, v: f64) {
        self.word(v.to_bits());
    }

    /// Fold a float slice, length first.
    pub fn f64s(&mut self, values: &[f64]) {
        self.size(values.len());
        values.iter().for_each(|&v| self.f64(v));
    }

    /// Fold an id slice, length first.
    pub fn sizes(&mut self, values: &[usize]) {
        self.size(values.len());
        values.iter().for_each(|&v| self.size(v));
    }

    /// Fold a string, length first.
    pub fn str(&mut self, s: &str) {
        self.size(s.len());
        for chunk in s.as_bytes().chunks(8) {
            let mut word = [0u8; 8];
            word[..chunk.len()].copy_from_slice(chunk);
            self.word(u64::from_le_bytes(word));
        }
    }

    /// Fold another digest.
    pub fn digest(&mut self, other: Digest) {
        self.word(other.a);
        self.word(other.b);
    }

    /// This digest continued by `tag`: a second name derived from a first.
    pub fn tagged(mut self, tag: &str) -> Digest {
        self.str(tag);
        self
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn of(f: impl FnOnce(&mut Digest)) -> Digest {
        let mut d = Digest::new();
        f(&mut d);
        d
    }

    #[test]
    fn equal_content_equal_digest_and_every_bit_counts() {
        let base = of(|d| d.f64s(&[1.0, -2.5, 0.0]));
        assert_eq!(base, of(|d| d.f64s(&[1.0, -2.5, 0.0])));
        assert_ne!(base, of(|d| d.f64s(&[1.0, -2.5, -0.0])));
        assert_ne!(
            base,
            of(|d| d.f64s(&[f64::from_bits(1.0f64.to_bits() + 1), -2.5, 0.0]))
        );
        // Two flipped sign bits do not cancel.
        assert_ne!(base, of(|d| d.f64s(&[-1.0, 2.5, 0.0])));
    }

    #[test]
    fn lengths_keep_adjacent_items_apart() {
        assert_ne!(
            of(|d| {
                d.str("ab");
                d.str("c")
            }),
            of(|d| {
                d.str("a");
                d.str("bc")
            })
        );
        assert_ne!(
            of(|d| {
                d.sizes(&[1, 2]);
                d.sizes(&[])
            }),
            of(|d| {
                d.sizes(&[1]);
                d.sizes(&[2])
            })
        );
        assert_ne!(of(|d| d.str("")), of(|_| {}));
    }

    #[test]
    fn a_tag_derives_a_different_name() {
        let d = of(|d| d.size(7));
        assert_ne!(d, d.tagged("jvp"));
        assert_eq!(d.tagged("jvp"), d.tagged("jvp"));
    }
}
