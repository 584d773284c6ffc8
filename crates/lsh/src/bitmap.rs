//! Compact bit vectors representing "which of my friends this peer links to".
//!
//! The paper defines `bitmap(u, v) = 1 iff (u, v) ∈ R_u` over the social
//! neighbourhood `C_p` (§III-D); a bitmap is therefore `|C_p|` bits long.

/// A fixed-length bit vector.
#[derive(Clone, Debug, PartialEq, Eq, Hash, Default)]
pub struct Bitmap {
    blocks: Vec<u64>,
    len: usize,
}

impl Bitmap {
    /// An all-zero bitmap of `len` bits.
    pub fn zeros(len: usize) -> Self {
        Bitmap {
            blocks: vec![0; len.div_ceil(64)],
            len,
        }
    }

    /// Turns `self` into `Bitmap::zeros(len)`, keeping the allocation.
    pub fn reset(&mut self, len: usize) {
        self.blocks.clear();
        self.blocks.resize(len.div_ceil(64), 0);
        self.len = len;
    }

    /// Builds from an iterator of set-bit positions.
    ///
    /// # Panics
    /// Panics if a position is out of range.
    pub fn from_set_bits(len: usize, bits: impl IntoIterator<Item = usize>) -> Self {
        let mut bm = Bitmap::zeros(len);
        for b in bits {
            bm.set(b, true);
        }
        bm
    }

    /// Overwrites every bit from `words`: bit `i` becomes bit `i % 64` of
    /// `words[i / 64]`. Lets a caller that already holds word-packed rows
    /// refill one bitmap per row instead of allocating one.
    ///
    /// # Panics
    /// Panics if `words` is not exactly `len.div_ceil(64)` long or sets a bit
    /// at or beyond `len`.
    pub fn copy_from_words(&mut self, words: &[u64]) {
        assert_eq!(words.len(), self.blocks.len(), "word count mismatch");
        if let Some(&last) = words.last() {
            let used = self.len - (words.len() - 1) * 64;
            assert!(
                used == 64 || last >> used == 0,
                "bit beyond length {}",
                self.len
            );
        }
        self.blocks.copy_from_slice(words);
    }

    /// Number of bits.
    pub fn len(&self) -> usize {
        self.len
    }

    /// Whether the bitmap has zero length.
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// Reads bit `i`.
    ///
    /// # Panics
    /// Panics if `i >= len`.
    #[inline]
    pub fn get(&self, i: usize) -> bool {
        assert!(i < self.len, "bit {i} out of range {}", self.len);
        (self.blocks[i / 64] >> (i % 64)) & 1 == 1
    }

    /// Writes bit `i`.
    ///
    /// # Panics
    /// Panics if `i >= len`.
    #[inline]
    pub fn set(&mut self, i: usize, value: bool) {
        assert!(i < self.len, "bit {i} out of range {}", self.len);
        let mask = 1u64 << (i % 64);
        if value {
            self.blocks[i / 64] |= mask;
        } else {
            self.blocks[i / 64] &= !mask;
        }
    }

    /// Number of set bits.
    pub fn count_ones(&self) -> usize {
        self.blocks.iter().map(|b| b.count_ones() as usize).sum()
    }

    /// Iterator over set-bit positions, ascending.
    pub fn ones(&self) -> impl Iterator<Item = usize> + '_ {
        (0..self.len).filter(move |&i| self.get(i))
    }

    /// Hamming distance to `other`.
    ///
    /// # Panics
    /// Panics on length mismatch.
    pub fn hamming(&self, other: &Bitmap) -> usize {
        assert_eq!(self.len, other.len, "bitmap length mismatch");
        self.blocks
            .iter()
            .zip(&other.blocks)
            .map(|(a, b)| (a ^ b).count_ones() as usize)
            .sum()
    }

    /// Jaccard similarity of the set views (`|∩| / |∪|`; 1.0 for two empty
    /// sets).
    pub fn jaccard(&self, other: &Bitmap) -> f64 {
        assert_eq!(self.len, other.len, "bitmap length mismatch");
        let (mut inter, mut union) = (0usize, 0usize);
        for (a, b) in self.blocks.iter().zip(&other.blocks) {
            inter += (a & b).count_ones() as usize;
            union += (a | b).count_ones() as usize;
        }
        if union == 0 {
            1.0
        } else {
            inter as f64 / union as f64
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn reset_equals_zeros() {
        let mut bm = Bitmap::from_set_bits(130, [0, 64, 129]);
        for len in [65, 0, 200] {
            bm.reset(len);
            assert_eq!(bm, Bitmap::zeros(len));
        }
    }

    #[test]
    fn set_get_roundtrip() {
        let mut bm = Bitmap::zeros(130);
        for i in [0, 63, 64, 65, 129] {
            assert!(!bm.get(i));
            bm.set(i, true);
            assert!(bm.get(i));
        }
        assert_eq!(bm.count_ones(), 5);
        bm.set(64, false);
        assert!(!bm.get(64));
        assert_eq!(bm.count_ones(), 4);
    }

    #[test]
    fn from_set_bits_and_ones() {
        let bm = Bitmap::from_set_bits(10, [1, 3, 7]);
        assert_eq!(bm.ones().collect::<Vec<_>>(), vec![1, 3, 7]);
    }

    #[test]
    fn copy_from_words_overwrites_all_bits() {
        let mut bm = Bitmap::from_set_bits(70, [0, 69]);
        bm.copy_from_words(&[1 << 63, 0b10]);
        assert_eq!(bm.ones().collect::<Vec<_>>(), vec![63, 65]);
        let mut full = Bitmap::zeros(64);
        full.copy_from_words(&[u64::MAX]);
        assert_eq!(full.count_ones(), 64);
        Bitmap::zeros(0).copy_from_words(&[]);
    }

    #[test]
    #[should_panic(expected = "beyond length")]
    fn copy_from_words_rejects_trailing_bits() {
        Bitmap::zeros(70).copy_from_words(&[0, 1 << 6]);
    }

    #[test]
    fn hamming_distance() {
        let a = Bitmap::from_set_bits(8, [0, 1, 2]);
        let b = Bitmap::from_set_bits(8, [1, 2, 3]);
        assert_eq!(a.hamming(&b), 2);
        assert_eq!(a.hamming(&a), 0);
    }

    #[test]
    fn jaccard_similarity() {
        let a = Bitmap::from_set_bits(8, [0, 1, 2]);
        let b = Bitmap::from_set_bits(8, [1, 2, 3]);
        assert!((a.jaccard(&b) - 0.5).abs() < 1e-12);
        let empty = Bitmap::zeros(8);
        assert_eq!(empty.jaccard(&empty), 1.0);
        assert_eq!(a.jaccard(&empty), 0.0);
    }

    #[test]
    #[should_panic(expected = "out of range")]
    fn out_of_range_get_panics() {
        Bitmap::zeros(4).get(4);
    }

    #[test]
    #[should_panic(expected = "length mismatch")]
    fn mismatched_hamming_panics() {
        let _ = Bitmap::zeros(4).hamming(&Bitmap::zeros(5));
    }

    #[test]
    fn zero_length_bitmap() {
        let bm = Bitmap::zeros(0);
        assert!(bm.is_empty());
        assert_eq!(bm.count_ones(), 0);
    }
}
