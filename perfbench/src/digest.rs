//! Output digests: every deterministic result of a workload folded into
//! one 64-bit value, so a change that alters any frame's result shows as
//! a mismatch against the digest recorded for the default seed.

use hirise::RunReport;
use hirise_imaging::Rect;

/// FNV-1a over little-endian 64-bit words.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Digest(u64);

impl Default for Digest {
    fn default() -> Self {
        Self(0xCBF2_9CE4_8422_2325)
    }
}

impl Digest {
    /// Folds one word.
    pub fn word(&mut self, word: u64) {
        for byte in word.to_le_bytes() {
            self.0 ^= u64::from(byte);
            self.0 = self.0.wrapping_mul(0x0100_0000_01B3);
        }
    }

    /// Folds a float by its bit pattern: equal digests mean bit-equal
    /// values.
    pub fn float(&mut self, value: f64) {
        self.word(value.to_bits());
    }

    /// Folds every result field of a frame report (timings excluded) and
    /// the ROI rectangles the frame requested.
    pub fn frame(&mut self, report: &RunReport, rois: &[Rect]) {
        for stats in [report.stage1, report.stage2] {
            self.word(stats.conversions);
            self.word(stats.transferred_bits);
            self.word(stats.box_words_bits);
        }
        self.word(report.pooling_outputs);
        self.word(report.stage1_image_bytes);
        self.word(report.stage2_image_bytes);
        self.word(report.roi_count as u64);
        self.word(rois.len() as u64);
        for r in rois {
            self.word(u64::from(r.x) << 32 | u64::from(r.y));
            self.word(u64::from(r.w) << 32 | u64::from(r.h));
        }
    }

    /// The folded value.
    pub fn value(self) -> u64 {
        self.0
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn digest_sees_order_and_every_bit() {
        let mut a = Digest::default();
        a.word(1);
        a.word(2);
        let mut b = Digest::default();
        b.word(2);
        b.word(1);
        assert_ne!(a, b);
        let mut c = Digest::default();
        c.float(0.1 + 0.2);
        let mut d = Digest::default();
        d.float(0.3);
        assert_ne!(c, d, "a one-ulp difference must change the digest");
    }
}
