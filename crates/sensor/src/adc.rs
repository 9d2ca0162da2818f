//! 8-bit ADC model.
//!
//! Models the 45 nm folding ADC the paper cites ([Choi'15]): uniform
//! quantisation over a configurable input range, an optional bow-shaped
//! integral nonlinearity, and additive conversion noise. The *energy* per
//! conversion is deliberately not modelled here — `hirise-energy` owns all
//! cost accounting; this type only produces codes.

use crate::{Result, SensorError};

/// A uniform-quantising ADC with optional INL bow and input-referred noise.
#[derive(Debug, Clone, PartialEq)]
pub struct Adc {
    bits: u32,
    v_lo: f64,
    v_hi: f64,
    inl_lsb: f64,
    noise_sigma: f64,
}

impl Adc {
    /// Creates an ideal ADC with `bits` resolution over `v_lo..v_hi`.
    ///
    /// # Errors
    ///
    /// Rejects zero/oversized bit widths and empty ranges.
    pub fn new(bits: u32, v_lo: f64, v_hi: f64) -> Result<Self> {
        if bits == 0 || bits > 16 {
            return Err(SensorError::InvalidConfig { parameter: "adc bits", value: bits as f64 });
        }
        if !(v_hi > v_lo) {
            return Err(SensorError::InvalidConfig { parameter: "adc range", value: v_hi - v_lo });
        }
        Ok(Self { bits, v_lo, v_hi, inl_lsb: 0.0, noise_sigma: 0.0 })
    }

    /// The paper's configuration: 8-bit conversion of the pixel voltage
    /// swing (defaults of [`crate::PixelParams`]).
    pub fn paper_default() -> Self {
        Self::new(8, 0.3, 0.9).expect("static configuration is valid")
    }

    /// Adds a bow-shaped integral nonlinearity with peak `inl_lsb` LSBs.
    pub fn with_inl(mut self, inl_lsb: f64) -> Self {
        self.inl_lsb = inl_lsb;
        self
    }

    /// Adds Gaussian input-referred noise with standard deviation
    /// `sigma` volts.
    pub fn with_noise(mut self, sigma: f64) -> Self {
        self.noise_sigma = sigma;
        self
    }

    /// Resolution in bits.
    pub fn bits(&self) -> u32 {
        self.bits
    }

    /// Number of quantisation levels (`2^bits`).
    pub fn levels(&self) -> u32 {
        1 << self.bits
    }

    /// Input range `(v_lo, v_hi)`.
    pub fn range(&self) -> (f64, f64) {
        (self.v_lo, self.v_hi)
    }

    /// One LSB in volts.
    pub fn lsb(&self) -> f64 {
        (self.v_hi - self.v_lo) / (self.levels() - 1) as f64
    }

    /// Input-referred noise standard deviation, volts.
    pub fn noise_sigma(&self) -> f64 {
        self.noise_sigma
    }

    /// Converts an analog voltage to a code with the standard-normal
    /// noise sample `g` (scaled by the configured sigma). The caller owns
    /// the position-keyed draw, so conversion stays a pure function of
    /// `(v, g)`. Inputs outside the range clip to the end codes.
    #[inline]
    pub fn convert_with_noise(&self, v: f64, g: f64) -> u16 {
        self.quantise(v + self.noise_sigma * g)
    }

    /// The deterministic quantiser shared by every conversion path.
    #[inline]
    fn quantise(&self, x: f64) -> u16 {
        let t = ((x - self.v_lo) / (self.v_hi - self.v_lo)).clamp(0.0, 1.0);
        let mut code = t * (self.levels() - 1) as f64;
        if self.inl_lsb != 0.0 {
            // Bow INL: zero at the range ends, peak mid-scale.
            code += self.inl_lsb * (std::f64::consts::PI * t).sin();
        }
        code.round().clamp(0.0, (self.levels() - 1) as f64) as u16
    }

    /// Converts without noise (deterministic path for tests/calibration).
    pub fn convert_ideal(&self, v: f64) -> u16 {
        self.quantise(v)
    }

    /// Maps a code back to the unit interval `0.0..=1.0`.
    pub fn code_to_unit(&self, code: u16) -> f32 {
        code as f32 / (self.levels() - 1) as f32
    }

    /// Maps a code back to volts within the conversion range.
    pub fn code_to_volts(&self, code: u16) -> f64 {
        self.v_lo + (self.v_hi - self.v_lo) * code as f64 / (self.levels() - 1) as f64
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::distributions::NormalSampler;
    use rand::rngs::KeyedRng;

    #[test]
    fn rejects_bad_config() {
        assert!(Adc::new(0, 0.0, 1.0).is_err());
        assert!(Adc::new(20, 0.0, 1.0).is_err());
        assert!(Adc::new(8, 1.0, 1.0).is_err());
        assert!(Adc::new(8, 1.0, 0.5).is_err());
    }

    #[test]
    fn paper_default_is_8bit() {
        let adc = Adc::paper_default();
        assert_eq!(adc.bits(), 8);
        assert_eq!(adc.levels(), 256);
        assert_eq!(adc.range(), (0.3, 0.9));
    }

    #[test]
    fn endpoints_map_to_end_codes() {
        let adc = Adc::new(8, 0.0, 1.0).unwrap();
        assert_eq!(adc.convert_ideal(0.0), 0);
        assert_eq!(adc.convert_ideal(1.0), 255);
        assert_eq!(adc.convert_ideal(-5.0), 0); // clips
        assert_eq!(adc.convert_ideal(5.0), 255); // clips
    }

    #[test]
    fn midscale_code() {
        let adc = Adc::new(8, 0.0, 1.0).unwrap();
        let c = adc.convert_ideal(0.5);
        assert!((c as i32 - 128).abs() <= 1);
    }

    #[test]
    fn quantisation_error_bounded_by_half_lsb() {
        let adc = Adc::new(8, 0.3, 0.9).unwrap();
        for i in 0..100 {
            let v = 0.3 + 0.6 * i as f64 / 99.0;
            let code = adc.convert_ideal(v);
            let back = adc.code_to_volts(code);
            assert!((back - v).abs() <= adc.lsb() / 2.0 + 1e-12);
        }
    }

    #[test]
    fn code_roundtrips_exactly() {
        let adc = Adc::new(8, 0.3, 0.9).unwrap();
        for code in [0u16, 1, 100, 254, 255] {
            let v = adc.code_to_volts(code);
            assert_eq!(adc.convert_ideal(v), code);
        }
    }

    #[test]
    fn unit_mapping_endpoints() {
        let adc = Adc::new(8, 0.0, 1.0).unwrap();
        assert_eq!(adc.code_to_unit(0), 0.0);
        assert_eq!(adc.code_to_unit(255), 1.0);
    }

    #[test]
    fn inl_bows_midscale_only() {
        let ideal = Adc::new(8, 0.0, 1.0).unwrap();
        let bowed = Adc::new(8, 0.0, 1.0).unwrap().with_inl(2.0);
        assert_eq!(bowed.convert_ideal(0.0), ideal.convert_ideal(0.0));
        assert_eq!(bowed.convert_ideal(1.0), ideal.convert_ideal(1.0));
        let mid_ideal = ideal.convert_ideal(0.5) as i32;
        let mid_bowed = bowed.convert_ideal(0.5) as i32;
        assert_eq!(mid_bowed - mid_ideal, 2);
    }

    #[test]
    fn convert_with_noise_matches_quantiser() {
        let adc = Adc::new(8, 0.0, 1.0).unwrap().with_inl(0.5).with_noise(0.02);
        // A zero sample reduces to the deterministic conversion.
        for v in [0.0, 0.25, 0.5, 0.99] {
            assert_eq!(adc.convert_with_noise(v, 0.0), adc.convert_ideal(v));
        }
        // A supplied sample is scaled by sigma exactly like internal noise.
        assert_eq!(adc.convert_with_noise(0.5, 2.0), adc.convert_ideal(0.5 + 0.02 * 2.0));
        assert_eq!(adc.convert_with_noise(0.5, -2.0), adc.convert_ideal(0.5 - 0.02 * 2.0));
        assert_eq!(adc.noise_sigma(), 0.02);
    }

    #[test]
    fn noise_perturbs_codes() {
        let adc = Adc::new(8, 0.0, 1.0).unwrap().with_noise(0.02);
        let sampler = NormalSampler::new();
        let key = KeyedRng::derive_key(1, 0);
        let codes: Vec<u16> = (0..50)
            .map(|site| {
                let g = sampler.sample(&mut KeyedRng::for_stream(key, site));
                adc.convert_with_noise(0.5, g)
            })
            .collect();
        let distinct: std::collections::HashSet<_> = codes.iter().collect();
        assert!(distinct.len() > 1, "noise produced identical codes");
        // All stay near mid-scale.
        for c in codes {
            assert!((c as i32 - 128).abs() < 30);
        }
    }
}
