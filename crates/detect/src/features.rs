//! Per-image feature maps consumed by the sliding-window detector.

use hirise_imaging::{color, Image, Plane, Rect};

use crate::integral::{window_variance, IntegralImage};

/// Gradient-magnitude map (L1 of central differences), the detector's
/// texture/edge-energy cue. Fine textures (hair, cloth weave) dominate this
/// map at high resolution and vanish under pooling — the mechanism behind
/// the paper's accuracy-vs-resolution trend.
pub fn gradient_magnitude(luma: &Plane) -> Plane {
    let mut out = Plane::new(luma.width(), luma.height());
    gradient_magnitude_into(luma, &mut out);
    out
}

/// In-place variant of [`gradient_magnitude`]: writes the map into `out`
/// (reshaped to the luma plane's dimensions).
///
/// Runs a three-row sliding window (previous / current / next row slices,
/// edge-clamped) so the interior loop is pure slice arithmetic that
/// autovectorizes. Bit-identical to the per-pixel formulation.
pub fn gradient_magnitude_into(luma: &Plane, out: &mut Plane) {
    let (w, h) = luma.dimensions();
    out.reshape_for_overwrite(w, h);
    let wu = w as usize;
    for (y, dst) in out.rows_mut().enumerate() {
        let y = y as u32;
        let row = luma.row(y);
        let above = luma.row(y.saturating_sub(1));
        let below = luma.row((y + 1).min(h - 1));
        // Left/right edges clamp horizontally; handle them outside the
        // interior loop so it carries no per-pixel index clamping.
        dst[0] = ((row[1.min(wu - 1)] - row[0]).abs() + (below[0] - above[0]).abs()) * 0.5;
        if wu == 1 {
            continue;
        }
        let last = wu - 1;
        dst[last] = ((row[last] - row[last - 1]).abs() + (below[last] - above[last]).abs()) * 0.5;
        for x in 1..last {
            dst[x] = ((row[x + 1] - row[x - 1]).abs() + (below[x] - above[x]).abs()) * 0.5;
        }
    }
}

/// Gradient magnitude above which a pixel counts as "active" for the fill
/// cue.
const ACTIVE_GRAD_THRESHOLD: f32 = 0.02;

/// Saturation above which a pixel counts as "active" (RGB inputs only).
const ACTIVE_SAT_THRESHOLD: f32 = 0.15;

/// Precomputed integral-image stack for one input image.
///
/// The default is an empty (0×0) stack — a cheap placeholder that
/// [`FeatureMaps::recompute`] fills before first use.
#[derive(Debug, Clone, Default)]
pub struct FeatureMaps {
    width: u32,
    height: u32,
    luma: IntegralImage,
    luma_sq: IntegralImage,
    grad: IntegralImage,
    /// Saturation table, retained across recomputes even for gray inputs
    /// (where it is stale and unused) so alternating colour modes stay
    /// allocation-free; `has_color` gates every read.
    saturation: Option<IntegralImage>,
    has_color: bool,
    /// Integral of the binary "active" mask (textured or colour-saturated
    /// pixels). `mean` over a window gives the *fill* — how much of the
    /// window is covered by object-like content. Loose boxes and boxes
    /// spanning several objects have low fill.
    active: IntegralImage,
    /// Upper bound on `|value|` over every cue raster of the current
    /// image (luminance, gradient, saturation, and 1 for the activity
    /// mask); NaN pixels are ignored. Feeds the detector's filter guard.
    magnitude: f64,
}

/// Summary statistics of one window.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct WindowFeatures {
    /// Mean luminance inside the window.
    pub mean: f64,
    /// Luminance standard deviation inside the window.
    pub stddev: f64,
    /// Mean gradient magnitude (texture energy).
    pub texture: f64,
    /// Minimum over the four side rings of |mean(window) − mean(ring)| —
    /// blob contrast that must hold on every side.
    pub contrast: f64,
    /// Mean colour saturation (0 in gray mode).
    pub saturation: f64,
    /// Mean gradient energy of the side rings. A box tightly enclosing an
    /// object sits on quiet background, so this is low; a box straddling
    /// an object edge or placed inside texture has noisy rings. Used as a
    /// score penalty.
    pub ring_texture: f64,
    /// Fraction of window pixels that are "active" (textured or saturated).
    /// Tight single-object boxes approach 1; loose boxes and multi-object
    /// cluster boxes contain background gaps and score lower.
    pub fill: f64,
}

/// Table-row offsets of one scan row whose windows' top and bottom
/// contrast rings lie inside the image (see [`FeatureMaps::interior_row`]).
#[derive(Debug, Clone, Copy)]
pub(crate) struct InteriorRow {
    top: usize,
    y0: usize,
    y1: usize,
    bottom: usize,
    ww: usize,
    ring: usize,
}

/// Raw (undivided) table sums of one window whose four contrast rings
/// lie inside the image (see [`FeatureMaps::interior_sums`]).
#[derive(Debug, Clone, Copy)]
pub(crate) struct InteriorSums {
    /// Gradient sum over the window.
    pub texture: f64,
    /// Saturation sum over the window (0 in gray mode).
    pub saturation: f64,
    /// Activity-mask sum over the window.
    pub fill: f64,
    /// Gradient sum of the top ring plus that of the bottom ring.
    pub ring_grad_top_bottom: f64,
    /// Gradient sum of the left ring plus that of the right ring.
    pub ring_grad_left_right: f64,
}

/// Unit roundoff of `f64` arithmetic (`2^-53`).
pub(crate) const UNIT_ROUNDOFF: f64 = f64::EPSILON / 2.0;

/// The luminance flat-region gate of one image, from
/// [`FeatureMaps::luma_gate`].
#[derive(Debug, Clone, Copy, PartialEq)]
pub(crate) struct LumaGate {
    /// Exact variance threshold: `variance_gate(stddev gate)`.
    variance: f64,
    /// The division-free pre-test drops windows whose approximate
    /// variance is below this.
    reject_below: f64,
}

/// The smallest variance `v` with `v.sqrt() >= gate`.
///
/// `sqrt` is correctly rounded and monotone, so for every variance
/// `var` the scan produces (never NaN, never below `-0.0`) the test
/// `var >= variance_gate(gate)` accepts exactly the windows
/// `var.sqrt() >= gate` does — the gate runs without a square root.
/// A NaN gate accepts nothing, a gate `<= 0` accepts everything.
pub(crate) fn variance_gate(gate: f64) -> f64 {
    if gate.is_nan() {
        return f64::NAN;
    }
    if gate <= 0.0 {
        return f64::NEG_INFINITY;
    }
    // `gate²` is within an ulp or two of the boundary (or `+inf` when it
    // overflows): step down while the predecessor still passes, then up
    // until the candidate passes.
    let mut v = gate * gate;
    while v > 0.0 && v.next_down().sqrt() >= gate {
        v = v.next_down();
    }
    while v.sqrt() < gate {
        v = v.next_up();
    }
    v
}

/// `max |v|` over a raster, ignoring NaN (`+inf` propagates). Eight
/// independent lanes keep the loop vectorizable.
fn max_abs(values: &[f32]) -> f32 {
    let mut lanes = [0.0f32; 8];
    let mut chunks = values.chunks_exact(8);
    for chunk in &mut chunks {
        for (m, &v) in lanes.iter_mut().zip(chunk) {
            let a = v.abs();
            *m = if a > *m { a } else { *m };
        }
    }
    for &v in chunks.remainder() {
        let a = v.abs();
        lanes[0] = if a > lanes[0] { a } else { lanes[0] };
    }
    lanes.into_iter().fold(0.0, |m, a| if a > m { a } else { m })
}

/// Reusable plane buffers consumed by [`FeatureMaps::recompute`].
///
/// Holds the intermediate luminance, gradient and saturation rasters so a
/// steady-state detector rebuilds its feature stack without touching the
/// heap.
#[derive(Debug, Clone)]
pub struct FeatureScratch {
    luma: Plane,
    grad: Plane,
    sat: Plane,
    /// Binary "active" mask raster, thresholded from `grad`/`sat` as one
    /// flat pass before integration.
    active: Plane,
}

impl Default for FeatureScratch {
    fn default() -> Self {
        Self {
            luma: Plane::new(1, 1),
            grad: Plane::new(1, 1),
            sat: Plane::new(1, 1),
            active: Plane::new(1, 1),
        }
    }
}

impl FeatureScratch {
    /// Creates the scratch with minimal placeholder buffers; they grow to
    /// their steady-state size on the first [`FeatureMaps::recompute`].
    pub fn new() -> Self {
        Self::default()
    }
}

impl FeatureMaps {
    /// Builds the stack. RGB inputs also get a saturation map; gray inputs
    /// report zero saturation (which is exactly the cue the paper's
    /// grayscale mode loses).
    pub fn new(image: &Image) -> Self {
        let mut maps = Self::default();
        maps.recompute(image, &mut FeatureScratch::default());
        maps
    }

    /// Rebuilds the stack for a new image, reusing every integral table
    /// plus the `scratch` rasters (allocation-free once the buffers have
    /// reached their steady-state size). Behaviourally identical to
    /// [`FeatureMaps::new`].
    pub fn recompute(&mut self, image: &Image, scratch: &mut FeatureScratch) {
        color::to_gray_into(image, &mut scratch.luma);
        gradient_magnitude_into(&scratch.luma, &mut scratch.grad);
        let has_color = match image.as_rgb() {
            Some(rgb) => {
                color::saturation_into(rgb, &mut scratch.sat);
                true
            }
            None => false,
        };
        let (w, h) = scratch.luma.dimensions();
        self.width = w;
        self.height = h;
        // Threshold the activity mask as a flat slice pass, then integrate
        // it like any other plane (values are exactly 0.0/1.0, so the
        // table is bit-identical to the closure-driven formulation).
        scratch.active.reshape_for_overwrite(w, h);
        let active = scratch.active.as_mut_slice();
        if has_color {
            for ((a, &g), &s) in
                active.iter_mut().zip(scratch.grad.as_slice()).zip(scratch.sat.as_slice())
            {
                *a = if g > ACTIVE_GRAD_THRESHOLD || s > ACTIVE_SAT_THRESHOLD { 1.0 } else { 0.0 };
            }
        } else {
            for (a, &g) in active.iter_mut().zip(scratch.grad.as_slice()) {
                *a = if g > ACTIVE_GRAD_THRESHOLD { 1.0 } else { 0.0 };
            }
        }
        self.active.recompute(&scratch.active);
        self.luma.recompute(&scratch.luma);
        self.luma_sq.recompute_squared(&scratch.luma);
        self.grad.recompute(&scratch.grad);
        self.has_color = has_color;
        let mut magnitude = max_abs(scratch.luma.as_slice()).max(max_abs(scratch.grad.as_slice()));
        if has_color {
            // Gray frames leave the table in place (stale but unread), so
            // alternating colour modes never reallocate it.
            self.saturation.get_or_insert_with(IntegralImage::default).recompute(&scratch.sat);
            magnitude = magnitude.max(max_abs(scratch.sat.as_slice()));
        }
        self.magnitude = f64::from(magnitude).max(1.0);
    }

    /// Source image width.
    pub fn width(&self) -> u32 {
        self.width
    }

    /// Source image height.
    pub fn height(&self) -> u32 {
        self.height
    }

    /// Whether a colour-saturation cue is available.
    pub fn has_color(&self) -> bool {
        self.has_color
    }

    /// Upper bound on `|value|` over the current image's cue rasters
    /// (once computed, never below 1, which covers the binary activity
    /// mask). Every
    /// finite window or ring mean the tables produce lies within twice
    /// this bound.
    pub(crate) fn magnitude(&self) -> f64 {
        self.magnitude
    }

    /// Luminance standard deviation of a window alone — a cheap (two
    /// integral lookups) pre-filter used to skip flat background windows
    /// before full feature extraction.
    pub fn luma_stddev(&self, rect: Rect) -> f64 {
        window_variance(&self.luma, &self.luma_sq, rect).sqrt()
    }

    /// The flat-region gate `stddev >= gate` prepared for this image (see
    /// [`FeatureMaps::scan_row_gated`]).
    ///
    /// Besides the exact variance threshold ([`variance_gate`]) it holds
    /// a bound for a division-free pre-test. Write `u = 2^-53` and `M`
    /// for [`FeatureMaps::magnitude`]. While
    /// `(width + height)·width·height <= 2^49` every finite window mean
    /// lies within `2M` and every mean of squares within `2M²`. The
    /// pre-test's variance `S2·r − (S·r)²`, with `r` the rounded
    /// reciprocal of the area, then differs from the exact
    /// `S2/A − (S/A)²` by at most `5·u·2M² + 10·u·4M² = 50·u·M²`: 3
    /// roundings against 1 per quotient, doubled by the square, plus one
    /// per subtraction (and `max(·, 0)` is 1-Lipschitz). The pre-test
    /// drops a window when its variance is below
    /// `variance − 128·u·M² − 2·u·|variance|`, which keeps every window
    /// the exact test accepts, even after the rounding of that bound
    /// itself; a NaN variance is never dropped. Past the size limit, or
    /// when `M²` overflows, the pre-test drops nothing.
    pub(crate) fn luma_gate(&self, gate: f64) -> LumaGate {
        let variance = variance_gate(gate);
        let (w, h) = (u128::from(self.width), u128::from(self.height));
        let guard = 128.0 * UNIT_ROUNDOFF * self.magnitude * self.magnitude
            + 2.0 * UNIT_ROUNDOFF * variance.abs();
        let reject_below =
            if (w + h) * w * h <= 1 << 49 { variance - guard } else { f64::NEG_INFINITY };
        LumaGate { variance, reject_below }
    }

    /// Slides a `ww × wh` window along row `y` in steps of `stride` and
    /// calls `visit(x, mean, var)` for every position whose luminance
    /// variance passes `gate` (from [`FeatureMaps::luma_gate`]), handing
    /// over the window's luminance mean and variance so the caller need
    /// not recompute them.
    ///
    /// This is the detector's hot loop: the table row offsets are hoisted
    /// out of the scan so each gate test is eight sequential `f64` loads
    /// plus the variance arithmetic — no per-window `Rect` construction,
    /// clamping, 2-D index math or square root, and windows far under the
    /// gate are dropped by a division-free pre-test. The accepted set is
    /// bit-identical to filtering with `luma_stddev(rect) >= gate`, and
    /// `mean`/`var` carry the exact bits [`FeatureMaps::window`] computes
    /// for them.
    ///
    /// # Panics
    ///
    /// Panics if the window row does not fit the image
    /// (`ww > width || y + wh > height`) or `stride == 0`.
    pub(crate) fn scan_row_gated(
        &self,
        y: u32,
        ww: u32,
        wh: u32,
        stride: u32,
        gate: LumaGate,
        mut visit: impl FnMut(u32, f64, f64),
    ) {
        assert!(ww <= self.width && y + wh <= self.height, "scan row out of bounds");
        assert!(stride > 0, "stride must be nonzero");
        let w1 = self.width as usize + 1;
        let luma = self.luma.table();
        let luma_sq = self.luma_sq.table();
        let y0b = y as usize * w1;
        let y1b = (y + wh) as usize * w1;
        let area = (ww as u64 * wh as u64) as f64;
        let inv_area = 1.0 / area;
        let mut x = 0u32;
        while x + ww <= self.width {
            let (x0, x1) = (x as usize, (x + ww) as usize);
            let sum = IntegralImage::sum_raw(luma, y0b, y1b, x0, x1);
            let sq_sum = IntegralImage::sum_raw(luma_sq, y0b, y1b, x0, x1);
            let approx_mean = sum * inv_area;
            if !(sq_sum * inv_area - approx_mean * approx_mean < gate.reject_below) {
                let mean = sum / area;
                let sq_mean = sq_sum / area;
                let var = (sq_mean - mean * mean).max(0.0);
                if var >= gate.variance {
                    visit(x, mean, var);
                }
            }
            x += stride;
        }
    }

    /// Table-row offsets of one scan row whose windows' top and bottom
    /// contrast rings lie inside the image (`ring <= y` and
    /// `y + wh + ring <= height`).
    pub(crate) fn interior_row(&self, y: u32, ww: u32, wh: u32, ring: u32) -> InteriorRow {
        debug_assert!(ring <= y && y + wh + ring <= self.height);
        let w1 = self.width as usize + 1;
        InteriorRow {
            top: (y - ring) as usize * w1,
            y0: y as usize * w1,
            y1: (y + wh) as usize * w1,
            bottom: (y + wh + ring) as usize * w1,
            ww: ww as usize,
            ring: ring as usize,
        }
    }

    /// Raw table sums of the window at column `x` of an interior row
    /// whose left and right rings also lie inside the image
    /// (`ring <= x` and `x + ww + ring <= width`): the sums
    /// [`FeatureMaps::window`] divides, read from the same table entries
    /// in the same order, so each is bit-identical to its counterpart
    /// there. The contrast rings' luminance sums are read separately
    /// ([`FeatureMaps::interior_ring_luma`]).
    #[inline]
    pub(crate) fn interior_sums(&self, row: &InteriorRow, x: u32) -> InteriorSums {
        let InteriorRow { top, y0, y1, bottom, ww, ring } = *row;
        let x0 = x as usize;
        let (xl, x1) = (x0 - ring, x0 + ww);
        let xr = x1 + ring;
        let grad = self.grad.table();
        let saturation = match &self.saturation {
            Some(table) if self.has_color => IntegralImage::sum_raw(table.table(), y0, y1, x0, x1),
            _ => 0.0,
        };
        InteriorSums {
            texture: IntegralImage::sum_raw(grad, y0, y1, x0, x1),
            saturation,
            fill: IntegralImage::sum_raw(self.active.table(), y0, y1, x0, x1),
            ring_grad_top_bottom: IntegralImage::sum_raw(grad, top, y0, x0, x1)
                + IntegralImage::sum_raw(grad, y1, bottom, x0, x1),
            ring_grad_left_right: IntegralImage::sum_raw(grad, y0, y1, xl, x0)
                + IntegralImage::sum_raw(grad, y0, y1, x1, xr),
        }
    }

    /// Luminance sums of the top, bottom, left and right contrast rings of
    /// the window at column `x` of an interior row (same preconditions as
    /// [`FeatureMaps::interior_sums`]).
    #[inline]
    pub(crate) fn interior_ring_luma(&self, row: &InteriorRow, x: u32) -> [f64; 4] {
        let InteriorRow { top, y0, y1, bottom, ww, ring } = *row;
        let x0 = x as usize;
        let (xl, x1) = (x0 - ring, x0 + ww);
        let xr = x1 + ring;
        let luma = self.luma.table();
        [
            IntegralImage::sum_raw(luma, top, y0, x0, x1),
            IntegralImage::sum_raw(luma, y1, bottom, x0, x1),
            IntegralImage::sum_raw(luma, y0, y1, xl, x0),
            IntegralImage::sum_raw(luma, y0, y1, x1, xr),
        ]
    }

    /// Extracts window statistics for `rect`; the contrast rings extend
    /// `ring` pixels beyond the window on each side.
    ///
    /// Contrast is the **minimum** luminance difference between the window
    /// and its four side rings (top/bottom/left/right). Requiring contrast
    /// on *every* side rejects windows that straddle an object boundary or
    /// sit inside a textured region — only whole-object windows pop out on
    /// all sides. Side rings clipped away by the image border are skipped;
    /// a window with no surviving ring reports zero contrast.
    pub fn window(&self, rect: Rect, ring: u32) -> WindowFeatures {
        if rect.fits_within(self.width, self.height) && !rect.is_degenerate() {
            let w1 = self.width as usize + 1;
            let (x0, x1) = (rect.x as usize, rect.right() as usize);
            let (y0b, y1b) = (rect.y as usize * w1, rect.bottom() as usize * w1);
            let area = rect.area() as f64;
            let mean = IntegralImage::sum_raw(self.luma.table(), y0b, y1b, x0, x1) / area;
            let sq_mean = IntegralImage::sum_raw(self.luma_sq.table(), y0b, y1b, x0, x1) / area;
            let var = (sq_mean - mean * mean).max(0.0);
            return self.window_with_moments(rect, ring, mean, var);
        }
        self.window_generic(rect, ring)
    }

    /// Hot-path window extraction for a fully in-bounds, non-degenerate
    /// window whose luminance `mean` and `var` are already known (from
    /// [`FeatureMaps::scan_row_gated`] or [`FeatureMaps::window`]): every
    /// other integral mean is computed exactly once from raw table
    /// offsets with the `(width + 1)` stride hoisted, and the side rings
    /// are clipped arithmetically instead of through per-side `Rect`
    /// clamping. Bit-identical to [`FeatureMaps::window_generic`].
    pub(crate) fn window_with_moments(
        &self,
        rect: Rect,
        ring: u32,
        mean: f64,
        var: f64,
    ) -> WindowFeatures {
        let w1 = self.width as usize + 1;
        let luma = self.luma.table();
        let grad = self.grad.table();
        let (x0, x1) = (rect.x as usize, rect.right() as usize);
        let y0b = rect.y as usize * w1;
        let y1b = rect.bottom() as usize * w1;
        let area = rect.area() as f64;
        let texture = IntegralImage::sum_raw(grad, y0b, y1b, x0, x1) / area;

        let mut contrast = f64::INFINITY;
        let mut ring_texture = 0.0;
        let mut side_count = 0usize;
        let mut side = |sx0: usize, sy0: usize, sx1: usize, sy1: usize| {
            let b0 = sy0 * w1;
            let b1 = sy1 * w1;
            let side_area = ((sx1 - sx0) as u64 * (sy1 - sy0) as u64) as f64;
            let side_mean = IntegralImage::sum_raw(luma, b0, b1, sx0, sx1) / side_area;
            contrast = contrast.min((mean - side_mean).abs());
            ring_texture += IntegralImage::sum_raw(grad, b0, b1, sx0, sx1) / side_area;
            side_count += 1;
        };
        // Top / bottom / left / right rings, clipped at the image border
        // (same clipping — and the same visit order for the floating-point
        // ring-texture fold — as the generic path).
        let top = ring.min(rect.y);
        if top > 0 {
            side(x0, (rect.y - top) as usize, x1, rect.y as usize);
        }
        let bottom = ring.min(self.height - rect.bottom());
        if bottom > 0 {
            side(x0, rect.bottom() as usize, x1, (rect.bottom() + bottom) as usize);
        }
        let left = ring.min(rect.x);
        if left > 0 {
            side((rect.x - left) as usize, rect.y as usize, x0, rect.bottom() as usize);
        }
        let right = ring.min(self.width - rect.right());
        if right > 0 {
            side(x1, rect.y as usize, (rect.right() + right) as usize, rect.bottom() as usize);
        }
        if side_count == 0 {
            contrast = 0.0;
        } else {
            ring_texture /= side_count as f64;
        }
        let saturation = if self.has_color {
            let table = self.saturation.as_ref().expect("has_color implies a saturation table");
            IntegralImage::sum_raw(table.table(), y0b, y1b, x0, x1) / area
        } else {
            0.0
        };
        let fill = IntegralImage::sum_raw(self.active.table(), y0b, y1b, x0, x1) / area;
        WindowFeatures {
            mean,
            stddev: var.sqrt(),
            texture,
            contrast,
            saturation,
            ring_texture,
            fill,
        }
    }

    /// Reference window extraction through the clamped [`IntegralImage`]
    /// queries; handles windows that protrude past the image.
    fn window_generic(&self, rect: Rect, ring: u32) -> WindowFeatures {
        let mean = self.luma.mean(rect);
        let var = window_variance(&self.luma, &self.luma_sq, rect);
        let texture = self.grad.mean(rect);

        let sides = [
            // Top ring.
            Rect::new(rect.x, rect.y.saturating_sub(ring), rect.w, ring.min(rect.y)),
            // Bottom ring.
            Rect::new(rect.x, rect.bottom(), rect.w, ring),
            // Left ring.
            Rect::new(rect.x.saturating_sub(ring), rect.y, ring.min(rect.x), rect.h),
            // Right ring.
            Rect::new(rect.right(), rect.y, ring, rect.h),
        ];
        let mut contrast = f64::INFINITY;
        let mut ring_texture = 0.0;
        let mut side_count = 0usize;
        for side in sides {
            let clipped = side.clamped(self.width, self.height);
            if clipped.is_degenerate() {
                continue;
            }
            side_count += 1;
            let side_mean = self.luma.mean(clipped);
            contrast = contrast.min((mean - side_mean).abs());
            ring_texture += self.grad.mean(clipped);
        }
        if side_count == 0 {
            contrast = 0.0;
        } else {
            ring_texture /= side_count as f64;
        }
        let saturation = if self.has_color {
            self.saturation.as_ref().expect("has_color implies a saturation table").mean(rect)
        } else {
            0.0
        };
        let fill = self.active.mean(rect);
        WindowFeatures {
            mean,
            stddev: var.sqrt(),
            texture,
            contrast,
            saturation,
            ring_texture,
            fill,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use hirise_imaging::{draw, GrayImage, RgbImage};

    #[test]
    fn gradient_zero_on_flat_image() {
        let p = Plane::filled(8, 8, 0.5);
        let g = gradient_magnitude(&p);
        assert!(g.max() < 1e-9);
    }

    #[test]
    fn gradient_peaks_on_edges() {
        let p = Plane::from_fn(8, 8, |x, _| if x < 4 { 0.0 } else { 1.0 });
        let g = gradient_magnitude(&p);
        assert!(g.get(4, 4) > 0.4);
        assert!(g.get(1, 1) < 1e-9);
    }

    #[test]
    fn window_features_of_blob() {
        let mut plane = Plane::filled(32, 32, 0.2);
        draw::fill_rect(&mut plane, Rect::new(12, 12, 8, 8), 0.9);
        let img: Image = GrayImage::from_plane(plane).into();
        let maps = FeatureMaps::new(&img);
        let on_blob = maps.window(Rect::new(12, 12, 8, 8), 4);
        let off_blob = maps.window(Rect::new(0, 0, 8, 8), 4);
        assert!(on_blob.contrast > 0.4, "blob contrast {}", on_blob.contrast);
        assert!(off_blob.contrast < 0.2);
        assert!((on_blob.mean - 0.9).abs() < 1e-6);
        assert_eq!(on_blob.saturation, 0.0); // gray input
        assert!(!maps.has_color());
    }

    #[test]
    fn saturation_cue_present_only_for_rgb() {
        let rgb = RgbImage::from_fn(16, 16, |_, _| (0.9, 0.1, 0.1));
        let img: Image = rgb.into();
        let maps = FeatureMaps::new(&img);
        assert!(maps.has_color());
        let f = maps.window(Rect::new(4, 4, 8, 8), 2);
        assert!(f.saturation > 0.7);
    }

    #[test]
    fn texture_cue_tracks_high_frequency_content() {
        let mut textured = Plane::filled(32, 32, 0.5);
        draw::fill_stripes(&mut textured, Rect::new(8, 8, 16, 16), 1, 0.1, 0.9);
        let img: Image = GrayImage::from_plane(textured).into();
        let maps = FeatureMaps::new(&img);
        let on = maps.window(Rect::new(8, 8, 16, 16), 2);
        let off = maps.window(Rect::new(0, 0, 8, 8), 2);
        assert!(on.texture > 10.0 * (off.texture + 1e-9));
        assert!(on.stddev > 0.3);
    }

    #[test]
    fn recompute_matches_fresh_maps_across_modes() {
        let rgb: Image = RgbImage::from_fn(24, 20, |x, y| {
            (x as f32 / 24.0, y as f32 / 20.0, ((x * y) % 5) as f32 / 5.0)
        })
        .into();
        let gray: Image = GrayImage::from_fn(16, 16, |x, y| ((x + 2 * y) % 7) as f32 / 7.0).into();
        let mut scratch = FeatureScratch::new();
        let mut maps = FeatureMaps::new(&gray);
        // Reuse the same maps across mode and size changes.
        for img in [&rgb, &gray, &rgb] {
            maps.recompute(img, &mut scratch);
            let fresh = FeatureMaps::new(img);
            assert_eq!(maps.has_color(), fresh.has_color());
            let rect = Rect::new(2, 2, 8, 8);
            assert_eq!(maps.window(rect, 3), fresh.window(rect, 3));
            assert_eq!(maps.luma_stddev(rect), fresh.luma_stddev(rect));
        }
    }

    #[test]
    fn variance_gate_is_the_exact_sqrt_boundary() {
        let gates = [0.18 * 0.16, 0.1, 1e-300, 5e-324, 0.5, 1.0, 3.0, 1e150, 1e200, f64::MAX];
        let mut g = 0.0123f64;
        let spread = (0..200).map(|_| {
            g = (g * 7.31 + 0.173).fract() * 2.0;
            g
        });
        for gate in gates.into_iter().chain(spread) {
            let v = variance_gate(gate);
            assert!(v.sqrt() >= gate, "gate {gate}: threshold {v} fails");
            assert!(v.next_down().sqrt() < gate, "gate {gate}: threshold {v} not minimal");
            // Any variance agrees with the sqrt test on both sides.
            for var in [v.next_down(), v, v.next_up(), gate * gate, 0.0, f64::INFINITY] {
                assert_eq!(var >= v, var.sqrt() >= gate, "gate {gate}, var {var}");
            }
        }
        for var in [0.0, -0.0, 1e-300, 0.5, f64::INFINITY] {
            assert!(var >= variance_gate(0.0) && var >= variance_gate(-1.0));
            assert!(!(var >= variance_gate(f64::NAN)));
            assert_eq!(var >= variance_gate(f64::INFINITY), var.sqrt() >= f64::INFINITY);
        }
    }

    #[test]
    fn gated_scan_accepts_exactly_the_sqrt_gate() {
        // The accepted set must equal `luma_stddev(rect) >= gate` on every
        // row, for gates on and one ulp around the windows' own stddevs.
        // Large offsets make the variance a difference of two close
        // numbers, where the division-free pre-test is least accurate; a
        // NaN pixel poisons every window below and right of it.
        let cases: [(f32, f32, bool); 5] = [
            (1.0, 0.0, false),
            (0.01, 0.5, false),
            (3.0, 1e4, false),
            (1e-3, -7.0, false),
            (1.0, 0.0, true),
        ];
        for (gain, offset, poison) in cases {
            let img: Image = GrayImage::from_fn(37, 29, |x, y| {
                if poison && (x, y) == (20, 9) {
                    return f32::NAN;
                }
                let wave = ((x * 7 + y * 13) % 11) as f32 / 10.0 + ((x * y) % 3) as f32 * 0.01;
                wave * gain + offset
            })
            .into();
            let maps = FeatureMaps::new(&img);
            for (ww, wh, stride) in [(2, 2, 1), (5, 9, 2), (13, 7, 3), (36, 28, 1)] {
                let mut stds: Vec<f64> = Vec::new();
                for y in 0..=29 - wh {
                    for x in (0..=37 - ww).step_by(stride as usize) {
                        stds.push(maps.luma_stddev(Rect::new(x, y, ww, wh)));
                    }
                }
                // Gates on, between and around the windows' own stddevs.
                stds.sort_by(f64::total_cmp);
                let gates =
                    [0.0, stds[0], stds[stds.len() / 2], stds[stds.len() - 1], 0.05 * gain as f64];
                for gate in gates.into_iter().flat_map(|g| [g.next_down(), g, g.next_up()]) {
                    let lg = maps.luma_gate(gate);
                    for y in 0..=29 - wh {
                        let mut seen = Vec::new();
                        maps.scan_row_gated(y, ww, wh, stride, lg, |x, mean, var| {
                            seen.push(x);
                            // The handed-over moments carry the exact bits
                            // `window` computes.
                            let rect = Rect::new(x, y, ww, wh);
                            let f = maps.window(rect, 3);
                            assert_eq!(mean.to_bits(), f.mean.to_bits());
                            assert_eq!(var.sqrt().to_bits(), f.stddev.to_bits());
                            if !poison {
                                assert_eq!(maps.window_with_moments(rect, 3, mean, var), f);
                            }
                        });
                        let expected: Vec<u32> = (0..=37 - ww)
                            .step_by(stride as usize)
                            .filter(|&x| maps.luma_stddev(Rect::new(x, y, ww, wh)) >= gate)
                            .collect();
                        assert_eq!(seen, expected, "gain {gain} offset {offset} gate {gate}");
                    }
                }
            }
        }
    }

    #[test]
    fn magnitude_bounds_every_cue_raster() {
        let gray: Image = GrayImage::from_fn(8, 8, |x, _| x as f32 * 0.1).into();
        assert_eq!(FeatureMaps::new(&gray).magnitude(), 1.0);
        let bright: Image =
            GrayImage::from_fn(8, 8, |x, y| if x == 3 && y == 2 { -6.0 } else { 0.5 }).into();
        let maps = FeatureMaps::new(&bright);
        // |luma| reaches 6; the gradient next to the spike reaches 3.25.
        assert_eq!(maps.magnitude(), 6.0);
        let nan: Image =
            GrayImage::from_fn(8, 8, |x, _| if x == 0 { f32::NAN } else { 0.25 }).into();
        assert!(FeatureMaps::new(&nan).magnitude().is_finite());
        let inf: Image =
            GrayImage::from_fn(8, 8, |x, _| if x == 0 { f32::INFINITY } else { 0.25 }).into();
        assert_eq!(FeatureMaps::new(&inf).magnitude(), f64::INFINITY);
    }

    #[test]
    fn ring_at_image_border_is_clipped_not_panicking() {
        let img: Image = GrayImage::new(16, 16).into();
        let maps = FeatureMaps::new(&img);
        let f = maps.window(Rect::new(0, 0, 16, 16), 8);
        assert_eq!(f.contrast, 0.0); // ring fully clipped away
    }
}
