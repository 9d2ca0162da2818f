//! Image containers: [`Plane`], [`GrayImage`], [`RgbImage`] and the
//! dynamically-typed [`Image`].
//!
//! All pixel data is stored as `f32` with a nominal range of `0.0..=1.0`.
//! Analog-domain models (noise, pooling gain error) may transiently push
//! values outside that range; values are clamped only at quantisation time
//! (see [`Plane::to_u8`]).

use crate::{ImagingError, Rect, Result};

/// A single-channel raster of `f32` samples in row-major order.
///
/// `Plane` is the workhorse buffer of the workspace: gray images wrap one
/// plane, RGB images wrap three, and the sensor crate uses planes to carry
/// analog pixel voltages.
///
/// # Example
///
/// ```
/// use hirise_imaging::Plane;
///
/// let mut p = Plane::new(4, 2);
/// p.set(3, 1, 0.5);
/// assert_eq!(p.get(3, 1), 0.5);
/// assert_eq!(p.as_slice().len(), 8);
/// ```
#[derive(Debug, Clone, PartialEq)]
pub struct Plane {
    width: u32,
    height: u32,
    data: Vec<f32>,
}

impl Plane {
    /// Creates a zero-filled plane.
    ///
    /// # Panics
    ///
    /// Panics if `width == 0 || height == 0`; use [`Plane::try_new`] for a
    /// fallible variant.
    pub fn new(width: u32, height: u32) -> Self {
        Self::try_new(width, height).expect("plane dimensions must be nonzero")
    }

    /// Creates a zero-filled plane, returning an error on zero dimensions.
    ///
    /// # Errors
    ///
    /// Returns [`ImagingError::InvalidDimensions`] if either dimension is 0.
    pub fn try_new(width: u32, height: u32) -> Result<Self> {
        if width == 0 || height == 0 {
            return Err(ImagingError::InvalidDimensions { width, height, context: "plane" });
        }
        Ok(Self { width, height, data: vec![0.0; width as usize * height as usize] })
    }

    /// Creates a plane filled with `value`.
    pub fn filled(width: u32, height: u32, value: f32) -> Self {
        let mut p = Self::new(width, height);
        p.data.fill(value);
        p
    }

    /// Creates a plane by evaluating `f(x, y)` at every pixel.
    pub fn from_fn(width: u32, height: u32, mut f: impl FnMut(u32, u32) -> f32) -> Self {
        let mut p = Self::new(width, height);
        for y in 0..height {
            for x in 0..width {
                let v = f(x, y);
                p.set(x, y, v);
            }
        }
        p
    }

    /// Wraps an existing row-major buffer.
    ///
    /// # Errors
    ///
    /// Returns [`ImagingError::BufferSizeMismatch`] if `data.len() != width * height`
    /// and [`ImagingError::InvalidDimensions`] on zero dimensions.
    pub fn from_vec(width: u32, height: u32, data: Vec<f32>) -> Result<Self> {
        if width == 0 || height == 0 {
            return Err(ImagingError::InvalidDimensions { width, height, context: "plane" });
        }
        let expected = width as usize * height as usize;
        if data.len() != expected {
            return Err(ImagingError::BufferSizeMismatch { expected, actual: data.len() });
        }
        Ok(Self { width, height, data })
    }

    /// Builds a plane from `u8` samples, mapping `0..=255` to `0.0..=1.0`.
    ///
    /// # Errors
    ///
    /// Same as [`Plane::from_vec`].
    pub fn from_u8(width: u32, height: u32, data: &[u8]) -> Result<Self> {
        let floats = data.iter().map(|&b| b as f32 / 255.0).collect();
        Self::from_vec(width, height, floats)
    }

    /// Plane width in pixels.
    pub fn width(&self) -> u32 {
        self.width
    }

    /// Plane height in pixels.
    pub fn height(&self) -> u32 {
        self.height
    }

    /// `(width, height)` pair.
    pub fn dimensions(&self) -> (u32, u32) {
        (self.width, self.height)
    }

    /// Number of pixels (`width * height`).
    pub fn len(&self) -> usize {
        self.data.len()
    }

    /// Always `false`: planes have nonzero dimensions by construction.
    pub fn is_empty(&self) -> bool {
        false
    }

    #[inline]
    fn idx(&self, x: u32, y: u32) -> usize {
        debug_assert!(x < self.width && y < self.height, "({x},{y}) out of bounds");
        y as usize * self.width as usize + x as usize
    }

    /// Returns the sample at `(x, y)`.
    ///
    /// # Panics
    ///
    /// Panics in debug builds if the coordinate is out of bounds; in release
    /// builds out-of-bounds coordinates may panic on the underlying slice.
    #[inline]
    pub fn get(&self, x: u32, y: u32) -> f32 {
        self.data[self.idx(x, y)]
    }

    /// Returns the sample at `(x, y)` or `None` when out of bounds.
    pub fn get_checked(&self, x: u32, y: u32) -> Option<f32> {
        if x < self.width && y < self.height {
            Some(self.get(x, y))
        } else {
            None
        }
    }

    /// Writes the sample at `(x, y)`.
    ///
    /// # Panics
    ///
    /// Same bounds behaviour as [`Plane::get`].
    #[inline]
    pub fn set(&mut self, x: u32, y: u32, value: f32) {
        let i = self.idx(x, y);
        self.data[i] = value;
    }

    /// Row-major view of the samples.
    pub fn as_slice(&self) -> &[f32] {
        &self.data
    }

    /// Mutable row-major view of the samples.
    pub fn as_mut_slice(&mut self) -> &mut [f32] {
        &mut self.data
    }

    /// One row of samples.
    ///
    /// # Panics
    ///
    /// Panics if `y >= height`.
    #[inline]
    pub fn row(&self, y: u32) -> &[f32] {
        assert!(y < self.height, "row {y} out of bounds (height {})", self.height);
        let start = y as usize * self.width as usize;
        &self.data[start..start + self.width as usize]
    }

    /// One row of samples, mutably.
    ///
    /// # Panics
    ///
    /// Panics if `y >= height`.
    #[inline]
    pub fn row_mut(&mut self, y: u32) -> &mut [f32] {
        assert!(y < self.height, "row {y} out of bounds (height {})", self.height);
        let start = y as usize * self.width as usize;
        &mut self.data[start..start + self.width as usize]
    }

    /// Iterator over the rows of the plane, top to bottom.
    ///
    /// This is the preferred way to walk every pixel on a hot path: each
    /// item is a plain `&[f32]` of length `width`, so inner loops carry no
    /// per-pixel 2-D index arithmetic and autovectorize.
    #[inline]
    pub fn rows(&self) -> impl ExactSizeIterator<Item = &[f32]> {
        self.data.chunks_exact(self.width as usize)
    }

    /// Iterator over the rows of the plane, mutably, top to bottom —
    /// the paired writer for [`Plane::rows`].
    #[inline]
    pub fn rows_mut(&mut self) -> impl ExactSizeIterator<Item = &mut [f32]> {
        self.data.chunks_exact_mut(self.width as usize)
    }

    /// Iterator over `(x, y, value)` triples in row-major order.
    pub fn enumerate_pixels(&self) -> impl Iterator<Item = (u32, u32, f32)> + '_ {
        let w = self.width;
        self.data.iter().enumerate().map(move |(i, &v)| {
            let x = (i % w as usize) as u32;
            let y = (i / w as usize) as u32;
            (x, y, v)
        })
    }

    /// Applies `f` to every sample in place.
    pub fn map_in_place(&mut self, mut f: impl FnMut(f32) -> f32) {
        for v in &mut self.data {
            *v = f(*v);
        }
    }

    /// Mean of all samples.
    pub fn mean(&self) -> f32 {
        self.data.iter().sum::<f32>() / self.data.len() as f32
    }

    /// Minimum sample value.
    pub fn min(&self) -> f32 {
        self.data.iter().copied().fold(f32::INFINITY, f32::min)
    }

    /// Maximum sample value.
    pub fn max(&self) -> f32 {
        self.data.iter().copied().fold(f32::NEG_INFINITY, f32::max)
    }

    /// Quantises to `u8`, clamping to `0.0..=1.0` first.
    pub fn to_u8(&self) -> Vec<u8> {
        self.data.iter().map(|&v| (v.clamp(0.0, 1.0) * 255.0).round() as u8).collect()
    }

    /// Extracts a copy of the sub-rectangle `rect`.
    ///
    /// # Errors
    ///
    /// Returns [`ImagingError::RectOutOfBounds`] if the rect exceeds the plane.
    pub fn crop(&self, rect: Rect) -> Result<Plane> {
        if !rect.fits_within(self.width, self.height) || rect.w == 0 || rect.h == 0 {
            return Err(ImagingError::RectOutOfBounds {
                rect: (rect.x, rect.y, rect.w, rect.h),
                width: self.width,
                height: self.height,
            });
        }
        // Construct at the final size (one exact allocation) instead of
        // growing a 1×1 placeholder through `crop_into`.
        let mut out = Plane::new(rect.w, rect.h);
        self.crop_into(rect, &mut out)?;
        Ok(out)
    }

    /// Resizes the plane to `width × height` in place, reusing the
    /// existing buffer capacity. All samples are reset to `0.0` (exactly
    /// like [`Plane::new`]); previous contents are discarded.
    ///
    /// This is the foundation of the workspace's zero-allocation frame
    /// path: once a scratch plane has grown to its steady-state size,
    /// `reshape` never touches the heap again.
    ///
    /// # Panics
    ///
    /// Panics if `width == 0 || height == 0` (same invariant as
    /// [`Plane::new`]).
    pub fn reshape(&mut self, width: u32, height: u32) {
        assert!(width != 0 && height != 0, "plane dimensions must be nonzero");
        self.width = width;
        self.height = height;
        // clear + resize re-zeroes every sample without shrinking capacity.
        self.data.clear();
        self.data.resize(width as usize * height as usize, 0.0);
    }

    /// Like [`Plane::reshape`] but leaves the sample values **unspecified**
    /// (a mix of old contents and zeros) instead of re-zeroing — for
    /// producers that overwrite every sample anyway, this skips a
    /// full-buffer memset per call on the per-frame hot path.
    ///
    /// # Panics
    ///
    /// Panics on zero dimensions.
    pub fn reshape_for_overwrite(&mut self, width: u32, height: u32) {
        assert!(width != 0 && height != 0, "plane dimensions must be nonzero");
        self.width = width;
        self.height = height;
        let len = width as usize * height as usize;
        if self.data.len() > len {
            self.data.truncate(len);
        } else {
            self.data.resize(len, 0.0);
        }
    }

    /// Makes `self` an exact copy of `src`, reusing the existing buffer.
    pub fn copy_from(&mut self, src: &Plane) {
        self.width = src.width;
        self.height = src.height;
        self.data.clear();
        self.data.extend_from_slice(&src.data);
    }

    /// Extracts the sub-rectangle `rect` into `out` (reshaped to fit) —
    /// the in-place counterpart of [`Plane::crop`].
    ///
    /// # Errors
    ///
    /// Returns [`ImagingError::RectOutOfBounds`] if the rect exceeds the plane.
    pub fn crop_into(&self, rect: Rect, out: &mut Plane) -> Result<()> {
        if !rect.fits_within(self.width, self.height) || rect.w == 0 || rect.h == 0 {
            return Err(ImagingError::RectOutOfBounds {
                rect: (rect.x, rect.y, rect.w, rect.h),
                width: self.width,
                height: self.height,
            });
        }
        out.reshape_for_overwrite(rect.w, rect.h);
        let x0 = rect.x as usize;
        let w = rect.w as usize;
        for (dy, dst) in out.rows_mut().enumerate() {
            let src = &self.row(rect.y + dy as u32)[x0..x0 + w];
            dst.copy_from_slice(src);
        }
        Ok(())
    }

    /// Copies `src` into `self` with its top-left corner at `(x, y)`.
    /// Pixels falling outside `self` are silently skipped.
    pub fn blit(&mut self, src: &Plane, x: i64, y: i64) {
        for sy in 0..src.height {
            let ty = y + sy as i64;
            if ty < 0 || ty >= self.height as i64 {
                continue;
            }
            for sx in 0..src.width {
                let tx = x + sx as i64;
                if tx < 0 || tx >= self.width as i64 {
                    continue;
                }
                self.set(tx as u32, ty as u32, src.get(sx, sy));
            }
        }
    }
}

/// A single-channel (luminance) image.
///
/// # Example
///
/// ```
/// use hirise_imaging::GrayImage;
///
/// let g = GrayImage::from_fn(8, 8, |x, _| x as f32 / 8.0);
/// assert!(g.plane().mean() > 0.0);
/// ```
#[derive(Debug, Clone, PartialEq)]
pub struct GrayImage {
    plane: Plane,
}

impl GrayImage {
    /// Creates a black gray image.
    pub fn new(width: u32, height: u32) -> Self {
        Self { plane: Plane::new(width, height) }
    }

    /// Creates a gray image from a per-pixel function.
    pub fn from_fn(width: u32, height: u32, f: impl FnMut(u32, u32) -> f32) -> Self {
        Self { plane: Plane::from_fn(width, height, f) }
    }

    /// Wraps an existing plane.
    pub fn from_plane(plane: Plane) -> Self {
        Self { plane }
    }

    /// Image width in pixels.
    pub fn width(&self) -> u32 {
        self.plane.width()
    }

    /// Image height in pixels.
    pub fn height(&self) -> u32 {
        self.plane.height()
    }

    /// `(width, height)` pair.
    pub fn dimensions(&self) -> (u32, u32) {
        self.plane.dimensions()
    }

    /// Shared access to the underlying plane.
    pub fn plane(&self) -> &Plane {
        &self.plane
    }

    /// Mutable access to the underlying plane.
    pub fn plane_mut(&mut self) -> &mut Plane {
        &mut self.plane
    }

    /// Consumes the image and returns the underlying plane.
    pub fn into_plane(self) -> Plane {
        self.plane
    }

    /// Resizes the image in place, reusing buffer capacity and resetting
    /// samples to zero (see [`Plane::reshape`]).
    ///
    /// # Panics
    ///
    /// Panics on zero dimensions.
    pub fn reshape(&mut self, width: u32, height: u32) {
        self.plane.reshape(width, height);
    }

    /// Crops the image.
    ///
    /// # Errors
    ///
    /// See [`Plane::crop`].
    pub fn crop(&self, rect: Rect) -> Result<GrayImage> {
        Ok(GrayImage::from_plane(self.plane.crop(rect)?))
    }

    /// Crops the image into an existing buffer.
    ///
    /// # Errors
    ///
    /// See [`Plane::crop_into`].
    pub fn crop_into(&self, rect: Rect, out: &mut GrayImage) -> Result<()> {
        self.plane.crop_into(rect, &mut out.plane)
    }

    /// Bytes needed to store this image at `bits` bits per sample.
    pub fn storage_bytes(&self, bits: u32) -> u64 {
        (self.plane.len() as u64 * bits as u64).div_ceil(8)
    }
}

impl From<Plane> for GrayImage {
    fn from(plane: Plane) -> Self {
        GrayImage::from_plane(plane)
    }
}

/// A planar RGB image (three [`Plane`]s of identical dimensions).
///
/// # Example
///
/// ```
/// use hirise_imaging::RgbImage;
///
/// let img = RgbImage::new(16, 16);
/// assert_eq!(img.dimensions(), (16, 16));
/// ```
#[derive(Debug, Clone, PartialEq)]
pub struct RgbImage {
    r: Plane,
    g: Plane,
    b: Plane,
}

impl RgbImage {
    /// Creates a black RGB image.
    pub fn new(width: u32, height: u32) -> Self {
        Self {
            r: Plane::new(width, height),
            g: Plane::new(width, height),
            b: Plane::new(width, height),
        }
    }

    /// Creates an RGB image from a per-pixel function returning `(r, g, b)`.
    pub fn from_fn(
        width: u32,
        height: u32,
        mut f: impl FnMut(u32, u32) -> (f32, f32, f32),
    ) -> Self {
        let mut img = Self::new(width, height);
        for y in 0..height {
            for x in 0..width {
                let (r, g, b) = f(x, y);
                img.set_pixel(x, y, (r, g, b));
            }
        }
        img
    }

    /// Builds an RGB image from three planes.
    ///
    /// # Errors
    ///
    /// Returns [`ImagingError::InvalidDimensions`] if the planes disagree in size.
    pub fn from_planes(r: Plane, g: Plane, b: Plane) -> Result<Self> {
        if r.dimensions() != g.dimensions() || g.dimensions() != b.dimensions() {
            return Err(ImagingError::InvalidDimensions {
                width: g.width(),
                height: g.height(),
                context: "rgb planes must share dimensions",
            });
        }
        Ok(Self { r, g, b })
    }

    /// Image width in pixels.
    pub fn width(&self) -> u32 {
        self.r.width()
    }

    /// Image height in pixels.
    pub fn height(&self) -> u32 {
        self.r.height()
    }

    /// `(width, height)` pair.
    pub fn dimensions(&self) -> (u32, u32) {
        self.r.dimensions()
    }

    /// Red plane.
    pub fn r(&self) -> &Plane {
        &self.r
    }

    /// Green plane.
    pub fn g(&self) -> &Plane {
        &self.g
    }

    /// Blue plane.
    pub fn b(&self) -> &Plane {
        &self.b
    }

    /// The three planes as an array, in R, G, B order.
    pub fn planes(&self) -> [&Plane; 3] {
        [&self.r, &self.g, &self.b]
    }

    /// Mutable access to the three planes, in R, G, B order.
    pub fn planes_mut(&mut self) -> [&mut Plane; 3] {
        [&mut self.r, &mut self.g, &mut self.b]
    }

    /// Consumes the image, yielding its planes in R, G, B order.
    pub fn into_planes(self) -> (Plane, Plane, Plane) {
        (self.r, self.g, self.b)
    }

    /// Reads the `(r, g, b)` triple at `(x, y)`.
    #[inline]
    pub fn pixel(&self, x: u32, y: u32) -> (f32, f32, f32) {
        (self.r.get(x, y), self.g.get(x, y), self.b.get(x, y))
    }

    /// Writes the `(r, g, b)` triple at `(x, y)`.
    #[inline]
    pub fn set_pixel(&mut self, x: u32, y: u32, (r, g, b): (f32, f32, f32)) {
        self.r.set(x, y, r);
        self.g.set(x, y, g);
        self.b.set(x, y, b);
    }

    /// Resizes all three channels in place, reusing buffer capacity and
    /// resetting samples to zero (see [`Plane::reshape`]).
    ///
    /// # Panics
    ///
    /// Panics on zero dimensions.
    pub fn reshape(&mut self, width: u32, height: u32) {
        self.r.reshape(width, height);
        self.g.reshape(width, height);
        self.b.reshape(width, height);
    }

    /// Like [`RgbImage::reshape`] but with unspecified sample values (see
    /// [`Plane::reshape_for_overwrite`]).
    ///
    /// # Panics
    ///
    /// Panics on zero dimensions.
    pub fn reshape_for_overwrite(&mut self, width: u32, height: u32) {
        self.r.reshape_for_overwrite(width, height);
        self.g.reshape_for_overwrite(width, height);
        self.b.reshape_for_overwrite(width, height);
    }

    /// Crops all three channels.
    ///
    /// # Errors
    ///
    /// See [`Plane::crop`].
    pub fn crop(&self, rect: Rect) -> Result<RgbImage> {
        Ok(RgbImage { r: self.r.crop(rect)?, g: self.g.crop(rect)?, b: self.b.crop(rect)? })
    }

    /// Crops all three channels into an existing buffer.
    ///
    /// # Errors
    ///
    /// See [`Plane::crop_into`].
    pub fn crop_into(&self, rect: Rect, out: &mut RgbImage) -> Result<()> {
        self.r.crop_into(rect, &mut out.r)?;
        self.g.crop_into(rect, &mut out.g)?;
        self.b.crop_into(rect, &mut out.b)
    }

    /// Bytes needed to store this image at `bits` bits per sample.
    pub fn storage_bytes(&self, bits: u32) -> u64 {
        3 * (self.r.len() as u64 * bits as u64).div_ceil(8)
    }
}

/// Either a gray or an RGB image; the pipeline switches on the paper's
/// "color mode".
#[derive(Debug, Clone, PartialEq)]
pub enum Image {
    /// Single-channel image.
    Gray(GrayImage),
    /// Three-channel image.
    Rgb(RgbImage),
}

impl Image {
    /// Image width in pixels.
    pub fn width(&self) -> u32 {
        match self {
            Image::Gray(g) => g.width(),
            Image::Rgb(c) => c.width(),
        }
    }

    /// Image height in pixels.
    pub fn height(&self) -> u32 {
        match self {
            Image::Gray(g) => g.height(),
            Image::Rgb(c) => c.height(),
        }
    }

    /// Number of channels (1 or 3).
    pub fn channels(&self) -> u32 {
        match self {
            Image::Gray(_) => 1,
            Image::Rgb(_) => 3,
        }
    }

    /// Bytes needed to store this image at `bits` bits per sample.
    pub fn storage_bytes(&self, bits: u32) -> u64 {
        match self {
            Image::Gray(g) => g.storage_bytes(bits),
            Image::Rgb(c) => c.storage_bytes(bits),
        }
    }

    /// Crops the image, preserving the colour mode.
    ///
    /// # Errors
    ///
    /// See [`Plane::crop`].
    pub fn crop(&self, rect: Rect) -> Result<Image> {
        Ok(match self {
            Image::Gray(g) => Image::Gray(g.crop(rect)?),
            Image::Rgb(c) => Image::Rgb(c.crop(rect)?),
        })
    }

    /// Borrows the gray variant, if that is what this image holds.
    pub fn as_gray(&self) -> Option<&GrayImage> {
        match self {
            Image::Gray(g) => Some(g),
            Image::Rgb(_) => None,
        }
    }

    /// Borrows the RGB variant, if that is what this image holds.
    pub fn as_rgb(&self) -> Option<&RgbImage> {
        match self {
            Image::Rgb(c) => Some(c),
            Image::Gray(_) => None,
        }
    }

    /// Mutably borrows the gray variant, if that is what this image holds.
    pub fn as_gray_mut(&mut self) -> Option<&mut GrayImage> {
        match self {
            Image::Gray(g) => Some(g),
            Image::Rgb(_) => None,
        }
    }

    /// Mutably borrows the RGB variant, if that is what this image holds.
    pub fn as_rgb_mut(&mut self) -> Option<&mut RgbImage> {
        match self {
            Image::Rgb(c) => Some(c),
            Image::Gray(_) => None,
        }
    }
}

impl From<GrayImage> for Image {
    fn from(g: GrayImage) -> Self {
        Image::Gray(g)
    }
}

impl From<RgbImage> for Image {
    fn from(c: RgbImage) -> Self {
        Image::Rgb(c)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn plane_new_is_zeroed() {
        let p = Plane::new(3, 2);
        assert_eq!(p.as_slice(), &[0.0; 6]);
        assert_eq!(p.dimensions(), (3, 2));
    }

    #[test]
    fn plane_zero_dims_rejected() {
        assert!(Plane::try_new(0, 5).is_err());
        assert!(Plane::try_new(5, 0).is_err());
    }

    #[test]
    fn plane_from_vec_checks_len() {
        assert!(Plane::from_vec(2, 2, vec![0.0; 3]).is_err());
        assert!(Plane::from_vec(2, 2, vec![0.0; 4]).is_ok());
    }

    #[test]
    fn plane_get_set_roundtrip() {
        let mut p = Plane::new(5, 4);
        p.set(4, 3, 0.25);
        assert_eq!(p.get(4, 3), 0.25);
        assert_eq!(p.get_checked(5, 3), None);
        assert_eq!(p.get_checked(4, 4), None);
        assert_eq!(p.get_checked(4, 3), Some(0.25));
    }

    #[test]
    fn plane_from_fn_row_major() {
        let p = Plane::from_fn(3, 2, |x, y| (y * 3 + x) as f32);
        assert_eq!(p.as_slice(), &[0.0, 1.0, 2.0, 3.0, 4.0, 5.0]);
        assert_eq!(p.row(1), &[3.0, 4.0, 5.0]);
    }

    #[test]
    fn plane_stats() {
        let p = Plane::from_vec(2, 2, vec![0.0, 1.0, 0.5, 0.5]).unwrap();
        assert!((p.mean() - 0.5).abs() < 1e-6);
        assert_eq!(p.min(), 0.0);
        assert_eq!(p.max(), 1.0);
    }

    #[test]
    fn plane_to_u8_clamps() {
        let p = Plane::from_vec(3, 1, vec![-0.5, 0.5, 1.5]).unwrap();
        assert_eq!(p.to_u8(), vec![0, 128, 255]);
    }

    #[test]
    fn plane_from_u8_roundtrip() {
        let bytes = [0u8, 128, 255, 64];
        let p = Plane::from_u8(2, 2, &bytes).unwrap();
        assert_eq!(p.to_u8(), bytes.to_vec());
    }

    #[test]
    fn plane_crop_copies_window() {
        let p = Plane::from_fn(4, 4, |x, y| (y * 4 + x) as f32);
        let c = p.crop(Rect::new(1, 2, 2, 2)).unwrap();
        assert_eq!(c.as_slice(), &[9.0, 10.0, 13.0, 14.0]);
    }

    #[test]
    fn row_slice_accessors_agree_with_get_set() {
        let mut p = Plane::from_fn(3, 2, |x, y| (y * 3 + x) as f32);
        assert_eq!(p.row_mut(1), &mut [3.0, 4.0, 5.0]);
        p.row_mut(0)[2] = 9.0;
        assert_eq!(p.get(2, 0), 9.0);
        let rows: Vec<&[f32]> = p.rows().collect();
        assert_eq!(rows, vec![&[0.0, 1.0, 9.0][..], &[3.0, 4.0, 5.0][..]]);
        for (y, row) in p.rows_mut().enumerate() {
            for v in row.iter_mut() {
                *v += y as f32 * 10.0;
            }
        }
        assert_eq!(p.as_slice(), &[0.0, 1.0, 9.0, 13.0, 14.0, 15.0]);
        assert_eq!(p.rows().len(), 2);
    }

    #[test]
    #[should_panic(expected = "out of bounds")]
    fn row_mut_rejects_out_of_bounds() {
        Plane::new(2, 2).row_mut(2);
    }

    #[test]
    fn plane_crop_out_of_bounds() {
        let p = Plane::new(4, 4);
        assert!(p.crop(Rect::new(3, 3, 2, 2)).is_err());
        assert!(p.crop(Rect::new(0, 0, 5, 1)).is_err());
        assert!(p.crop(Rect::new(0, 0, 0, 1)).is_err());
    }

    #[test]
    fn plane_blit_clips() {
        let mut dst = Plane::new(3, 3);
        let src = Plane::filled(2, 2, 1.0);
        dst.blit(&src, 2, 2); // only (2,2) lands inside
        assert_eq!(dst.get(2, 2), 1.0);
        assert_eq!(dst.get(1, 1), 0.0);
        dst.blit(&src, -1, -1); // only (0,0) lands inside
        assert_eq!(dst.get(0, 0), 1.0);
    }

    #[test]
    fn enumerate_pixels_order() {
        let p = Plane::from_fn(2, 2, |x, y| (y * 2 + x) as f32);
        let coords: Vec<_> = p.enumerate_pixels().collect();
        assert_eq!(coords, vec![(0, 0, 0.0), (1, 0, 1.0), (0, 1, 2.0), (1, 1, 3.0)]);
    }

    #[test]
    fn rgb_planes_must_match() {
        let a = Plane::new(2, 2);
        let b = Plane::new(2, 3);
        assert!(RgbImage::from_planes(a.clone(), a.clone(), b).is_err());
        assert!(RgbImage::from_planes(a.clone(), a.clone(), a).is_ok());
    }

    #[test]
    fn rgb_pixel_roundtrip() {
        let mut img = RgbImage::new(4, 4);
        img.set_pixel(1, 2, (0.1, 0.2, 0.3));
        assert_eq!(img.pixel(1, 2), (0.1, 0.2, 0.3));
    }

    #[test]
    fn storage_bytes_match_paper_units() {
        // 2560x1920 RGB at 8-bit: 14.7456 MB, the paper's 14,746 kB figure.
        let img = Image::Rgb(RgbImage::new(2560, 1920));
        assert_eq!(img.storage_bytes(8), 2560 * 1920 * 3);
        let gray = Image::Gray(GrayImage::new(320, 240));
        assert_eq!(gray.storage_bytes(8), 320 * 240);
    }

    #[test]
    fn image_enum_dispatch() {
        let g: Image = GrayImage::new(8, 4).into();
        assert_eq!(g.channels(), 1);
        assert_eq!((g.width(), g.height()), (8, 4));
        assert!(g.as_gray().is_some());
        assert!(g.as_rgb().is_none());
        let c: Image = RgbImage::new(8, 4).into();
        assert_eq!(c.channels(), 3);
        assert!(c.as_rgb().is_some());
    }

    #[test]
    fn image_crop_preserves_mode() {
        let c: Image = RgbImage::new(8, 8).into();
        let cc = c.crop(Rect::new(0, 0, 4, 4)).unwrap();
        assert_eq!(cc.channels(), 3);
        assert_eq!(cc.width(), 4);
    }

    #[test]
    fn reshape_rezeroes_and_reuses_capacity() {
        let mut p = Plane::filled(8, 8, 0.9);
        let buf = p.as_slice().as_ptr();
        p.reshape(4, 4);
        assert_eq!(p.dimensions(), (4, 4));
        assert_eq!(p.as_slice(), &[0.0; 16]);
        // Shrinking reuses the same buffer.
        assert_eq!(p.as_slice().as_ptr(), buf);
        p.reshape(8, 8);
        assert_eq!(p.as_slice(), &[0.0; 64]);
    }

    #[test]
    #[should_panic(expected = "nonzero")]
    fn reshape_rejects_zero_dims() {
        Plane::new(2, 2).reshape(0, 4);
    }

    #[test]
    fn reshape_for_overwrite_sets_dims_without_zeroing_requirement() {
        let mut p = Plane::filled(4, 4, 0.9);
        p.reshape_for_overwrite(2, 3);
        assert_eq!(p.dimensions(), (2, 3));
        assert_eq!(p.len(), 6);
        // Contents are unspecified; only the shape contract matters.
        p.reshape_for_overwrite(5, 5);
        assert_eq!(p.len(), 25);
        let mut rgb = RgbImage::new(2, 2);
        rgb.reshape_for_overwrite(3, 1);
        assert_eq!(rgb.dimensions(), (3, 1));
    }

    #[test]
    #[should_panic(expected = "nonzero")]
    fn reshape_for_overwrite_rejects_zero_dims() {
        Plane::new(2, 2).reshape_for_overwrite(4, 0);
    }

    #[test]
    fn copy_from_matches_source() {
        let src = Plane::from_fn(3, 2, |x, y| (x + y) as f32);
        let mut dst = Plane::new(9, 9);
        dst.copy_from(&src);
        assert_eq!(dst, src);
    }

    #[test]
    fn crop_into_matches_crop() {
        let p = Plane::from_fn(6, 6, |x, y| (y * 6 + x) as f32);
        let rect = Rect::new(1, 2, 3, 2);
        let mut out = Plane::new(1, 1);
        p.crop_into(rect, &mut out).unwrap();
        assert_eq!(out, p.crop(rect).unwrap());
        assert!(p.crop_into(Rect::new(5, 5, 3, 3), &mut out).is_err());
    }

    #[test]
    fn image_reshape_variants() {
        let mut g = GrayImage::from_fn(4, 4, |_, _| 1.0);
        g.reshape(2, 2);
        assert_eq!(g.dimensions(), (2, 2));
        assert_eq!(g.plane().as_slice(), &[0.0; 4]);
        let mut c = RgbImage::from_fn(4, 4, |_, _| (1.0, 1.0, 1.0));
        c.reshape(3, 5);
        assert_eq!(c.dimensions(), (3, 5));
        assert_eq!(c.pixel(2, 4), (0.0, 0.0, 0.0));
    }

    #[test]
    fn rgb_crop_into_matches_crop() {
        let img = RgbImage::from_fn(6, 6, |x, y| (x as f32, y as f32, (x * y) as f32));
        let rect = Rect::new(2, 1, 3, 4);
        let mut out = RgbImage::new(1, 1);
        img.crop_into(rect, &mut out).unwrap();
        assert_eq!(out, img.crop(rect).unwrap());
    }

    #[test]
    fn image_mutable_accessors_dispatch() {
        let mut g: Image = GrayImage::new(4, 4).into();
        assert!(g.as_gray_mut().is_some());
        assert!(g.as_rgb_mut().is_none());
        g.as_gray_mut().unwrap().plane_mut().set(0, 0, 0.5);
        assert_eq!(g.as_gray().unwrap().plane().get(0, 0), 0.5);
        let mut c: Image = RgbImage::new(4, 4).into();
        assert!(c.as_rgb_mut().is_some());
        assert!(c.as_gray_mut().is_none());
    }

    #[test]
    fn map_in_place_applies() {
        let mut p = Plane::filled(2, 2, 0.25);
        p.map_in_place(|v| v * 2.0);
        assert_eq!(p.as_slice(), &[0.5; 4]);
    }
}
