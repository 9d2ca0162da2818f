//! Selective ROI readout: the stage-2 path.
//!
//! After the stage-1 model has located objects on the pooled image, the
//! processor sends box coordinates back to the sensor (`j · 4` words — a
//! negligible transfer) and the sensor's address encoder converts *only*
//! the pixels inside those boxes, at full resolution.
//!
//! Accounting subtlety reproduced from the paper: when boxes overlap, the
//! encoder converts each physical pixel **once** (conversions follow the
//! **union** of the boxes) but each box is shipped to the processor as its
//! own packet (transfer follows the **sum** of box areas). This is what
//! makes the paper's Fig. 7 transfer shares and Fig. 8 stage-2 energies
//! consistent with each other.

use hirise_imaging::rect::{sum_area, union_area_with_scratch, UnionScratch};
use hirise_imaging::{FramePool, Rect, RgbImage};
use rand::distributions::NormalSampler;

use crate::adc::Adc;
use crate::array::PixelArray;
use crate::noise::{self, domain, RowNoise, ROW_CHUNK};
use crate::sensor::ReadoutStats;
use crate::shard::{shard_rows, ShardPool};
use crate::{Result, SensorError};

/// Number of 16-bit words used to encode one bounding box (x, y, w, h) in
/// the processor→sensor direction, per the paper's `j · (4 × Words)` term.
pub const WORDS_PER_BOX: u64 = 4;

/// Bits per coordinate word.
pub const WORD_BITS: u64 = 16;

fn check_roi(array: &PixelArray, rect: Rect) -> Result<()> {
    if rect.is_degenerate() || !rect.fits_within(array.width(), array.height()) {
        return Err(SensorError::RoiOutOfBounds {
            rect: (rect.x, rect.y, rect.w, rect.h),
            width: array.width(),
            height: array.height(),
        });
    }
    Ok(())
}

/// Position-keyed digitisation of one run of sub-pixels, shared by the
/// ROI and full readouts: `src` holds the voltages of consecutive sites
/// starting at flat stream site `site0` of domain `dom`. Every value is a
/// pure function of its **absolute** array position and the per-readout
/// key, so it does not depend on which other boxes were requested, on
/// readout order, or on the box offsets. Each row chunk's noisy samples
/// go through the ADC in one [`Adc::convert_row`] call.
#[allow(clippy::too_many_arguments)]
pub(crate) fn convert_run(
    src: &[f32],
    dst: &mut [f32],
    dom: u64,
    site0: u64,
    key: u64,
    adc: &Adc,
    read_noise: f64,
    sampler: &NormalSampler,
    noise: &mut RowNoise,
) {
    let adc_sigma = adc.noise_sigma();
    for (c, (src, dst)) in src.chunks(ROW_CHUNK).zip(dst.chunks_mut(ROW_CHUNK)).enumerate() {
        let first = noise::stream(dom, site0 + (c * ROW_CHUNK) as u64);
        let (read, adc_g, xs) =
            noise.draw(sampler, key, first, src.len(), read_noise > 0.0, adc_sigma > 0.0);
        for (((&sv, x), &r), &g) in src.iter().zip(xs.iter_mut()).zip(read).zip(adc_g) {
            let mut v = sv as f64;
            if read_noise > 0.0 {
                v += read_noise * r;
            }
            let g = if adc_sigma > 0.0 { g } else { 0.0 };
            *x = v + adc_sigma * g;
        }
        adc.convert_row(xs, dst);
    }
}

/// The run of row `y` that starts at column `x` and ends by `right`:
/// `(Some(i), end)` when earlier crop `i` holds columns `x..end` (the
/// covering crop that reaches furthest), else `(None, end)` for a gap to
/// convert, ending at the next earlier crop's left edge.
fn next_run(earlier: &[Rect], y: u32, x: u32, right: u32) -> (Option<usize>, u32) {
    let (mut cover, mut end) = (None, right);
    for (i, r) in earlier.iter().enumerate() {
        if y < r.y || y >= r.bottom() {
            continue;
        }
        if r.x <= x && x < r.right() {
            if cover.is_none() || r.right() > end {
                cover = Some(i);
                end = r.right();
            }
        } else if r.x > x && cover.is_none() {
            end = end.min(r.x);
        }
    }
    (cover, end.min(right))
}

/// Reads a single full-resolution ROI under the readout key `key`.
///
/// # Errors
///
/// [`SensorError::RoiOutOfBounds`] when the rectangle leaves the array.
pub(crate) fn read_roi(
    array: &PixelArray,
    rect: Rect,
    adc: &Adc,
    key: u64,
    shards: usize,
    shard_pool: Option<&ShardPool>,
) -> Result<(RgbImage, ReadoutStats)> {
    let (mut images, stats) = read_rois(array, &[rect], adc, key, shards, shard_pool)?;
    Ok((images.pop().expect("one box reads one crop"), stats))
}

/// Reads a batch of ROIs under one readout key, so overlapping boxes
/// agree bit-for-bit on their shared pixels.
///
/// Conversions are charged on the union of the boxes; transfer is charged
/// per box. The boxes' coordinates themselves cost `j · 4 words` in the
/// opposite direction ([`ReadoutStats::box_words_bits`]).
///
/// # Errors
///
/// [`SensorError::RoiOutOfBounds`] when any rectangle leaves the array.
pub(crate) fn read_rois(
    array: &PixelArray,
    rects: &[Rect],
    adc: &Adc,
    key: u64,
    shards: usize,
    shard_pool: Option<&ShardPool>,
) -> Result<(Vec<RgbImage>, ReadoutStats)> {
    let mut images = Vec::with_capacity(rects.len());
    let stats = read_rois_into(
        array,
        rects,
        adc,
        key,
        shards,
        shard_pool,
        &mut images,
        &mut FramePool::new(),
        &mut UnionScratch::new(),
    )?;
    Ok((images, stats))
}

/// In-place counterpart of [`read_rois`] and the one ROI
/// conversion kernel: the crops replace the contents of `images`
/// (entries reused where possible; surplus entries retire to `pool`,
/// shortfalls are drawn from it) and the union sweep runs on the
/// caller's [`UnionScratch`]. After a warm-up frame or two the call
/// performs no heap allocation.
///
/// Each physical sub-pixel is converted once, as the paper's address
/// encoder does: crop `j` copies the runs an earlier crop `i < j`
/// already holds (keyed values are a pure function of position, so the
/// copy is exact) and converts only the gaps. Crops are filled in order;
/// the rows of each crop plane are split over `shards` bands on
/// `shard_pool` (inline without one), and the output is identical at
/// every shard count.
///
/// # Errors
///
/// [`SensorError::RoiOutOfBounds`] when any box leaves the array;
/// `images` is left unchanged in that case.
#[allow(clippy::too_many_arguments)]
pub(crate) fn read_rois_into(
    array: &PixelArray,
    rects: &[Rect],
    adc: &Adc,
    key: u64,
    shards: usize,
    shard_pool: Option<&ShardPool>,
    images: &mut Vec<RgbImage>,
    pool: &mut FramePool,
    union: &mut UnionScratch,
) -> Result<ReadoutStats> {
    for &r in rects {
        check_roi(array, r)?;
    }
    let sampler = NormalSampler::new();
    let read_noise = array.params().read_noise;
    let sites = array.width() as u64 * array.height() as u64;
    let aw = array.width() as u64;
    while images.len() > rects.len() {
        let surplus = images.pop().expect("length checked");
        pool.release_rgb(surplus);
    }
    for (j, &rect) in rects.iter().enumerate() {
        if j == images.len() {
            // Every sample is overwritten below.
            images.push(pool.acquire_rgb_for_overwrite(rect.w, rect.h));
        }
        let (done, rest) = images.split_at_mut(j);
        let crop = &mut rest[0];
        crop.reshape_for_overwrite(rect.w, rect.h);
        let (earlier, w, right) = (&rects[..j], rect.w as usize, rect.right());
        for (ch, plane) in crop.planes_mut().into_iter().enumerate() {
            let src = array.plane(ch);
            let ch_base = ch as u64 * sites;
            let fill = |_: usize, first_row: usize, band: &mut [f32]| {
                let mut noise = RowNoise::new();
                for (dy, dst_row) in band.chunks_exact_mut(w).enumerate() {
                    let y = rect.y + (first_row + dy) as u32;
                    let src_row = src.row(y);
                    let row_base = ch_base + y as u64 * aw;
                    let mut x = rect.x;
                    while x < right {
                        let (cover, end) = next_run(earlier, y, x, right);
                        let dst = &mut dst_row[(x - rect.x) as usize..(end - rect.x) as usize];
                        match cover {
                            Some(i) => {
                                let r = earlier[i];
                                let held = done[i].planes()[ch].row(y - r.y);
                                dst.copy_from_slice(
                                    &held[(x - r.x) as usize..(end - r.x) as usize],
                                );
                            }
                            None => convert_run(
                                &src_row[x as usize..end as usize],
                                dst,
                                domain::ROI,
                                row_base + x as u64,
                                key,
                                adc,
                                read_noise,
                                &sampler,
                                &mut noise,
                            ),
                        }
                        x = end;
                    }
                }
            };
            shard_rows(shard_pool, plane.as_mut_slice(), rect.h as usize, w, shards, fill);
        }
    }
    Ok(ReadoutStats {
        conversions: 3 * union_area_with_scratch(rects, union),
        transferred_bits: 3 * sum_area(rects) * adc.bits() as u64,
        box_words_bits: rects.len() as u64 * WORDS_PER_BOX * WORD_BITS,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::pixel::PixelParams;
    use hirise_imaging::rect::union_area;

    fn gradient_array() -> PixelArray {
        let scene = RgbImage::from_fn(16, 16, |x, y| (x as f32 / 15.0, y as f32 / 15.0, 0.5));
        PixelArray::from_scene(&scene, PixelParams::noiseless(), 0)
    }

    /// One keyed box on one thread.
    fn read_one(arr: &PixelArray, rect: Rect, adc: &Adc) -> Result<(RgbImage, ReadoutStats)> {
        read_roi(arr, rect, adc, 1, 1, None)
    }

    /// One keyed batch on one thread.
    fn read_batch(
        arr: &PixelArray,
        rects: &[Rect],
        adc: &Adc,
    ) -> Result<(Vec<RgbImage>, ReadoutStats)> {
        read_rois(arr, rects, adc, 1, 1, None)
    }

    #[test]
    fn roi_content_matches_scene() {
        let arr = gradient_array();
        let adc = Adc::paper_default();
        let (img, _) = read_one(&arr, Rect::new(4, 8, 4, 4), &adc).unwrap();
        assert_eq!(img.dimensions(), (4, 4));
        // Red channel at (0,0) of the crop corresponds to scene x=4.
        let expected = 4.0 / 15.0;
        assert!((img.r().get(0, 0) - expected).abs() < 0.01);
        let expected_g = 8.0 / 15.0;
        assert!((img.g().get(0, 0) - expected_g).abs() < 0.01);
    }

    #[test]
    fn roi_stats_single_box() {
        let arr = gradient_array();
        let adc = Adc::paper_default();
        let (_, stats) = read_one(&arr, Rect::new(0, 0, 4, 5), &adc).unwrap();
        assert_eq!(stats.conversions, 3 * 20);
        assert_eq!(stats.transferred_bits, 3 * 20 * 8);
        assert_eq!(stats.box_words_bits, 64);
    }

    #[test]
    fn out_of_bounds_rejected() {
        let arr = gradient_array();
        let adc = Adc::paper_default();
        assert!(read_one(&arr, Rect::new(14, 0, 4, 4), &adc).is_err());
        assert!(read_one(&arr, Rect::new(0, 0, 0, 4), &adc).is_err());
    }

    #[test]
    fn batch_conversions_use_union_transfer_uses_sum() {
        let arr = gradient_array();
        let adc = Adc::paper_default();
        // Two overlapping 8x8 boxes offset by 4: union 96, sum 128.
        let boxes = [Rect::new(0, 0, 8, 8), Rect::new(4, 0, 8, 8)];
        let (imgs, stats) = read_batch(&arr, &boxes, &adc).unwrap();
        assert_eq!(imgs.len(), 2);
        assert_eq!(stats.conversions, 3 * 96);
        assert_eq!(stats.transferred_bits, 3 * 128 * 8);
        assert_eq!(stats.box_words_bits, 2 * 64);
    }

    #[test]
    fn batch_rejects_any_bad_box() {
        let arr = gradient_array();
        let adc = Adc::paper_default();
        let boxes = [Rect::new(0, 0, 4, 4), Rect::new(15, 15, 4, 4)];
        assert!(read_batch(&arr, &boxes, &adc).is_err());
    }

    #[test]
    fn read_rois_into_matches_allocating_path() {
        // The in-place path, row-sharded, against the allocating path on
        // one thread, with noisy conversions.
        let arr = gradient_array();
        let adc = Adc::paper_default().with_noise(0.5e-3);
        let frames: [&[Rect]; 3] = [
            &[Rect::new(0, 0, 8, 8), Rect::new(4, 0, 8, 8), Rect::new(10, 10, 4, 4)],
            &[Rect::new(2, 2, 6, 6)],
            &[Rect::new(1, 1, 5, 9), Rect::new(8, 3, 7, 7)],
        ];
        let shard_pool = ShardPool::new(2);
        let mut images = Vec::new();
        let mut pool = FramePool::new();
        let mut union = UnionScratch::new();
        // Growing and shrinking ROI counts recycle through the pool.
        for rects in frames {
            let (expected, expected_stats) = read_batch(&arr, rects, &adc).unwrap();
            let stats = read_rois_into(
                &arr,
                rects,
                &adc,
                1,
                2,
                Some(&shard_pool),
                &mut images,
                &mut pool,
                &mut union,
            )
            .unwrap();
            assert_eq!(images, expected);
            assert_eq!(stats, expected_stats);
        }
        // A failing batch must leave the previous images untouched.
        let before = images.clone();
        let bad = [Rect::new(15, 15, 4, 4)];
        assert!(read_rois_into(
            &arr,
            &bad,
            &adc,
            1,
            2,
            Some(&shard_pool),
            &mut images,
            &mut pool,
            &mut union
        )
        .is_err());
        assert_eq!(images, before);
    }

    #[test]
    fn keyed_overlapping_rois_agree_on_shared_pixels() {
        // Keyed noise is a pure function of absolute position, so the
        // overlap of two boxes read in one operation carries identical
        // values in both crops — the union really is converted once.
        let scene = RgbImage::from_fn(16, 16, |x, y| (x as f32 / 15.0, y as f32 / 15.0, 0.5));
        let arr = PixelArray::from_scene(&scene, PixelParams::default(), 4);
        let adc = Adc::paper_default().with_noise(0.5e-3).with_inl(0.25);
        let key = crate::noise::frame_key(4, 0);
        let a = Rect::new(0, 0, 8, 8);
        let b = Rect::new(4, 2, 8, 8);
        let (imgs, _) = read_rois(&arr, &[a, b], &adc, key, 1, None).unwrap();
        let mut overlapping = 0;
        for y in 2..8u32 {
            for x in 4..8u32 {
                for ch in 0..3 {
                    let va = imgs[0].planes()[ch].get(x, y);
                    let vb = imgs[1].planes()[ch].get(x - 4, y - 2);
                    assert_eq!(va, vb, "overlap differs at ({x},{y}) ch {ch}");
                }
                overlapping += 1;
            }
        }
        assert_eq!(overlapping, 24);
        // A later readout op (fresh key) is an independent realisation.
        let (again, _) =
            read_rois(&arr, &[a], &adc, crate::noise::frame_key(4, 1), 1, None).unwrap();
        assert_ne!(again[0], imgs[0]);
    }

    #[test]
    fn keyed_read_rois_into_matches_allocating_path() {
        let scene = RgbImage::from_fn(16, 16, |x, y| (x as f32 / 15.0, y as f32 / 15.0, 0.5));
        let arr = PixelArray::from_scene(&scene, PixelParams::default(), 4);
        let adc = Adc::paper_default().with_noise(0.5e-3);
        let frames: [&[Rect]; 3] = [
            &[Rect::new(0, 0, 8, 8), Rect::new(4, 0, 8, 8), Rect::new(10, 10, 4, 4)],
            &[Rect::new(2, 2, 6, 6)],
            &[Rect::new(1, 1, 5, 9), Rect::new(8, 3, 7, 7)],
        ];
        let mut images = Vec::new();
        let mut pool = FramePool::new();
        let mut union = UnionScratch::new();
        for (op, rects) in frames.into_iter().enumerate() {
            let key = crate::noise::frame_key(4, op as u64);
            let (expected, expected_stats) = read_rois(&arr, rects, &adc, key, 1, None).unwrap();
            let stats =
                read_rois_into(&arr, rects, &adc, key, 1, None, &mut images, &mut pool, &mut union)
                    .unwrap();
            assert_eq!(images, expected);
            assert_eq!(stats, expected_stats);
        }
        // A failing batch must leave the previous images untouched.
        let before = images.clone();
        let bad = [Rect::new(15, 15, 4, 4)];
        assert!(read_rois_into(&arr, &bad, &adc, 1, 1, None, &mut images, &mut pool, &mut union)
            .is_err());
        assert_eq!(images, before);
    }

    #[test]
    fn keyed_crops_equal_boxes_read_alone_at_any_shard_count() {
        // Later crops copy the runs earlier crops already hold; whatever
        // the overlap pattern and the row sharding, every crop must equal
        // its box read alone under the same key, and the accounting must
        // still charge the union for conversions and the sum for transfer.
        let scene = RgbImage::from_fn(24, 20, |x, y| {
            (x as f32 / 23.0, y as f32 / 19.0, ((x * 7 + y * 3) % 11) as f32 / 10.0)
        });
        let arr = PixelArray::from_scene(&scene, PixelParams::default(), 9);
        let adc = Adc::paper_default().with_noise(0.5e-3).with_inl(0.25);
        let key = crate::noise::frame_key(9, 2);
        let outer = Rect::new(2, 3, 12, 10);
        let inner = Rect::new(5, 6, 4, 3);
        let batches: [(&str, &[Rect]); 7] = [
            ("nested, outer first", &[outer, inner]),
            ("nested, inner first", &[inner, outer]),
            ("identical", &[outer, outer, outer]),
            ("partly overlapping", &[Rect::new(0, 0, 10, 8), Rect::new(6, 4, 10, 9)]),
            // A∩B and B∩C non-empty, A∩C empty: C copies from B only.
            ("chained", &[Rect::new(0, 0, 8, 8), Rect::new(6, 6, 8, 8), Rect::new(12, 12, 8, 8)]),
            // Shared edges but no shared pixels, at the array borders.
            (
                "edge-touching",
                &[Rect::new(0, 0, 12, 10), Rect::new(12, 0, 12, 10), Rect::new(0, 10, 24, 10)],
            ),
            // A crop whose rows alternate between copied and converted runs.
            (
                "interleaved",
                &[Rect::new(3, 0, 2, 20), Rect::new(9, 5, 3, 4), Rect::new(0, 2, 24, 12), outer],
            ),
        ];
        let pool = ShardPool::new(3);
        let mut images = Vec::new();
        let mut frames = FramePool::new();
        let mut union = UnionScratch::new();
        for (name, rects) in batches {
            let alone: Vec<RgbImage> =
                rects.iter().map(|&r| read_roi(&arr, r, &adc, key, 1, None).unwrap().0).collect();
            let expected_stats = ReadoutStats {
                conversions: 3 * union_area(rects),
                transferred_bits: 3 * sum_area(rects) * 8,
                box_words_bits: rects.len() as u64 * WORDS_PER_BOX * WORD_BITS,
            };
            for shards in [1usize, 2, 3] {
                let stats = read_rois_into(
                    &arr,
                    rects,
                    &adc,
                    key,
                    shards,
                    Some(&pool),
                    &mut images,
                    &mut frames,
                    &mut union,
                )
                .unwrap();
                assert_eq!(stats, expected_stats, "{name}: accounting at {shards} shards");
                for (j, (got, want)) in images.iter().zip(&alone).enumerate() {
                    assert_eq!(got, want, "{name}: crop {j} at {shards} shards");
                }
                assert_eq!(images.len(), rects.len());
            }
        }
    }

    #[test]
    fn disjoint_boxes_union_equals_sum() {
        let arr = gradient_array();
        let adc = Adc::paper_default();
        let boxes = [Rect::new(0, 0, 4, 4), Rect::new(8, 8, 4, 4)];
        let (_, stats) = read_batch(&arr, &boxes, &adc).unwrap();
        assert_eq!(stats.conversions * 8, stats.transferred_bits);
    }
}
