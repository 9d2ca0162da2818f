//! Deterministic synthetic video: scenes whose objects move.
//!
//! The still-image generator ([`crate::SceneGenerator`]) samples every
//! frame independently, which models a photo dataset but not a camera: on
//! real video, objects move a few pixels per frame and consecutive frames
//! are heavily correlated. That correlation is exactly what the temporal
//! HiRISE pipeline (`hirise::temporal`) exploits — track ROIs across
//! frames, re-detect only on keyframes or drift — so its evaluation needs
//! ground-truth *tracks*, not just boxes.
//!
//! [`VideoGenerator`] provides them: a seeded set of objects with
//! constant-velocity motion, each either **bouncing** off the canvas
//! edges (specular reflection, so the analytic position is a pure
//! function of time) or **exiting** the frame and staying gone. Every
//! frame is a pure function of `(spec, seed, frame index)` — no
//! accumulated state — so frame `t` can be generated without frames
//! `0..t`, sequences can be re-generated bit-identically for golden
//! tests, and parallel workers need no coordination.
//!
//! Object appearance (clothing colour, texture phase) is derived from the
//! seed and track id alone, so an object looks the same in every frame it
//! appears in — the stability a mean-intensity drift trigger relies on.
//!
//! # Example
//!
//! ```
//! use hirise_scene::{VideoGenerator, VideoSpec};
//!
//! let video = VideoGenerator::new(VideoSpec::surveillance(), 320, 240, 7);
//! let frame = video.frame(5);
//! assert_eq!(frame.image.dimensions(), (320, 240));
//! assert!(!frame.objects.is_empty());
//! // Pure function of the index: regeneration is bit-identical.
//! assert_eq!(video.frame(5).image, frame.image);
//! ```

use hirise_imaging::draw;
use hirise_imaging::{Rect, RgbImage};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

use crate::object::{self, hsv_to_rgb, ObjectClass};

/// Parameters of a synthetic video sequence family.
#[derive(Debug, Clone, PartialEq)]
pub struct VideoSpec {
    /// Min/max moving objects per sequence (inclusive).
    pub objects: (usize, usize),
    /// Label space sampled for the moving objects.
    pub classes: Vec<ObjectClass>,
    /// Object bounding-box height as a fraction of frame height (min, max).
    pub scale_range: (f64, f64),
    /// Speed magnitude in pixels per frame (min, max).
    pub speed_range: (f64, f64),
    /// Fraction of objects that leave the frame instead of bouncing.
    pub exit_fraction: f64,
    /// Static low-saturation distractor rectangles in the background.
    pub clutter_rects: usize,
}

impl VideoSpec {
    /// Surveillance-like default: a few large pedestrians/cyclists moving
    /// 1–3 px/frame, a quarter of them eventually leaving the frame.
    pub fn surveillance() -> Self {
        Self {
            objects: (3, 4),
            classes: vec![ObjectClass::Person, ObjectClass::Cyclist],
            scale_range: (0.20, 0.32),
            speed_range: (0.8, 3.0),
            exit_fraction: 0.25,
            clutter_rects: 6,
        }
    }
}

/// How one object's position evolves over time.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Motion {
    /// Specular reflection at the canvas edges; never leaves the frame.
    Bounce,
    /// Straight constant-velocity line; once fully outside, gone for good.
    Exit,
}

/// Sampled parameters of one ground-truth track (fixed for the sequence).
#[derive(Debug, Clone, Copy)]
struct TrackParams {
    class: ObjectClass,
    /// Box size, pixels.
    w: u32,
    h: u32,
    /// Top-left position at frame 0.
    x0: f64,
    y0: f64,
    /// Velocity, pixels per frame.
    vx: f64,
    vy: f64,
    motion: Motion,
    /// Seed of the per-frame appearance RNG (stable across frames).
    appearance: u64,
}

/// One ground-truth object instance in one frame.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct VideoObject {
    /// Stable track id (index into the sequence's track set).
    pub track: u32,
    /// Object class.
    pub class: ObjectClass,
    /// Bounding box, clipped to the canvas (partially exited objects
    /// shrink; fully exited objects are omitted from the frame).
    pub bbox: Rect,
}

/// One rendered video frame with its ground truth.
#[derive(Debug, Clone)]
pub struct VideoFrame {
    /// Frame index within the sequence.
    pub index: u32,
    /// The rendered RGB canvas (normalised irradiance).
    pub image: RgbImage,
    /// Ground-truth objects visible in this frame, in track-id order.
    pub objects: Vec<VideoObject>,
}

/// Reflects `p` into `0.0..=max` (triangle wave), the closed form of
/// constant-velocity motion with elastic bounces at 0 and `max`.
/// Shared with the scenario generators (`crate::scenario`).
pub(crate) fn reflect(p: f64, max: f64) -> f64 {
    if max <= 0.0 {
        return 0.0;
    }
    let period = 2.0 * max;
    let m = p.rem_euclid(period);
    if m > max {
        period - m
    } else {
        m
    }
}

/// Static background shared by every frame of a sequence: vertical
/// sky-to-ground gradient, untextured clutter rectangles, road lines
/// and low-amplitude texture noise (the same ingredients as the
/// still-scene generator, so detector calibrations transfer). Shared by
/// [`VideoGenerator`] and the scenario generators (`crate::scenario`).
pub(crate) fn paint_background(clutter_rects: usize, w: u32, h: u32, rng: &mut StdRng) -> RgbImage {
    let mut img = RgbImage::new(w, h);
    let sky = rng.gen_range(0.55..0.7);
    let ground = rng.gen_range(0.3..0.45);
    for (ci, tint) in [(0usize, 0.98f32), (1, 1.0), (2, 1.04)] {
        let plane = &mut *img.planes_mut()[ci];
        for y in 0..h {
            let t = y as f32 / (h - 1).max(1) as f32;
            let v = (sky + (ground - sky) * t) * tint;
            for x in 0..w {
                plane.set(x, y, v);
            }
        }
    }
    let noise_seed: u64 = rng.gen();
    for (i, plane) in img.planes_mut().into_iter().enumerate() {
        let mut t = draw::TextureRng::new(noise_seed ^ ((i as u64) << 32));
        for v in plane.as_mut_slice() {
            *v += 0.02 * (t.next_f32() * 2.0 - 1.0);
        }
    }
    for i in 0..clutter_rects {
        let cw = rng.gen_range(w / 16..w / 4).max(2);
        let ch = rng.gen_range(h / 16..h / 4).max(2);
        let x = rng.gen_range(0..w.saturating_sub(cw).max(1));
        let y = rng.gen_range(0..h.saturating_sub(ch).max(1));
        let sat = if i % 2 == 0 { rng.gen_range(0.05..0.2) } else { rng.gen_range(0.3..0.6) };
        let color = hsv_to_rgb(rng.gen_range(0.0..1.0), sat, rng.gen_range(0.3..0.7));
        draw::fill_rect_rgb(&mut img, Rect::new(x, y, cw, ch), color);
    }
    for _ in 0..2 {
        let y0 = rng.gen_range(0..h) as i64;
        let y1 = rng.gen_range(0..h) as i64;
        let shade = rng.gen_range(0.2..0.3);
        let [pr, pg, pb] = img.planes_mut();
        draw::draw_line(pr, 0, y0, w as i64 - 1, y1, shade);
        draw::draw_line(pg, 0, y0, w as i64 - 1, y1, shade);
        draw::draw_line(pb, 0, y0, w as i64 - 1, y1, shade);
    }
    img
}

/// Deterministic video-sequence generator; see the module docs.
#[derive(Debug, Clone)]
pub struct VideoGenerator {
    spec: VideoSpec,
    width: u32,
    height: u32,
    background: RgbImage,
    tracks: Vec<TrackParams>,
}

impl VideoGenerator {
    /// Samples a `width × height` sequence from `spec` under `seed`: the
    /// static background, and every track's size, start position,
    /// velocity, motion mode and appearance.
    ///
    /// # Panics
    ///
    /// Panics when `width`/`height` are too small to hold the smallest
    /// object of the spec (< ~16 px for person-scale presets).
    pub fn new(spec: VideoSpec, width: u32, height: u32, seed: u64) -> Self {
        let mut rng = StdRng::seed_from_u64(seed);
        let background = paint_background(spec.clutter_rects, width, height, &mut rng);
        let count = rng.gen_range(spec.objects.0..=spec.objects.1);
        let mut tracks = Vec::with_capacity(count);
        for id in 0..count {
            let class = spec.classes[rng.gen_range(0..spec.classes.len())];
            let scale = rng.gen_range(spec.scale_range.0..spec.scale_range.1);
            let h = (((scale * height as f64) as u32).max(4)).min(height);
            let aspect = class.aspect() as f64 * rng.gen_range(0.85..1.15);
            let w = (((h as f64 * aspect) as u32).max(3)).min(width);
            // Spawn positions are spread across vertical bands: ground
            // truth for *tracking* wants tracks that start as distinct
            // objects (overlap still develops as they move), and a heap
            // of objects spawned on top of each other evaluates the
            // detector's crowd behaviour, not the tracker.
            let band = width as f64 / count as f64;
            let lo = (band * id as f64).min((width - w) as f64);
            let hi = (band * (id + 1) as f64 - w as f64).clamp(lo, (width - w) as f64);
            let x0 = rng.gen_range(lo..=hi);
            let y0 = rng.gen_range(0.0..=(height - h) as f64);
            let speed = rng.gen_range(spec.speed_range.0..spec.speed_range.1);
            let angle = rng.gen_range(0.0..std::f64::consts::TAU);
            let motion = if rng.gen_range(0.0..1.0) < spec.exit_fraction {
                Motion::Exit
            } else {
                Motion::Bounce
            };
            tracks.push(TrackParams {
                class,
                w,
                h,
                x0,
                y0,
                vx: speed * angle.cos(),
                vy: speed * angle.sin(),
                motion,
                appearance: seed ^ (id as u64 + 1).wrapping_mul(0x9E37_79B9_7F4A_7C15),
            });
        }
        Self { spec, width, height, background, tracks }
    }

    /// The wrapped spec.
    pub fn spec(&self) -> &VideoSpec {
        &self.spec
    }

    /// Frame width in pixels.
    pub fn width(&self) -> u32 {
        self.width
    }

    /// Frame height in pixels.
    pub fn height(&self) -> u32 {
        self.height
    }

    /// Number of ground-truth tracks in the sequence (objects that have
    /// exited still count; they are simply absent from later frames).
    pub fn track_count(&self) -> usize {
        self.tracks.len()
    }

    /// The (unclipped) analytic top-left of track `t` at `frame`, in
    /// floating-point pixels. Bouncing tracks reflect into the canvas;
    /// exiting tracks run straight.
    fn position(&self, t: &TrackParams, frame: u32) -> (f64, f64) {
        let dt = frame as f64;
        let (px, py) = (t.x0 + t.vx * dt, t.y0 + t.vy * dt);
        match t.motion {
            Motion::Bounce => {
                (reflect(px, (self.width - t.w) as f64), reflect(py, (self.height - t.h) as f64))
            }
            Motion::Exit => (px, py),
        }
    }

    /// The visible (canvas-clipped) box of track `t` at `frame`, or
    /// `None` once the object is fully outside.
    fn visible_box(&self, t: &TrackParams, frame: u32) -> Option<Rect> {
        let (px, py) = self.position(t, frame);
        let (x0, y0) = (px.round() as i64, py.round() as i64);
        let (x1, y1) = (x0 + t.w as i64, y0 + t.h as i64);
        let cx0 = x0.max(0);
        let cy0 = y0.max(0);
        let cx1 = x1.min(self.width as i64);
        let cy1 = y1.min(self.height as i64);
        if cx0 < cx1 && cy0 < cy1 {
            Some(Rect::new(cx0 as u32, cy0 as u32, (cx1 - cx0) as u32, (cy1 - cy0) as u32))
        } else {
            None
        }
    }

    /// Ground-truth boxes of `frame`, in track-id order, without
    /// rendering — cheap enough to call per frame during IoU evaluation.
    pub fn ground_truth(&self, frame: u32) -> Vec<VideoObject> {
        self.tracks
            .iter()
            .enumerate()
            .filter_map(|(id, t)| {
                self.visible_box(t, frame).map(|bbox| VideoObject {
                    track: id as u32,
                    class: t.class,
                    bbox,
                })
            })
            .collect()
    }

    /// Renders frame `frame`: the shared background plus every visible
    /// object at its analytic position. Pure function of the index.
    pub fn frame(&self, frame: u32) -> VideoFrame {
        let mut image = self.background.clone();
        let objects = self.ground_truth(frame);
        // Render back-to-front (top of frame first) so nearer objects
        // overdraw farther ones; the ground truth stays in track order.
        let mut order: Vec<usize> = (0..objects.len()).collect();
        order.sort_by_key(|&i| (objects[i].bbox.y, objects[i].track));
        for &i in &order {
            let obj = &objects[i];
            // The appearance RNG restarts from the same seed every frame,
            // so the object's colours and texture do not flicker.
            let mut rng = StdRng::seed_from_u64(self.tracks[obj.track as usize].appearance);
            object::render_object(&mut image, obj.class, obj.bbox, &mut rng);
        }
        VideoFrame { index: frame, image, objects }
    }

    /// Renders frames `0..count`.
    pub fn frames(&self, count: u32) -> Vec<VideoFrame> {
        (0..count).map(|i| self.frame(i)).collect()
    }

    /// Renders frames `0..count`, keeping only the images — the shape a
    /// pre-materialised serve session clip takes.
    pub fn images(&self, count: u32) -> Vec<RgbImage> {
        (0..count).map(|i| self.frame(i).image).collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn generator(seed: u64) -> VideoGenerator {
        VideoGenerator::new(VideoSpec::surveillance(), 160, 120, seed)
    }

    #[test]
    fn frames_are_pure_functions_of_the_index() {
        let video = generator(11);
        let a = video.frame(7);
        let b = video.frame(7);
        assert_eq!(a.image, b.image);
        assert_eq!(a.objects, b.objects);
        // Equal to the batch API, without generating frames 0..7 first.
        let batch = video.frames(8);
        assert_eq!(batch[7].image, a.image);
        assert_eq!(batch[7].objects, a.objects);
    }

    #[test]
    fn same_seed_reproduces_different_seeds_differ() {
        let a = generator(3).frame(2);
        let b = generator(3).frame(2);
        assert_eq!(a.image, b.image);
        let c = generator(4).frame(2);
        assert_ne!(a.image, c.image);
    }

    #[test]
    fn objects_move_between_frames() {
        let video = generator(5);
        let first = video.ground_truth(0);
        let later = video.ground_truth(12);
        assert!(!first.is_empty());
        let moved =
            first.iter().any(|a| later.iter().any(|b| b.track == a.track && b.bbox != a.bbox));
        assert!(moved, "no track moved over 12 frames");
    }

    #[test]
    fn boxes_stay_inside_the_canvas() {
        let video = generator(9);
        for t in 0..40 {
            for obj in video.ground_truth(t) {
                assert!(
                    obj.bbox.fits_within(160, 120),
                    "frame {t}: {} escapes the canvas",
                    obj.bbox
                );
                assert!(!obj.bbox.is_degenerate());
            }
        }
    }

    #[test]
    fn bouncing_tracks_never_leave() {
        let spec = VideoSpec { exit_fraction: 0.0, ..VideoSpec::surveillance() };
        let video = VideoGenerator::new(spec, 160, 120, 21);
        for t in (0..200).step_by(17) {
            assert_eq!(
                video.ground_truth(t).len(),
                video.track_count(),
                "a bouncing track vanished at frame {t}"
            );
        }
    }

    #[test]
    fn exiting_tracks_eventually_leave_for_good() {
        let spec = VideoSpec { exit_fraction: 1.0, ..VideoSpec::surveillance() };
        let video = VideoGenerator::new(spec, 160, 120, 2);
        assert_eq!(video.ground_truth(0).len(), video.track_count());
        // With ~1 px/frame minimum speed, 2000 frames clear a 160 px
        // canvas many times over.
        let gone_at = (0..2000).find(|&t| video.ground_truth(t).is_empty());
        let gone_at = gone_at.expect("exit-mode objects never left the frame");
        // Exited means exited: later frames stay empty.
        for t in [gone_at + 1, gone_at + 50, gone_at + 500] {
            assert!(video.ground_truth(t).is_empty(), "an exited object returned at frame {t}");
        }
    }

    #[test]
    fn ground_truth_matches_rendered_frame() {
        let video = generator(13);
        let frame = video.frame(6);
        assert_eq!(frame.objects, video.ground_truth(6));
        assert_eq!(frame.index, 6);
        // Track ids are stable and ordered.
        let ids: Vec<u32> = frame.objects.iter().map(|o| o.track).collect();
        let mut sorted = ids.clone();
        sorted.sort_unstable();
        sorted.dedup();
        assert_eq!(ids, sorted);
    }

    #[test]
    fn appearance_is_stable_across_frames() {
        // A slow object's pixels at its box centre should be identical a
        // frame apart when the box lands on the same pixel grid: the
        // appearance RNG must not advance with time. Use zero-speed
        // bounds to pin the box in place.
        let spec = VideoSpec {
            speed_range: (1e-9, 2e-9),
            exit_fraction: 0.0,
            ..VideoSpec::surveillance()
        };
        let video = VideoGenerator::new(spec, 160, 120, 31);
        assert_eq!(video.frame(0).image, video.frame(40).image);
    }

    #[test]
    fn images_helper_matches_frames() {
        let video = generator(17);
        let images = video.images(3);
        let frames = video.frames(3);
        assert_eq!(images.len(), 3);
        for (img, fr) in images.iter().zip(&frames) {
            assert_eq!(*img, fr.image);
        }
    }
}
