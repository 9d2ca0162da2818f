//! RAF-DB-like synthetic facial-expression patches.
//!
//! Seven classes matching the RAF-DB label space. Each class is encoded by
//! geometric face features — mouth curvature/opening, eye aperture and brow
//! angle — drawn at a base resolution and then *downscaled to the ROI size
//! under test*. The features span only a few pixels, so aggressive
//! downscaling merges them: a 14×14 patch (the ROI a 320×240 array yields
//! in Table 3) is nearly class-ambiguous, while 112×112 is easy. This
//! reproduces the paper's accuracy-vs-ROI-size saturation curve with a real
//! trainable classifier (`hirise-nn`).

use hirise_imaging::draw;
use hirise_imaging::{Plane, Rect, RgbImage};
use rand::Rng;

use crate::object::hsv_to_rgb;

/// RAF-DB's seven basic expressions.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub enum Expression {
    /// Wide eyes, open round mouth.
    Surprise,
    /// Wide eyes, open flat mouth, raised brows.
    Fear,
    /// Narrowed eyes, asymmetric wavy mouth.
    Disgust,
    /// Upward-curved mouth.
    Happy,
    /// Downward-curved mouth, inner-raised brows.
    Sad,
    /// Narrowed eyes, steep inward-down brows, pressed mouth.
    Anger,
    /// Relaxed features, straight mouth.
    Neutral,
}

impl Expression {
    /// All classes in stable order.
    pub const ALL: [Expression; 7] = [
        Expression::Surprise,
        Expression::Fear,
        Expression::Disgust,
        Expression::Happy,
        Expression::Sad,
        Expression::Anger,
        Expression::Neutral,
    ];

    /// Stable numeric id.
    pub fn id(&self) -> usize {
        Self::ALL.iter().position(|e| e == self).expect("expression is in ALL")
    }

    /// Class from id.
    pub fn from_id(id: usize) -> Option<Expression> {
        Self::ALL.get(id).copied()
    }
}

impl std::fmt::Display for Expression {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        let s = match self {
            Expression::Surprise => "surprise",
            Expression::Fear => "fear",
            Expression::Disgust => "disgust",
            Expression::Happy => "happy",
            Expression::Sad => "sad",
            Expression::Anger => "anger",
            Expression::Neutral => "neutral",
        };
        f.write_str(s)
    }
}

/// Generator for expression patches at a configurable base resolution.
#[derive(Debug, Clone)]
pub struct FacePatchGenerator {
    base: u32,
}

impl FacePatchGenerator {
    /// Creates a generator rendering at `base × base` pixels (default in
    /// the experiments: 112, the largest Table-3 ROI).
    pub fn new(base: u32) -> Self {
        Self { base: base.max(16) }
    }

    fn thick_point(plane: &mut Plane, x: f32, y: f32, r: u32, v: f32) {
        let rect = Rect::new(
            (x - r as f32).max(0.0) as u32,
            (y - r as f32).max(0.0) as u32,
            2 * r + 1,
            2 * r + 1,
        );
        draw::fill_rect(plane, rect, v);
    }

    fn stroke_curve(
        img: &mut RgbImage,
        color: (f32, f32, f32),
        thickness: u32,
        points: impl Iterator<Item = (f32, f32)>,
    ) {
        let pts: Vec<(f32, f32)> = points.collect();
        let [pr, pg, pb] = img.planes_mut();
        for &(x, y) in &pts {
            Self::thick_point(pr, x, y, thickness, color.0);
            Self::thick_point(pg, x, y, thickness, color.1);
            Self::thick_point(pb, x, y, thickness, color.2);
        }
    }

    /// Renders one face patch of class `expr` with per-sample jitter drawn
    /// from `rng`.
    pub fn generate<R: Rng + ?Sized>(&self, expr: Expression, rng: &mut R) -> RgbImage {
        let s = self.base as f32;
        let mut img = RgbImage::new(self.base, self.base);

        // Background (shoulders/backdrop).
        let bg =
            hsv_to_rgb(rng.gen_range(0.0..1.0), rng.gen_range(0.05..0.3), rng.gen_range(0.25..0.5));
        draw::fill_rect_rgb(&mut img, Rect::new(0, 0, self.base, self.base), bg);

        // Face ellipse with slight tone variation.
        let tone: f32 = rng.gen_range(0.7..0.95);
        let face_color = (tone, tone * rng.gen_range(0.7..0.8), tone * rng.gen_range(0.55..0.65));
        let fx = rng.gen_range(0.04..0.10);
        let face = Rect::new(
            (s * fx) as u32,
            (s * 0.06) as u32,
            (s * (1.0 - 2.0 * fx)) as u32,
            (s * 0.9) as u32,
        );
        let [pr, pg, pb] = img.planes_mut();
        draw::fill_ellipse(pr, face, face_color.0);
        draw::fill_ellipse(pg, face, face_color.1);
        draw::fill_ellipse(pb, face, face_color.2);

        // Hair: fine stripes across the top (high-frequency texture).
        let hair_dark = rng.gen_range(0.02..0.15);
        let hair = Rect::new(face.x, face.y, face.w, (s * 0.18) as u32);
        let [pr, pg, pb] = img.planes_mut();
        draw::fill_stripes(pr, hair, 1, hair_dark, hair_dark * 2.5);
        draw::fill_stripes(pg, hair, 1, hair_dark * 0.9, hair_dark * 2.2);
        draw::fill_stripes(pb, hair, 1, hair_dark * 0.8, hair_dark * 1.9);

        let jx = rng.gen_range(-0.02..0.02);
        let jy = rng.gen_range(-0.02..0.02);
        let cx = s * (0.5 + jx);
        let eye_y = s * (0.42 + jy);
        let eye_dx = s * rng.gen_range(0.16..0.20);

        // Eye aperture per class.
        let aperture = match expr {
            Expression::Surprise | Expression::Fear => rng.gen_range(0.085..0.105),
            Expression::Anger | Expression::Disgust => rng.gen_range(0.025..0.04),
            _ => rng.gen_range(0.055..0.07),
        };
        let eye_w = s * 0.13;
        let eye_h = (s * aperture).max(1.0);
        let eye_color = (0.95, 0.95, 0.97);
        let pupil = (0.06, 0.05, 0.1);
        for side in [-1.0f32, 1.0] {
            let ex = cx + side * eye_dx - eye_w / 2.0;
            let ey = eye_y - eye_h / 2.0;
            let e = Rect::new(
                ex.max(0.0) as u32,
                ey.max(0.0) as u32,
                eye_w as u32,
                eye_h.ceil() as u32,
            );
            let [pr, pg, pb] = img.planes_mut();
            draw::fill_ellipse(pr, e, eye_color.0);
            draw::fill_ellipse(pg, e, eye_color.1);
            draw::fill_ellipse(pb, e, eye_color.2);
            let pw = (eye_w * 0.4) as u32;
            let ph = (eye_h * 0.8).max(1.0) as u32;
            let p = Rect::new(
                (cx + side * eye_dx - pw as f32 / 2.0).max(0.0) as u32,
                (eye_y - ph as f32 / 2.0).max(0.0) as u32,
                pw.max(1),
                ph,
            );
            let [pr, pg, pb] = img.planes_mut();
            draw::fill_ellipse(pr, p, pupil.0);
            draw::fill_ellipse(pg, p, pupil.1);
            draw::fill_ellipse(pb, p, pupil.2);
        }

        // Brows: angle encodes anger/sadness/fear.
        let brow_angle = match expr {
            Expression::Anger => -0.10, // inner ends pulled down
            Expression::Sad => 0.08,    // inner ends raised
            Expression::Fear | Expression::Surprise => 0.05,
            _ => rng.gen_range(-0.01..0.01),
        };
        let brow_color = (hair_dark, hair_dark, hair_dark);
        for side in [-1.0f32, 1.0] {
            let n = 12;
            let base_y = eye_y
                - s * (0.085
                    + if matches!(expr, Expression::Surprise | Expression::Fear) {
                        0.03
                    } else {
                        0.0
                    });
            let pts = (0..=n).map(move |i| {
                let t = i as f32 / n as f32; // 0 at inner end
                let x = cx + side * (s * 0.06 + t * s * 0.16);
                let y = base_y - side * 0.0 + (t - 0.5) * 0.0
                    - brow_angle * s * (1.0 - t) * side * side
                    + brow_angle * s * (t - 0.5);
                (x, y)
            });
            Self::stroke_curve(&mut img, brow_color, (s / 56.0).max(1.0) as u32, pts);
        }

        // Mouth: the strongest class cue.
        let mouth_y = s * (0.72 + rng.gen_range(-0.015..0.015));
        let mouth_w = s * rng.gen_range(0.26..0.34);
        let lip = (0.55, 0.15, 0.18);
        match expr {
            Expression::Happy | Expression::Sad => {
                // Subtle curvature: ~5 px of bow at 112 px, fractions of a
                // pixel at 14 px — the resolution-limited cue of Table 3.
                let curv = s * 0.05 * if expr == Expression::Happy { 1.0 } else { -1.0 };
                let n = 24;
                let pts = (0..=n).map(move |i| {
                    let t = i as f32 / n as f32 * 2.0 - 1.0;
                    (cx + t * mouth_w / 2.0, mouth_y + curv * (t * t - 0.5))
                });
                Self::stroke_curve(&mut img, lip, (s / 56.0).max(1.0) as u32, pts);
            }
            Expression::Surprise => {
                // Open round mouth with dark interior.
                let mw = mouth_w * 0.55;
                let mh = s * rng.gen_range(0.08..0.11);
                let m = Rect::new(
                    (cx - mw / 2.0) as u32,
                    (mouth_y - mh / 2.0) as u32,
                    mw as u32,
                    mh as u32,
                );
                let [pr, pg, pb] = img.planes_mut();
                draw::fill_ellipse(pr, m, 0.1);
                draw::fill_ellipse(pg, m, 0.05);
                draw::fill_ellipse(pb, m, 0.07);
            }
            Expression::Fear => {
                // Open but wide/flat mouth — at low resolution this merges
                // with surprise's round mouth.
                let mh = s * rng.gen_range(0.05..0.075);
                let m = Rect::new(
                    (cx - mouth_w / 2.0) as u32,
                    (mouth_y - mh / 2.0) as u32,
                    mouth_w as u32,
                    mh as u32,
                );
                let [pr, pg, pb] = img.planes_mut();
                draw::fill_ellipse(pr, m, 0.12);
                draw::fill_ellipse(pg, m, 0.06);
                draw::fill_ellipse(pb, m, 0.08);
            }
            Expression::Disgust => {
                // Asymmetric wavy line: one corner pulled up slightly.
                let n = 24;
                let curv = s * 0.03;
                let pts = (0..=n).map(move |i| {
                    let t = i as f32 / n as f32 * 2.0 - 1.0;
                    (cx + t * mouth_w / 2.0, mouth_y - curv * t - curv * 0.6 * (3.0 * t).sin())
                });
                Self::stroke_curve(&mut img, lip, (s / 56.0).max(1.0) as u32, pts);
            }
            Expression::Anger => {
                // Pressed thin straight mouth; differs from neutral mainly
                // by the brow angle and narrowed eyes — fine cues.
                let m = Rect::new(
                    (cx - mouth_w / 2.0) as u32,
                    mouth_y as u32,
                    mouth_w as u32,
                    ((s / 56.0).max(1.0)) as u32,
                );
                draw::fill_rect_rgb(&mut img, m, (0.45, 0.13, 0.15));
            }
            Expression::Neutral => {
                let m = Rect::new(
                    (cx - mouth_w / 2.0) as u32,
                    mouth_y as u32,
                    mouth_w as u32,
                    ((s / 48.0).max(1.0)) as u32,
                );
                draw::fill_rect_rgb(&mut img, m, lip);
            }
        }

        // Nose: small vertical shading, common to all classes.
        let nose = Rect::new(
            (cx - s * 0.02) as u32,
            (s * 0.52) as u32,
            (s * 0.04).max(1.0) as u32,
            (s * 0.12) as u32,
        );
        draw::fill_rect_rgb(
            &mut img,
            nose,
            (face_color.0 * 0.8, face_color.1 * 0.8, face_color.2 * 0.8),
        );

        // Sensor-independent appearance noise.
        let seed: u64 = rng.gen();
        for (i, plane) in img.planes_mut().into_iter().enumerate() {
            let mut t = draw::TextureRng::new(seed ^ (i as u64));
            for v in plane.as_mut_slice() {
                *v = (*v + 0.015 * (t.next_f32() * 2.0 - 1.0)).clamp(0.0, 1.0);
            }
        }
        img
    }

    /// Generates a labelled dataset with `per_class` samples per class.
    pub fn dataset<R: Rng + ?Sized>(
        &self,
        per_class: usize,
        rng: &mut R,
    ) -> Vec<(RgbImage, Expression)> {
        let mut out = Vec::with_capacity(per_class * Expression::ALL.len());
        for _ in 0..per_class {
            for expr in Expression::ALL {
                out.push((self.generate(expr, rng), expr));
            }
        }
        out
    }
}

impl Default for FacePatchGenerator {
    fn default() -> Self {
        Self::new(112)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use hirise_imaging::{metrics, ops};
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    #[test]
    fn expression_ids_roundtrip() {
        for e in Expression::ALL {
            assert_eq!(Expression::from_id(e.id()), Some(e));
        }
        assert_eq!(Expression::from_id(7), None);
    }

    #[test]
    fn patches_have_requested_size() {
        let gen = FacePatchGenerator::new(64);
        let mut rng = StdRng::seed_from_u64(1);
        let img = gen.generate(Expression::Happy, &mut rng);
        assert_eq!(img.dimensions(), (64, 64));
    }

    #[test]
    fn happy_and_sad_differ_at_high_res() {
        // Averaged over samples, the mouth region differs strongly between
        // happy (bright corners up) and sad at full resolution.
        let gen = FacePatchGenerator::new(112);
        let mut rng = StdRng::seed_from_u64(2);
        let happy = gen.generate(Expression::Happy, &mut rng);
        let mut rng2 = StdRng::seed_from_u64(2);
        let sad = gen.generate(Expression::Sad, &mut rng2);
        // Same jitter seed: the only difference is the class features.
        let diff = metrics::mae(
            &hirise_imaging::color::rgb_to_gray_mean(&happy).into_plane(),
            &hirise_imaging::color::rgb_to_gray_mean(&sad).into_plane(),
        )
        .unwrap();
        assert!(diff > 0.001, "classes indistinguishable at 112px: {diff}");
    }

    #[test]
    fn downscaling_shrinks_class_separation() {
        let gen = FacePatchGenerator::new(112);
        let mut ra = StdRng::seed_from_u64(5);
        let mut rb = StdRng::seed_from_u64(5);
        let a = gen.generate(Expression::Surprise, &mut ra);
        let b = gen.generate(Expression::Anger, &mut rb);
        let ga = hirise_imaging::color::rgb_to_gray_mean(&a);
        let gb = hirise_imaging::color::rgb_to_gray_mean(&b);
        let d_hi = metrics::mae(ga.plane(), gb.plane()).unwrap();
        let a14 = ops::resize_gray(&ga, 14, 14).unwrap();
        let b14 = ops::resize_gray(&gb, 14, 14).unwrap();
        let d_lo = metrics::mae(a14.plane(), b14.plane()).unwrap();
        assert!(d_lo < d_hi, "class separation did not shrink: hi={d_hi} lo={d_lo}");
    }

    #[test]
    fn dataset_is_balanced() {
        let gen = FacePatchGenerator::new(32);
        let mut rng = StdRng::seed_from_u64(9);
        let data = gen.dataset(3, &mut rng);
        assert_eq!(data.len(), 21);
        for e in Expression::ALL {
            assert_eq!(data.iter().filter(|(_, l)| *l == e).count(), 3);
        }
    }

    #[test]
    fn all_expressions_render_all_sizes() {
        let mut rng = StdRng::seed_from_u64(3);
        for size in [16, 28, 112] {
            let gen = FacePatchGenerator::new(size);
            for e in Expression::ALL {
                let img = gen.generate(e, &mut rng);
                assert_eq!(img.width(), size.max(16));
                // Values stay in range.
                assert!(img.r().max() <= 1.0 && img.r().min() >= 0.0);
            }
        }
    }
}
