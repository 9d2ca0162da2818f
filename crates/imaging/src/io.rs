//! Binary PPM (P6) / PGM (P5) encoding and decoding.
//!
//! These are the only file formats the workspace needs (examples dump
//! qualitative results like the paper's Fig. 1 as PPM), so they are
//! implemented here instead of pulling in an image codec dependency.

use std::io::{BufRead, Write};
use std::path::Path;

use crate::{GrayImage, ImagingError, Plane, Result, RgbImage};

/// Writes a gray image as binary PGM (P5, maxval 255).
///
/// A `&mut` reference may be passed for `w` since `Write` is implemented for
/// `&mut W`.
///
/// # Errors
///
/// Propagates I/O failures as [`ImagingError::Io`].
pub fn write_pgm<W: Write>(img: &GrayImage, mut w: W) -> Result<()> {
    write!(w, "P5\n{} {}\n255\n", img.width(), img.height())?;
    w.write_all(&img.plane().to_u8())?;
    Ok(())
}

/// Writes an RGB image as binary PPM (P6, maxval 255).
///
/// # Errors
///
/// Propagates I/O failures as [`ImagingError::Io`].
pub fn write_ppm<W: Write>(img: &RgbImage, mut w: W) -> Result<()> {
    write!(w, "P6\n{} {}\n255\n", img.width(), img.height())?;
    let (r, g, b) = (img.r().to_u8(), img.g().to_u8(), img.b().to_u8());
    let mut interleaved = Vec::with_capacity(r.len() * 3);
    for i in 0..r.len() {
        interleaved.push(r[i]);
        interleaved.push(g[i]);
        interleaved.push(b[i]);
    }
    w.write_all(&interleaved)?;
    Ok(())
}

/// Saves an RGB image to `path` as PPM.
///
/// # Errors
///
/// Propagates I/O failures as [`ImagingError::Io`].
pub fn save_ppm(img: &RgbImage, path: impl AsRef<Path>) -> Result<()> {
    let file = std::fs::File::create(path)?;
    write_ppm(img, std::io::BufWriter::new(file))
}

fn read_token<R: BufRead>(r: &mut R) -> Result<String> {
    let mut tok = String::new();
    let mut in_comment = false;
    loop {
        let mut byte = [0u8; 1];
        match r.read_exact(&mut byte) {
            Ok(()) => {}
            Err(e) => {
                if tok.is_empty() {
                    return Err(ImagingError::Decode(format!("unexpected end of header: {e}")));
                }
                return Ok(tok);
            }
        }
        let c = byte[0] as char;
        if in_comment {
            if c == '\n' {
                in_comment = false;
            }
            continue;
        }
        if c == '#' {
            in_comment = true;
            continue;
        }
        if c.is_ascii_whitespace() {
            if tok.is_empty() {
                continue;
            }
            return Ok(tok);
        }
        tok.push(c);
    }
}

fn parse_header<R: BufRead>(r: &mut R, magic: &str) -> Result<(u32, u32)> {
    let m = read_token(r)?;
    if m != magic {
        return Err(ImagingError::Decode(format!("expected magic {magic}, found {m}")));
    }
    let w: u32 =
        read_token(r)?.parse().map_err(|e| ImagingError::Decode(format!("bad width: {e}")))?;
    let h: u32 =
        read_token(r)?.parse().map_err(|e| ImagingError::Decode(format!("bad height: {e}")))?;
    let maxval: u32 =
        read_token(r)?.parse().map_err(|e| ImagingError::Decode(format!("bad maxval: {e}")))?;
    if maxval != 255 {
        return Err(ImagingError::Decode(format!("unsupported maxval {maxval}, expected 255")));
    }
    if w == 0 || h == 0 {
        return Err(ImagingError::Decode(format!("degenerate image {w}x{h}")));
    }
    Ok((w, h))
}

/// Reads a binary PGM (P5) stream.
///
/// # Errors
///
/// Returns [`ImagingError::Decode`] for malformed headers and
/// [`ImagingError::Io`] for truncated payloads.
pub fn read_pgm<R: BufRead>(mut r: R) -> Result<GrayImage> {
    let (w, h) = parse_header(&mut r, "P5")?;
    let mut data = vec![0u8; w as usize * h as usize];
    r.read_exact(&mut data)?;
    Ok(GrayImage::from_plane(Plane::from_u8(w, h, &data)?))
}

/// Reads a binary PPM (P6) stream.
///
/// # Errors
///
/// Returns [`ImagingError::Decode`] for malformed headers and
/// [`ImagingError::Io`] for truncated payloads.
pub fn read_ppm<R: BufRead>(mut r: R) -> Result<RgbImage> {
    let (w, h) = parse_header(&mut r, "P6")?;
    let n = w as usize * h as usize;
    let mut data = vec![0u8; n * 3];
    r.read_exact(&mut data)?;
    let mut rp = Vec::with_capacity(n);
    let mut gp = Vec::with_capacity(n);
    let mut bp = Vec::with_capacity(n);
    for px in data.chunks_exact(3) {
        rp.push(px[0] as f32 / 255.0);
        gp.push(px[1] as f32 / 255.0);
        bp.push(px[2] as f32 / 255.0);
    }
    RgbImage::from_planes(
        Plane::from_vec(w, h, rp)?,
        Plane::from_vec(w, h, gp)?,
        Plane::from_vec(w, h, bp)?,
    )
}

/// Loads a PPM file from disk.
///
/// # Errors
///
/// See [`read_ppm`].
pub fn load_ppm(path: impl AsRef<Path>) -> Result<RgbImage> {
    let file = std::fs::File::open(path)?;
    read_ppm(std::io::BufReader::new(file))
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::io::Cursor;

    #[test]
    fn pgm_roundtrip() {
        let img = GrayImage::from_fn(7, 5, |x, y| ((x * 37 + y * 11) % 256) as f32 / 255.0);
        let mut buf = Vec::new();
        write_pgm(&img, &mut buf).unwrap();
        let back = read_pgm(Cursor::new(buf)).unwrap();
        assert_eq!(back.dimensions(), (7, 5));
        // u8 quantisation roundtrip is exact for values that came from u8
        assert_eq!(back.plane().to_u8(), img.plane().to_u8());
    }

    #[test]
    fn ppm_roundtrip() {
        let img =
            RgbImage::from_fn(4, 3, |x, y| (x as f32 / 3.0, y as f32 / 2.0, (x + y) as f32 / 5.0));
        let mut buf = Vec::new();
        write_ppm(&img, &mut buf).unwrap();
        let back = read_ppm(Cursor::new(buf)).unwrap();
        assert_eq!(back.dimensions(), (4, 3));
        assert_eq!(back.r().to_u8(), img.r().to_u8());
        assert_eq!(back.b().to_u8(), img.b().to_u8());
    }

    #[test]
    fn header_magic_checked() {
        let bad = b"P4\n2 2\n255\n....".to_vec();
        assert!(matches!(read_pgm(Cursor::new(bad)), Err(ImagingError::Decode(_))));
    }

    #[test]
    fn header_comments_skipped() {
        let mut buf = b"P5\n# a comment line\n2 1\n# another\n255\n".to_vec();
        buf.extend_from_slice(&[10u8, 200u8]);
        let img = read_pgm(Cursor::new(buf)).unwrap();
        assert_eq!(img.dimensions(), (2, 1));
        assert_eq!(img.plane().to_u8(), vec![10, 200]);
    }

    #[test]
    fn truncated_payload_is_io_error() {
        let buf = b"P5\n4 4\n255\nxx".to_vec(); // 2 bytes instead of 16
        assert!(matches!(read_pgm(Cursor::new(buf)), Err(ImagingError::Io(_))));
    }

    #[test]
    fn zero_dims_rejected() {
        let buf = b"P5\n0 4\n255\n".to_vec();
        assert!(read_pgm(Cursor::new(buf)).is_err());
    }

    #[test]
    fn unsupported_maxval_rejected() {
        let buf = b"P5\n2 2\n65535\n........".to_vec();
        assert!(read_pgm(Cursor::new(buf)).is_err());
    }

    #[test]
    fn file_roundtrip() {
        let dir = std::env::temp_dir().join("hirise_imaging_io_test");
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("test.ppm");
        let img = RgbImage::from_fn(8, 8, |x, y| ((x % 2) as f32, (y % 2) as f32, 0.5));
        save_ppm(&img, &path).unwrap();
        let back = load_ppm(&path).unwrap();
        assert_eq!(back.dimensions(), (8, 8));
        std::fs::remove_file(&path).unwrap();
    }
}
