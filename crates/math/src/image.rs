//! Float RGB images with PPM export.

use crate::Rgb;
use std::fmt;
use std::io::{self, Write};
use std::path::Path;

/// An RGB image with `f32` channels stored row-major.
///
/// ```
/// use asdr_math::{Image, Rgb};
/// let mut img = Image::new(4, 2);
/// img.set(1, 0, Rgb::WHITE);
/// assert_eq!(img.get(1, 0), Rgb::WHITE);
/// assert_eq!(img.get(0, 0), Rgb::BLACK);
/// ```
#[derive(Clone, PartialEq)]
pub struct Image {
    width: u32,
    height: u32,
    data: Vec<Rgb>,
}

impl fmt::Debug for Image {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("Image")
            .field("width", &self.width)
            .field("height", &self.height)
            .field("mean_luma", &self.mean_luminance())
            .finish()
    }
}

impl Image {
    /// Creates an all-black image.
    ///
    /// # Panics
    ///
    /// Panics if either dimension is zero.
    pub fn new(width: u32, height: u32) -> Self {
        assert!(width > 0 && height > 0, "image must be non-empty");
        Image { width, height, data: vec![Rgb::BLACK; width as usize * height as usize] }
    }

    /// Image width in pixels.
    pub fn width(&self) -> u32 {
        self.width
    }

    /// Image height in pixels.
    pub fn height(&self) -> u32 {
        self.height
    }

    /// Number of pixels.
    pub fn pixel_count(&self) -> usize {
        self.data.len()
    }

    #[inline]
    fn idx(&self, x: u32, y: u32) -> usize {
        debug_assert!(x < self.width && y < self.height, "pixel ({x},{y}) out of bounds");
        (y * self.width + x) as usize
    }

    /// Reads pixel `(x, y)`.
    #[inline]
    pub fn get(&self, x: u32, y: u32) -> Rgb {
        self.data[self.idx(x, y)]
    }

    /// Writes pixel `(x, y)`.
    #[inline]
    pub fn set(&mut self, x: u32, y: u32, c: Rgb) {
        let i = self.idx(x, y);
        self.data[i] = c;
    }

    /// Writes a horizontal span of pixels starting at `(x, y)` in one copy
    /// (the frame-assembly path of the renderer's merge step).
    ///
    /// # Panics
    ///
    /// Panics if the span does not fit inside row `y`.
    #[inline]
    pub fn set_row_span(&mut self, x: u32, y: u32, span: &[Rgb]) {
        assert!(
            x as usize + span.len() <= self.width as usize && y < self.height,
            "span of {} pixels at ({x},{y}) exceeds {}x{} image",
            span.len(),
            self.width,
            self.height
        );
        let start = self.idx(x, y);
        self.data[start..start + span.len()].copy_from_slice(span);
    }

    /// Immutable access to the raw pixel slice (row-major).
    pub fn pixels(&self) -> &[Rgb] {
        &self.data
    }

    /// Mutable access to the raw pixel slice (row-major).
    pub fn pixels_mut(&mut self) -> &mut [Rgb] {
        &mut self.data
    }

    /// Mean luminance over all pixels.
    pub fn mean_luminance(&self) -> f32 {
        if self.data.is_empty() {
            return 0.0;
        }
        self.data.iter().map(|c| c.luminance()).sum::<f32>() / self.data.len() as f32
    }

    /// Extracts the luminance plane.
    pub fn luminance_plane(&self) -> Vec<f32> {
        self.data.iter().map(|c| c.luminance()).collect()
    }

    /// Returns a new image downsampled by 2× (box filter). Odd trailing
    /// rows/columns are dropped. Used by the multi-scale perceptual metric.
    ///
    /// # Panics
    ///
    /// Panics if the image is smaller than 2×2.
    pub fn downsample2(&self) -> Image {
        assert!(self.width >= 2 && self.height >= 2, "image too small to downsample");
        let w = self.width / 2;
        let h = self.height / 2;
        let mut out = Image::new(w, h);
        for y in 0..h {
            for x in 0..w {
                let mut acc = Rgb::BLACK;
                for (dx, dy) in [(0, 0), (1, 0), (0, 1), (1, 1)] {
                    acc += self.get(x * 2 + dx, y * 2 + dy);
                }
                out.set(x, y, acc * 0.25);
            }
        }
        out
    }

    /// Writes the image as a binary PPM (P6) file, clamping to `[0,1]` and
    /// gamma-encoding with 1/2.2.
    ///
    /// # Errors
    ///
    /// Returns any underlying I/O error.
    pub fn write_ppm<P: AsRef<Path>>(&self, path: P) -> io::Result<()> {
        let f = std::fs::File::create(path)?;
        let mut w = io::BufWriter::new(f);
        writeln!(w, "P6\n{} {}\n255", self.width, self.height)?;
        let mut buf = Vec::with_capacity(self.data.len() * 3);
        for c in &self.data {
            let c = c.clamp01();
            for ch in [c.r, c.g, c.b] {
                buf.push((ch.powf(1.0 / 2.2) * 255.0 + 0.5) as u8);
            }
        }
        w.write_all(&buf)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn new_image_is_black() {
        let img = Image::new(3, 3);
        assert_eq!(img.mean_luminance(), 0.0);
        assert_eq!(img.pixel_count(), 9);
    }

    #[test]
    fn set_get_roundtrip() {
        let mut img = Image::new(5, 4);
        let c = Rgb::new(0.1, 0.2, 0.3);
        img.set(4, 3, c);
        assert_eq!(img.get(4, 3), c);
        assert_eq!(img.get(0, 0), Rgb::BLACK);
    }

    #[test]
    fn row_span_matches_per_pixel_writes() {
        let span = [Rgb::new(0.1, 0.0, 0.0), Rgb::new(0.0, 0.2, 0.0), Rgb::new(0.0, 0.0, 0.3)];
        let mut a = Image::new(5, 3);
        a.set_row_span(1, 2, &span);
        let mut b = Image::new(5, 3);
        for (i, &c) in span.iter().enumerate() {
            b.set(1 + i as u32, 2, c);
        }
        assert_eq!(a, b);
    }

    #[test]
    #[should_panic]
    fn row_span_overflow_panics() {
        let mut img = Image::new(4, 4);
        img.set_row_span(2, 0, &[Rgb::BLACK; 3]);
    }

    #[test]
    fn downsample_averages() {
        let mut img = Image::new(2, 2);
        img.set(0, 0, Rgb::WHITE);
        img.set(1, 0, Rgb::BLACK);
        img.set(0, 1, Rgb::BLACK);
        img.set(1, 1, Rgb::WHITE);
        let small = img.downsample2();
        assert_eq!(small.width(), 1);
        assert_eq!(small.height(), 1);
        assert!((small.get(0, 0).r - 0.5).abs() < 1e-6);
    }

    #[test]
    fn mean_luminance_of_uniform_image() {
        let mut img = Image::new(4, 4);
        for p in img.pixels_mut() {
            *p = Rgb::splat(0.25);
        }
        assert!((img.mean_luminance() - 0.25).abs() < 1e-6);
    }

    #[test]
    fn ppm_writes_header_and_payload() {
        let dir = std::env::temp_dir().join("asdr_math_test");
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("t.ppm");
        let img = Image::new(2, 2);
        img.write_ppm(&path).unwrap();
        let bytes = std::fs::read(&path).unwrap();
        assert!(bytes.starts_with(b"P6\n2 2\n255\n"));
        assert_eq!(bytes.len(), b"P6\n2 2\n255\n".len() + 12);
    }
}
