//! Single-channel 2D images — the workload of the paper's Fig. 3
//! experiments (2D convolution on 256×256 … 4K×4K images).

use std::sync::Arc;

use crate::shape::ShapeError;

/// A single-channel `H × W` image of `f32` samples, stored row-major in
/// shared copy-on-write storage, like [`crate::Tensor4`].
#[derive(Debug, Clone, PartialEq)]
pub struct Image2D {
    h: usize,
    w: usize,
    data: Arc<Vec<f32>>,
}

impl Image2D {
    /// Create a zero-filled image.
    pub fn zeros(h: usize, w: usize) -> Self {
        Image2D {
            h,
            w,
            data: Arc::new(vec![0.0; h * w]),
        }
    }

    /// Create an image from existing row-major data.
    pub fn from_vec(h: usize, w: usize, data: Vec<f32>) -> Result<Self, ShapeError> {
        if data.len() != h * w {
            return Err(ShapeError::DataLength {
                expected: h * w,
                got: data.len(),
            });
        }
        Ok(Image2D {
            h,
            w,
            data: Arc::new(data),
        })
    }

    /// Build an image by evaluating `f(row, col)` at every pixel.
    pub fn from_fn(h: usize, w: usize, mut f: impl FnMut(usize, usize) -> f32) -> Self {
        let mut data = Vec::with_capacity(h * w);
        for r in 0..h {
            for c in 0..w {
                data.push(f(r, c));
            }
        }
        Image2D {
            h,
            w,
            data: Arc::new(data),
        }
    }

    /// Image height in pixels.
    pub fn h(&self) -> usize {
        self.h
    }

    /// Image width in pixels.
    pub fn w(&self) -> usize {
        self.w
    }

    /// Number of pixels.
    pub fn len(&self) -> usize {
        self.data.len()
    }

    /// `true` when the image has no pixels.
    pub fn is_empty(&self) -> bool {
        self.data.is_empty()
    }

    /// Pixel accessor. Panics when out of bounds (debug-friendly; hot paths
    /// use [`Image2D::as_slice`] directly).
    #[inline]
    pub fn get(&self, r: usize, c: usize) -> f32 {
        assert!(
            r < self.h && c < self.w,
            "pixel ({r},{c}) out of {}x{}",
            self.h,
            self.w
        );
        self.data[r * self.w + c]
    }

    /// Pixel accessor with zero padding outside the image, for signed
    /// coordinates — convenient for `Same`-padded reference convolutions.
    #[inline]
    pub fn get_padded(&self, r: isize, c: isize) -> f32 {
        if r < 0 || c < 0 || r as usize >= self.h || c as usize >= self.w {
            0.0
        } else {
            self.data[r as usize * self.w + c as usize]
        }
    }

    /// Mutable pixel accessor (copies shared storage first).
    #[inline]
    pub fn set(&mut self, r: usize, c: usize, v: f32) {
        assert!(r < self.h && c < self.w);
        Arc::make_mut(&mut self.data)[r * self.w + c] = v;
    }

    /// Row-major backing slice.
    pub fn as_slice(&self) -> &[f32] {
        &self.data
    }

    /// Mutable row-major backing slice (copies shared storage first).
    pub fn as_mut_slice(&mut self) -> &mut [f32] {
        Arc::make_mut(&mut self.data).as_mut_slice()
    }

    /// Consume into the backing vector: a move when the storage is not
    /// shared, a copy otherwise.
    pub fn into_vec(self) -> Vec<f32> {
        Arc::unwrap_or_clone(self.data)
    }

    /// A handle to the backing storage, without copying. The simulator
    /// maps it into device memory with `GlobalMem::upload_shared`.
    pub fn shared(&self) -> Arc<Vec<f32>> {
        Arc::clone(&self.data)
    }

    /// One image row as a slice.
    pub fn row(&self, r: usize) -> &[f32] {
        assert!(r < self.h);
        &self.data[r * self.w..(r + 1) * self.w]
    }

    /// Return a zero-padded copy with `pad_h`/`pad_w` zeros on each side.
    pub fn zero_pad(&self, pad_h: usize, pad_w: usize) -> Image2D {
        let mut out = Image2D::zeros(self.h + 2 * pad_h, self.w + 2 * pad_w);
        let data = Arc::make_mut(&mut out.data);
        for r in 0..self.h {
            let dst = (r + pad_h) * out.w + pad_w;
            data[dst..dst + self.w].copy_from_slice(self.row(r));
        }
        out
    }

    /// Crop a `h × w` window whose top-left corner is `(r0, c0)`.
    pub fn crop(&self, r0: usize, c0: usize, h: usize, w: usize) -> Image2D {
        assert!(r0 + h <= self.h && c0 + w <= self.w, "crop out of bounds");
        Image2D::from_fn(h, w, |r, c| self.get(r0 + r, c0 + c))
    }

    /// Mean pixel value (0.0 for an empty image).
    pub fn mean(&self) -> f32 {
        if self.data.is_empty() {
            return 0.0;
        }
        let sum: f64 = self.data.iter().map(|&v| v as f64).sum();
        (sum / self.data.len() as f64) as f32
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn from_vec_checks_length() {
        assert!(Image2D::from_vec(2, 3, vec![0.0; 6]).is_ok());
        assert!(matches!(
            Image2D::from_vec(2, 3, vec![0.0; 5]),
            Err(ShapeError::DataLength {
                expected: 6,
                got: 5
            })
        ));
    }

    #[test]
    fn from_fn_row_major_order() {
        let img = Image2D::from_fn(2, 3, |r, c| (r * 10 + c) as f32);
        assert_eq!(img.as_slice(), &[0.0, 1.0, 2.0, 10.0, 11.0, 12.0]);
        assert_eq!(img.get(1, 2), 12.0);
    }

    #[test]
    fn padded_accessor_returns_zero_outside() {
        let img = Image2D::from_fn(2, 2, |_, _| 7.0);
        assert_eq!(img.get_padded(-1, 0), 0.0);
        assert_eq!(img.get_padded(0, 2), 0.0);
        assert_eq!(img.get_padded(1, 1), 7.0);
    }

    #[test]
    fn zero_pad_places_original_centered() {
        let img = Image2D::from_fn(2, 2, |r, c| (r * 2 + c + 1) as f32);
        let p = img.zero_pad(1, 2);
        assert_eq!(p.h(), 4);
        assert_eq!(p.w(), 6);
        assert_eq!(p.get(0, 0), 0.0);
        assert_eq!(p.get(1, 2), 1.0);
        assert_eq!(p.get(2, 3), 4.0);
    }

    #[test]
    fn crop_extracts_window() {
        let img = Image2D::from_fn(4, 4, |r, c| (r * 4 + c) as f32);
        let c = img.crop(1, 2, 2, 2);
        assert_eq!(c.as_slice(), &[6.0, 7.0, 10.0, 11.0]);
    }

    #[test]
    #[should_panic]
    fn get_out_of_bounds_panics() {
        Image2D::zeros(2, 2).get(2, 0);
    }

    #[test]
    fn mean_of_ramp() {
        let img = Image2D::from_fn(1, 5, |_, c| c as f32);
        assert!((img.mean() - 2.0).abs() < 1e-6);
    }

    #[test]
    fn writes_copy_shared_storage_only() {
        let img = Image2D::from_fn(2, 2, |r, c| (r * 2 + c) as f32);
        let mut copy = img.clone();
        copy.set(1, 1, 9.0);
        assert_eq!(img.get(1, 1), 3.0);
        assert_eq!(copy.get(1, 1), 9.0);
        let ptr = copy.as_slice().as_ptr();
        let moved = copy.into_vec();
        assert_eq!(moved.as_ptr(), ptr);
    }

    #[test]
    fn row_slice_matches_gets() {
        let img = Image2D::from_fn(3, 4, |r, c| (r * 4 + c) as f32);
        assert_eq!(img.row(2), &[8.0, 9.0, 10.0, 11.0]);
    }
}
