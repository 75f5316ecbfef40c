//! `N × C × H × W` tensors for the multi-channel convolution workloads
//! (Fig. 4 / Table I of the paper).

use crate::image::Image2D;
use crate::shape::ShapeError;

/// A 4-dimensional `f32` tensor in NCHW layout (row-major, `W` fastest).
#[derive(Debug, Clone, PartialEq)]
pub struct Tensor4 {
    n: usize,
    c: usize,
    h: usize,
    w: usize,
    data: Vec<f32>,
}

impl Tensor4 {
    /// Zero-filled tensor.
    pub fn zeros(n: usize, c: usize, h: usize, w: usize) -> Self {
        Tensor4 {
            n,
            c,
            h,
            w,
            data: vec![0.0; n * c * h * w],
        }
    }

    /// Build from existing NCHW data.
    pub fn from_vec(
        n: usize,
        c: usize,
        h: usize,
        w: usize,
        data: Vec<f32>,
    ) -> Result<Self, ShapeError> {
        let expected = n * c * h * w;
        if data.len() != expected {
            return Err(ShapeError::DataLength {
                expected,
                got: data.len(),
            });
        }
        Ok(Tensor4 { n, c, h, w, data })
    }

    /// Build by evaluating `f(n, c, y, x)` at every element.
    pub fn from_fn(
        n: usize,
        c: usize,
        h: usize,
        w: usize,
        mut f: impl FnMut(usize, usize, usize, usize) -> f32,
    ) -> Self {
        let mut data = Vec::with_capacity(n * c * h * w);
        for in_ in 0..n {
            for ic in 0..c {
                for y in 0..h {
                    for x in 0..w {
                        data.push(f(in_, ic, y, x));
                    }
                }
            }
        }
        Tensor4 { n, c, h, w, data }
    }

    /// Batch size.
    pub fn n(&self) -> usize {
        self.n
    }

    /// Channel count.
    pub fn c(&self) -> usize {
        self.c
    }

    /// Height.
    pub fn h(&self) -> usize {
        self.h
    }

    /// Width.
    pub fn w(&self) -> usize {
        self.w
    }

    /// `(n, c, h, w)` tuple.
    pub fn dims(&self) -> (usize, usize, usize, usize) {
        (self.n, self.c, self.h, self.w)
    }

    /// Total element count.
    pub fn len(&self) -> usize {
        self.data.len()
    }

    /// `true` when the tensor has no elements.
    pub fn is_empty(&self) -> bool {
        self.data.is_empty()
    }

    /// Flat offset of element `(n, c, y, x)`.
    #[inline]
    pub fn offset(&self, n: usize, c: usize, y: usize, x: usize) -> usize {
        debug_assert!(n < self.n && c < self.c && y < self.h && x < self.w);
        ((n * self.c + c) * self.h + y) * self.w + x
    }

    /// Element accessor.
    #[inline]
    pub fn get(&self, n: usize, c: usize, y: usize, x: usize) -> f32 {
        self.data[self.offset(n, c, y, x)]
    }

    /// Mutable element accessor.
    #[inline]
    pub fn set(&mut self, n: usize, c: usize, y: usize, x: usize, v: f32) {
        let o = self.offset(n, c, y, x);
        self.data[o] = v;
    }

    /// NCHW backing slice.
    pub fn as_slice(&self) -> &[f32] {
        &self.data
    }

    /// Mutable NCHW backing slice.
    pub fn as_mut_slice(&mut self) -> &mut [f32] {
        &mut self.data
    }

    /// Consume into the backing vector.
    pub fn into_vec(self) -> Vec<f32> {
        self.data
    }

    /// One `(n, c)` plane copied into an [`Image2D`].
    pub fn plane(&self, n: usize, c: usize) -> Image2D {
        Image2D::from_vec(self.h, self.w, self.plane_slice(n, c).to_vec())
            .expect("a plane slice holds h·w elements")
    }

    /// One `(n, c)` plane as a borrowed slice (length `h·w`).
    pub fn plane_slice(&self, n: usize, c: usize) -> &[f32] {
        let base = self.offset(n, c, 0, 0);
        &self.data[base..base + self.h * self.w]
    }

    /// Overwrite one `(n, c)` plane from an image.
    pub fn set_plane(&mut self, n: usize, c: usize, img: &Image2D) {
        assert_eq!((img.h(), img.w()), (self.h, self.w), "plane shape mismatch");
        let base = self.offset(n, c, 0, 0);
        self.data[base..base + self.h * self.w].copy_from_slice(img.as_slice());
    }

    /// Lift a single image to a `1×1×H×W` tensor.
    pub fn from_image(img: &Image2D) -> Self {
        Tensor4 {
            n: 1,
            c: 1,
            h: img.h(),
            w: img.w(),
            data: img.as_slice().to_vec(),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn nchw_layout_w_fastest() {
        let t = Tensor4::from_fn(2, 2, 2, 2, |n, c, y, x| {
            (n * 1000 + c * 100 + y * 10 + x) as f32
        });
        assert_eq!(t.as_slice()[0], 0.0);
        assert_eq!(t.as_slice()[1], 1.0); // x fastest
        assert_eq!(t.as_slice()[2], 10.0); // then y
        assert_eq!(t.as_slice()[4], 100.0); // then c
        assert_eq!(t.as_slice()[8], 1000.0); // then n
        assert_eq!(t.get(1, 1, 1, 1), 1111.0);
    }

    #[test]
    fn plane_roundtrip() {
        let t = Tensor4::from_fn(2, 3, 4, 5, |n, c, y, x| (n + c + y + x) as f32);
        let p = t.plane(1, 2);
        assert_eq!(p.get(3, 4), t.get(1, 2, 3, 4));
        let mut t2 = Tensor4::zeros(2, 3, 4, 5);
        t2.set_plane(1, 2, &p);
        assert_eq!(t2.get(1, 2, 3, 4), t.get(1, 2, 3, 4));
        assert_eq!(t2.get(0, 0, 0, 0), 0.0);
    }

    #[test]
    fn plane_slice_matches_plane() {
        let t = Tensor4::from_fn(2, 2, 3, 3, |n, c, y, x| {
            (n * 100 + c * 50 + y * 3 + x) as f32
        });
        assert_eq!(t.plane_slice(1, 1), t.plane(1, 1).as_slice());
    }

    #[test]
    fn from_image_lifts() {
        let img = Image2D::from_fn(2, 3, |r, c| (r * 3 + c) as f32);
        let t = Tensor4::from_image(&img);
        assert_eq!(t.dims(), (1, 1, 2, 3));
        assert_eq!(t.get(0, 0, 1, 2), 5.0);
    }

    #[test]
    fn from_vec_validates() {
        assert!(Tensor4::from_vec(1, 2, 3, 4, vec![0.0; 24]).is_ok());
        assert!(Tensor4::from_vec(1, 2, 3, 4, vec![0.0; 23]).is_err());
    }
}
