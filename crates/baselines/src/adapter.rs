//! Adapter exposing any batched NCHW algorithm as a single-image 2D
//! algorithm (the paper's Fig. 3 setting: batch 1, one channel, one
//! filter).

use memconv_core::api::{Conv2dAlgorithm, ConvNchwAlgorithm};
use memconv_gpusim::{GpuSim, RunReport};
use memconv_tensor::{Filter2D, FilterBank, Image2D, Tensor4};

/// Wraps a [`ConvNchwAlgorithm`] into a [`Conv2dAlgorithm`] by lifting the
/// image to a `1×1×H×W` tensor.
#[derive(Debug, Clone)]
pub struct As2d<T>(pub T);

impl<T: ConvNchwAlgorithm> Conv2dAlgorithm for As2d<T> {
    fn name(&self) -> &str {
        self.0.name()
    }

    fn supports(&self, fh: usize, fw: usize) -> bool {
        self.0.supports(fh, fw)
    }

    fn run(&self, sim: &mut GpuSim, input: &Image2D, filter: &Filter2D) -> (Image2D, RunReport) {
        let t = Tensor4::from_image(input);
        let bank = FilterBank::broadcast(filter, 1, 1);
        let (out, rep) = self.0.run(sim, &t, &bank);
        let (n, k, h, w) = out.dims();
        debug_assert_eq!((n, k), (1, 1), "one image through one filter is one plane");
        let img =
            Image2D::from_vec(h, w, out.into_vec()).expect("a 1×1×H×W tensor holds H·W elements");
        (img, rep)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use memconv_core::Ours;
    use memconv_gpusim::DeviceConfig;
    use memconv_ref::conv2d_ref;
    use memconv_tensor::generate::TensorRng;

    #[test]
    fn adapter_preserves_results() {
        let mut rng = TensorRng::new(77);
        let img = rng.image(10, 18);
        let k = rng.filter(3, 3);
        let algo = As2d(Ours::new());
        let mut sim = GpuSim::new(DeviceConfig::test_tiny());
        let (out, rep) = algo.run(&mut sim, &img, &k);
        assert_eq!(out.as_slice(), conv2d_ref(&img, &k).as_slice());
        assert_eq!(algo.name(), "ours");
        assert!(rep.global_transactions() > 0);
    }
}
