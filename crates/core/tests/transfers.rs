//! Host↔device transfers of the paper's kernels are copy-free (DESIGN.md
//! §4, "Host↔device transfers"), pinned by pointers: the input tensor's
//! storage is mapped into the simulator, the result moves out into the
//! output tensor, and neither changes what the kernel computes.

use std::sync::Arc;

use memconv_core::{conv2d_ours, conv_nchw_ours, launch_conv_nchw_ours, OursConfig};
use memconv_gpusim::{DeviceConfig, GpuSim};
use memconv_tensor::{ConvGeometry, Tensor4, TensorRng};

#[test]
fn upload_shared_maps_the_tensor_storage() {
    let t = TensorRng::new(3).tensor(1, 2, 9, 7);
    let mut sim = GpuSim::new(DeviceConfig::test_tiny());
    let id = sim.mem.upload_shared(t.shared());
    assert_eq!(sim.mem.download(id).as_ptr(), t.as_slice().as_ptr());
}

#[test]
fn a_taken_result_moves_into_the_output_tensor() {
    let mut sim = GpuSim::new(DeviceConfig::test_tiny());
    let bo = sim.mem.alloc(2 * 3 * 4 * 5);
    let ptr = sim.mem.download(bo).as_ptr();
    let out = Tensor4::from_vec(2, 3, 4, 5, sim.mem.take(bo)).unwrap();
    assert_eq!(out.as_slice().as_ptr(), ptr);
    let moved = out.into_vec();
    assert_eq!(moved.as_ptr(), ptr);
}

#[test]
fn copy_free_wrappers_match_the_copying_path_and_leave_inputs_alone() {
    let mut rng = TensorRng::new(11);
    let input = rng.tensor(2, 3, 12, 40);
    let bank = rng.filter_bank(4, 3, 3, 3);
    let pristine = input.as_slice().to_vec();
    let cfg = OursConfig::default();

    let mut sim = GpuSim::new(DeviceConfig::test_tiny());
    let (out, stats) = conv_nchw_ours(&mut sim, &input, &bank, &cfg);
    drop(sim);
    assert_eq!(input.as_slice(), &pristine[..]);
    assert_eq!(
        Arc::strong_count(&input.shared()),
        2,
        "no handle left behind"
    );

    // The same launch through copying `upload` and `download`.
    let g = ConvGeometry::nchw(2, 3, 12, 40, 4, 3, 3);
    let mut sim = GpuSim::new(DeviceConfig::test_tiny());
    let bi = sim.mem.upload(input.as_slice());
    let bw = sim.mem.upload(bank.as_slice());
    let bo = sim.mem.alloc(g.out_elems());
    let want_stats = launch_conv_nchw_ours(&mut sim, bi, bw, bo, &g, &cfg);
    let bits = |v: &[f32]| v.iter().map(|x| x.to_bits()).collect::<Vec<_>>();
    assert_eq!(bits(out.as_slice()), bits(sim.mem.download(bo)));
    assert_eq!(stats, want_stats);

    let img = rng.image(20, 70);
    let filt = rng.filter(5, 5);
    let before = img.clone().into_vec();
    let mut sim = GpuSim::new(DeviceConfig::test_tiny());
    let _ = conv2d_ours(&mut sim, &img, &filt, &cfg);
    assert_eq!(img.as_slice(), &before[..]);
}
