//! Step 2 — the S×S error matrix, on every backend.
//!
//! §V: "To implement this step, S CUDA blocks are invoked. Each CUDA block
//! is responsible for computing S error values E(I_u, T_1) … E(I_u, T_S).
//! … First, threads in each CUDA block read pixel values of tile I_u and
//! store them to the shared memory." The simulated-device path reproduces
//! that decomposition exactly: one block per input tile, the tile staged
//! in shared memory, the row of S errors written to global memory.

use crate::config::Backend;
use mosaic_gpu::{BlockContext, DeviceSpec, GlobalBuffer, GpuSim, LaunchConfig, WorkProfile};
use mosaic_grid::compute::checked_layouts;
use mosaic_grid::LayoutError;
use mosaic_grid::{
    build_error_matrix, build_error_matrix_threaded_bounded_in, packed_tile_error, BuildError,
    Deadline, ErrorMatrix, TileLayout, TileMetric,
};
use mosaic_image::{Image, Pixel};
use mosaic_pool::ThreadPool;
use std::sync::Arc;
use std::time::{Duration, Instant};

/// Timing and work accounting of one pipeline step.
#[derive(Clone, Debug, Default)]
pub struct StepTrace {
    /// Host wall-clock time of the step.
    pub wall: Duration,
    /// Abstract work profile for the analytic device model.
    pub profile: WorkProfile,
}

/// The work profile of Step 2 for the given geometry (used for modeled
/// device times; identical for every backend since the algorithm is).
pub fn step2_profile<P: Pixel>(layout: TileLayout, launches: usize) -> WorkProfile {
    let s = layout.tile_count() as u64;
    let tile_bytes = layout.tile_bytes::<P>() as u64;
    WorkProfile {
        launches,
        // Each block reads its input tile once plus all S target tiles and
        // writes S u32 results.
        global_bytes: s * tile_bytes + s * s * tile_bytes + s * s * 4,
        // One subtract + one accumulate per channel sample per pair.
        ops: s * s * tile_bytes * 2,
    }
}

/// Compute the Step-2 matrix on the configured backend.
///
/// # Errors
/// Returns [`LayoutError`] when either image does not match `layout`.
pub fn compute_error_matrix<P: Pixel>(
    input: &Image<P>,
    target: &Image<P>,
    layout: TileLayout,
    metric: TileMetric,
    backend: Backend,
) -> Result<(ErrorMatrix, StepTrace), LayoutError> {
    compute_error_matrix_bounded_in(
        mosaic_pool::global(),
        input,
        target,
        layout,
        metric,
        backend,
        &Deadline::NONE,
    )
    .map_err(BuildError::into_layout)
}

/// [`compute_error_matrix`] with cooperative cancellation, the parallel
/// backends dispatched on an explicit [`ThreadPool`] instead of the
/// process-wide one.
///
/// The threaded backend polls `deadline` at row boundaries; the serial
/// and simulated-GPU backends are not internally interruptible, so for
/// those the deadline is only checked on entry (the overshoot is then one
/// whole build — per-job deadlines in the service should pair with the
/// threaded backend when tight bounds matter).
///
/// # Errors
/// Returns [`BuildError::Layout`] when either image does not match
/// `layout`, and [`BuildError::DeadlineExceeded`] when `deadline` expires.
pub fn compute_error_matrix_bounded_in<P: Pixel>(
    pool: &Arc<ThreadPool>,
    input: &Image<P>,
    target: &Image<P>,
    layout: TileLayout,
    metric: TileMetric,
    backend: Backend,
    deadline: &Deadline,
) -> Result<(ErrorMatrix, StepTrace), BuildError> {
    deadline.check()?;
    let start = Instant::now();
    let (matrix, launches) = match backend {
        Backend::Serial => (build_error_matrix(input, target, layout, metric)?, 0),
        Backend::Threads(threads) => (
            build_error_matrix_threaded_bounded_in(
                pool,
                input,
                target,
                layout,
                metric,
                threads.max(1),
                deadline,
            )?,
            0,
        ),
        Backend::GpuSim { workers } => {
            let lanes = workers.unwrap_or_else(|| pool.threads());
            let sim = GpuSim::with_pool(DeviceSpec::tesla_k40(), Arc::clone(pool), lanes);
            (gpu_error_matrix(&sim, input, target, layout, metric)?, 1)
        }
    };
    let trace = StepTrace {
        wall: start.elapsed(),
        profile: step2_profile::<P>(layout, launches),
    };
    Ok((matrix, trace))
}

/// §V Step-2 kernel on an existing simulator instance.
///
/// # Errors
/// Returns [`LayoutError`] when either image does not match `layout`.
pub fn gpu_error_matrix<P: Pixel>(
    sim: &GpuSim,
    input: &Image<P>,
    target: &Image<P>,
    layout: TileLayout,
    metric: TileMetric,
) -> Result<ErrorMatrix, LayoutError> {
    checked_layouts(input, target, layout, metric)?;
    let s = layout.tile_count();
    let tile_bytes = layout.tile_bytes::<P>();
    // Global memory holds both images tile-major, so a block's staging
    // copy and every target tile it streams are contiguous reads.
    let input_tiles = layout.pack(input);
    let target_tiles = layout.pack(target);
    let matrix_out = GlobalBuffer::filled(s * s, 0u32);

    // Resolve the SIMD dispatch once, outside the lane closure: the
    // simulated device kernel goes through the same one-call-per-pair
    // kernel as the CPU builders, so the "GPU" path cannot drift from
    // them either.
    let k = mosaic_image::kernel::active();
    let kernel = |ctx: &mut BlockContext<'_>| {
        // One block per input tile u (§V): stage I_u in shared memory …
        let u = ctx.block_id();
        let staged = ctx.shared().alloc_u8(tile_bytes);
        staged.copy_from_slice(&input_tiles[u * tile_bytes..(u + 1) * tile_bytes]);
        // … then compute E(I_u, T_v) for every v. On the real device the
        // block's threads split the v range; sequential iteration inside
        // the block is the barrier-free equivalent schedule.
        for (v, tv) in target_tiles.chunks_exact(tile_bytes).enumerate() {
            matrix_out.store(u * s + v, packed_tile_error(k, staged, tv, metric) as u32);
        }
    };

    // S blocks; the per-block thread count mirrors one thread per tile
    // pixel up to the device's 1024-thread block limit.
    let threads_per_block = layout.pixels_per_tile().min(1024);
    sim.launch(LaunchConfig::linear(s, threads_per_block), &kernel);

    Ok(ErrorMatrix::from_vec(s, matrix_out.into_vec()))
}

#[cfg(test)]
mod tests {
    use super::*;
    use mosaic_image::{synth, Rgb};

    #[test]
    fn gpu_matrix_matches_serial_for_every_metric() {
        let input = synth::fur(48, 3);
        let target = synth::drapery(48, 9);
        let layout = TileLayout::new(48, 8).unwrap();
        let sim = GpuSim::with_workers(DeviceSpec::tesla_k40(), 4);
        for metric in TileMetric::ALL {
            let serial = build_error_matrix(&input, &target, layout, metric).unwrap();
            let gpu = gpu_error_matrix(&sim, &input, &target, layout, metric).unwrap();
            assert_eq!(gpu, serial, "metric {metric:?}");
        }
    }

    #[test]
    fn gpu_matrix_matches_serial_for_rgb() {
        let gray_in = synth::portrait(32, 4);
        let gray_tg = synth::regatta(32, 5);
        let input = synth::tint(&gray_in, Rgb::new(10, 0, 30), Rgb::new(240, 250, 220));
        let target = synth::tint(&gray_tg, Rgb::new(0, 20, 10), Rgb::new(255, 235, 245));
        let layout = TileLayout::new(32, 8).unwrap();
        let sim = GpuSim::with_workers(DeviceSpec::tesla_k40(), 4);
        for metric in TileMetric::ALL {
            let serial = build_error_matrix(&input, &target, layout, metric).unwrap();
            let gpu = gpu_error_matrix(&sim, &input, &target, layout, metric).unwrap();
            assert_eq!(gpu, serial, "metric {metric:?}");
        }
    }

    /// The GpuSim arm of the packed-builder differential in
    /// `mosaic-grid`'s `tests/packed_differential.rs`: the same tile
    /// sizes (every SSE4.1/AVX2 tail of a `C·M²`-byte packed tile), Gray
    /// and Rgb, every metric, bit-identical to the scalar oracle.
    #[test]
    fn gpu_matrix_is_bit_identical_to_the_scalar_oracle() {
        use mosaic_grid::build_error_matrix_scalar;
        use mosaic_image::testutil::{gray_image, rgb_image, XorShift};

        fn check<P: Pixel>(sim: &GpuSim, image: impl Fn(&mut XorShift, usize) -> Image<P>) {
            for (seed, tile) in [1, 3, 4, 6, 8, 12, 16, 32].into_iter().enumerate() {
                let n = tile * 5;
                let mut rng = XorShift::new(seed as u64 + 1);
                let input = image(&mut rng, n);
                let target = image(&mut rng, n);
                let layout = TileLayout::new(n, tile).unwrap();
                for metric in TileMetric::ALL {
                    let oracle = build_error_matrix_scalar(&input, &target, layout, metric);
                    let gpu = gpu_error_matrix(sim, &input, &target, layout, metric);
                    assert_eq!(gpu.unwrap(), oracle.unwrap(), "M={tile} {metric:?}");
                }
            }
        }
        let sim = GpuSim::with_workers(DeviceSpec::tesla_k40(), 3);
        check(&sim, |rng, n| gray_image(rng, n, n));
        check(&sim, |rng, n| rgb_image(rng, n, n));
    }

    #[test]
    fn all_backends_agree() {
        let input = synth::plasma(32, 2, 3);
        let target = synth::checker(32, 8, 7);
        let layout = TileLayout::new(32, 8).unwrap();
        let (serial, _) =
            compute_error_matrix(&input, &target, layout, TileMetric::Sad, Backend::Serial)
                .unwrap();
        let (threads, _) = compute_error_matrix(
            &input,
            &target,
            layout,
            TileMetric::Sad,
            Backend::Threads(3),
        )
        .unwrap();
        let (gpu, trace) = compute_error_matrix(
            &input,
            &target,
            layout,
            TileMetric::Sad,
            Backend::GpuSim { workers: Some(2) },
        )
        .unwrap();
        assert_eq!(serial, threads);
        assert_eq!(serial, gpu);
        assert_eq!(trace.profile.launches, 1);
        assert!(trace.profile.ops > 0);
    }

    #[test]
    fn step2_profile_scales_with_s_squared() {
        let small = step2_profile::<mosaic_image::Gray>(TileLayout::new(64, 8).unwrap(), 1);
        let large = step2_profile::<mosaic_image::Gray>(TileLayout::new(64, 4).unwrap(), 1);
        // Same image, 4x the tiles => ~4x the ops (S^2 * M^2 = N^2 * S).
        assert!(large.ops > 3 * small.ops);
    }

    #[test]
    #[should_panic(expected = "overflows u32 entries")]
    fn gpu_path_rejects_overflowing_metric_like_serial_does() {
        // SSD on a 260x260 tile can exceed u32::MAX; both backends must
        // refuse rather than silently truncate.
        let img = mosaic_image::Image::from_fn(260, 260, |_, _| mosaic_image::Gray(0)).unwrap();
        let layout = TileLayout::new(260, 260).unwrap();
        let sim = GpuSim::with_workers(DeviceSpec::tesla_k40(), 1);
        let _ = gpu_error_matrix(&sim, &img, &img, layout, TileMetric::Ssd);
    }

    #[test]
    fn layout_mismatch_is_an_error() {
        let input = synth::gradient(32);
        let target = synth::gradient(16);
        let layout = TileLayout::new(32, 8).unwrap();
        assert!(
            compute_error_matrix(&input, &target, layout, TileMetric::Sad, Backend::Serial)
                .is_err()
        );
        let sim = GpuSim::with_workers(DeviceSpec::tesla_k40(), 1);
        assert!(gpu_error_matrix(&sim, &input, &target, layout, TileMetric::Sad).is_err());
    }
}
