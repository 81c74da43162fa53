//! RGB pipeline — the paper's §II color extension as a first-class entry
//! point.
//!
//! "We can easily extend the proposed photomosaic method to deal with
//! color images only by changing the error function in Eq. (1)." Every
//! substrate is generic over the pixel type, so this module is
//! [`crate::pipeline::generate_in`] instantiated at [`Rgb`]: per-channel
//! histogram specification, the channel-summed error metric, the same
//! solvers and searches on the resulting matrix.

use crate::config::MosaicConfig;
use crate::pipeline::{unbounded, MosaicResult};
use crate::preprocess::preprocess_rgb;
use mosaic_grid::LayoutError;
use mosaic_image::{Rgb, RgbImage};

/// Rearranged RGB image plus accounting (error values are channel-summed
/// SAD).
pub type RgbMosaicResult = MosaicResult<Rgb>;

/// Generate a color photomosaic. Identical configuration surface to
/// [`crate::generate`].
///
/// # Errors
/// Returns [`LayoutError`] for non-square, mismatched or non-divisible
/// geometry.
pub fn generate_rgb(
    input: &RgbImage,
    target: &RgbImage,
    config: &MosaicConfig,
) -> Result<RgbMosaicResult, LayoutError> {
    unbounded(input, target, config, preprocess_rgb)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::{Algorithm, Backend, MosaicBuilder};
    use mosaic_assign::SolverKind;
    use mosaic_image::metrics;
    use mosaic_image::synth::{tint, Scene};

    fn pair(n: usize) -> (RgbImage, RgbImage) {
        let input = tint(
            &Scene::Portrait.render(n, 1),
            Rgb::new(40, 16, 8),
            Rgb::new(255, 214, 170),
        );
        let target = tint(
            &Scene::Regatta.render(n, 2),
            Rgb::new(8, 24, 48),
            Rgb::new(200, 230, 255),
        );
        (input, target)
    }

    #[test]
    fn rgb_pipeline_runs_every_algorithm() {
        let (input, target) = pair(48);
        for algorithm in [
            Algorithm::Optimal(SolverKind::JonkerVolgenant),
            Algorithm::LocalSearch,
            Algorithm::ParallelSearch,
        ] {
            let config = MosaicBuilder::new()
                .grid(6)
                .algorithm(algorithm)
                .backend(Backend::Serial)
                .build();
            let result = generate_rgb(&input, &target, &config).unwrap();
            assert_eq!(result.image.dimensions(), (48, 48));
            assert_eq!(
                result.report.total_error,
                metrics::sad(&result.image, &target),
                "{algorithm:?}"
            );
        }
    }

    #[test]
    fn rgb_optimal_bounds_approximation() {
        let (input, target) = pair(48);
        let run = |algorithm| {
            let config = MosaicBuilder::new()
                .grid(8)
                .algorithm(algorithm)
                .backend(Backend::Serial)
                .build();
            generate_rgb(&input, &target, &config)
                .unwrap()
                .report
                .total_error
        };
        assert!(run(Algorithm::Optimal(SolverKind::Hungarian)) <= run(Algorithm::LocalSearch));
    }

    #[test]
    fn rgb_backends_agree() {
        let (input, target) = pair(32);
        let mk = |backend| {
            MosaicBuilder::new()
                .grid(4)
                .algorithm(Algorithm::ParallelSearch)
                .backend(backend)
                .build()
        };
        let a = generate_rgb(&input, &target, &mk(Backend::Serial)).unwrap();
        let b = generate_rgb(&input, &target, &mk(Backend::Threads(2))).unwrap();
        let c = generate_rgb(&input, &target, &mk(Backend::GpuSim { workers: Some(2) })).unwrap();
        assert_eq!(a.image, b.image);
        assert_eq!(a.image, c.image);
    }

    #[test]
    fn rgb_parallel_search_reports_its_step3_profile() {
        let (input, target) = pair(32);
        let config = MosaicBuilder::new()
            .grid(4)
            .algorithm(Algorithm::ParallelSearch)
            .backend(Backend::Serial)
            .build();
        let result = generate_rgb(&input, &target, &config).unwrap();
        let profile = &result.report.step3_profile;
        assert!(profile.launches > 0, "{profile:?}");
        assert!(profile.ops > 0, "{profile:?}");
    }

    #[test]
    fn rgb_geometry_errors() {
        let (input, _) = pair(32);
        let (_, target64) = pair(64);
        let config = MosaicBuilder::new()
            .grid(4)
            .backend(Backend::Serial)
            .build();
        assert!(generate_rgb(&input, &target64, &config).is_err());
    }

    #[test]
    fn rgb_mosaic_moves_toward_target_colors() {
        let (input, target) = pair(64);
        let config = MosaicBuilder::new()
            .grid(8)
            .algorithm(Algorithm::Optimal(SolverKind::JonkerVolgenant))
            .backend(Backend::Serial)
            .build();
        let result = generate_rgb(&input, &target, &config).unwrap();
        let prepared = preprocess_rgb(&input, &target, config.preprocess);
        assert!(metrics::sad(&result.image, &target) <= metrics::sad(&prepared, &target));
    }
}
