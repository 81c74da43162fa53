//! Differential test of the packed Step-2 builders against the named
//! oracle: [`build_error_matrix`] and the threaded builder at 1, 2, 3 and
//! 7 threads must be bit-identical to [`build_error_matrix_scalar`] (the
//! per-row, view-based path on the scalar kernels) for Gray and Rgb, every
//! metric, and every tile size in `TILES`. The simulated-GPU builder lives
//! in `photomosaic` and has the same differential in its `errors` module.
//!
//! Packed tiles are `C·M²` bytes long. Over Gray and Rgb, `TILES` gives
//! lengths 1, 3, 9, 16, 27, 36, 48, 64, 108, 144, 192, 256, 432, 768,
//! 1024 and 3072, which between them leave every tail of the SSE4.1
//! (16-byte) and AVX2 (32-byte, then one 16-byte step) kernels: none, a
//! 16-byte step, and ragged scalar tails of 1, 3, 4, 9, 11 and 12 bytes.

use mosaic_grid::{
    build_error_matrix, build_error_matrix_scalar, build_error_matrix_threaded, ErrorMatrix,
    TileLayout, TileMetric,
};
use mosaic_image::testutil::{gray_image, rgb_image, XorShift};
use mosaic_image::{Image, Pixel};

/// Tile edges `M` under test.
const TILES: [usize; 8] = [1, 3, 4, 6, 8, 12, 16, 32];

/// Tiles per side: S = 25 entries per row, which neither 2, 3 nor 7
/// threads divide evenly.
const PER_SIDE: usize = 5;

fn assert_packed_builders_match_oracle<P: Pixel>(
    pixel: &str,
    image: impl Fn(&mut XorShift, usize) -> Image<P>,
) {
    for (seed, tile) in TILES.into_iter().enumerate() {
        let n = tile * PER_SIDE;
        let mut rng = XorShift::new(seed as u64 + 1);
        let input = image(&mut rng, n);
        let target = image(&mut rng, n);
        let layout = TileLayout::new(n, tile).unwrap();
        for metric in TileMetric::ALL {
            let oracle: ErrorMatrix =
                build_error_matrix_scalar(&input, &target, layout, metric).unwrap();
            let case = format!("{pixel} M={tile} {metric:?}");
            let serial = build_error_matrix(&input, &target, layout, metric).unwrap();
            assert_eq!(serial, oracle, "serial, {case}");
            for threads in [1, 2, 3, 7] {
                let threaded =
                    build_error_matrix_threaded(&input, &target, layout, metric, threads).unwrap();
                assert_eq!(threaded, oracle, "{threads} threads, {case}");
            }
        }
    }
}

#[test]
fn packed_gray_builders_are_bit_identical_to_the_scalar_oracle() {
    assert_packed_builders_match_oracle("gray", |rng, n| gray_image(rng, n, n));
}

#[test]
fn packed_rgb_builders_are_bit_identical_to_the_scalar_oracle() {
    assert_packed_builders_match_oracle("rgb", |rng, n| rgb_image(rng, n, n));
}
