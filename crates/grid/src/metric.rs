//! Per-tile error metrics.
//!
//! The paper's Eq. (1) is the sum of absolute per-pixel differences (SAD).
//! Two alternatives are provided for the metric-ablation bench: sum of
//! squared differences (SSD) and a cheap mean-intensity distance that
//! compares only tile averages (the common shortcut in database-driven
//! photomosaic tools the paper cites).

use mosaic_image::kernel::{self, Kernels};
use mosaic_image::{ImageView, Pixel};

/// Which tile-distance function to use for `E(I_u, T_v)`.
#[derive(Copy, Clone, Debug, PartialEq, Eq, Hash, Default)]
pub enum TileMetric {
    /// Sum of absolute differences — the paper's Eq. (1).
    #[default]
    Sad,
    /// Sum of squared differences; punishes outliers harder.
    Ssd,
    /// `M² × |mean(A) − mean(B)|`, channel-summed: compares only average
    /// intensity, scaled by the pixel count so magnitudes are comparable
    /// with SAD.
    MeanAbs,
}

impl TileMetric {
    /// All metrics, for ablation sweeps.
    pub const ALL: [TileMetric; 3] = [TileMetric::Sad, TileMetric::Ssd, TileMetric::MeanAbs];

    /// Stable name for reports.
    pub fn name(self) -> &'static str {
        match self {
            TileMetric::Sad => "sad",
            TileMetric::Ssd => "ssd",
            TileMetric::MeanAbs => "mean-abs",
        }
    }

    /// Upper bound of a single tile error under this metric, for a tile of
    /// `pixels` pixels of type `P`. Used to prove `u32` does not overflow.
    pub fn max_tile_error<P: Pixel>(self, pixels: usize) -> u64 {
        match self {
            TileMetric::Sad | TileMetric::MeanAbs => pixels as u64 * u64::from(P::MAX_ABS_DIFF),
            TileMetric::Ssd => {
                // Worst case per channel is 255², CHANNELS channels.
                pixels as u64 * 255 * 255 * P::CHANNELS as u64
            }
        }
    }
}

/// Compute the error between two equally-sized tile views.
///
/// SAD and SSD dispatch through the process-wide SIMD kernel table
/// ([`mosaic_image::kernel::active`]); `MeanAbs` compares averages and
/// stays scalar (it is not a per-byte-decomposable sum). Returns `u64`;
/// the matrix layer narrows to `u32` after checking the metric's bound
/// for the layout in use.
///
/// # Panics
/// Panics when the views' dimensions differ.
pub fn tile_error<P: Pixel>(a: &ImageView<'_, P>, b: &ImageView<'_, P>, metric: TileMetric) -> u64 {
    tile_error_with(kernel::active(), a, b, metric)
}

/// [`tile_error`] forced onto the scalar oracle kernels, regardless of
/// what the host dispatches to. Differential tests compare this against
/// the dispatched path to prove the SIMD tables are bit-identical.
///
/// # Panics
/// Panics when the views' dimensions differ.
pub fn tile_error_scalar<P: Pixel>(
    a: &ImageView<'_, P>,
    b: &ImageView<'_, P>,
    metric: TileMetric,
) -> u64 {
    tile_error_with(Kernels::scalar(), a, b, metric)
}

/// [`tile_error`] against an explicit kernel table.
///
/// # Panics
/// Panics when the views' dimensions differ.
pub fn tile_error_with<P: Pixel>(
    k: &Kernels,
    a: &ImageView<'_, P>,
    b: &ImageView<'_, P>,
    metric: TileMetric,
) -> u64 {
    assert_eq!(
        (a.width(), a.height()),
        (b.width(), b.height()),
        "tile views must have equal dimensions"
    );
    match metric {
        TileMetric::Sad => sad(k, a, b),
        TileMetric::Ssd => ssd(k, a, b),
        TileMetric::MeanAbs => mean_abs(a, b),
    }
}

/// The error between two packed tiles — [`crate::TileLayout::pack`]
/// slices of equal length — with **one** kernel call per pair.
///
/// This is the Step-2 builders' inner loop. Packing does not reorder
/// the bytes a metric sums, so the result is bit-identical to
/// [`tile_error_with`] on the tiles' views: SAD and SSD are per-byte
/// sums, and `MeanAbs` compares the two byte totals.
///
/// # Panics
/// Panics when the slices' lengths differ.
#[inline]
pub fn packed_tile_error(k: &Kernels, a: &[u8], b: &[u8], metric: TileMetric) -> u64 {
    match metric {
        TileMetric::Sad => k.sad(a, b),
        TileMetric::Ssd => k.ssd(a, b),
        TileMetric::MeanAbs => {
            assert_eq!(a.len(), b.len(), "packed tiles must have equal lengths");
            byte_sum(a).abs_diff(byte_sum(b))
        }
    }
}

fn byte_sum(bytes: &[u8]) -> u64 {
    bytes.iter().map(|&c| u64::from(c)).sum()
}

fn sad<P: Pixel>(k: &Kernels, a: &ImageView<'_, P>, b: &ImageView<'_, P>) -> u64 {
    let mut total = 0u64;
    for y in 0..a.height() {
        total += k.sad(P::row_bytes(a.row(y)), P::row_bytes(b.row(y)));
    }
    total
}

fn ssd<P: Pixel>(k: &Kernels, a: &ImageView<'_, P>, b: &ImageView<'_, P>) -> u64 {
    let mut total = 0u64;
    for y in 0..a.height() {
        total += k.ssd(P::row_bytes(a.row(y)), P::row_bytes(b.row(y)));
    }
    total
}

fn mean_abs<P: Pixel>(a: &ImageView<'_, P>, b: &ImageView<'_, P>) -> u64 {
    let mut sum_a = 0u64;
    let mut sum_b = 0u64;
    for y in 0..a.height() {
        for (pa, pb) in a.row(y).iter().zip(b.row(y)) {
            sum_a += pa.channels().iter().map(|&c| u64::from(c)).sum::<u64>();
            sum_b += pb.channels().iter().map(|&c| u64::from(c)).sum::<u64>();
        }
    }
    // |mean_a - mean_b| * pixels == |sum_a - sum_b|, already scaled.
    sum_a.abs_diff(sum_b)
}

#[cfg(test)]
mod tests {
    use super::*;
    use mosaic_image::{Gray, Image, Rgb};

    fn img(values: &[u8], w: usize, h: usize) -> Image<Gray> {
        Image::from_vec(w, h, values.iter().map(|&v| Gray(v)).collect()).unwrap()
    }

    #[test]
    fn sad_matches_hand_computation() {
        let a = img(&[0, 10, 20, 30], 2, 2);
        let b = img(&[5, 5, 25, 15], 2, 2);
        let e = tile_error(&a.full_view(), &b.full_view(), TileMetric::Sad);
        assert_eq!(e, 5 + 5 + 5 + 15);
    }

    #[test]
    fn ssd_matches_hand_computation() {
        let a = img(&[0, 10], 2, 1);
        let b = img(&[3, 6], 2, 1);
        let e = tile_error(&a.full_view(), &b.full_view(), TileMetric::Ssd);
        assert_eq!(e, 9 + 16);
    }

    #[test]
    fn mean_abs_compares_only_averages() {
        // Same mean, different texture → zero under MeanAbs, nonzero SAD.
        let a = img(&[0, 100], 2, 1);
        let b = img(&[100, 0], 2, 1);
        assert_eq!(
            tile_error(&a.full_view(), &b.full_view(), TileMetric::MeanAbs),
            0
        );
        assert_eq!(
            tile_error(&a.full_view(), &b.full_view(), TileMetric::Sad),
            200
        );
    }

    #[test]
    fn mean_abs_scaling_matches_sad_for_constant_tiles() {
        // For constant tiles SAD == MeanAbs.
        let a = Image::from_fn(4, 4, |_, _| Gray(10)).unwrap();
        let b = Image::from_fn(4, 4, |_, _| Gray(200)).unwrap();
        let sad = tile_error(&a.full_view(), &b.full_view(), TileMetric::Sad);
        let mean = tile_error(&a.full_view(), &b.full_view(), TileMetric::MeanAbs);
        assert_eq!(sad, mean);
        assert_eq!(sad, 16 * 190);
    }

    #[test]
    fn all_metrics_zero_on_identical_views() {
        let a = mosaic_image::synth::plasma(16, 3, 2);
        for m in TileMetric::ALL {
            assert_eq!(tile_error(&a.full_view(), &a.full_view(), m), 0);
        }
    }

    #[test]
    fn all_metrics_symmetric() {
        let a = mosaic_image::synth::plasma(8, 3, 2);
        let b = mosaic_image::synth::checker(8, 2, 4);
        for m in TileMetric::ALL {
            assert_eq!(
                tile_error(&a.full_view(), &b.full_view(), m),
                tile_error(&b.full_view(), &a.full_view(), m)
            );
        }
    }

    #[test]
    fn rgb_metrics_sum_channels() {
        let a = Image::from_vec(1, 1, vec![Rgb::new(0, 0, 0)]).unwrap();
        let b = Image::from_vec(1, 1, vec![Rgb::new(1, 2, 3)]).unwrap();
        assert_eq!(
            tile_error(&a.full_view(), &b.full_view(), TileMetric::Sad),
            6
        );
        assert_eq!(
            tile_error(&a.full_view(), &b.full_view(), TileMetric::Ssd),
            1 + 4 + 9
        );
        assert_eq!(
            tile_error(&a.full_view(), &b.full_view(), TileMetric::MeanAbs),
            6
        );
    }

    #[test]
    fn max_tile_error_bounds_are_respected() {
        // Extreme tiles: black vs white.
        let black = Image::from_fn(8, 8, |_, _| Gray(0)).unwrap();
        let white = Image::from_fn(8, 8, |_, _| Gray(255)).unwrap();
        for m in TileMetric::ALL {
            let e = tile_error(&black.full_view(), &white.full_view(), m);
            assert!(e <= m.max_tile_error::<Gray>(64), "{m:?}: {e}");
        }
        // And the SAD bound is tight.
        assert_eq!(
            tile_error(&black.full_view(), &white.full_view(), TileMetric::Sad),
            TileMetric::Sad.max_tile_error::<Gray>(64)
        );
    }

    #[test]
    fn metric_names_unique() {
        let mut names: Vec<_> = TileMetric::ALL.iter().map(|m| m.name()).collect();
        names.sort_unstable();
        names.dedup();
        assert_eq!(names.len(), TileMetric::ALL.len());
    }

    #[test]
    fn packed_error_matches_view_error_on_every_metric() {
        let a = mosaic_image::synth::plasma(8, 3, 2);
        let b = mosaic_image::synth::checker(8, 2, 4);
        let whole = crate::TileLayout::new(8, 8).unwrap();
        for m in TileMetric::ALL {
            assert_eq!(
                packed_tile_error(kernel::active(), &whole.pack(&a), &whole.pack(&b), m),
                tile_error_scalar(&a.full_view(), &b.full_view(), m),
                "{m:?}"
            );
        }
    }

    #[test]
    #[should_panic(expected = "equal lengths")]
    fn mismatched_packed_tiles_panic() {
        let _ = packed_tile_error(kernel::active(), &[1, 2], &[1], TileMetric::MeanAbs);
    }

    #[test]
    #[should_panic(expected = "equal dimensions")]
    fn mismatched_views_panic() {
        let a = img(&[0; 4], 2, 2);
        let b = img(&[0; 2], 2, 1);
        let _ = tile_error(&a.full_view(), &b.full_view(), TileMetric::Sad);
    }
}
