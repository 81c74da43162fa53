//! Orientation-augmented rearrangement (extension).
//!
//! The paper places tiles unrotated. The photomosaic literature it cites
//! (e.g. ref [18], grid vs. *arbitrary* placement) also considers
//! transformed placements; this module extends the rearrangement with the
//! dihedral group D₄: each input tile may be placed in any of the 8
//! flip/rotation orientations. The error matrix entry becomes
//! `min over allowed orientations of E(σ(I_u), T_v)`, the reduction to
//! assignment is unchanged, and assembly applies the recorded best
//! orientation per placement. Quality can only improve over the plain
//! method (the identity orientation is always available).

use crate::local_search::{local_search, SearchOutcome};
use crate::optimal::optimal_rearrangement;
use mosaic_assign::SolverKind;
use mosaic_grid::compute::checked_layouts;
use mosaic_grid::{ErrorMatrix, LayoutError, TileLayout, TileMetric};
use mosaic_image::ops;
use mosaic_image::{GrayImage, Image, Pixel};

/// An element of the dihedral group D₄ acting on square tiles.
#[derive(Copy, Clone, Debug, PartialEq, Eq, Hash, Default)]
pub enum Orientation {
    /// Identity.
    #[default]
    R0,
    /// 90° clockwise.
    R90,
    /// 180°.
    R180,
    /// 270° clockwise.
    R270,
    /// Horizontal mirror.
    FlipH,
    /// Vertical mirror.
    FlipV,
    /// Transpose (mirror across the main diagonal).
    Transpose,
    /// Anti-transpose (mirror across the anti-diagonal).
    AntiTranspose,
}

impl Orientation {
    /// All 8 orientations.
    pub const ALL: [Orientation; 8] = [
        Orientation::R0,
        Orientation::R90,
        Orientation::R180,
        Orientation::R270,
        Orientation::FlipH,
        Orientation::FlipV,
        Orientation::Transpose,
        Orientation::AntiTranspose,
    ];

    /// The four pure rotations.
    pub const ROTATIONS: [Orientation; 4] = [
        Orientation::R0,
        Orientation::R90,
        Orientation::R180,
        Orientation::R270,
    ];

    /// Apply to a square image.
    ///
    /// # Panics
    /// Panics when `img` is not square (rotations would change its shape).
    pub fn apply<P: Pixel>(self, img: &Image<P>) -> Image<P> {
        assert!(img.is_square(), "orientations act on square tiles");
        match self {
            Orientation::R0 => img.clone(),
            Orientation::R90 => ops::rotate90(img),
            Orientation::R180 => ops::rotate180(img),
            Orientation::R270 => ops::rotate270(img),
            Orientation::FlipH => ops::flip_horizontal(img),
            Orientation::FlipV => ops::flip_vertical(img),
            Orientation::Transpose => ops::transpose(img),
            Orientation::AntiTranspose => ops::rotate90(&ops::flip_horizontal(img)),
        }
    }

    /// Stable name for reports.
    pub fn name(self) -> &'static str {
        match self {
            Orientation::R0 => "r0",
            Orientation::R90 => "r90",
            Orientation::R180 => "r180",
            Orientation::R270 => "r270",
            Orientation::FlipH => "flip-h",
            Orientation::FlipV => "flip-v",
            Orientation::Transpose => "transpose",
            Orientation::AntiTranspose => "anti-transpose",
        }
    }
}

/// Error matrix where each entry is minimized over `allowed` orientations,
/// plus the argmin orientation per (input tile, target position).
pub struct OrientedErrors {
    /// The minimized matrix, drop-in for the plain pipeline.
    pub matrix: ErrorMatrix,
    /// `best[u * S + v]` = orientation achieving the minimum.
    pub best: Vec<Orientation>,
}

/// Build the orientation-minimized Step-2 matrix.
///
/// # Errors
/// Returns [`LayoutError`] when the images do not match the layout.
///
/// # Panics
/// Panics when `allowed` is empty.
pub fn build_oriented_error_matrix(
    input: &GrayImage,
    target: &GrayImage,
    layout: TileLayout,
    metric: TileMetric,
    allowed: &[Orientation],
) -> Result<OrientedErrors, LayoutError> {
    assert!(!allowed.is_empty(), "at least one orientation is required");
    checked_layouts(input, target, layout, metric)?;
    let s = layout.tile_count();
    let mut matrix = ErrorMatrix::zeros(s);
    let mut best = vec![Orientation::R0; s * s];
    let target_tiles: Vec<GrayImage> = (0..s)
        .map(|v| layout.tile_view(target, v).to_image())
        .collect();
    for u in 0..s {
        let base = layout.tile_view(input, u).to_image();
        // Materialize each oriented variant once per input tile.
        let variants: Vec<(Orientation, GrayImage)> =
            allowed.iter().map(|&o| (o, o.apply(&base))).collect();
        for (v, tile_v) in target_tiles.iter().enumerate() {
            let mut best_err = u64::MAX;
            let mut best_o = allowed[0];
            for (o, variant) in &variants {
                let e = mosaic_grid::tile_error(&variant.full_view(), &tile_v.full_view(), metric);
                if e < best_err {
                    best_err = e;
                    best_o = *o;
                }
            }
            matrix.set(u, v, best_err as u32);
            best[u * s + v] = best_o;
        }
    }
    Ok(OrientedErrors { matrix, best })
}

/// Result of an orientation-augmented generation.
#[derive(Clone, Debug)]
pub struct OrientedMosaicResult {
    /// The assembled mosaic.
    pub image: GrayImage,
    /// `assignment[v] = u`.
    pub assignment: Vec<usize>,
    /// Orientation applied to the tile placed at each position.
    pub placed_orientations: Vec<Orientation>,
    /// Final total error.
    pub total_error: u64,
}

/// Step-3 strategy for the oriented pipeline.
#[derive(Copy, Clone, Debug, PartialEq, Eq)]
pub enum OrientedAlgorithm {
    /// Exact assignment on the minimized matrix.
    Optimal(SolverKind),
    /// Algorithm-1 local search on the minimized matrix.
    LocalSearch,
}

/// Generate a mosaic allowing the given tile orientations.
///
/// # Errors
/// Returns [`LayoutError`] for geometry mismatches.
pub fn generate_oriented(
    input: &GrayImage,
    target: &GrayImage,
    layout: TileLayout,
    metric: TileMetric,
    allowed: &[Orientation],
    algorithm: OrientedAlgorithm,
) -> Result<OrientedMosaicResult, LayoutError> {
    let oriented = build_oriented_error_matrix(input, target, layout, metric, allowed)?;
    let outcome: SearchOutcome = match algorithm {
        OrientedAlgorithm::Optimal(kind) => optimal_rearrangement(&oriented.matrix, kind),
        OrientedAlgorithm::LocalSearch => local_search(&oriented.matrix),
    };
    let s = layout.tile_count();
    let m = layout.tile_size();
    let mut image =
        // lint:allow(panic) a constructed TileLayout always has a positive image_size
        Image::black(layout.image_size(), layout.image_size()).expect("layout size is valid");
    let mut placed = Vec::with_capacity(s);
    for (v, &u) in outcome.assignment.iter().enumerate() {
        let orientation = oriented.best[u * s + v];
        placed.push(orientation);
        let tile = orientation.apply(&layout.tile_view(input, u).to_image());
        let (x, y) = layout.tile_origin(v);
        // lint:allow(panic) tile_origin places every m-sized tile inside the layout image
        ops::blit(&mut image, &tile, x, y).expect("tile fits by construction");
        debug_assert_eq!(tile.dimensions(), (m, m));
    }
    Ok(OrientedMosaicResult {
        image,
        assignment: outcome.assignment,
        placed_orientations: placed,
        total_error: outcome.total,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use mosaic_image::{metrics, synth, Gray};

    #[test]
    fn orientations_are_distinct_on_asymmetric_tiles() {
        let tile = Image::from_fn(4, 4, |x, y| Gray((y * 4 + x) as u8)).unwrap();
        let mut variants: Vec<Vec<Gray>> = Orientation::ALL
            .iter()
            .map(|o| o.apply(&tile).pixels().to_vec())
            .collect();
        variants.sort();
        variants.dedup();
        assert_eq!(
            variants.len(),
            8,
            "D4 orbit of an asymmetric tile has 8 elements"
        );
    }

    #[test]
    fn orientations_preserve_pixel_multiset() {
        let tile = synth::fur(8, 3);
        let mut base: Vec<Gray> = tile.pixels().to_vec();
        base.sort_unstable();
        for o in Orientation::ALL {
            let mut v: Vec<Gray> = o.apply(&tile).pixels().to_vec();
            v.sort_unstable();
            assert_eq!(v, base, "{o:?}");
        }
    }

    #[test]
    fn identity_only_matches_plain_matrix() {
        let input = synth::plasma(32, 1, 3);
        let target = synth::checker(32, 8, 2);
        let layout = TileLayout::new(32, 8).unwrap();
        let plain =
            mosaic_grid::build_error_matrix(&input, &target, layout, TileMetric::Sad).unwrap();
        let oriented = build_oriented_error_matrix(
            &input,
            &target,
            layout,
            TileMetric::Sad,
            &[Orientation::R0],
        )
        .unwrap();
        assert_eq!(oriented.matrix, plain);
        assert!(oriented.best.iter().all(|&o| o == Orientation::R0));
    }

    #[test]
    fn more_orientations_never_increase_entries() {
        let input = synth::drapery(32, 5);
        let target = synth::portrait(32, 6);
        let layout = TileLayout::new(32, 8).unwrap();
        let plain =
            mosaic_grid::build_error_matrix(&input, &target, layout, TileMetric::Sad).unwrap();
        let oriented = build_oriented_error_matrix(
            &input,
            &target,
            layout,
            TileMetric::Sad,
            &Orientation::ALL,
        )
        .unwrap();
        for u in 0..plain.size() {
            for v in 0..plain.size() {
                assert!(oriented.matrix.get(u, v) <= plain.get(u, v));
            }
        }
    }

    #[test]
    fn oriented_optimum_bounds_plain_optimum() {
        let input = synth::regatta(48, 2);
        let target = synth::fur(48, 3);
        let layout = TileLayout::new(48, 8).unwrap();
        let plain =
            mosaic_grid::build_error_matrix(&input, &target, layout, TileMetric::Sad).unwrap();
        let plain_total = optimal_rearrangement(&plain, SolverKind::JonkerVolgenant).total;
        let oriented = generate_oriented(
            &input,
            &target,
            layout,
            TileMetric::Sad,
            &Orientation::ALL,
            OrientedAlgorithm::Optimal(SolverKind::JonkerVolgenant),
        )
        .unwrap();
        assert!(oriented.total_error <= plain_total);
    }

    #[test]
    fn assembled_error_matches_reported_total() {
        let input = synth::portrait(32, 9);
        let target = synth::drapery(32, 4);
        let layout = TileLayout::new(32, 8).unwrap();
        let result = generate_oriented(
            &input,
            &target,
            layout,
            TileMetric::Sad,
            &Orientation::ALL,
            OrientedAlgorithm::LocalSearch,
        )
        .unwrap();
        assert_eq!(metrics::sad(&result.image, &target), result.total_error);
        assert_eq!(result.placed_orientations.len(), layout.tile_count());
    }

    #[test]
    fn rotations_subset_works() {
        let input = synth::checker(24, 6, 1);
        let target = synth::plasma(24, 2, 2);
        let layout = TileLayout::new(24, 8).unwrap();
        let result = generate_oriented(
            &input,
            &target,
            layout,
            TileMetric::Sad,
            &Orientation::ROTATIONS,
            OrientedAlgorithm::LocalSearch,
        )
        .unwrap();
        assert!(result
            .placed_orientations
            .iter()
            .all(|o| Orientation::ROTATIONS.contains(o)));
    }

    #[test]
    fn orientation_names_unique() {
        let mut names: Vec<_> = Orientation::ALL.iter().map(|o| o.name()).collect();
        names.sort_unstable();
        names.dedup();
        assert_eq!(names.len(), 8);
    }

    #[test]
    #[should_panic(expected = "square tiles")]
    fn non_square_tile_rejected() {
        let img = Image::from_fn(4, 2, |_, _| Gray(0)).unwrap();
        let _ = Orientation::R90.apply(&img);
    }

    #[test]
    #[should_panic(expected = "at least one orientation")]
    fn empty_orientation_set_rejected() {
        let img = synth::gradient(16);
        let layout = TileLayout::new(16, 8).unwrap();
        let _ = build_oriented_error_matrix(&img, &img, layout, TileMetric::Sad, &[]);
    }

    #[test]
    #[should_panic(expected = "overflows u32 entries")]
    fn overflowing_metric_rejected_like_the_other_builders() {
        // SSD on a 260x260 tile can exceed u32::MAX.
        let img = Image::from_fn(260, 260, |_, _| Gray(0)).unwrap();
        let layout = TileLayout::new(260, 260).unwrap();
        let _ =
            build_oriented_error_matrix(&img, &img, layout, TileMetric::Ssd, &[Orientation::R0]);
    }
}
