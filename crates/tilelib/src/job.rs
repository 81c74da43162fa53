//! Wire-level description of a library job.
//!
//! A [`LibraryJobSpec`] names the target image, the on-disk tile store
//! the executor should draw from, and the pruning parameters. The store
//! travels as a *path*, not as pixels — library jobs are meaningful on
//! hosts that share the store (the fleet in this repo runs on one
//! machine), and shipping a million tiles per job would defeat the
//! content-addressed layout entirely.
//!
//! This file is pinned by the protocol-registry lint: the job-kind wire
//! word is deliberately never spelled here — `mosaic-service`'s
//! `protocol::ops` owns it and wraps/unwraps the envelope.

use crate::error::TilelibError;
use mosaic_grid::TileMetric;
use photomosaic::{ImageSource, Json};

/// Tuning knobs of the clustered pruning pipeline.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct LibraryParams {
    /// Cells per side of the output mosaic (`S = grid²`).
    pub grid: usize,
    /// k-means cluster count.
    pub clusters: usize,
    /// Nearest clusters searched per cell.
    pub top_clusters: usize,
    /// Feature descriptor resolution (block-mean grid per side).
    pub feature_grid: usize,
    /// k-means seed.
    pub seed: u64,
    /// Exact pixel metric used to score candidates.
    pub metric: TileMetric,
}

impl Default for LibraryParams {
    fn default() -> Self {
        LibraryParams {
            grid: 16,
            clusters: 32,
            top_clusters: 4,
            feature_grid: 4,
            seed: 1,
            metric: TileMetric::Sad,
        }
    }
}

impl LibraryParams {
    /// Serialize for the wire.
    pub fn to_json(&self) -> Json {
        Json::obj([
            ("grid", Json::from(self.grid)),
            ("clusters", Json::from(self.clusters)),
            ("top_clusters", Json::from(self.top_clusters)),
            ("feature_grid", Json::from(self.feature_grid)),
            ("seed", Json::Str(self.seed.to_string())),
            ("metric", Json::from(self.metric.name())),
        ])
    }

    /// Parse the shape produced by [`to_json`](Self::to_json); missing
    /// fields fall back to the defaults.
    ///
    /// # Errors
    /// Returns a description of the first malformed field.
    pub fn from_json(value: &Json) -> Result<LibraryParams, String> {
        let mut params = LibraryParams::default();
        let number = |key: &str, into: &mut usize| -> Result<(), String> {
            if let Some(v) = value.get(key) {
                *into = v.as_u64().ok_or(format!("{key} must be an integer"))? as usize;
            }
            Ok(())
        };
        number("grid", &mut params.grid)?;
        number("clusters", &mut params.clusters)?;
        number("top_clusters", &mut params.top_clusters)?;
        number("feature_grid", &mut params.feature_grid)?;
        params.seed = match value.get("seed") {
            None => params.seed,
            Some(Json::Str(s)) => s
                .parse::<u64>()
                .map_err(|_| format!("invalid seed {s:?}"))?,
            Some(other) => other.as_u64().ok_or("invalid seed")?,
        };
        if let Some(m) = value.get("metric") {
            let name = m.as_str().ok_or("metric must be a string")?;
            params.metric = TileMetric::ALL
                .into_iter()
                .find(|m| m.name() == name)
                .ok_or_else(|| format!("unknown metric {name:?}"))?;
        }
        Ok(params)
    }

    /// Reject parameter combinations no executor can satisfy.
    ///
    /// # Errors
    /// [`TilelibError::Config`] with the offending field.
    pub fn validate(&self) -> Result<(), TilelibError> {
        if self.grid == 0 {
            return Err(TilelibError::Config("grid must be positive".into()));
        }
        if self.clusters == 0 {
            return Err(TilelibError::Config("clusters must be positive".into()));
        }
        if self.top_clusters == 0 {
            return Err(TilelibError::Config("top_clusters must be positive".into()));
        }
        if self.feature_grid == 0 {
            return Err(TilelibError::Config("feature_grid must be positive".into()));
        }
        Ok(())
    }
}

/// One library job: compose `target` from the tiles stored at `store`.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct LibraryJobSpec {
    /// The image being reproduced.
    pub target: ImageSource,
    /// Path of the content-addressed tile store on the executor's host.
    pub store: String,
    /// Pruning parameters.
    pub params: LibraryParams,
}

impl LibraryJobSpec {
    /// Routing key (FNV-1a, 64-bit) over everything that identifies the
    /// job: target source, store path and parameters. Used by the
    /// gateway's rendezvous router; *not* a result-cache key — store
    /// contents can change between ingests without the path changing,
    /// so library results are deliberately never cached by key.
    pub fn cache_key(&self) -> u64 {
        let mut h = Fnv1a::new();
        match &self.target {
            ImageSource::Synth { scene, size, seed } => {
                h.write_bytes(b"synth");
                h.write_bytes(scene.name().as_bytes());
                h.write_u64(*size as u64);
                h.write_u64(*seed);
            }
            ImageSource::Pixels { size, pixels } => {
                h.write_bytes(b"pixels");
                h.write_u64(*size as u64);
                h.write_bytes(pixels);
            }
        }
        h.write_bytes(self.store.as_bytes());
        h.write_u64(self.params.grid as u64);
        h.write_u64(self.params.clusters as u64);
        h.write_u64(self.params.top_clusters as u64);
        h.write_u64(self.params.feature_grid as u64);
        h.write_u64(self.params.seed);
        h.write_bytes(self.params.metric.name().as_bytes());
        h.finish()
    }

    /// Serialize the payload fields (the protocol layer adds the op
    /// envelope).
    pub fn to_json(&self) -> Json {
        Json::obj([
            ("target", self.target.to_json()),
            ("store", Json::Str(self.store.clone())),
            ("params", self.params.to_json()),
        ])
    }

    /// Parse the shape produced by [`to_json`](Self::to_json). Missing
    /// `params` fall back to the defaults.
    ///
    /// # Errors
    /// Returns a description of the first malformed field.
    pub fn from_json(value: &Json) -> Result<LibraryJobSpec, String> {
        let target =
            ImageSource::from_json(value.get("target").ok_or("job needs a \"target\" source")?)?;
        let store = value
            .get("store")
            .and_then(Json::as_str)
            .ok_or("job needs a \"store\" path")?
            .to_string();
        let params = match value.get("params") {
            Some(p) => LibraryParams::from_json(p)?,
            None => LibraryParams::default(),
        };
        Ok(LibraryJobSpec {
            target,
            store,
            params,
        })
    }
}

/// FNV-1a 64-bit hasher, byte-compatible with the one `photomosaic`
/// uses for generation jobs (kept local because that one is private).
struct Fnv1a {
    state: u64,
}

impl Fnv1a {
    fn new() -> Self {
        Fnv1a {
            state: 0xcbf2_9ce4_8422_2325,
        }
    }

    fn write_bytes(&mut self, bytes: &[u8]) {
        for &b in bytes {
            self.state ^= u64::from(b);
            self.state = self.state.wrapping_mul(0x0000_0100_0000_01b3);
        }
        // Length terminator so concatenations can't collide trivially.
        self.write_u64(bytes.len() as u64);
    }

    fn write_u64(&mut self, v: u64) {
        for b in v.to_le_bytes() {
            self.state ^= u64::from(b);
            self.state = self.state.wrapping_mul(0x0000_0100_0000_01b3);
        }
    }

    fn finish(&self) -> u64 {
        self.state
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use mosaic_image::synth::Scene;

    fn sample() -> LibraryJobSpec {
        LibraryJobSpec {
            target: ImageSource::Synth {
                scene: Scene::Portrait,
                size: 64,
                seed: 7,
            },
            store: "/tmp/lib".to_string(),
            params: LibraryParams {
                grid: 8,
                clusters: 16,
                top_clusters: 3,
                feature_grid: 4,
                seed: 5,
                metric: TileMetric::Ssd,
            },
        }
    }

    #[test]
    fn spec_roundtrips_through_json_text() {
        let spec = sample();
        let text = spec.to_json().encode();
        let back = LibraryJobSpec::from_json(&Json::parse(&text).unwrap()).unwrap();
        assert_eq!(back, spec);
    }

    #[test]
    fn defaults_fill_missing_fields() {
        let json = Json::parse(
            r#"{"target":{"kind":"synth","scene":"plasma","size":32,"seed":"1"},"store":"s"}"#,
        )
        .unwrap();
        let spec = LibraryJobSpec::from_json(&json).unwrap();
        assert_eq!(spec.params, LibraryParams::default());
    }

    #[test]
    fn routing_key_tracks_every_field() {
        let base = sample();
        let key = base.cache_key();
        assert_eq!(key, sample().cache_key(), "deterministic");
        let mut other = sample();
        other.store = "/tmp/other".into();
        assert_ne!(other.cache_key(), key);
        let mut other = sample();
        other.params.grid = 9;
        assert_ne!(other.cache_key(), key);
        let mut other = sample();
        other.params.clusters = 17;
        assert_ne!(other.cache_key(), key);
        let mut other = sample();
        other.params.top_clusters = 4;
        assert_ne!(other.cache_key(), key);
        let mut other = sample();
        other.params.seed = 6;
        assert_ne!(other.cache_key(), key);
        let mut other = sample();
        other.params.metric = TileMetric::Sad;
        assert_ne!(other.cache_key(), key);
        let mut other = sample();
        other.target = ImageSource::Synth {
            scene: Scene::Portrait,
            size: 64,
            seed: 8,
        };
        assert_ne!(other.cache_key(), key);
    }

    #[test]
    fn validation_rejects_zero_knobs() {
        assert!(LibraryParams::default().validate().is_ok());
        for p in [
            LibraryParams {
                grid: 0,
                ..LibraryParams::default()
            },
            LibraryParams {
                clusters: 0,
                ..LibraryParams::default()
            },
            LibraryParams {
                top_clusters: 0,
                ..LibraryParams::default()
            },
            LibraryParams {
                feature_grid: 0,
                ..LibraryParams::default()
            },
        ] {
            assert!(p.validate().is_err(), "{p:?}");
        }
    }

    #[test]
    fn malformed_fields_are_reported() {
        let json = Json::parse(r#"{"store":"s"}"#).unwrap();
        assert!(LibraryJobSpec::from_json(&json).is_err());
        let json = Json::parse(
            r#"{"target":{"kind":"synth","scene":"plasma","size":32},"store":"s","params":{"metric":"nope"}}"#,
        )
        .unwrap();
        assert!(LibraryJobSpec::from_json(&json).is_err());
    }
}
