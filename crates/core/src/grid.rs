//! The Grid: an ordered collection of [`Site`]s.

use crate::error::{Error, Result};
use crate::job::Job;
use crate::site::{Site, SiteId};
use serde::{Deserialize, Serialize};

/// A validated, immutable collection of sites forming the Grid.
///
/// Site ids are required to be dense (`Site k` has `id == k`), which lets the
/// rest of the library index by `SiteId` without hashing.
///
/// ```
/// use gridsec_core::{Grid, Site};
/// let grid = Grid::new(vec![
///     Site::builder(0).nodes(16).security_level(0.9).build().unwrap(),
///     Site::builder(1).nodes(8).security_level(0.5).build().unwrap(),
/// ]).unwrap();
/// assert_eq!(grid.len(), 2);
/// assert_eq!(grid.max_nodes(), 16);
/// ```
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct Grid {
    sites: Vec<Site>,
}

impl Grid {
    /// Builds a grid, checking that the site list is non-empty and densely
    /// indexed and that every site passes [`Site::validate`].
    pub fn new(sites: Vec<Site>) -> Result<Grid> {
        if sites.is_empty() {
            return Err(Error::invalid("sites", "a grid needs at least one site"));
        }
        for (k, s) in sites.iter().enumerate() {
            if s.id.0 != k {
                return Err(Error::invalid(
                    "sites",
                    format!("site at position {k} has id {} (ids must be dense)", s.id),
                ));
            }
            s.validate()?;
        }
        Ok(Grid { sites })
    }

    /// Number of sites.
    #[inline]
    pub fn len(&self) -> usize {
        self.sites.len()
    }

    /// Whether the grid is empty (never true for a validated grid).
    #[inline]
    pub fn is_empty(&self) -> bool {
        self.sites.is_empty()
    }

    /// The site with the given id.
    ///
    /// # Panics
    /// Panics if `id` is out of range; ids originating from this grid are
    /// always valid.
    #[inline]
    pub fn site(&self, id: SiteId) -> &Site {
        &self.sites[id.0]
    }

    /// Checked lookup.
    #[inline]
    pub fn get(&self, id: SiteId) -> Option<&Site> {
        self.sites.get(id.0)
    }

    /// Iterates over all sites in id order.
    pub fn sites(&self) -> impl Iterator<Item = &Site> {
        self.sites.iter()
    }

    /// All site ids in order.
    pub fn site_ids(&self) -> impl Iterator<Item = SiteId> + '_ {
        (0..self.sites.len()).map(SiteId)
    }

    /// Largest node count over all sites (the widest schedulable job).
    pub fn max_nodes(&self) -> u32 {
        self.sites.iter().map(|s| s.nodes).max().unwrap_or(0)
    }

    /// Total processing power (Σ nodes × speed).
    pub fn total_power(&self) -> f64 {
        self.sites.iter().map(Site::power).sum()
    }

    /// Highest security level offered by any site.
    pub fn max_security_level(&self) -> f64 {
        self.sites
            .iter()
            .map(|s| s.security_level)
            .fold(0.0, f64::max)
    }

    /// Security levels of all sites, in id order.
    pub fn security_levels(&self) -> impl Iterator<Item = f64> + '_ {
        self.sites.iter().map(|s| s.security_level)
    }

    /// Order-sensitive fingerprint of the grid's security snapshot (node
    /// counts, speeds, security levels). Two grids with equal fingerprints
    /// produce identical security-overhead/risk lowerings, so schedulers can
    /// key compiled kernels and cached risk-weight tables on this value and
    /// rebuild only when trust re-rating or reconfiguration changes it.
    pub fn security_fingerprint(&self) -> u64 {
        let mut acc = 0xcbf2_9ce4_8422_2325u64 ^ self.sites.len() as u64;
        let mut mix = |bits: u64| {
            acc = (acc.rotate_left(13) ^ bits).wrapping_mul(0x1000_0000_01b3);
        };
        for s in &self.sites {
            mix(s.nodes as u64);
            mix(s.speed.to_bits());
            mix(s.security_level.to_bits());
        }
        acc
    }

    /// Sites on which the job fits by width alone (risk ignored).
    pub fn fitting_sites(&self, job: &Job) -> Vec<SiteId> {
        self.sites
            .iter()
            .filter(|s| s.fits_width(job.width))
            .map(|s| s.id)
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn grid3() -> Grid {
        Grid::new(vec![
            Site::builder(0)
                .nodes(16)
                .speed(1.0)
                .security_level(0.9)
                .build()
                .unwrap(),
            Site::builder(1)
                .nodes(8)
                .speed(2.0)
                .security_level(0.5)
                .build()
                .unwrap(),
            Site::builder(2)
                .nodes(4)
                .speed(4.0)
                .security_level(0.7)
                .build()
                .unwrap(),
        ])
        .unwrap()
    }

    #[test]
    fn dense_ids_enforced() {
        let bad = vec![Site::builder(1).build().unwrap()];
        assert!(Grid::new(bad).is_err());
        assert!(Grid::new(vec![]).is_err());
    }

    /// Sites that skipped the builder (deserialised from a spec) get the
    /// builder's checks here.
    #[test]
    fn new_checks_every_site() {
        let valid = Site::builder(0).nodes(2).build().unwrap();
        for (field, bad) in [
            (
                "nodes",
                Site {
                    nodes: 0,
                    ..valid.clone()
                },
            ),
            (
                "speed",
                Site {
                    speed: -1.0,
                    ..valid.clone()
                },
            ),
            (
                "speed",
                Site {
                    speed: f64::INFINITY,
                    ..valid.clone()
                },
            ),
            (
                "security_level",
                Site {
                    security_level: 1.5,
                    ..valid.clone()
                },
            ),
        ] {
            let err = Grid::new(vec![bad]).unwrap_err().to_string();
            assert!(err.contains(&format!("`{field}`")), "{field}: {err}");
            assert!(err.contains("site S0"), "{field}: {err}");
        }
        assert!(Grid::new(vec![valid]).is_ok());
    }

    #[test]
    fn aggregates() {
        let g = grid3();
        assert_eq!(g.len(), 3);
        assert_eq!(g.max_nodes(), 16);
        assert_eq!(g.total_power(), 16.0 + 16.0 + 16.0);
        assert!((g.max_security_level() - 0.9).abs() < 1e-12);
    }

    #[test]
    fn fitting_sites_respects_width() {
        let g = grid3();
        let wide = Job::builder(0).width(10).build().unwrap();
        assert_eq!(g.fitting_sites(&wide), vec![SiteId(0)]);
        let narrow = Job::builder(1).width(2).build().unwrap();
        assert_eq!(g.fitting_sites(&narrow).len(), 3);
    }

    #[test]
    fn security_fingerprint_tracks_snapshot_changes() {
        let g = grid3();
        assert_eq!(g.security_fingerprint(), grid3().security_fingerprint());
        let levels: Vec<f64> = g.security_levels().collect();
        assert_eq!(levels, vec![0.9, 0.5, 0.7]);
        // Changing any site's security level changes the fingerprint.
        let mut sites: Vec<Site> = g.sites().cloned().collect();
        sites[1].security_level = 0.51;
        let g2 = Grid::new(sites).unwrap();
        assert_ne!(g.security_fingerprint(), g2.security_fingerprint());
        // So does changing a node count.
        let mut sites: Vec<Site> = g.sites().cloned().collect();
        sites[0].nodes = 17;
        let g3 = Grid::new(sites).unwrap();
        assert_ne!(g.security_fingerprint(), g3.security_fingerprint());
    }
}
