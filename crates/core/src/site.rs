//! Grid resource sites.
//!
//! A *site* is one administrative resource pool (a cluster or supercomputer
//! partition) containing `nodes` identical processors of relative speed
//! `speed`, and advertising a **security level** `SL` (paper: uniform in
//! `[0.4, 1.0]`), e.g. maintained by a local intrusion-detection system.

use crate::error::{Error, Result};
use serde::{Deserialize, Serialize};
use std::fmt;

/// Index of a site within its [`Grid`](crate::Grid).
#[derive(
    Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord, Serialize, Deserialize, Default,
)]
pub struct SiteId(pub usize);

impl fmt::Display for SiteId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "S{}", self.0)
    }
}

/// One Grid resource site.
///
/// ```
/// use gridsec_core::Site;
/// let site = Site::builder(0)
///     .nodes(16)
///     .speed(2.0)
///     .security_level(0.8)
///     .build()
///     .unwrap();
/// assert_eq!(site.nodes, 16);
/// ```
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct Site {
    /// Index of this site in the grid.
    pub id: SiteId,
    /// Number of identical nodes.
    pub nodes: u32,
    /// Relative processing speed of each node (reference node = 1.0).
    pub speed: f64,
    /// Security level `SL` offered to remote jobs.
    pub security_level: f64,
}

impl Site {
    /// Starts building a site with defaults (`nodes = 1`, `speed = 1.0`,
    /// `SL = 1.0`).
    pub fn builder(id: usize) -> SiteBuilder {
        SiteBuilder::new(id)
    }

    /// Aggregate processing power of the site (`nodes × speed`).
    #[inline]
    pub fn power(&self) -> f64 {
        f64::from(self.nodes) * self.speed
    }

    /// Whether a job of the given width fits on this site at all.
    #[inline]
    pub fn fits_width(&self, width: u32) -> bool {
        width <= self.nodes
    }

    /// Checks the site's fields: at least one node, a finite positive
    /// speed, and an SL in `[0, 1]`. Run by [`SiteBuilder::build`] and by
    /// [`Grid::new`](crate::Grid::new), so sites deserialised from a spec
    /// are checked too.
    pub fn validate(&self) -> Result<()> {
        let id = self.id;
        if self.nodes == 0 {
            return Err(Error::invalid(
                "nodes",
                format!("site {id} must have at least 1 node"),
            ));
        }
        if !(self.speed.is_finite() && self.speed > 0.0) {
            return Err(Error::invalid(
                "speed",
                format!(
                    "site {id}: speed must be positive and finite, got {}",
                    self.speed
                ),
            ));
        }
        if !(0.0..=1.0).contains(&self.security_level) {
            return Err(Error::invalid(
                "security_level",
                format!(
                    "site {id}: SL must be in [0, 1], got {}",
                    self.security_level
                ),
            ));
        }
        Ok(())
    }
}

/// Builder for [`Site`] with validation at [`SiteBuilder::build`].
#[derive(Debug, Clone)]
pub struct SiteBuilder {
    id: usize,
    nodes: u32,
    speed: f64,
    security_level: f64,
}

impl SiteBuilder {
    fn new(id: usize) -> Self {
        SiteBuilder {
            id,
            nodes: 1,
            speed: 1.0,
            security_level: 1.0,
        }
    }

    /// Sets the node count (must be ≥ 1).
    pub fn nodes(mut self, n: u32) -> Self {
        self.nodes = n;
        self
    }

    /// Sets the per-node relative speed (must be positive and finite).
    pub fn speed(mut self, v: f64) -> Self {
        self.speed = v;
        self
    }

    /// Sets the security level (must lie in `[0, 1]`).
    pub fn security_level(mut self, sl: f64) -> Self {
        self.security_level = sl;
        self
    }

    /// Validates and constructs the [`Site`].
    pub fn build(self) -> Result<Site> {
        let site = Site {
            id: SiteId(self.id),
            nodes: self.nodes,
            speed: self.speed,
            security_level: self.security_level,
        };
        site.validate()?;
        Ok(site)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn builder_defaults() {
        let s = Site::builder(3).build().unwrap();
        assert_eq!(s.id, SiteId(3));
        assert_eq!(s.nodes, 1);
        assert_eq!(s.speed, 1.0);
        assert_eq!(s.security_level, 1.0);
    }

    #[test]
    fn power_is_nodes_times_speed() {
        let s = Site::builder(0).nodes(8).speed(2.5).build().unwrap();
        assert_eq!(s.power(), 20.0);
    }

    #[test]
    fn fits_width() {
        let s = Site::builder(0).nodes(8).build().unwrap();
        assert!(s.fits_width(1));
        assert!(s.fits_width(8));
        assert!(!s.fits_width(9));
    }

    #[test]
    fn invalid_sites_rejected() {
        assert!(Site::builder(0).nodes(0).build().is_err());
        assert!(Site::builder(0).speed(0.0).build().is_err());
        assert!(Site::builder(0).speed(-1.0).build().is_err());
        assert!(Site::builder(0).security_level(1.01).build().is_err());
    }

    #[test]
    fn site_id_display() {
        assert_eq!(SiteId(5).to_string(), "S5");
    }
}
