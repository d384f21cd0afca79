//! The `{"kind": "sites" | "psa" | "nas"}` grid grammar of scenario spec
//! files — one definition for the `gridsec` CLI and the tests that read
//! `scenarios/*.json`.

use crate::{NasConfig, PsaConfig};
use gridsec_core::{Grid, Result, Site};
use serde::{Deserialize, Serialize};

/// Grid selection for a chaos scenario (which generates its own jobs, so
/// only the resource side of a workload is needed).
#[derive(Debug, Clone, Serialize, Deserialize)]
#[serde(tag = "kind", rename_all = "snake_case")]
pub enum GridSpec {
    /// An explicit site list.
    Sites {
        /// The sites, ids 0..n in order.
        sites: Vec<Site>,
    },
    /// The PSA sweep grid (20 sites by default).
    Psa {
        /// PSA generator configuration; only its grid is used.
        #[serde(default)]
        config: PsaConfig,
    },
    /// The NAS iPSC/860 grid (12 sites).
    Nas {
        /// NAS generator configuration; only its grid is used.
        #[serde(default)]
        config: NasConfig,
    },
}

impl GridSpec {
    /// Materialises the grid.
    pub fn build(&self) -> Result<Grid> {
        match self {
            GridSpec::Sites { sites } => Grid::new(sites.clone()),
            GridSpec::Psa { config } => Ok(config.generate()?.grid),
            GridSpec::Nas { config } => config.grid(),
        }
    }
}
