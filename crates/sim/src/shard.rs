//! Grid sharding: site-disjoint partitions of a [`Grid`] for multi-tenant
//! serving.
//!
//! The paper's online batch loop is inherently per-grid: jobs target
//! sites, and site-disjoint partitions never interact through node
//! availability or the STGA history table. A [`ShardPlan`] splits a grid
//! into site-disjoint shards; each shard can then run its own
//! [`RoundDriver`](crate::RoundDriver) (own availability model, own
//! scheduler state) on its own thread, and scheduling a job on shard `k`
//! is *provably* independent of every other shard — the
//! `sharding_equivalence` suite in `crates/serve` pins an N-shard run
//! bit-identical to N independent single-shard runs.
//!
//! Site ids: the global grid uses dense ids `0..n_sites`. Each shard sees
//! a re-indexed *subgrid* with dense local ids `0..shard_len`; the plan
//! translates between the two ([`ShardPlan::to_global`] /
//! [`ShardPlan::to_local`]) so schedules can always be reported in global
//! site ids.

use gridsec_core::{Error, Grid, Job, Result, SiteId};

/// How a job maps onto shards when no explicit shard is given (routing
/// derived from the job's eligible sites — the online sites it fits on
/// by width).
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Routing {
    /// Every eligible site lies in this one shard: route there.
    Unique(usize),
    /// Eligible sites span several shards (listed in ascending order) —
    /// the caller must pick one explicitly.
    Spanning(Vec<usize>),
    /// The job fits only offline sites (listed in ascending order).
    Offline(Vec<SiteId>),
    /// No site fits the job at all.
    NoFit,
}

/// A site-disjoint partition of a grid into `n_shards` shards, each shard
/// holding at least one site. [`ShardPlan::contiguous`] produces
/// contiguous runs; [`ShardPlan::from_shards`] accepts any partition
/// (non-contiguous shards arise when sites migrate between shards).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ShardPlan {
    /// Global site ids per shard, ascending within each shard.
    shards: Vec<Vec<SiteId>>,
    /// Global site index → (shard, local site index).
    site_map: Vec<(usize, usize)>,
}

impl ShardPlan {
    /// Splits `grid` into `n_shards` contiguous near-equal runs of sites
    /// (the first `n_sites % n_shards` shards get one extra site).
    pub fn contiguous(grid: &Grid, n_shards: usize) -> Result<ShardPlan> {
        let n_sites = grid.len();
        if n_shards == 0 {
            return Err(Error::invalid("shards", "need at least one shard"));
        }
        if n_shards > n_sites {
            return Err(Error::invalid(
                "shards",
                format!("cannot split {n_sites} sites into {n_shards} site-disjoint shards"),
            ));
        }
        let base = n_sites / n_shards;
        let extra = n_sites % n_shards;
        let mut shards = Vec::with_capacity(n_shards);
        let mut site_map = vec![(0usize, 0usize); n_sites];
        let mut next = 0usize;
        for shard in 0..n_shards {
            let len = base + usize::from(shard < extra);
            let mut sites = Vec::with_capacity(len);
            for local in 0..len {
                site_map[next] = (shard, local);
                sites.push(SiteId(next));
                next += 1;
            }
            shards.push(sites);
        }
        Ok(ShardPlan { shards, site_map })
    }

    /// Builds a plan from an explicit partition: every site of `grid`
    /// must appear in exactly one shard, every shard must be non-empty.
    /// Shards need not be contiguous runs — this is the constructor
    /// resharding uses for split / merge / migrate-site plans. Each
    /// shard's site list is sorted ascending, so local ids stay ordered
    /// by global id within a shard.
    pub fn from_shards(grid: &Grid, mut shards: Vec<Vec<SiteId>>) -> Result<ShardPlan> {
        let n_sites = grid.len();
        if shards.is_empty() {
            return Err(Error::invalid("shards", "need at least one shard"));
        }
        let mut site_map = vec![None; n_sites];
        for (shard, sites) in shards.iter_mut().enumerate() {
            if sites.is_empty() {
                return Err(Error::invalid(
                    "shards",
                    format!("shard {shard} is empty — every shard needs at least one site"),
                ));
            }
            sites.sort_unstable_by_key(|s| s.0);
            for (local, &site) in sites.iter().enumerate() {
                if site.0 >= n_sites {
                    return Err(Error::invalid(
                        "shards",
                        format!("site {} out of range (grid has {n_sites} sites)", site.0),
                    ));
                }
                if site_map[site.0].is_some() {
                    return Err(Error::invalid(
                        "shards",
                        format!("site {} appears in more than one shard", site.0),
                    ));
                }
                site_map[site.0] = Some((shard, local));
            }
        }
        let site_map = site_map
            .into_iter()
            .enumerate()
            .map(|(site, entry)| {
                entry.ok_or_else(|| {
                    Error::invalid("shards", format!("site {site} missing from every shard"))
                })
            })
            .collect::<Result<Vec<_>>>()?;
        Ok(ShardPlan { shards, site_map })
    }

    /// Number of shards.
    pub fn n_shards(&self) -> usize {
        self.shards.len()
    }

    /// Number of sites across all shards (= the grid's site count).
    pub fn n_sites(&self) -> usize {
        self.site_map.len()
    }

    /// Global site ids of one shard, ascending.
    ///
    /// # Panics
    /// Panics if `shard` is out of range.
    pub fn sites_of(&self, shard: usize) -> &[SiteId] {
        &self.shards[shard]
    }

    /// The shard owning a global site, if the site exists.
    pub fn shard_of(&self, site: SiteId) -> Option<usize> {
        self.site_map.get(site.0).map(|&(shard, _)| shard)
    }

    /// Translates a shard-local site id back to the global id.
    ///
    /// # Panics
    /// Panics if `shard` or `local` is out of range.
    pub fn to_global(&self, shard: usize, local: SiteId) -> SiteId {
        self.shards[shard][local.0]
    }

    /// Translates a global site id to `(shard, local id)`.
    pub fn to_local(&self, site: SiteId) -> Option<(usize, SiteId)> {
        self.site_map
            .get(site.0)
            .map(|&(shard, local)| (shard, SiteId(local)))
    }

    /// Builds the shard's subgrid: its sites re-indexed to dense local
    /// ids, every other attribute (nodes, speed, security level)
    /// unchanged.
    pub fn subgrid(&self, grid: &Grid, shard: usize) -> Result<Grid> {
        if shard >= self.n_shards() {
            return Err(Error::invalid(
                "shard",
                format!("shard {shard} out of range ({} shards)", self.n_shards()),
            ));
        }
        if grid.len() != self.n_sites() {
            return Err(Error::invalid(
                "shard",
                format!(
                    "plan covers {} sites but the grid has {}",
                    self.n_sites(),
                    grid.len()
                ),
            ));
        }
        let sites = self.shards[shard]
            .iter()
            .enumerate()
            .map(|(local, &global)| {
                let mut s = grid.site(global).clone();
                s.id = SiteId(local);
                s
            })
            .collect();
        Grid::new(sites)
    }

    /// Shards holding at least one site the job fits on (by width),
    /// ascending. Empty when no site fits.
    pub fn eligible_shards(&self, grid: &Grid, job: &Job) -> Vec<usize> {
        let mut out = Vec::new();
        for (shard, sites) in self.shards.iter().enumerate() {
            if sites.iter().any(|&s| grid.site(s).fits_width(job.width)) {
                out.push(shard);
            }
        }
        out
    }

    /// Derived routing with every site online: [`ShardPlan::route_online`]
    /// with nothing offline.
    pub fn route(&self, grid: &Grid, job: &Job) -> Routing {
        self.route_online(grid, &[], job)
    }

    /// Derived routing: where the job goes when the submitter names no
    /// shard. Sites the job fits on (by width) whose `offline` entry is
    /// `true` are left out (a site past the end of `offline` is online).
    /// Unambiguous only when every remaining site sits in one shard; the
    /// [`Routing::Unique`] answer allocates nothing, and each shard is
    /// scanned only up to its first usable site.
    pub fn route_online(&self, grid: &Grid, offline: &[bool], job: &Job) -> Routing {
        let usable = |s: &SiteId| {
            grid.site(*s).fits_width(job.width) && !offline.get(s.0).copied().unwrap_or(false)
        };
        let mut shards = (0..self.n_shards()).filter(|&k| self.shards[k].iter().any(usable));
        match (shards.next(), shards.next()) {
            (Some(k), None) => Routing::Unique(k),
            (Some(a), Some(b)) => Routing::Spanning([a, b].into_iter().chain(shards).collect()),
            (None, _) => {
                let fitting = grid.sites().filter(|s| s.fits_width(job.width));
                let sites: Vec<SiteId> = fitting.map(|s| s.id).collect();
                match sites.is_empty() {
                    true => Routing::NoFit,
                    false => Routing::Offline(sites),
                }
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use gridsec_core::Site;

    fn grid(nodes: &[u32]) -> Grid {
        Grid::new(
            nodes
                .iter()
                .enumerate()
                .map(|(i, &n)| Site::builder(i).nodes(n).build().unwrap())
                .collect(),
        )
        .unwrap()
    }

    #[test]
    fn contiguous_split_covers_all_sites_disjointly() {
        let g = grid(&[2, 2, 2, 2, 2, 2, 2]);
        let plan = ShardPlan::contiguous(&g, 3).unwrap();
        assert_eq!(plan.n_shards(), 3);
        // 7 = 3 + 2 + 2.
        assert_eq!(plan.sites_of(0), &[SiteId(0), SiteId(1), SiteId(2)]);
        assert_eq!(plan.sites_of(1), &[SiteId(3), SiteId(4)]);
        assert_eq!(plan.sites_of(2), &[SiteId(5), SiteId(6)]);
        for k in 0..7 {
            let (shard, local) = plan.to_local(SiteId(k)).unwrap();
            assert_eq!(plan.to_global(shard, local), SiteId(k));
            assert_eq!(plan.shard_of(SiteId(k)), Some(shard));
        }
        assert_eq!(plan.shard_of(SiteId(7)), None);
    }

    #[test]
    fn degenerate_and_invalid_splits() {
        let g = grid(&[2, 2]);
        let one = ShardPlan::contiguous(&g, 1).unwrap();
        assert_eq!(one.sites_of(0).len(), 2);
        assert!(ShardPlan::contiguous(&g, 0).is_err());
        assert!(ShardPlan::contiguous(&g, 3).is_err());
    }

    #[test]
    fn subgrid_reindexes_and_keeps_attributes() {
        let g = Grid::new(vec![
            Site::builder(0)
                .nodes(4)
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
                .nodes(2)
                .speed(4.0)
                .security_level(0.7)
                .build()
                .unwrap(),
        ])
        .unwrap();
        let plan = ShardPlan::contiguous(&g, 2).unwrap();
        let sub = plan.subgrid(&g, 1).unwrap();
        assert_eq!(sub.len(), 1);
        let s = sub.site(SiteId(0));
        assert_eq!(s.nodes, 2);
        assert_eq!(s.speed, 4.0);
        assert_eq!(s.security_level, 0.7);
        assert!(plan.subgrid(&g, 2).is_err());
        let smaller = grid(&[1, 1]);
        assert!(plan.subgrid(&smaller, 0).is_err());
    }

    #[test]
    fn from_shards_accepts_non_contiguous_partitions() {
        let g = grid(&[2, 2, 2, 2]);
        // Migrate-site shape: interleaved shards.
        let plan = ShardPlan::from_shards(
            &g,
            vec![vec![SiteId(2), SiteId(0)], vec![SiteId(3), SiteId(1)]],
        )
        .unwrap();
        assert_eq!(plan.n_shards(), 2);
        // Site lists sort ascending within each shard.
        assert_eq!(plan.sites_of(0), &[SiteId(0), SiteId(2)]);
        assert_eq!(plan.sites_of(1), &[SiteId(1), SiteId(3)]);
        assert_eq!(plan.to_local(SiteId(2)), Some((0, SiteId(1))));
        assert_eq!(plan.to_global(1, SiteId(0)), SiteId(1));
        let sub = plan.subgrid(&g, 0).unwrap();
        assert_eq!(sub.len(), 2);
    }

    #[test]
    fn from_shards_rejects_bad_partitions() {
        let g = grid(&[2, 2, 2]);
        // Empty plan, empty shard, duplicate site, out-of-range site,
        // missing site: all typed errors.
        assert!(ShardPlan::from_shards(&g, vec![]).is_err());
        assert!(
            ShardPlan::from_shards(&g, vec![vec![SiteId(0), SiteId(1), SiteId(2)], vec![]])
                .is_err()
        );
        assert!(ShardPlan::from_shards(
            &g,
            vec![vec![SiteId(0), SiteId(1)], vec![SiteId(1), SiteId(2)]]
        )
        .is_err());
        assert!(ShardPlan::from_shards(&g, vec![vec![SiteId(0), SiteId(1), SiteId(3)]]).is_err());
        assert!(ShardPlan::from_shards(&g, vec![vec![SiteId(0), SiteId(2)]]).is_err());
    }

    #[test]
    fn routing_by_eligible_sites() {
        // Shard 0: 2-node sites; shard 1: one 8-node site.
        let g = grid(&[2, 2, 8]);
        let plan = ShardPlan::contiguous(&g, 2).unwrap();
        assert_eq!(plan.sites_of(1), &[SiteId(2)]);
        let narrow = Job::builder(0).width(1).build().unwrap();
        assert_eq!(
            plan.route(&g, &narrow),
            Routing::Spanning(vec![0, 1]),
            "a narrow job fits everywhere"
        );
        let wide = Job::builder(1).width(4).build().unwrap();
        assert_eq!(plan.route(&g, &wide), Routing::Unique(1));
        let huge = Job::builder(2).width(64).build().unwrap();
        assert_eq!(plan.route(&g, &huge), Routing::NoFit);
        assert_eq!(plan.eligible_shards(&g, &narrow), vec![0, 1]);
        assert_eq!(plan.eligible_shards(&g, &huge), Vec::<usize>::new());
    }

    #[test]
    fn routing_leaves_offline_sites_out() {
        let g = grid(&[2, 2, 8]);
        let plan =
            ShardPlan::from_shards(&g, vec![vec![SiteId(2), SiteId(0)], vec![SiteId(1)]]).unwrap();
        let narrow = Job::builder(0).width(1).build().unwrap();
        let wide = Job::builder(1).width(4).build().unwrap();
        let none = [false; 3];
        assert_eq!(
            plan.route_online(&g, &none, &narrow),
            Routing::Spanning(vec![0, 1])
        );
        // Site 1 (all of shard 1) offline: the narrow job has one shard left.
        let one = [false, true, false];
        assert_eq!(plan.route_online(&g, &one, &narrow), Routing::Unique(0));
        // Site 2 offline: the wide job fits only there.
        let two = [false, false, true];
        assert_eq!(
            plan.route_online(&g, &two, &wide),
            Routing::Offline(vec![SiteId(2)])
        );
        assert_eq!(
            plan.route_online(&g, &two, &narrow),
            Routing::Spanning(vec![0, 1])
        );
        let all = [true; 3];
        assert_eq!(
            plan.route_online(&g, &all, &narrow),
            Routing::Offline(vec![SiteId(0), SiteId(1), SiteId(2)])
        );
        let huge = Job::builder(2).width(64).build().unwrap();
        assert_eq!(plan.route_online(&g, &all, &huge), Routing::NoFit);
    }
}
