//! A registry over the eight evaluated algorithms.
//!
//! Used by `er-eval` and the reproduction harness to sweep all algorithms
//! uniformly; mirrors Table 1 of the paper (per-algorithm configuration
//! parameters).

use serde::{Deserialize, Serialize};

use er_core::Matching;

use crate::bah::{Bah, BahConfig};
use crate::bmc::{Basis, Bmc};
use crate::cnc::Cnc;
use crate::delta::{BahDelta, CncDelta, DeltaMatcher, ReplayDelta, UmcDelta};
use crate::exc::Exc;
use crate::krc::Krc;
use crate::matcher::{Matcher, PreparedGraph};
use crate::rca::Rca;
use crate::rsr::Rsr;
use crate::umc::Umc;

/// The eight bipartite graph matching algorithms of the paper, in its
/// presentation order.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord, Serialize, Deserialize)]
pub enum AlgorithmKind {
    /// Connected Components.
    Cnc,
    /// Ricochet Sequential Rippling.
    Rsr,
    /// Row-Column Assignment.
    Rca,
    /// Best Assignment Heuristic (stochastic).
    Bah,
    /// Best Match Clustering.
    Bmc,
    /// Exact (mutual best) Clustering.
    Exc,
    /// Király's Clustering.
    Krc,
    /// Unique Mapping Clustering.
    Umc,
}

impl AlgorithmKind {
    /// All algorithms in the paper's order (Tables 4–9 row order).
    pub const ALL: [AlgorithmKind; 8] = [
        AlgorithmKind::Cnc,
        AlgorithmKind::Rsr,
        AlgorithmKind::Rca,
        AlgorithmKind::Bah,
        AlgorithmKind::Bmc,
        AlgorithmKind::Exc,
        AlgorithmKind::Krc,
        AlgorithmKind::Umc,
    ];

    /// The paper's acronym.
    pub fn name(self) -> &'static str {
        match self {
            AlgorithmKind::Cnc => "CNC",
            AlgorithmKind::Rsr => "RSR",
            AlgorithmKind::Rca => "RCA",
            AlgorithmKind::Bah => "BAH",
            AlgorithmKind::Bmc => "BMC",
            AlgorithmKind::Exc => "EXC",
            AlgorithmKind::Krc => "KRC",
            AlgorithmKind::Umc => "UMC",
        }
    }

    /// Parse an acronym (case-insensitive).
    pub fn from_name(s: &str) -> Option<Self> {
        Self::ALL
            .into_iter()
            .find(|k| k.name().eq_ignore_ascii_case(s))
    }

    /// Full algorithm name as in §3 of the paper.
    pub fn full_name(self) -> &'static str {
        match self {
            AlgorithmKind::Cnc => "Connected Components",
            AlgorithmKind::Rsr => "Ricochet Sequential Rippling Clustering",
            AlgorithmKind::Rca => "Row Column Assignment Clustering",
            AlgorithmKind::Bah => "Best Assignment Heuristic",
            AlgorithmKind::Bmc => "Best Match Clustering",
            AlgorithmKind::Exc => "Exact Clustering",
            AlgorithmKind::Krc => "Király's Clustering",
            AlgorithmKind::Umc => "Unique Mapping Clustering",
        }
    }

    /// Asymptotic time complexity as reported in §3.
    pub fn complexity(self) -> &'static str {
        match self {
            AlgorithmKind::Cnc => "O(m)",
            AlgorithmKind::Rsr => "O(n·m)",
            AlgorithmKind::Rca => "O(|V1|·|V2|)",
            AlgorithmKind::Bah => "budgeted (steps/time)",
            AlgorithmKind::Bmc => "O(m)",
            AlgorithmKind::Exc => "O(n·m)",
            AlgorithmKind::Krc => "O(n + m log m)",
            AlgorithmKind::Umc => "O(m log m)",
        }
    }

    /// Configuration parameters beyond the similarity threshold (Table 1).
    pub fn extra_parameters(self) -> &'static str {
        match self {
            AlgorithmKind::Bah => {
                "maximum search steps (10,000); maximum run-time per search step (2 min.)"
            }
            AlgorithmKind::Bmc => "node partition used as basis",
            _ => "×",
        }
    }

    /// Whether the algorithm consumes the sorted CSR adjacency (as opposed
    /// to the raw edge list). Timing protocols charge adjacency
    /// construction to these algorithms, mirroring the paper's setting
    /// where each implementation sorts its own candidate lists.
    pub fn uses_adjacency(self) -> bool {
        !matches!(
            self,
            AlgorithmKind::Cnc | AlgorithmKind::Umc | AlgorithmKind::Bah
        )
    }
}

impl std::fmt::Display for AlgorithmKind {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(self.name())
    }
}

/// Concrete configuration for the configurable algorithms.
#[derive(Debug, Clone, Copy)]
pub struct AlgorithmConfig {
    /// BAH budgets and seed.
    pub bah: BahConfig,
    /// BMC basis collection.
    pub bmc_basis: Basis,
}

impl Default for AlgorithmConfig {
    fn default() -> Self {
        AlgorithmConfig {
            bah: BahConfig::default(),
            bmc_basis: Basis::Left,
        }
    }
}

impl AlgorithmConfig {
    /// Instantiate the matcher for `kind` under this configuration.
    pub fn build(&self, kind: AlgorithmKind) -> Box<dyn Matcher> {
        match kind {
            AlgorithmKind::Cnc => Box::new(Cnc),
            AlgorithmKind::Rsr => Box::new(Rsr),
            AlgorithmKind::Rca => Box::new(Rca),
            AlgorithmKind::Bah => Box::new(Bah { config: self.bah }),
            AlgorithmKind::Bmc => Box::new(Bmc {
                basis: self.bmc_basis,
            }),
            AlgorithmKind::Exc => Box::new(Exc),
            AlgorithmKind::Krc => Box::new(Krc),
            AlgorithmKind::Umc => Box::new(Umc),
        }
    }

    /// Run `kind` directly on a prepared graph.
    pub fn run(&self, kind: AlgorithmKind, g: &PreparedGraph<'_>, t: f64) -> Matching {
        self.build(kind).run(g, t)
    }

    /// Instantiate the **incremental matcher** for `kind` with no edge
    /// admitted yet (see [`crate::delta`]): step it down a descending
    /// threshold grid, or step it once to a service's threshold and feed
    /// it the deltas of that graph's store. UMC folds and repairs its
    /// greedy assignment along a cascade, BAH maintains its contribution
    /// map, CNC continues one union-find fold down the grid and re-runs
    /// after a delta, everything else re-runs when its input moved.
    /// Result-equivalent to calling [`Matcher::run`] fresh after every
    /// update.
    pub fn delta_matcher(&self, kind: AlgorithmKind) -> Box<dyn DeltaMatcher> {
        match kind {
            AlgorithmKind::Cnc => Box::new(CncDelta::new()),
            AlgorithmKind::Umc => Box::new(UmcDelta::new()),
            AlgorithmKind::Bah => Box::new(BahDelta::new(self.bah)),
            _ => Box::new(ReplayDelta::new(self.build(kind))),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::testkit::figure1;

    #[test]
    fn all_lists_eight_in_paper_order() {
        let names: Vec<_> = AlgorithmKind::ALL.iter().map(|k| k.name()).collect();
        assert_eq!(
            names,
            vec!["CNC", "RSR", "RCA", "BAH", "BMC", "EXC", "KRC", "UMC"]
        );
    }

    #[test]
    fn names_round_trip() {
        for k in AlgorithmKind::ALL {
            assert_eq!(AlgorithmKind::from_name(k.name()), Some(k));
            assert_eq!(AlgorithmKind::from_name(&k.name().to_lowercase()), Some(k));
        }
        assert_eq!(AlgorithmKind::from_name("nope"), None);
    }

    #[test]
    fn table1_extra_parameters() {
        assert!(AlgorithmKind::Bah.extra_parameters().contains("10,000"));
        assert!(AlgorithmKind::Bmc.extra_parameters().contains("basis"));
        assert_eq!(AlgorithmKind::Umc.extra_parameters(), "×");
    }

    #[test]
    fn registry_runs_every_algorithm() {
        let g = figure1();
        let pg = PreparedGraph::new(&g);
        let cfg = AlgorithmConfig::default();
        for k in AlgorithmKind::ALL {
            let m = cfg.run(k, &pg, 0.5);
            assert!(m.is_unique_mapping(), "{k} violated unique mapping");
            let matcher = cfg.build(k);
            assert_eq!(matcher.name(), k.name());
        }
    }

    #[test]
    fn display_matches_name() {
        assert_eq!(AlgorithmKind::Krc.to_string(), "KRC");
    }

    #[test]
    fn delta_matchers_start_equal_to_full_runs() {
        let g = figure1();
        let csr = er_core::CsrGraph::from_graph(&g);
        let pg = PreparedGraph::new(&g);
        let cfg = AlgorithmConfig::default();
        for k in AlgorithmKind::ALL {
            let mut dm = cfg.delta_matcher(k);
            dm.step(&PreparedGraph::from_csr(&csr), 0.5);
            assert_eq!(dm.name(), k.name());
            assert_eq!(dm.threshold(), 0.5);
            assert_eq!(dm.matching(), cfg.run(k, &pg, 0.5), "{k}");
        }
    }
}
