//! Property tests for the delta-incremental matchers (`er_matchers::delta`).
//!
//! The contract under test: for every algorithm, applying an arbitrary
//! sequence of insert/delete deltas to a store through the incremental
//! matcher of [`AlgorithmConfig::delta_matcher`], seeded by one step to
//! the threshold, leaves its [`DeltaMatcher::matching`] equal to a
//! from-scratch [`Matcher::run`] on the mutated store — after **every**
//! step, not just at the end. UMC exercises the cascade repair over the
//! store, BAH the contribution-map maintenance, CNC the re-run that drops
//! its union-find fold, and the other five the replay fallback. Threshold
//! steps between the deltas check that every matcher continues from the
//! mutated store.

use er_core::{CoreError, CsrGraph, GraphBuilder, RowDelta, SimilarityGraph};
use er_matchers::{AlgorithmConfig, AlgorithmKind, DeltaMatcher, PreparedGraph};
use proptest::prelude::*;

/// A random bipartite graph with up to 10x10 nodes, weights on the 0.05
/// grid (mirroring normalized similarity graphs).
fn arb_graph() -> impl Strategy<Value = SimilarityGraph> {
    (1u32..10, 1u32..10).prop_flat_map(|(nl, nr)| {
        let max_edges = (nl * nr) as usize;
        proptest::collection::btree_map((0..nl, 0..nr), 1u32..=20, 0..=max_edges.min(30)).prop_map(
            move |edges| {
                let mut b = GraphBuilder::new(nl, nr);
                for ((l, r), w) in edges {
                    b.add_edge(l, r, w as f64 * 0.05).unwrap();
                }
                b.build()
            },
        )
    })
}

/// Raw op material: (selector, candidate edges as (index, weight-step)).
/// Ops are interpreted against the store's *current* dimensions when
/// applied, so any raw sequence is valid.
fn arb_ops() -> impl Strategy<Value = Vec<(u8, Vec<(u16, u8)>)>> {
    proptest::collection::vec(
        (
            0u8..4,
            proptest::collection::vec((0u16..64, 1u8..=20), 0..6),
        ),
        1..8,
    )
}

/// The incremental matcher for `kind`, stepped once to `t` over `csr`.
fn seeded(
    cfg: &AlgorithmConfig,
    kind: AlgorithmKind,
    csr: &CsrGraph,
    t: f64,
) -> Box<dyn DeltaMatcher> {
    let mut dm = cfg.delta_matcher(kind);
    dm.step(&PreparedGraph::from_csr(csr), t);
    dm
}

/// Interpret one raw op against the store, returning the delta to apply
/// (`None` when the op is a no-op on the current store, e.g. deleting
/// from an exhausted side). A delete names only its record.
fn materialize(csr: &CsrGraph, sel: u8, raw: &[(u16, u8)]) -> Option<RowDelta> {
    let (nl, nr) = (csr.n_left(), csr.n_right());
    match sel % 4 {
        0 | 1 => {
            // Insert on the side with the selector's parity.
            let other = if sel.is_multiple_of(4) { nr } else { nl };
            let mut edges: Vec<(u32, f64)> = Vec::new();
            let mut seen = std::collections::BTreeSet::new();
            for &(idx, w) in raw {
                if other == 0 {
                    break;
                }
                let o = idx as u32 % other;
                // Insert edges must be live and unique.
                let live = if sel.is_multiple_of(4) {
                    csr.is_live_right(o)
                } else {
                    csr.is_live_left(o)
                };
                if live && seen.insert(o) {
                    edges.push((o, w as f64 * 0.05));
                }
            }
            Some(if sel.is_multiple_of(4) {
                RowDelta::insert_left(nl, edges)
            } else {
                RowDelta::insert_right(nr, edges)
            })
        }
        2 | 3 => {
            let (n, is_live): (u32, &dyn Fn(u32) -> bool) = if sel % 4 == 2 {
                (nl, &|i| csr.is_live_left(i))
            } else {
                (nr, &|i| csr.is_live_right(i))
            };
            let start = raw.first().map(|&(i, _)| i as u32).unwrap_or(0) % n.max(1);
            let id = (0..n).map(|d| (start + d) % n).find(|&i| is_live(i))?;
            Some(if sel % 4 == 2 {
                RowDelta::delete_left(id)
            } else {
                RowDelta::delete_right(id)
            })
        }
        _ => unreachable!(),
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// The headline acceptance property: after an arbitrary insert/delete
    /// sequence, every algorithm's incremental matching equals the full
    /// re-match on the mutated store — checked after each step.
    #[test]
    fn delta_matching_tracks_full_rematch_for_all_eight(
        g in arb_graph(),
        t in (0u32..=20).prop_map(|i| i as f64 * 0.05),
        ops in arb_ops(),
    ) {
        let seed = CsrGraph::from_graph(&g);
        let cfg = AlgorithmConfig::default();
        for kind in AlgorithmKind::ALL {
            let mut csr = seed.clone();
            let mut dm = seeded(&cfg, kind, &csr, t);
            for (sel, raw) in &ops {
                let Some(delta) = materialize(&csr, *sel, raw) else { continue };
                dm.apply_delta(&mut csr, &delta).expect("interpreted delta is valid");
                let pg = PreparedGraph::from_csr(&csr);
                prop_assert_eq!(
                    dm.matching(),
                    cfg.run(kind, &pg, t),
                    "{} diverged after {:?} on ({:?}, {})",
                    kind, delta.op, delta.side, delta.id
                );
            }
        }
    }

    /// Threshold steps and deltas interleave, as in a service that lowers
    /// its threshold between updates: after every non-increasing step
    /// (a repeated threshold included) and every delta, each algorithm's
    /// incremental matching equals a fresh run on the mutated store. A
    /// step after a delta must continue from the store as it now is —
    /// for CNC, a refold, since a delete can split a component.
    #[test]
    fn steps_interleaved_with_deltas_track_fresh_runs_for_all_eight(
        g in arb_graph(),
        start in 0u32..=20,
        drops in proptest::collection::vec(0u32..=3, 8),
        ops in arb_ops(),
    ) {
        let seed = CsrGraph::from_graph(&g);
        let cfg = AlgorithmConfig::default();
        for kind in AlgorithmKind::ALL {
            let mut csr = seed.clone();
            let mut dm = cfg.delta_matcher(kind);
            let mut level = start;
            for ((sel, raw), drop) in ops.iter().zip(&drops) {
                level = level.saturating_sub(*drop);
                let t = level as f64 * 0.05;
                dm.step(&PreparedGraph::from_csr(&csr), t);
                prop_assert_eq!(
                    dm.matching(),
                    cfg.run(kind, &PreparedGraph::from_csr(&csr), t),
                    "{} diverged after a step to {}", kind, t
                );
                let Some(delta) = materialize(&csr, *sel, raw) else { continue };
                dm.apply_delta(&mut csr, &delta).expect("interpreted delta is valid");
                prop_assert_eq!(
                    dm.matching(),
                    cfg.run(kind, &PreparedGraph::from_csr(&csr), t),
                    "{} diverged after {:?} on ({:?}, {}) at {}",
                    kind, delta.op, delta.side, delta.id, t
                );
            }
        }
    }

    /// Interleaved reads don't perturb the incremental state: querying
    /// the matching between every delta (done above) and only at the end
    /// produce the same result.
    #[test]
    fn read_frequency_does_not_change_results(
        g in arb_graph(),
        ops in arb_ops(),
    ) {
        let seed = CsrGraph::from_graph(&g);
        let cfg = AlgorithmConfig::default();
        let t = 0.3;
        for kind in [AlgorithmKind::Umc, AlgorithmKind::Bah, AlgorithmKind::Krc] {
            let mut csr_a = seed.clone();
            let mut csr_b = seed.clone();
            let mut chatty = seeded(&cfg, kind, &csr_a, t);
            let mut quiet = seeded(&cfg, kind, &csr_b, t);
            for (sel, raw) in &ops {
                if let Some(delta) = materialize(&csr_a, *sel, raw) {
                    chatty.apply_delta(&mut csr_a, &delta).unwrap();
                    quiet.apply_delta(&mut csr_b, &delta).unwrap();
                    let _ = chatty.matching();
                }
            }
            prop_assert_eq!(chatty.matching(), quiet.matching(), "{} read-dependent", kind);
        }
    }

    /// An insert that does not carry its side's next id is a typed
    /// `DeltaIdMismatch` from every algorithm's delta matcher, not a
    /// panic, and leaves the matcher as it was: the valid insert that
    /// follows still tracks the full re-match.
    #[test]
    fn wrong_id_inserts_are_errors_not_panics(
        g in arb_graph(),
        t in (0u32..=20).prop_map(|i| i as f64 * 0.05),
        skew in 1u32..4,
        side in 0u8..2,
    ) {
        let cfg = AlgorithmConfig::default();
        let right = side == 1;
        for kind in AlgorithmKind::ALL {
            let mut csr = CsrGraph::from_graph(&g);
            let mut dm = seeded(&cfg, kind, &csr, t);
            let before = dm.matching();
            let next = if right { csr.n_right() } else { csr.n_left() };
            for got in [next + skew, next - 1] {
                let wrong = if right {
                    RowDelta::insert_right(got, vec![])
                } else {
                    RowDelta::insert_left(got, vec![])
                };
                prop_assert_eq!(
                    dm.apply_delta(&mut csr, &wrong),
                    Err(CoreError::DeltaIdMismatch { expected: next, got }),
                    "{} accepted id {} (next {})", kind, got, next
                );
                prop_assert_eq!(dm.matching(), before.clone(), "{} changed on a rejected delta", kind);
            }
            let valid = if right {
                RowDelta::insert_right(next, vec![(0, 0.9)])
            } else {
                RowDelta::insert_left(next, vec![(0, 0.9)])
            };
            dm.apply_delta(&mut csr, &valid).unwrap();
            prop_assert_eq!(
                dm.matching(),
                cfg.run(kind, &PreparedGraph::from_csr(&csr), t),
                "{} diverged after a rejected delta", kind
            );
        }
    }

    /// Deleting a record twice is a typed `DeadNode` from every
    /// algorithm's incremental matcher — the store's own answer — and
    /// leaves the matching and the store as they were.
    #[test]
    fn repeated_deletes_are_dead_node_errors(
        g in arb_graph(),
        t in (0u32..=20).prop_map(|i| i as f64 * 0.05),
        pick in 0u32..64,
        side in 0u8..2,
    ) {
        let cfg = AlgorithmConfig::default();
        let right = side == 1;
        for kind in AlgorithmKind::ALL {
            let mut csr = CsrGraph::from_graph(&g);
            let mut dm = seeded(&cfg, kind, &csr, t);
            let id = pick % if right { csr.n_right() } else { csr.n_left() };
            let (delta, name) = if right {
                (RowDelta::delete_right(id), "right")
            } else {
                (RowDelta::delete_left(id), "left")
            };
            dm.apply_delta(&mut csr, &delta).unwrap();
            let (before, store) = (dm.matching(), csr.clone());
            prop_assert_eq!(
                dm.apply_delta(&mut csr, &delta),
                Err(CoreError::DeadNode { side: name, id }),
                "{} accepted a repeated delete of {} {}", kind, name, id
            );
            prop_assert_eq!(dm.matching(), before, "{} changed on a rejected delete", kind);
            prop_assert_eq!(&csr, &store, "{} changed the store on a rejected delete", kind);
        }
    }
}
