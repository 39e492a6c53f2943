//! Property tests for [`er_service::ErService`]: under arbitrary
//! insert/delete traffic the incrementally-maintained matching stays
//! equal to a from-scratch re-match on the resident store, and the point
//! queries stay consistent with the store. The UMC case runs one
//! similarity function per family, the others token TF-IDF cosine. One
//! fixed case runs the same traffic from several threads at once through
//! a `RwLock`.

use er_core::{total_cmp_desc, Side};
use er_embed::{EmbeddingModel, SemanticMeasure};
use er_matchers::AlgorithmKind;
use er_pipeline::{SemanticScope, SimilarityFunction};
use er_service::{ErService, ServiceConfig};
use er_textsim::{
    CharMeasure, GraphSimilarity, NGramScheme, SchemaBasedMeasure, TokenMeasure, VectorMeasure,
};
use proptest::prelude::*;

/// Token TF-IDF cosine, the function most cases run.
fn token_fn() -> SimilarityFunction {
    SimilarityFunction::SchemaAgnosticVector {
        scheme: NGramScheme::Token(1),
        measure: VectorMeasure::CosineTfIdf,
    }
}

/// One function per family: token vectors, a character measure, a
/// schema-based token measure, an n-gram graph model, dense semantic and
/// Word Mover's.
fn family_fns() -> [SimilarityFunction; 6] {
    let semantic = |measure| SimilarityFunction::Semantic {
        model: EmbeddingModel::FastText,
        measure,
        scope: SemanticScope::SchemaAgnostic,
    };
    [
        token_fn(),
        SimilarityFunction::SchemaBasedSyntactic {
            attribute: "name".into(),
            measure: SchemaBasedMeasure::Char(CharMeasure::Levenshtein),
        },
        SimilarityFunction::SchemaBasedSyntactic {
            attribute: "name".into(),
            measure: SchemaBasedMeasure::Token(TokenMeasure::Jaccard),
        },
        SimilarityFunction::SchemaAgnosticGraph {
            scheme: NGramScheme::Char(3),
            measure: GraphSimilarity::Value,
        },
        semantic(SemanticMeasure::Cosine),
        semantic(SemanticMeasure::WordMovers),
    ]
}

fn boot(f: &SimilarityFunction, kind: AlgorithmKind, threshold: f64) -> ErService {
    let d = er_datasets::Dataset::generate(er_datasets::DatasetId::D1, 0.02, 5);
    let cfg = ServiceConfig {
        k: 3,
        threshold,
        algorithm: kind,
        ..ServiceConfig::default()
    };
    ErService::load(&d.left, &d.right, f, cfg)
}

/// Apply one raw op: even selectors insert (a clone of a resident
/// profile's attributes under the next append id), odd selectors delete
/// the first live id at or after `pick`. Every delete's returned delta
/// must carry exactly the edges `neighbors` listed just before it.
fn step(s: &mut ErService, sel: u8, pick: u16) {
    let side = if sel & 2 == 0 {
        Side::Left
    } else {
        Side::Right
    };
    if sel & 1 == 0 {
        let donor_side = if sel & 4 == 0 { side } else { side.opposite() };
        let n = match donor_side {
            Side::Left => s.n_left(),
            Side::Right => s.n_right(),
        };
        let Some(donor) = s.profile(donor_side, pick as u32 % n.max(1)) else {
            return;
        };
        let mut p = donor.clone();
        p.id = s.next_id(side);
        s.insert(side, &p)
            .expect("insert with handed-out id succeeds");
    } else {
        let n = match side {
            Side::Left => s.n_left(),
            Side::Right => s.n_right(),
        };
        let start = pick as u32 % n.max(1);
        if let Some(id) = (0..n)
            .map(|d| (start + d) % n)
            .find(|&i| s.is_live(side, i))
        {
            let by_id = |mut edges: Vec<(u32, f64)>| {
                edges.sort_by_key(|&(other, _)| other);
                edges
            };
            let held = by_id(s.neighbors(side, id));
            let delta = s.remove(side, id).expect("live id removes");
            assert_eq!(
                by_id(delta.edges),
                held,
                "{side:?} {id}: removed edges differ from the ones held"
            );
        }
    }
}

/// Check both point queries against brute-force oracles over the whole
/// id space (tombstoned ids and one past the end included): `match_of`
/// against a scan of `matching()`, `neighbors(Right, _)` against a
/// gather over every left row, weight-descending then by left id.
fn assert_point_queries(s: &ErService) -> Result<(), TestCaseError> {
    let m = s.matching();
    for id in 0..=s.n_left() {
        let want = m.iter().find(|&(l, _)| l == id).map(|(_, r)| r);
        prop_assert_eq!(s.match_of(Side::Left, id), want, "left {}", id);
    }
    for id in 0..=s.n_right() {
        let want = m.iter().find(|&(_, r)| r == id).map(|(l, _)| l);
        prop_assert_eq!(s.match_of(Side::Right, id), want, "right {}", id);

        let mut gather: Vec<(u32, f64)> = (0..s.n_left())
            .filter_map(|l| s.store().weight_of(l, id).map(|w| (l, w)))
            .collect();
        gather.sort_by(|a, b| total_cmp_desc(&a.1, &b.1).then(a.0.cmp(&b.0)));
        prop_assert_eq!(s.neighbors(Side::Right, id), gather, "column {}", id);
    }
    Ok(())
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(12))]

    /// The incremental-UMC service (the fast path) tracks the full
    /// re-match after every operation, for one function per family.
    #[test]
    fn umc_service_tracks_full_rematch(ops in proptest::collection::vec((0u8..8, 0u16..512), 1..10)) {
        for f in family_fns() {
            let mut s = boot(&f, AlgorithmKind::Umc, 0.3);
            for &(sel, pick) in &ops {
                step(&mut s, sel, pick);
                prop_assert_eq!(s.matching(), s.full_rematch(), "{}", f.name());
                let m = s.matching();
                prop_assert!(m.is_unique_mapping());
                for (l, r) in m.iter() {
                    prop_assert!(s.is_live(Side::Left, l) && s.is_live(Side::Right, r),
                        "{}: matched a tombstoned record ({l},{r})", f.name());
                }
            }
        }
    }

    /// A replay-fallback algorithm behind the same trait sees the same
    /// guarantee (end-state check — replay recomputes per read).
    #[test]
    fn replay_service_tracks_full_rematch(ops in proptest::collection::vec((0u8..8, 0u16..512), 1..6)) {
        let mut s = boot(&token_fn(), AlgorithmKind::Krc, 0.3);
        for (sel, pick) in ops {
            step(&mut s, sel, pick);
        }
        prop_assert_eq!(s.matching(), s.full_rematch());
    }

    /// Point queries agree with the store after traffic: every neighbor
    /// edge is live on both endpoints and symmetric across sides.
    #[test]
    fn neighbors_stay_consistent(ops in proptest::collection::vec((0u8..8, 0u16..512), 1..8)) {
        let mut s = boot(&token_fn(), AlgorithmKind::Umc, 0.3);
        for (sel, pick) in ops {
            step(&mut s, sel, pick);
        }
        for l in 0..s.n_left() {
            for (r, w) in s.neighbors(Side::Left, l) {
                prop_assert!(s.is_live(Side::Right, r));
                prop_assert!(s.neighbors(Side::Right, r).contains(&(l, w)));
            }
        }
    }

    /// Point queries answer exactly what the whole-graph reads imply, for
    /// the array-backed partner lookup (UMC), the cached BAH search and
    /// the replay fallback (KRC).
    #[test]
    fn point_queries_match_brute_force(
        ops in proptest::collection::vec((0u8..8, 0u16..512), 1..8),
    ) {
        for kind in [AlgorithmKind::Umc, AlgorithmKind::Bah, AlgorithmKind::Krc] {
            let mut s = boot(&token_fn(), kind, 0.3);
            assert_point_queries(&s)?;
            for &(sel, pick) in &ops {
                step(&mut s, sel, pick);
                assert_point_queries(&s)?;
            }
        }
    }
}

/// Readers and a writer share one service behind a `std::sync::RwLock`.
/// The writer applies donor-clone inserts and removes; after each update
/// two reader threads issue `neighbors` on both sides and `match_of`
/// through `&self` at the same time. So after every write they race to
/// rebuild BAH's cached assignment and the store's lazy column index.
/// Every read sees a consistent snapshot (a match is mutual, a neighbor
/// edge is live at both ends), and the traffic ends on the full
/// re-match.
#[test]
fn concurrent_traffic_matches_full_rematch() {
    use std::sync::mpsc::channel;
    use std::sync::RwLock;

    const UPDATES: u32 = 40;
    const READS_PER_ROUND: u32 = 10;
    for kind in [AlgorithmKind::Umc, AlgorithmKind::Bah] {
        let svc = RwLock::new(boot(&token_fn(), kind, 0.3));
        // Lock-step rounds over channels force the interleaving: the
        // writer applies one update, then waits until both readers have
        // queried. A thread that panics disconnects its channels, which
        // ends the others instead of leaving them blocked.
        std::thread::scope(|scope| {
            let mut rounds = Vec::new();
            let mut dones = Vec::new();
            for reader in 0..2u32 {
                let (round_tx, round_rx) = channel::<u32>();
                let (done_tx, done_rx) = channel::<()>();
                rounds.push(round_tx);
                dones.push(done_rx);
                let svc = &svc;
                scope.spawn(move || {
                    while let Ok(round) = round_rx.recv() {
                        for i in 0..READS_PER_ROUND {
                            let s = svc.read().unwrap();
                            let side = if (i + reader) % 2 == 0 {
                                Side::Left
                            } else {
                                Side::Right
                            };
                            let n = match side {
                                Side::Left => s.n_left(),
                                Side::Right => s.n_right(),
                            };
                            let id = (round * 31 + i * 7 + reader * 13) % n.max(1);
                            for (other, _) in s.neighbors(side, id) {
                                assert!(
                                    s.is_live(side.opposite(), other),
                                    "{kind}: neighbor {other} of {side:?} {id} is tombstoned"
                                );
                            }
                            if let Some(partner) = s.match_of(side, id) {
                                assert_eq!(
                                    s.match_of(side.opposite(), partner),
                                    Some(id),
                                    "{kind}: match of {side:?} {id} is not mutual"
                                );
                            }
                        }
                        if done_tx.send(()).is_err() {
                            break;
                        }
                    }
                });
            }
            let svc = &svc;
            scope.spawn(move || {
                for round in 0..=UPDATES {
                    if round > 0 {
                        let i = round - 1;
                        step(
                            &mut svc.write().unwrap(),
                            (i % 8) as u8,
                            (i * 37 % 512) as u16,
                        );
                    }
                    if rounds.iter().any(|tx| tx.send(round).is_err())
                        || dones.iter().any(|rx| rx.recv().is_err())
                    {
                        return;
                    }
                }
            });
        });
        let s = svc.into_inner().unwrap();
        assert_eq!(
            s.matching(),
            s.full_rematch(),
            "{kind}: service diverged from the full re-match after concurrent traffic"
        );
    }
}
