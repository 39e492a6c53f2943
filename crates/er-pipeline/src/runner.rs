//! Parallel corpus generation: every similarity function over one dataset.

use er_core::par;
use er_datasets::Dataset;

use crate::config::PipelineConfig;
use crate::graphgen::{build_graph, GeneratedGraph};
use crate::taxonomy::SimilarityFunction;

/// Generate the graphs of all `functions` over `dataset`, fanning work out
/// over `cfg.effective_threads()` workers. Results preserve the catalog
/// order regardless of completion order.
///
/// The thread budget is **divided**, not multiplied, with the per-graph
/// construction engine: with `T` effective threads and `W = min(T, n)`
/// corpus workers, each `build_graph` call runs with `⌊T / W⌋` (at least
/// one) intra-graph threads. Full catalogs therefore keep today's
/// one-thread-per-function layout, while a short function list (or a
/// single graph) lets construction itself use the whole budget. Results
/// are independent of either thread count.
pub fn generate_corpus(
    dataset: &Dataset,
    functions: &[SimilarityFunction],
    cfg: &PipelineConfig,
) -> Vec<GeneratedGraph> {
    let workers = cfg.effective_threads().min(functions.len());
    let inner_cfg = cfg.divided_among(workers);
    par::map_indexed(
        functions.len(),
        workers,
        || (),
        |_, idx| {
            let function = functions[idx].clone();
            let graph = build_graph(dataset, &function, &inner_cfg);
            GeneratedGraph { function, graph }
        },
    )
}

#[cfg(test)]
mod tests {
    use super::*;
    use er_datasets::{DatasetId, DatasetSpec};

    #[test]
    fn corpus_preserves_order_and_parallel_matches_serial() {
        let dataset = er_datasets::Dataset::generate(DatasetId::D1, 0.02, 9);
        let spec = DatasetSpec::of(DatasetId::D1);
        // Small sub-catalog to keep the test quick.
        let functions: Vec<SimilarityFunction> = SimilarityFunction::catalog(&spec, false)
            .into_iter()
            .take(8)
            .collect();
        let cfg_parallel = PipelineConfig::default();
        let cfg_serial = PipelineConfig { threads: 1 };
        let par = generate_corpus(&dataset, &functions, &cfg_parallel);
        let ser = generate_corpus(&dataset, &functions, &cfg_serial);
        assert_eq!(par.len(), functions.len());
        for (p, s) in par.iter().zip(&ser) {
            assert_eq!(p.function, s.function);
            assert_eq!(p.graph.n_edges(), s.graph.n_edges());
        }
        for (g, f) in par.iter().zip(&functions) {
            assert_eq!(&g.function, f, "catalog order preserved");
        }
    }

    #[test]
    fn empty_function_list() {
        let dataset = er_datasets::Dataset::generate(DatasetId::D1, 0.02, 9);
        let out = generate_corpus(&dataset, &[], &PipelineConfig::default());
        assert!(out.is_empty());
    }
}
