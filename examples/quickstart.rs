//! Quickstart: match two tiny product catalogs end to end.
//!
//! ```text
//! cargo run --example quickstart
//! ```
//!
//! Demonstrates the three core steps of the library on hand-written data:
//! build a bipartite similarity graph, run a matching algorithm, evaluate
//! against a ground truth.

use ccer::core::{GraphBuilder, GroundTruth};
use ccer::eval::evaluate;
use ccer::matchers::{Matcher, PreparedGraph, Umc};
use ccer::textsim::{SchemaBasedMeasure, TokenMeasure};

fn main() {
    // Two clean product catalogs.
    let shop_a = [
        "apple iphone 12 pro 128gb",
        "samsung galaxy s21 ultra",
        "google pixel 5 black",
        "nokia 3310 classic",
    ];
    let shop_b = [
        "galaxy s21 ultra by samsung",
        "iphone 12 pro apple 128 gb",
        "pixel 5 google smartphone",
        "sony xperia 10",
    ];
    // Known duplicates: (index in A, index in B).
    let truth = GroundTruth::new(vec![(0, 1), (1, 0), (2, 2)]);

    // 1. Score every cross pair with a token measure and build the graph.
    let measure = SchemaBasedMeasure::Token(TokenMeasure::Jaccard);
    let mut builder = GraphBuilder::new(shop_a.len() as u32, shop_b.len() as u32);
    for (i, a) in shop_a.iter().enumerate() {
        for (j, b) in shop_b.iter().enumerate() {
            let w = measure.similarity(a, b);
            if w > 0.0 {
                builder.add_edge(i as u32, j as u32, w).expect("valid edge");
            }
        }
    }
    let graph = builder.build();
    println!(
        "similarity graph: {} x {} nodes, {} edges",
        graph.n_left(),
        graph.n_right(),
        graph.n_edges()
    );

    // 2. Run Unique Mapping Clustering with a similarity threshold.
    let prepared = PreparedGraph::new(&graph);
    let matching = Umc.run(&prepared, 0.3);
    println!("\nmatched pairs (t = 0.3):");
    for (l, r) in matching.iter() {
        println!("  {:<28} <-> {}", shop_a[l as usize], shop_b[r as usize]);
    }

    // 3. Evaluate.
    let m = evaluate(&matching, &truth);
    println!(
        "\nprecision = {:.2}, recall = {:.2}, F1 = {:.2}",
        m.precision, m.recall, m.f1
    );
    assert_eq!(m.f1, 1.0, "the quickstart data is easy");
}
