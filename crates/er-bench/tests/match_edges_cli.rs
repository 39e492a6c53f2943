//! The `match_edges` CLI reads a columnar store as well as a TSV edge
//! list: Figure 1 written by `write_csr` resolves to the same UMC and
//! MCF pairs as its TSV twin, and a truncated store exits 2.

use std::path::{Path, PathBuf};
use std::process::Command;

use er_core::{write_csr, CsrGraph, GraphBuilder};

/// The graph of the paper's Figure 1 as a TSV edge list.
const FIGURE1_TSV: &str =
    "# nodes\t5\t4\n0\t0\t0.6\n4\t0\t0.9\n4\t2\t0.6\n1\t1\t0.7\n2\t3\t0.6\n3\t2\t0.3\n";

/// A per-process scratch directory, removed when the test passes.
struct ScratchDir(PathBuf);

impl Drop for ScratchDir {
    fn drop(&mut self) {
        if !std::thread::panicking() {
            let _ = std::fs::remove_dir_all(&self.0);
        }
    }
}

/// Run `match_edges` on `input`; returns its exit code and stdout.
fn match_edges(input: &Path, algorithm: &str) -> (Option<i32>, String) {
    let out = Command::new(env!("CARGO_BIN_EXE_match_edges"))
        .arg(input)
        .args(["--algorithm", algorithm, "--threshold", "0.5"])
        .output()
        .expect("match_edges runs");
    (out.status.code(), String::from_utf8(out.stdout).unwrap())
}

#[test]
fn a_store_file_matches_like_its_tsv_twin() {
    let dir =
        ScratchDir(std::env::temp_dir().join(format!("ccer-match-edges-{}", std::process::id())));
    std::fs::create_dir_all(&dir.0).unwrap();
    let tsv = dir.0.join("fig1.tsv");
    std::fs::write(&tsv, FIGURE1_TSV).unwrap();
    let mut b = GraphBuilder::new(5, 4);
    for (l, r, w) in [
        (0, 0, 0.6),
        (4, 0, 0.9),
        (4, 2, 0.6),
        (1, 1, 0.7),
        (2, 3, 0.6),
        (3, 2, 0.3),
    ] {
        b.add_edge(l, r, w).unwrap();
    }
    let store = dir.0.join("fig1.slab");
    write_csr(&CsrGraph::from_graph(&b.build()), &store).unwrap();

    for (algorithm, want) in [
        ("UMC", "1\t1\n2\t3\n4\t0\n"),
        ("MCF", "0\t0\n1\t1\n2\t3\n4\t2\n"),
    ] {
        assert_eq!(match_edges(&tsv, algorithm), (Some(0), want.to_string()));
        assert_eq!(
            match_edges(&store, algorithm),
            (Some(0), want.to_string()),
            "{algorithm} on the store"
        );
    }

    let bytes = std::fs::read(&store).unwrap();
    let truncated = dir.0.join("truncated.slab");
    std::fs::write(&truncated, &bytes[..bytes.len() - 1]).unwrap();
    assert_eq!(match_edges(&truncated, "UMC").0, Some(2));
}
