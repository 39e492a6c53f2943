//! `match_edges` — run a bipartite matching algorithm on an edge-list file.
//!
//! The adoption-path CLI: feed it the scored candidate pairs your own
//! pipeline produced, get back the resolved pairs.
//!
//! ```text
//! match_edges <edges.tsv|graph.slab> [--algorithm UMC] [--threshold 0.5] [--seed N]
//! ```
//!
//! Input: `left <TAB> right <TAB> weight` lines (optionally a
//! `# nodes <TAB> n1 <TAB> n2` header), or a columnar store written by
//! `er_core::write_csr` or a sharded build (recognized by its `CCERSLAB`
//! magic, and swept straight off the file). Output: `left <TAB> right`
//! matched pairs on stdout.
//!
//! Besides the paper's eight algorithms, `--algorithm` accepts `MCF`, the
//! exact max-weight oracle (sparse min-cost flow, `O(n+m)` memory).

use std::io::Read;
use std::path::{Path, PathBuf};

use er_core::io::load;
use er_core::MappedCsr;
use er_matchers::{mcf_matching, AlgorithmConfig, AlgorithmKind, BahConfig, PreparedGraph};

/// What to run: one of the evaluated eight, or the exact oracle.
enum Chosen {
    Evaluated(AlgorithmKind),
    McfOracle,
}

impl Chosen {
    fn parse(name: &str) -> Option<Chosen> {
        if name.eq_ignore_ascii_case("MCF") {
            return Some(Chosen::McfOracle);
        }
        AlgorithmKind::from_name(name).map(Chosen::Evaluated)
    }

    fn name(&self) -> &'static str {
        match self {
            Chosen::Evaluated(k) => k.name(),
            Chosen::McfOracle => "MCF (exact, sparse)",
        }
    }
}

fn main() {
    let mut args = std::env::args().skip(1);
    let mut path: Option<PathBuf> = None;
    let mut algorithm = Chosen::Evaluated(AlgorithmKind::Umc);
    let mut threshold = 0.5f64;
    let mut seed = 0x5eed_cafe_u64;

    while let Some(a) = args.next() {
        match a.as_str() {
            "--algorithm" | "-a" => {
                let name = args
                    .next()
                    .unwrap_or_else(|| die("--algorithm needs a value"));
                algorithm = Chosen::parse(&name)
                    .unwrap_or_else(|| die(&format!("unknown algorithm {name} (use CNC/RSR/RCA/BAH/BMC/EXC/KRC/UMC, or MCF for the exact oracle)")));
            }
            "--threshold" | "-t" => {
                threshold = args
                    .next()
                    .and_then(|v| v.parse().ok())
                    .unwrap_or_else(|| die("--threshold needs a number"));
            }
            "--seed" => {
                seed = args
                    .next()
                    .and_then(|v| v.parse().ok())
                    .unwrap_or_else(|| die("--seed needs an integer"));
            }
            "--help" | "-h" => {
                eprintln!(
                    "usage: match_edges <edges.tsv|graph.slab> [--algorithm UMC] [--threshold 0.5] [--seed N]"
                );
                return;
            }
            other if path.is_none() && !other.starts_with('-') => {
                path = Some(PathBuf::from(other));
            }
            other => die(&format!("unexpected argument {other}")),
        }
    }
    let path = path.unwrap_or_else(|| die("missing input file (see --help)"));

    let config = AlgorithmConfig {
        bah: BahConfig {
            seed,
            ..BahConfig::default()
        },
        ..AlgorithmConfig::default()
    };
    let matching = if is_store(&path) {
        let mapped = MappedCsr::open(&path)
            .unwrap_or_else(|e| die(&format!("cannot open {}: {e}", path.display())));
        announce(
            mapped.n_left(),
            mapped.n_right(),
            mapped.n_edges(),
            &algorithm,
            threshold,
        );
        match algorithm {
            Chosen::Evaluated(kind) => {
                config.run(kind, &PreparedGraph::from_mapped(&mapped), threshold)
            }
            Chosen::McfOracle => mcf_matching(&mapped.to_csr().to_graph(), threshold),
        }
    } else {
        let graph =
            load(&path).unwrap_or_else(|e| die(&format!("cannot load {}: {e}", path.display())));
        announce(
            graph.n_left(),
            graph.n_right(),
            graph.n_edges(),
            &algorithm,
            threshold,
        );
        match algorithm {
            Chosen::Evaluated(kind) => config.run(kind, &PreparedGraph::new(&graph), threshold),
            Chosen::McfOracle => mcf_matching(&graph, threshold),
        }
    };
    use std::io::Write;
    let stdout = std::io::stdout();
    let mut out = std::io::BufWriter::new(stdout.lock());
    for (l, r) in matching.iter() {
        writeln!(out, "{l}\t{r}").expect("write to stdout");
    }
    out.flush().expect("flush stdout");
    eprintln!("{} pairs matched", matching.len());
}

/// Whether `path` starts with the columnar store's magic.
fn is_store(path: &Path) -> bool {
    let mut magic = [0u8; 8];
    std::fs::File::open(path)
        .and_then(|mut f| f.read_exact(&mut magic))
        .is_ok()
        && &magic == b"CCERSLAB"
}

fn announce(n_left: u32, n_right: u32, n_edges: usize, algorithm: &Chosen, threshold: f64) {
    eprintln!(
        "loaded {n_left}x{n_right} graph with {n_edges} edges; running {} at t = {threshold}",
        algorithm.name()
    );
}

fn die(msg: &str) -> ! {
    eprintln!("match_edges: {msg}");
    std::process::exit(2);
}
