//! `match_edges` — run a bipartite matching algorithm on an edge-list file.
//!
//! The adoption-path CLI: feed it the scored candidate pairs your own
//! pipeline produced, get back the resolved pairs.
//!
//! ```text
//! match_edges <edges.tsv|edges.bin> [--algorithm UMC] [--threshold 0.5] [--seed N]
//! ```
//!
//! Input: `left <TAB> right <TAB> weight` lines (optionally a
//! `# nodes <TAB> n1 <TAB> n2` header), or the binary format written by
//! `er_core::io`. Output: `left <TAB> right` matched pairs on stdout.
//!
//! Besides the paper's eight algorithms, `--algorithm` accepts `MCF`, the
//! exact max-weight oracle (sparse min-cost flow, `O(n+m)` memory).

use std::path::PathBuf;

use er_core::io::load;
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
                    "usage: match_edges <edges.tsv|edges.bin> [--algorithm UMC] [--threshold 0.5] [--seed N]"
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

    let graph =
        load(&path).unwrap_or_else(|e| die(&format!("cannot load {}: {e}", path.display())));
    eprintln!(
        "loaded {}x{} graph with {} edges; running {} at t = {threshold}",
        graph.n_left(),
        graph.n_right(),
        graph.n_edges(),
        algorithm.name()
    );
    let matching = match algorithm {
        Chosen::Evaluated(kind) => {
            let prepared = PreparedGraph::new(&graph);
            let config = AlgorithmConfig {
                bah: BahConfig {
                    seed,
                    ..BahConfig::default()
                },
                ..AlgorithmConfig::default()
            };
            config.run(kind, &prepared, threshold)
        }
        Chosen::McfOracle => mcf_matching(&graph, threshold),
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

fn die(msg: &str) -> ! {
    eprintln!("match_edges: {msg}");
    std::process::exit(2);
}
