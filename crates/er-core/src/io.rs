//! Similarity graph persistence as a **text edge list** (`left <TAB>
//! right <TAB> weight` per line, `#` comments) for interoperability with
//! external pipelines — the format most ER toolkits exchange candidate
//! pairs in. The one binary graph format is the columnar store
//! ([`crate::store`]).

use std::io::{self, BufRead, BufReader, BufWriter, Read, Write};
use std::path::Path;

use crate::error::CoreError;
use crate::graph::{GraphBuilder, SimilarityGraph};

/// Errors raised by graph (de)serialization.
#[derive(Debug)]
pub enum IoError {
    /// Underlying I/O failure.
    Io(io::Error),
    /// Structural or numeric validation failure.
    Invalid(CoreError),
    /// The input is not in the expected format.
    Format(String),
}

impl std::fmt::Display for IoError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            IoError::Io(e) => write!(f, "i/o error: {e}"),
            IoError::Invalid(e) => write!(f, "invalid graph data: {e}"),
            IoError::Format(m) => write!(f, "format error: {m}"),
        }
    }
}

impl std::error::Error for IoError {}

impl From<io::Error> for IoError {
    fn from(e: io::Error) -> Self {
        IoError::Io(e)
    }
}

impl From<CoreError> for IoError {
    fn from(e: CoreError) -> Self {
        IoError::Invalid(e)
    }
}

/// Write a graph as a text edge list with a size header comment.
pub fn write_edge_list<W: Write>(g: &SimilarityGraph, w: W) -> Result<(), IoError> {
    let mut out = BufWriter::new(w);
    writeln!(out, "# ccer edge list")?;
    writeln!(out, "# nodes\t{}\t{}", g.n_left(), g.n_right())?;
    for e in g.edges() {
        writeln!(out, "{}\t{}\t{}", e.left, e.right, e.weight)?;
    }
    out.flush()?;
    Ok(())
}

/// Read a text edge list. Collection sizes come from the `# nodes` header
/// when present, otherwise from the maximal ids seen; without a header an
/// id of `u32::MAX` leaves no room for its size and is a format error.
pub fn read_edge_list<R: Read>(r: R) -> Result<SimilarityGraph, IoError> {
    let reader = BufReader::new(r);
    let mut triples: Vec<(u32, u32, f64)> = Vec::new();
    let mut sizes: Option<(u32, u32)> = None;
    // First line carrying an id of u32::MAX, whose size `id + 1` overflows.
    let mut max_id_line: Option<usize> = None;
    for (lineno, line) in reader.lines().enumerate() {
        let line = line?;
        let line = line.trim();
        if line.is_empty() {
            continue;
        }
        if let Some(rest) = line.strip_prefix('#') {
            let mut parts = rest.split_whitespace();
            if parts.next() == Some("nodes") {
                let n1 = parse(parts.next(), lineno, "left size")?;
                let n2 = parse(parts.next(), lineno, "right size")?;
                sizes = Some((n1, n2));
            }
            continue;
        }
        let mut parts = line.split_whitespace();
        let l: u32 = parse(parts.next(), lineno, "left id")?;
        let r: u32 = parse(parts.next(), lineno, "right id")?;
        let w: f64 = parse(parts.next(), lineno, "weight")?;
        if l.max(r) == u32::MAX && max_id_line.is_none() {
            max_id_line = Some(lineno);
        }
        triples.push((l, r, w));
    }
    let (n1, n2) = match (sizes, max_id_line) {
        (Some(sizes), _) => sizes,
        (None, Some(lineno)) => {
            return Err(IoError::Format(format!(
                "line {}: id {} exceeds the largest collection size; add a `# nodes` header",
                lineno + 1,
                u32::MAX
            )))
        }
        (None, None) => {
            let n1 = triples.iter().map(|t| t.0 + 1).max().unwrap_or(0);
            let n2 = triples.iter().map(|t| t.1 + 1).max().unwrap_or(0);
            (n1, n2)
        }
    };
    let mut b = GraphBuilder::with_capacity(n1, n2, triples.len());
    for (l, r, w) in triples {
        b.add_edge(l, r, w)?;
    }
    Ok(b.build())
}

fn parse<T: std::str::FromStr>(tok: Option<&str>, lineno: usize, what: &str) -> Result<T, IoError> {
    tok.ok_or_else(|| IoError::Format(format!("line {}: missing {what}", lineno + 1)))?
        .parse()
        .map_err(|_| IoError::Format(format!("line {}: invalid {what}", lineno + 1)))
}

/// Save a graph to a path as a text edge list.
pub fn save(g: &SimilarityGraph, path: &Path) -> Result<(), IoError> {
    write_edge_list(g, std::fs::File::create(path)?)
}

/// Load a graph from a text edge list at a path.
pub fn load(path: &Path) -> Result<SimilarityGraph, IoError> {
    read_edge_list(std::fs::File::open(path)?)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample() -> SimilarityGraph {
        let mut b = GraphBuilder::new(3, 4);
        b.add_edge(0, 0, 0.9).unwrap();
        b.add_edge(1, 3, 0.25).unwrap();
        b.add_edge(2, 1, 1.0).unwrap();
        b.build()
    }

    #[test]
    fn edge_list_round_trip() {
        let g = sample();
        let mut buf = Vec::new();
        write_edge_list(&g, &mut buf).unwrap();
        let back = read_edge_list(&buf[..]).unwrap();
        assert_eq!(back.n_left(), 3);
        assert_eq!(back.n_right(), 4);
        assert_eq!(back.n_edges(), 3);
        assert_eq!(back.weight_of(1, 3), Some(0.25));
    }

    #[test]
    fn edge_list_without_header_infers_sizes() {
        let text = "0\t0\t0.5\n2\t1\t0.75\n";
        let g = read_edge_list(text.as_bytes()).unwrap();
        assert_eq!(g.n_left(), 3);
        assert_eq!(g.n_right(), 2);
    }

    #[test]
    fn edge_list_rejects_garbage() {
        assert!(matches!(
            read_edge_list("0\tx\t0.5".as_bytes()),
            Err(IoError::Format(_))
        ));
        assert!(matches!(
            read_edge_list("0\t0".as_bytes()),
            Err(IoError::Format(_))
        ));
        // Out-of-range weight fails validation, not parsing.
        assert!(matches!(
            read_edge_list("0\t0\t7.5".as_bytes()),
            Err(IoError::Invalid(_))
        ));
        // Without a header, an id of u32::MAX leaves no size (id + 1
        // overflows); the error names the line.
        match read_edge_list("0\t0\t0.5\n0\t4294967295\t0.5\n".as_bytes()) {
            Err(IoError::Format(m)) => assert!(m.starts_with("line 2:"), "{m}"),
            other => panic!("expected a format error, got {other:?}"),
        }
    }

    #[test]
    fn save_load_round_trip() {
        // Removed once the test passes; a failing run leaves it, and its
        // captured output names it.
        let dir = std::env::temp_dir().join(format!("ccer-io-test-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        eprintln!("scratch directory {}", dir.display());
        let g = sample();
        let path = dir.join("g.tsv");
        save(&g, &path).unwrap();
        let back = load(&path).unwrap();
        assert_eq!(back.n_edges(), g.n_edges());
        std::fs::remove_dir_all(&dir).unwrap();
    }
}
