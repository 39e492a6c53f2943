//! Similarity graph persistence.
//!
//! Two formats:
//!
//! * a **text edge list** (`left <TAB> right <TAB> weight` per line, `#`
//!   comments) for interoperability with external pipelines — the format
//!   most ER toolkits exchange candidate pairs in;
//! * a **compact binary** format (magic + sizes + fixed-width edge
//!   records, little-endian) for fast reload of large graphs.

use std::io::{self, BufRead, BufReader, BufWriter, Read, Write};
use std::path::Path;

use crate::error::CoreError;
use crate::graph::{GraphBuilder, SimilarityGraph};

/// Magic bytes of the binary graph format ("CCER" + version 1).
const MAGIC: &[u8; 8] = b"CCERGR\x00\x01";

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

/// Write a graph in the compact binary format.
pub fn write_binary<W: Write>(g: &SimilarityGraph, w: W) -> Result<(), IoError> {
    let mut out = BufWriter::new(w);
    out.write_all(MAGIC)?;
    out.write_all(&g.n_left().to_le_bytes())?;
    out.write_all(&g.n_right().to_le_bytes())?;
    out.write_all(&(g.n_edges() as u64).to_le_bytes())?;
    for e in g.edges() {
        out.write_all(&e.left.to_le_bytes())?;
        out.write_all(&e.right.to_le_bytes())?;
        out.write_all(&e.weight.to_le_bytes())?;
    }
    out.flush()?;
    Ok(())
}

/// Read a graph from the compact binary format, validating every edge.
pub fn read_binary<R: Read>(r: R) -> Result<SimilarityGraph, IoError> {
    let mut input = BufReader::new(r);
    let mut magic = [0u8; 8];
    input.read_exact(&mut magic)?;
    if &magic != MAGIC {
        return Err(IoError::Format("bad magic: not a ccer graph file".into()));
    }
    let n_left = read_u32(&mut input)?;
    let n_right = read_u32(&mut input)?;
    let n_edges = read_u64(&mut input)?;
    // Sanity cap on the header. It still admits counts far beyond any real
    // file, so nothing is reserved from it: a lying header must run into a
    // truncated body (`IoError::Io`), not a multi-terabyte allocation.
    if n_edges > (n_left as u64) * (n_right as u64) {
        return Err(IoError::Format(format!(
            "edge count {n_edges} exceeds the {n_left}x{n_right} Cartesian product"
        )));
    }
    let mut b = GraphBuilder::new(n_left, n_right);
    for _ in 0..n_edges {
        let l = read_u32(&mut input)?;
        let r = read_u32(&mut input)?;
        let mut wb = [0u8; 8];
        input.read_exact(&mut wb)?;
        b.add_edge(l, r, f64::from_le_bytes(wb))?;
    }
    Ok(b.build())
}

fn read_u32<R: Read>(r: &mut R) -> Result<u32, IoError> {
    let mut b = [0u8; 4];
    r.read_exact(&mut b)?;
    Ok(u32::from_le_bytes(b))
}

fn read_u64<R: Read>(r: &mut R) -> Result<u64, IoError> {
    let mut b = [0u8; 8];
    r.read_exact(&mut b)?;
    Ok(u64::from_le_bytes(b))
}

/// Save a graph to a path, picking the format by extension: `.bin` →
/// binary, anything else → text edge list.
pub fn save(g: &SimilarityGraph, path: &Path) -> Result<(), IoError> {
    let file = std::fs::File::create(path)?;
    if path.extension().is_some_and(|e| e == "bin") {
        write_binary(g, file)
    } else {
        write_edge_list(g, file)
    }
}

/// Load a graph from a path, picking the format by extension.
pub fn load(path: &Path) -> Result<SimilarityGraph, IoError> {
    let file = std::fs::File::open(path)?;
    if path.extension().is_some_and(|e| e == "bin") {
        read_binary(file)
    } else {
        read_edge_list(file)
    }
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
    fn binary_round_trip() {
        let g = sample();
        let mut buf = Vec::new();
        write_binary(&g, &mut buf).unwrap();
        let back = read_binary(&buf[..]).unwrap();
        assert_eq!(back.n_edges(), g.n_edges());
        assert_eq!(back.weight_of(2, 1), Some(1.0));
    }

    #[test]
    fn binary_rejects_corruption() {
        let g = sample();
        let mut buf = Vec::new();
        write_binary(&g, &mut buf).unwrap();
        // Wrong magic.
        let mut bad = buf.clone();
        bad[0] = b'X';
        assert!(matches!(read_binary(&bad[..]), Err(IoError::Format(_))));
        // Truncated payload.
        let short = &buf[..buf.len() - 4];
        assert!(matches!(read_binary(short), Err(IoError::Io(_))));
        // Absurd edge count.
        let mut huge = buf.clone();
        huge[16..24].copy_from_slice(&u64::MAX.to_le_bytes());
        assert!(matches!(read_binary(&huge[..]), Err(IoError::Format(_))));
        // A 28-byte file whose header passes the cap (u32::MAX x u32::MAX,
        // 2^40 edges) and half an edge: the truncated body is the error,
        // not an up-front reservation of 2^40 edges that aborts.
        let mut lying = MAGIC.to_vec();
        lying.extend_from_slice(&u32::MAX.to_le_bytes());
        lying.extend_from_slice(&u32::MAX.to_le_bytes());
        lying.extend_from_slice(&(1u64 << 40).to_le_bytes());
        lying.extend_from_slice(&0u32.to_le_bytes());
        assert_eq!(lying.len(), 28);
        assert!(matches!(read_binary(&lying[..]), Err(IoError::Io(_))));
    }

    #[test]
    fn save_load_by_extension() {
        let dir = std::env::temp_dir().join("ccer-io-test");
        std::fs::create_dir_all(&dir).unwrap();
        let g = sample();
        for name in ["g.tsv", "g.bin"] {
            let path = dir.join(name);
            save(&g, &path).unwrap();
            let back = load(&path).unwrap();
            assert_eq!(back.n_edges(), g.n_edges(), "{name}");
            std::fs::remove_file(&path).ok();
        }
    }
}
