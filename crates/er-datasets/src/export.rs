//! Export generated datasets for external tools.
//!
//! Formats follow the conventions of public ER benchmark repositories:
//! one TSV per collection with the schema as header and one row per
//! profile (missing attributes are empty cells), plus a two-column ground
//! truth TSV of matching id pairs.

use std::io::{self, BufWriter, Write};
use std::path::Path;

use crate::dataset::Dataset;
use crate::profile::EntityCollection;

/// Write one collection as TSV: `id` column plus one column per schema
/// attribute. Tabs/newlines inside values are replaced with spaces.
pub fn write_collection<W: Write>(coll: &EntityCollection, w: W) -> io::Result<()> {
    let mut out = BufWriter::new(w);
    write!(out, "id")?;
    for a in &coll.attribute_names {
        write!(out, "\t{a}")?;
    }
    writeln!(out)?;
    for p in &coll.profiles {
        write!(out, "{}", p.id)?;
        for a in &coll.attribute_names {
            let v = p.value(a).unwrap_or("");
            write!(out, "\t{}", sanitize(v))?;
        }
        writeln!(out)?;
    }
    out.flush()
}

fn sanitize(v: &str) -> String {
    v.replace(['\t', '\n', '\r'], " ")
}

/// Write the ground truth as `left_id <TAB> right_id` lines.
pub fn write_ground_truth<W: Write>(dataset: &Dataset, w: W) -> io::Result<()> {
    let mut out = BufWriter::new(w);
    writeln!(out, "left_id\tright_id")?;
    for &(l, r) in dataset.ground_truth.pairs() {
        writeln!(out, "{l}\t{r}")?;
    }
    out.flush()
}

/// Export a full dataset into a directory as `<label>_left.tsv`,
/// `<label>_right.tsv` and `<label>_truth.tsv`.
pub fn export_dataset(dataset: &Dataset, dir: &Path) -> io::Result<()> {
    std::fs::create_dir_all(dir)?;
    let label = dataset.label();
    write_collection(
        &dataset.left,
        std::fs::File::create(dir.join(format!("{label}_left.tsv")))?,
    )?;
    write_collection(
        &dataset.right,
        std::fs::File::create(dir.join(format!("{label}_right.tsv")))?,
    )?;
    write_ground_truth(
        dataset,
        std::fs::File::create(dir.join(format!("{label}_truth.tsv")))?,
    )?;
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::spec::DatasetId;

    #[test]
    fn collection_tsv_has_header_and_rows() {
        let d = Dataset::generate(DatasetId::D1, 0.03, 1);
        let mut buf = Vec::new();
        write_collection(&d.left, &mut buf).unwrap();
        let text = String::from_utf8(buf).unwrap();
        let mut lines = text.lines();
        let header = lines.next().unwrap();
        assert!(header.starts_with("id\tname\t"));
        let n_cols = header.split('\t').count();
        let mut rows = 0;
        for line in lines {
            assert_eq!(line.split('\t').count(), n_cols, "ragged row: {line}");
            rows += 1;
        }
        assert_eq!(rows, d.left.len());
    }

    #[test]
    fn ground_truth_tsv_lists_all_pairs() {
        let d = Dataset::generate(DatasetId::D2, 0.03, 2);
        let mut buf = Vec::new();
        write_ground_truth(&d, &mut buf).unwrap();
        let text = String::from_utf8(buf).unwrap();
        assert_eq!(text.lines().count(), d.ground_truth.len() + 1);
    }

    #[test]
    fn export_writes_three_files() {
        let dir = std::env::temp_dir().join("ccer-export-test");
        let d = Dataset::generate(DatasetId::D1, 0.02, 3);
        export_dataset(&d, &dir).unwrap();
        for suffix in ["left", "right", "truth"] {
            let p = dir.join(format!("D1_{suffix}.tsv"));
            assert!(p.exists(), "{} missing", p.display());
            std::fs::remove_file(p).ok();
        }
        std::fs::remove_dir(&dir).ok();
    }
}
