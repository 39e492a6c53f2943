//! Records the toolchain and source revision the benchmark was built from,
//! for the host stamp every record carries.

use std::path::Path;
use std::process::Command;

fn output_of(cmd: &str, args: &[&str]) -> Option<String> {
    let out = Command::new(cmd).args(args).output().ok()?;
    if !out.status.success() {
        return None;
    }
    let s = String::from_utf8(out.stdout).ok()?;
    Some(s.trim().to_string()).filter(|s| !s.is_empty())
}

/// Rebuild the stamp when `path` changes; a missing file is skipped, as
/// cargo would otherwise rerun this script on every build.
fn watch(path: &Path) {
    if path.exists() {
        println!("cargo:rerun-if-changed={}", path.display());
    }
}

fn main() {
    println!("cargo:rerun-if-changed=build.rs");
    let rustc = std::env::var("RUSTC").unwrap_or_else(|_| "rustc".into());
    let version = output_of(&rustc, &["--version"]).unwrap_or_else(|| "unknown".into());
    // Only ask git when the repository root is itself a git checkout, so a
    // plain source tree nested in some other repository reads "unknown".
    let root = Path::new(env!("CARGO_MANIFEST_DIR")).join("..");
    let root_s = root.to_string_lossy();
    let mut rev = None;
    if root.join(".git").exists() {
        rev = output_of("git", &["-C", &root_s, "rev-parse", "HEAD"]);
        // Every move of HEAD (commit, checkout, reset) rewrites HEAD, its
        // reflog or the branch ref it names, so the stamp follows it.
        if let Some(dir) = output_of("git", &["-C", &root_s, "rev-parse", "--absolute-git-dir"]) {
            let dir = Path::new(&dir);
            watch(&dir.join("HEAD"));
            watch(&dir.join("logs").join("HEAD"));
            watch(&dir.join("packed-refs"));
            if let Some(branch) = output_of("git", &["-C", &root_s, "symbolic-ref", "-q", "HEAD"]) {
                watch(&dir.join(branch));
            }
        }
    }
    let rev = rev.unwrap_or_else(|| "unknown".into());
    println!("cargo:rustc-env=PERFBENCH_RUSTC={version}");
    println!("cargo:rustc-env=PERFBENCH_GIT_REV={rev}");
}
