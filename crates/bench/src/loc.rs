//! The non-test line count of each workspace crate: the size record a
//! change that claims less code cites (`experiments loc`).
//!
//! A file counts up to its first line that starts with `#[cfg(test)]`, so
//! a trailing test module and any test-only item after the code are left
//! out; blank lines and `//` comment lines (doc comments included) are
//! not counted.

use std::collections::BTreeMap;
use std::io;
use std::path::Path;

/// Non-test lines of one Rust source file's text.
pub fn non_test_lines(source: &str) -> usize {
    source
        .lines()
        .map(str::trim)
        .take_while(|line| !line.starts_with("#[cfg(test)]"))
        .filter(|line| !line.is_empty() && !line.starts_with("//"))
        .count()
}

/// Non-test lines of every `src/**/*.rs` file of each crate directory
/// under `crates_dir`, keyed by the directory's name.
///
/// # Errors
///
/// Returns the first error reading a directory or file.
pub fn crate_lines(crates_dir: &Path) -> io::Result<BTreeMap<String, usize>> {
    let mut counts = BTreeMap::new();
    for entry in std::fs::read_dir(crates_dir)? {
        let path = entry?.path();
        let src = path.join("src");
        if !src.is_dir() {
            continue;
        }
        let name = path.file_name().unwrap_or_default().to_string_lossy();
        counts.insert(name.into_owned(), source_lines(&src)?);
    }
    Ok(counts)
}

fn source_lines(dir: &Path) -> io::Result<usize> {
    let mut total = 0;
    for entry in std::fs::read_dir(dir)? {
        let path = entry?.path();
        if path.is_dir() {
            total += source_lines(&path)?;
        } else if path.extension().is_some_and(|ext| ext == "rs") {
            total += non_test_lines(&std::fs::read_to_string(&path)?);
        }
    }
    Ok(total)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn counts_code_lines_up_to_the_first_test_attribute() {
        let source = "\
//! Module docs.

use std::fmt; // a trailing comment keeps the line

/// Doc comment.
pub fn f() -> u8 {
    // inner comment
        1
}
    #[cfg(test)] // test-only item: the count stops here
fn oracle() {}

#[cfg(test)]
mod tests {
    #[test]
    fn t() {}
}
";
        // `use`, `pub fn f() -> u8 {`, `1` and `}`.
        assert_eq!(non_test_lines(source), 4);
        assert_eq!(non_test_lines(""), 0);
        assert_eq!(non_test_lines("fn g() {}\n"), 1);
    }
}
