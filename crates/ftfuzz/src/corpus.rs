//! The seed corpus: previously interesting seeds, checked in under
//! `tests/fuzz_corpus/` and replayed as regression tests.
//!
//! Format: one seed per line, decimal or `0x`-prefixed hex; `#` starts
//! a comment (full-line or trailing); blank lines are ignored. Comments
//! are where a seed's story lives ("caught the unretried COMMIT put"),
//! so the file stays reviewable as the corpus grows.

use std::path::Path;

/// Parse a corpus file's text. Returns the seeds in file order.
pub fn parse_seeds(text: &str) -> Result<Vec<u64>, String> {
    let mut seeds = Vec::new();
    for (lineno, raw) in text.lines().enumerate() {
        let line = raw.split('#').next().unwrap_or("").trim();
        if line.is_empty() {
            continue;
        }
        let parsed = match line.strip_prefix("0x").or(line.strip_prefix("0X"))
        {
            Some(hex) => u64::from_str_radix(hex, 16),
            None => line.parse(),
        };
        match parsed {
            Ok(seed) => seeds.push(seed),
            Err(e) => {
                return Err(format!(
                    "line {}: bad seed {line:?}: {e}",
                    lineno + 1
                ))
            }
        }
    }
    Ok(seeds)
}

/// Load a corpus file from disk.
pub fn load_seeds(path: &Path) -> Result<Vec<u64>, String> {
    let text = std::fs::read_to_string(path)
        .map_err(|e| format!("{}: {e}", path.display()))?;
    parse_seeds(&text).map_err(|e| format!("{}: {e}", path.display()))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parses_decimal_hex_comments_and_blanks() {
        let text = "# the corpus\n\n42\n0xdead_beef# trailing\n0X10\n  7  \n";
        // Underscores are not part of the format; keep it strict.
        assert!(parse_seeds(text).is_err());
        let text = "# the corpus\n\n42\n0xdeadbeef # trailing\n0X10\n  7  \n";
        assert_eq!(parse_seeds(text).unwrap(), vec![42, 0xdead_beef, 0x10, 7]);
    }

    #[test]
    fn rejects_garbage_with_line_context() {
        let err = parse_seeds("1\nnope\n3").unwrap_err();
        assert!(err.contains("line 2"), "{err}");
        assert!(err.contains("nope"), "{err}");
    }
}
