//! The durability layer shared by the engine's run journal and the
//! track store (DESIGN.md §13, "Durability layer"): the checksummed
//! line codec ([`encode_line`]) and its scanner ([`scan`]), the
//! tmp → fsync → rename → directory-fsync commit ([`tmp_path`],
//! [`sync_dir`]), and the only real-filesystem renames and fsyncs in
//! the workspace, which `RealRunIo` and `RealIo` delegate to. Each
//! journal layers only its replay policy on [`scan`].

use crate::fnv1a;
use std::fs;
use std::io::{self, Write as _};
use std::path::{Path, PathBuf};

/// Encode one journal line: checksum, space, body, newline.
pub fn encode_line(body: &str) -> Vec<u8> {
    format!("{:016x} {}\n", fnv1a(body.as_bytes()), body).into_bytes()
}

/// The body of one line (without its newline) if its checksum holds.
fn checked_body(line: &str) -> Option<&str> {
    let (sum, body) = line.split_at_checked(16)?;
    let body = body.strip_prefix(' ')?;
    let sum = u64::from_str_radix(sum, 16).ok()?;
    (sum == fnv1a(body.as_bytes())).then_some(body)
}

/// How [`scan`] labels one journal line.
#[derive(Debug, Clone, PartialEq)]
pub enum Line<T> {
    /// Newline-terminated, checksum-valid and accepted by the parser.
    Valid(T),
    /// A newline-terminated line that failed its checksum or its parse,
    /// with more bytes after it.
    Invalid,
    /// The final line, unterminated or failing its checksum or parse:
    /// crash debris from a torn append.
    TornTail,
}

/// Scan journal bytes line by line. `parse` decodes a checksum-valid
/// body; a body it rejects counts as a bad line. Each item is the
/// line's label and the byte offset just past it.
pub fn scan<'a, T>(
    bytes: &'a [u8],
    parse: impl Fn(&str) -> Option<T> + 'a,
) -> impl Iterator<Item = (Line<T>, usize)> + 'a {
    let mut pos = 0usize;
    std::iter::from_fn(move || {
        let rest = bytes.get(pos..).filter(|r| !r.is_empty())?;
        let Some(nl) = rest.iter().position(|&b| b == b'\n') else {
            pos = bytes.len();
            return Some((Line::TornTail, pos));
        };
        pos += nl + 1;
        let parsed = std::str::from_utf8(&rest[..nl])
            .ok()
            .and_then(checked_body)
            .and_then(&parse);
        let line = match parsed {
            Some(record) => Line::Valid(record),
            None if pos == bytes.len() => Line::TornTail,
            None => Line::Invalid,
        };
        Some((line, pos))
    })
}

/// The tmp file a payload is written to before its commit rename:
/// `<name>.tmp` next to `path`.
pub fn tmp_path(path: &Path) -> PathBuf {
    let mut name = path.file_name().unwrap_or_default().to_os_string();
    name.push(".tmp");
    path.with_file_name(name)
}

/// The directory whose entry for `path` a rename or create changes
/// (`.` for a bare file name).
pub fn parent_dir(path: &Path) -> &Path {
    match path.parent() {
        Some(p) if !p.as_os_str().is_empty() => p,
        _ => Path::new("."),
    }
}

pub use std::fs::{create_dir_all, read, remove_file, rename};

/// Create or truncate `path`, write `bytes`, fsync the file.
pub fn write(path: &Path, bytes: &[u8]) -> io::Result<()> {
    let mut f = fs::File::create(path)?;
    f.write_all(bytes)?;
    f.sync_all()
}

/// Append `bytes` to `path` (creating it if needed), fsync the file.
/// A newly created file is durable only after a [`sync_dir`] of its
/// parent, as is a [`rename`] of its target's parent.
pub fn append(path: &Path, bytes: &[u8]) -> io::Result<()> {
    let mut f = fs::OpenOptions::new()
        .create(true)
        .append(true)
        .open(path)?;
    f.write_all(bytes)?;
    f.sync_all()
}

/// Fsync a directory, making the renames and file creations inside it
/// durable.
pub fn sync_dir(dir: &Path) -> io::Result<()> {
    fs::File::open(dir)?.sync_all()
}

/// File names (not full paths) inside a directory, sorted.
pub fn list(dir: &Path) -> io::Result<Vec<String>> {
    let mut names = Vec::new();
    for entry in fs::read_dir(dir)? {
        names.push(entry?.file_name().to_string_lossy().into_owned());
    }
    names.sort();
    Ok(names)
}

/// The deterministic retry backoff schedule: attempt `attempt`
/// (0-based) waits `base * 2^attempt` virtual seconds. Pure — the same
/// (base, attempt) always yields the same delay, so retry accounting is
/// reproducible run to run.
pub fn retry_backoff(base: f64, attempt: u32) -> f64 {
    base * f64::from(2u32.saturating_pow(attempt))
}

#[cfg(test)]
mod tests {
    use super::*;

    fn labels(bytes: &[u8]) -> Vec<(Line<String>, usize)> {
        scan(bytes, |body| Some(body.to_string())).collect()
    }

    #[test]
    fn encode_line_bytes_are_pinned() {
        // The on-disk format: existing run directories and stores must
        // keep opening, so these bytes never change.
        assert_eq!(encode_line(""), b"cbf29ce484222325 \n");
        assert_eq!(encode_line(r#"{"id":0}"#), b"d51e21b3d1e22d3e {\"id\":0}\n");
    }

    #[test]
    fn valid_lines_carry_their_end_offsets() {
        let a = encode_line("alpha");
        let bytes = [a.clone(), encode_line("beta")].concat();
        assert_eq!(
            labels(&bytes),
            vec![
                (Line::Valid("alpha".into()), a.len()),
                (Line::Valid("beta".into()), bytes.len()),
            ]
        );
        assert!(labels(b"").is_empty());
    }

    #[test]
    fn unterminated_final_line_is_a_torn_tail() {
        let extra = encode_line("beta");
        let mut bytes = encode_line("alpha");
        bytes.extend_from_slice(&extra[..extra.len() / 2]);
        assert_eq!(labels(&bytes)[1], (Line::TornTail, bytes.len()));
    }

    #[test]
    fn corrupt_line_is_invalid_mid_journal_and_torn_at_the_end() {
        let (a, mut bad) = (encode_line("alpha"), encode_line("beta"));
        bad[20] ^= 0xff;
        let mid = [a.clone(), bad.clone(), encode_line("gamma")].concat();
        let got: Vec<_> = labels(&mid).into_iter().map(|(l, _)| l).collect();
        let gamma = Line::Valid("gamma".into());
        assert_eq!(got, vec![Line::Valid("alpha".into()), Line::Invalid, gamma]);
        // the same damage on the final line is a torn append that
        // happened to land its newline
        let tail = [a, bad].concat();
        assert_eq!(labels(&tail)[1], (Line::TornTail, tail.len()));
    }

    #[test]
    fn malformed_or_rejected_lines_are_bad() {
        for line in [
            &b"abc\n"[..],
            b"cbf29ce484222325\n",
            b"zzzzzzzzzzzzzzzz x\n",
        ] {
            assert_eq!(labels(line), vec![(Line::TornTail, line.len())]);
        }
        let bytes = [
            encode_line("keep"),
            encode_line("drop"),
            encode_line("drop"),
        ]
        .concat();
        let got: Vec<_> = scan(&bytes, |b| (b == "keep").then_some(()))
            .map(|(l, _)| l)
            .collect();
        assert_eq!(got, vec![Line::Valid(()), Line::Invalid, Line::TornTail]);
    }

    #[test]
    fn tmp_and_parent_paths() {
        let clip = Path::new("s/clips/clip_3.json");
        assert_eq!(tmp_path(clip), Path::new("s/clips/clip_3.json.tmp"));
        assert_eq!(parent_dir(clip), Path::new("s/clips"));
        assert_eq!(parent_dir(Path::new("journal.log")), Path::new("."));
    }
}
