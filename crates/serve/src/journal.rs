//! The store's append-only ingest journal — the durability commit point
//! and the store's only catalog.
//!
//! Every ingest appends exactly one record, the clip's [`ClipMeta`] as
//! a checksummed line of the shared durability layer
//! ([`otif_core::durable`], DESIGN.md §13), *after* the clip payload is
//! durably committed — so every valid record refers to a clip file on
//! disk, and an acknowledged ingest (append returned Ok) is always
//! recoverable by replay. The replay *policy* is the store's own: ids
//! are dense, so [`replay`] keeps the valid prefix `0..n` and distrusts
//! everything after the first bad record; a torn tail is crash debris,
//! truncated by `store-fsck --repair`, never data loss.

use crate::io::StoreError;
use crate::store::ClipMeta;
use otif_core::durable::{self, Line, ReplaySummary};

/// File name of the ingest journal inside a store directory.
pub const JOURNAL_FILE: &str = "journal.log";

/// Encode one journal record as a checksummed durable line.
pub fn encode_record(meta: &ClipMeta) -> Result<Vec<u8>, StoreError> {
    let body = serde_json::to_string(meta).map_err(|e| StoreError::Invalid {
        detail: format!("journal encode: {e}"),
    })?;
    Ok(durable::encode_line(&body))
}

/// Outcome of replaying journal bytes: the valid record prefix plus a
/// classification of whatever follows it.
#[derive(Debug, Default)]
pub struct JournalReplay {
    /// Catalog entries recovered from valid records, in journal order.
    pub entries: Vec<ClipMeta>,
    /// Torn tail and invalid records. The first bad mid-journal record
    /// invalidates every line after it.
    pub summary: ReplaySummary,
    /// Byte length of the valid record prefix; truncating the journal
    /// to this length drops only debris.
    pub valid_bytes: usize,
}

/// Replay raw journal bytes. Reading stops being "valid prefix" at the
/// first bad record; a bad *final* line with no records after it is a
/// torn tail (crash debris), anything else bad counts as an invalid
/// record. Ids must be dense (`0..n` in order) — a gap means records
/// from a foreign store were spliced in, and replay reports the prefix
/// up to the gap as valid with the rest invalid.
pub fn replay(bytes: &[u8]) -> JournalReplay {
    let mut out = JournalReplay::default();
    for (line, end) in durable::scan(bytes, |body| serde_json::from_str::<ClipMeta>(body).ok()) {
        match line {
            Line::Valid(meta) if meta.id == out.entries.len() => {
                out.entries.push(meta);
                out.valid_bytes = end;
            }
            // a bad final line: a torn append (possibly one that landed
            // its newline inside the half-written bytes)
            _ if end == bytes.len() => {
                out.summary.torn_tail = true;
                break;
            }
            // a bad mid-journal record; everything after it is untrusted
            _ => {
                out.summary.invalid_records =
                    1 + bytes[end..].iter().filter(|&&b| b == b'\n').count();
                break;
            }
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    fn meta(id: usize) -> ClipMeta {
        ClipMeta {
            id,
            num_frames: 100,
            fps: 10.0,
            width: 640.0,
            height: 352.0,
            num_tracks: 3,
            max_concurrent_tracks: 2,
            fingerprint: 0xdead_beef ^ id as u64,
            cell_size: 13.0,
            occupied_cells: vec![(1, 2), (3, 4)],
            source: None,
        }
    }

    fn journal(n: usize) -> Vec<u8> {
        (0..n)
            .flat_map(|i| encode_record(&meta(i)).unwrap())
            .collect()
    }

    #[test]
    fn round_trip_replays_all_records() {
        let bytes = journal(3);
        let r = replay(&bytes);
        assert!(r.summary.clean());
        assert_eq!(r.entries.len(), 3);
        assert_eq!(r.valid_bytes, bytes.len());
        for (i, e) in r.entries.iter().enumerate() {
            assert_eq!(e.id, i);
            assert_eq!(e.fingerprint, meta(i).fingerprint);
        }
    }

    #[test]
    fn empty_journal_is_clean_and_empty() {
        let r = replay(b"");
        assert!(r.summary.clean());
        assert!(r.entries.is_empty());
        assert_eq!(r.valid_bytes, 0);
    }

    #[test]
    fn torn_tail_is_detected_and_truncatable() {
        let mut bytes = journal(2);
        let good = bytes.len();
        let extra = encode_record(&meta(2)).unwrap();
        bytes.extend_from_slice(&extra[..extra.len() / 2]); // torn append
        let r = replay(&bytes);
        assert!(r.summary.torn_tail);
        assert_eq!(r.summary.invalid_records, 0);
        assert_eq!(r.entries.len(), 2);
        assert_eq!(r.valid_bytes, good, "truncation point = valid prefix");
        // truncating to valid_bytes yields a clean journal
        let r2 = replay(&bytes[..r.valid_bytes]);
        assert!(r2.summary.clean());
        assert_eq!(r2.entries.len(), 2);
    }

    #[test]
    fn corrupt_mid_journal_record_invalidates_suffix() {
        let mut bytes = journal(3);
        // flip a byte inside record 1's body
        let rec0 = encode_record(&meta(0)).unwrap().len();
        bytes[rec0 + 20] ^= 0xff;
        let r = replay(&bytes);
        assert!(!r.summary.clean());
        assert_eq!(r.entries.len(), 1, "only the prefix before the damage");
        assert_eq!(
            r.summary.invalid_records, 2,
            "bad record + untrusted suffix"
        );
        assert!(!r.summary.torn_tail);
    }

    #[test]
    fn id_gap_stops_the_valid_prefix() {
        let mut bytes: Vec<u8> = encode_record(&meta(0)).unwrap();
        bytes.extend(encode_record(&meta(2)).unwrap()); // gap: 1 missing
        let r = replay(&bytes);
        assert_eq!(r.entries.len(), 1);
        assert!(
            r.summary.torn_tail,
            "bad final line classifies as tail debris"
        );
    }
}
