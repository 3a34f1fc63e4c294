//! The append-only, fsync'd checkpoint store.
//!
//! A checkpoint file is a line-JSON log: a header line naming the format version and the
//! campaign [fingerprint](crate::fingerprint::campaign_fingerprint), then one record per
//! completed chunk, appended in completion order and `fsync`'d before the chunk is
//! reported downstream — so every chunk event a client ever observed is durable. On
//! open, a file whose final line was torn by a crash mid-write is truncated back to the
//! last complete record (the log is append-only, so everything before the tear is
//! intact); corruption anywhere else is refused loudly.
//!
//! Records are keyed by chunk *index* into the campaign's canonical partition, so the
//! file's order carries no meaning and replaying is order-independent. The coordinator
//! additionally verifies each record's geometry against the prepared campaign before
//! trusting it — a fingerprint match plus geometry match is what makes resumed counts
//! provably identical to an uninterrupted run.

use crate::ServeError;
use ranger_inject::{ChunkTally, TrialChunk};
use serde::{Deserialize, Serialize};
use std::collections::BTreeMap;
use std::fs::{File, OpenOptions};
use std::io::{Read, Seek, SeekFrom, Write};
use std::path::{Path, PathBuf};

/// Version of the on-disk checkpoint format; files with any other version are refused.
pub const CHECKPOINT_VERSION: u32 = 1;

/// The header line opening every checkpoint file.
#[derive(Debug, Serialize, Deserialize)]
struct Header {
    version: u32,
    fingerprint: String,
}

/// One durable completed-chunk record: the chunk's geometry plus its tally.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct ChunkRecord {
    /// The work unit this record completes.
    pub chunk: TrialChunk,
    /// The partial counts that unit produced.
    pub tally: ChunkTally,
}

impl ChunkRecord {
    /// The merge-verify pass: checks this record's geometry and tally shape against the
    /// campaign's canonical partition before it is trusted.
    ///
    /// A record is acceptable only if its chunk index exists in the partition, its
    /// `(input, start, len)` geometry is byte-identical to the partition's chunk at
    /// that index, its tally carries exactly `categories` SDC counters, and its trial
    /// count equals the chunk length. The coordinator runs this over every resumed
    /// record and every record a worker — the local pool or a remote host — hands
    /// back: a fingerprint match proves the *campaign* is the same, this proves the
    /// *record* actually belongs to it.
    ///
    /// # Errors
    ///
    /// Returns [`ServeError::Corrupt`] naming the first mismatch.
    pub fn verify_against(
        &self,
        chunks: &[TrialChunk],
        categories: usize,
    ) -> Result<(), ServeError> {
        let expected = chunks.get(self.chunk.index);
        if expected != Some(&self.chunk) {
            return Err(ServeError::Corrupt(format!(
                "checkpoint record for chunk {} has geometry {:?} but the campaign \
                 partition expects {:?}",
                self.chunk.index, self.chunk, expected
            )));
        }
        if self.tally.sdc_counts.len() != categories {
            return Err(ServeError::Corrupt(format!(
                "checkpoint record for chunk {} carries {} SDC counters but the \
                 campaign judges {categories} categories",
                self.chunk.index,
                self.tally.sdc_counts.len()
            )));
        }
        if self.tally.trials != self.chunk.len as u64 {
            return Err(ServeError::Corrupt(format!(
                "checkpoint record for chunk {} tallies {} trials but the chunk spans \
                 {} trials",
                self.chunk.index, self.tally.trials, self.chunk.len
            )));
        }
        Ok(())
    }
}

/// An open checkpoint file: the already-completed records plus an append handle.
#[derive(Debug)]
pub struct CheckpointStore {
    path: PathBuf,
    file: File,
    fingerprint: String,
    completed: BTreeMap<usize, ChunkRecord>,
}

impl CheckpointStore {
    /// Opens (or creates) the checkpoint file at `path` for the campaign identified by
    /// `fingerprint`.
    ///
    /// A fresh file gets a header and is fsync'd immediately. An existing file is
    /// replayed: its records populate [`CheckpointStore::completed`], and a torn final
    /// line — the signature of a crash mid-append — is truncated away, with one
    /// warning line (naming the byte offset the file was cut back to) on stderr and
    /// a tick of the `checkpoint.torn_tails` counter in the global metrics registry.
    ///
    /// # Errors
    ///
    /// Returns [`ServeError::FingerprintMismatch`] if the file belongs to a different
    /// campaign, [`ServeError::Corrupt`] if it is malformed beyond a torn tail (wrong
    /// version, unparseable interior line, missing header), or [`ServeError::Io`] on
    /// file-system failures.
    pub fn open(path: &Path, fingerprint: &str) -> Result<Self, ServeError> {
        if let Some(parent) = path.parent() {
            if !parent.as_os_str().is_empty() {
                std::fs::create_dir_all(parent)?;
            }
        }
        let mut file = OpenOptions::new()
            .read(true)
            .write(true)
            .create(true)
            .truncate(false)
            .open(path)?;
        let mut content = String::new();
        file.read_to_string(&mut content)?;

        let mut completed = BTreeMap::new();
        if content.is_empty() {
            let header = serde_json::to_string(&Header {
                version: CHECKPOINT_VERSION,
                fingerprint: fingerprint.to_string(),
            })?;
            file.write_all(header.as_bytes())?;
            file.write_all(b"\n")?;
            file.sync_data()?;
        } else {
            // Walk the log line by line, tracking the byte offset of the last line that
            // parsed, so a torn tail can be truncated precisely.
            let mut lines = split_with_offsets(&content);
            let (header_line, header_end) = lines
                .next()
                .ok_or_else(|| ServeError::Corrupt("empty header line".to_string()))?;
            let header: Header = serde_json::from_str(header_line).map_err(|e| {
                ServeError::Corrupt(format!("unreadable header '{header_line}': {e}"))
            })?;
            if header.version != CHECKPOINT_VERSION {
                return Err(ServeError::Corrupt(format!(
                    "checkpoint format version {} is not the supported version \
                     {CHECKPOINT_VERSION}",
                    header.version
                )));
            }
            if header.fingerprint != fingerprint {
                return Err(ServeError::FingerprintMismatch {
                    expected: fingerprint.to_string(),
                    found: header.fingerprint,
                });
            }
            let mut valid_len = header_end;
            let mut torn = false;
            while let Some((line, end)) = lines.next() {
                if line.is_empty() {
                    continue; // a trailing newline produces one empty fragment
                }
                match serde_json::from_str::<ChunkRecord>(line) {
                    Ok(record) => {
                        completed.insert(record.chunk.index, record);
                        valid_len = end;
                    }
                    Err(e) => {
                        // Only the final line may fail to parse (a record torn by a
                        // crash mid-write); anything earlier means real corruption.
                        if lines.next().is_some() {
                            return Err(ServeError::Corrupt(format!(
                                "unreadable interior record '{line}': {e}"
                            )));
                        }
                        torn = true;
                    }
                }
            }
            if torn || valid_len < content.len() as u64 {
                // A tear is expected after a kill, but never silent: one warning line
                // with the cut offset, and a registry count for fleet-level visibility.
                eprintln!(
                    "warning: checkpoint {} had a torn tail; truncated from {} to {} bytes \
                     (the cut record's chunk will re-run on resume)",
                    path.display(),
                    content.len(),
                    valid_len
                );
                ranger_obs::registry()
                    .counter("checkpoint.torn_tails")
                    .increment();
                file.set_len(valid_len)?;
                file.sync_data()?;
            }
        }
        file.seek(SeekFrom::End(0))?;
        Ok(CheckpointStore {
            path: path.to_path_buf(),
            file,
            fingerprint: fingerprint.to_string(),
            completed,
        })
    }

    /// The campaign fingerprint this store is keyed by.
    pub fn fingerprint(&self) -> &str {
        &self.fingerprint
    }

    /// The path of the underlying file.
    pub fn path(&self) -> &Path {
        &self.path
    }

    /// The completed-chunk records recovered from (and appended to) this file, keyed by
    /// chunk index.
    pub fn completed(&self) -> &BTreeMap<usize, ChunkRecord> {
        &self.completed
    }

    /// Number of completed chunks on record.
    pub fn len(&self) -> usize {
        self.completed.len()
    }

    /// Whether no chunk has completed yet.
    pub fn is_empty(&self) -> bool {
        self.completed.is_empty()
    }

    /// Durably appends one completed-chunk record: the line is written and `fsync`'d
    /// before this returns, so a caller that then reports the chunk downstream can
    /// guarantee every reported chunk survives a kill.
    ///
    /// # Errors
    ///
    /// Returns [`ServeError::Json`] or [`ServeError::Io`] if encoding or the durable
    /// write fails.
    pub fn append(&mut self, record: &ChunkRecord) -> Result<(), ServeError> {
        let line = serde_json::to_string(record)?;
        self.file.write_all(line.as_bytes())?;
        self.file.write_all(b"\n")?;
        // The fsync dominates append cost by orders of magnitude, so the registry
        // lookup here is noise — no need to cache the handle on the store.
        if ranger_obs::enabled() {
            let hist = ranger_obs::registry().histogram("checkpoint.sync_nanos");
            let start = std::time::Instant::now();
            self.file.sync_data()?;
            hist.record(u64::try_from(start.elapsed().as_nanos()).unwrap_or(u64::MAX));
        } else {
            self.file.sync_data()?;
        }
        self.completed.insert(record.chunk.index, record.clone());
        Ok(())
    }
}

/// Splits `content` at newlines, yielding each line together with the byte offset just
/// past its terminating newline (or past the end for an unterminated final line).
fn split_with_offsets(content: &str) -> impl Iterator<Item = (&str, u64)> {
    let bytes_total = content.len() as u64;
    content.split('\n').scan(0u64, move |offset, line| {
        let start = *offset;
        let end = start + line.len() as u64;
        // +1 for the newline, unless this is an unterminated final fragment.
        *offset = (end + 1).min(bytes_total.max(end));
        Some((line, (*offset).min(bytes_total)))
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tmp(name: &str) -> PathBuf {
        std::env::temp_dir().join(format!(
            "ranger-serve-checkpoint-{}-{name}.jsonl",
            std::process::id()
        ))
    }

    fn record(index: usize, trials: u64) -> ChunkRecord {
        ChunkRecord {
            chunk: TrialChunk {
                index,
                input: 0,
                start: index * trials as usize,
                len: trials as usize,
            },
            tally: ChunkTally {
                sdc_counts: vec![index as u64],
                trials,
                unactivated: 1,
            },
        }
    }

    #[test]
    fn append_and_reopen_round_trips_records() {
        let path = tmp("round-trip");
        let _ = std::fs::remove_file(&path);
        {
            let mut store = CheckpointStore::open(&path, "f00d").unwrap();
            assert!(store.is_empty());
            store.append(&record(0, 8)).unwrap();
            store.append(&record(2, 8)).unwrap();
            assert_eq!(store.len(), 2);
        }
        let store = CheckpointStore::open(&path, "f00d").unwrap();
        assert_eq!(store.len(), 2);
        assert_eq!(store.completed()[&0], record(0, 8));
        assert_eq!(store.completed()[&2], record(2, 8));
        assert!(!store.completed().contains_key(&1));
        let _ = std::fs::remove_file(&path);
    }

    #[test]
    fn a_torn_final_record_is_truncated_and_earlier_records_survive() {
        let path = tmp("torn-tail");
        let _ = std::fs::remove_file(&path);
        {
            let mut store = CheckpointStore::open(&path, "f00d").unwrap();
            store.append(&record(0, 8)).unwrap();
            store.append(&record(1, 8)).unwrap();
        }
        // Simulate a crash mid-append: half a record at the end, no newline.
        let mut file = OpenOptions::new().append(true).open(&path).unwrap();
        file.write_all(b"{\"chunk\":{\"index\":2,\"inp").unwrap();
        drop(file);

        // The truncation must be visible in the metrics registry. The flag is
        // process-global, so sample/restore it and use a delta-based assertion.
        let was_enabled = ranger_obs::enabled();
        ranger_obs::set_enabled(true);
        let torn_before = ranger_obs::registry()
            .counter("checkpoint.torn_tails")
            .value();

        let before = std::fs::metadata(&path).unwrap().len();
        let store = CheckpointStore::open(&path, "f00d").unwrap();
        assert_eq!(store.len(), 2, "intact records must survive the tear");
        let after = std::fs::metadata(&path).unwrap().len();
        assert!(after < before, "the torn tail must be truncated");

        let torn_after = ranger_obs::registry()
            .counter("checkpoint.torn_tails")
            .value();
        ranger_obs::set_enabled(was_enabled);
        assert!(
            torn_after > torn_before,
            "the torn tail must tick checkpoint.torn_tails ({torn_before} -> {torn_after})"
        );

        // The truncated file reopens cleanly and accepts new appends.
        let mut store = CheckpointStore::open(&path, "f00d").unwrap();
        store.append(&record(2, 8)).unwrap();
        drop(store);
        let store = CheckpointStore::open(&path, "f00d").unwrap();
        assert_eq!(store.len(), 3);
        let _ = std::fs::remove_file(&path);
    }

    #[test]
    fn fingerprint_mismatch_is_refused() {
        let path = tmp("mismatch");
        let _ = std::fs::remove_file(&path);
        drop(CheckpointStore::open(&path, "aaaa").unwrap());
        let err = CheckpointStore::open(&path, "bbbb").unwrap_err();
        assert!(
            matches!(err, ServeError::FingerprintMismatch { .. }),
            "got {err:?}"
        );
        assert!(err.to_string().contains("aaaa"));
        let _ = std::fs::remove_file(&path);
    }

    /// The canonical 4-chunk partition the merge-verify tests pretend to run: one
    /// input, trials 0..32 in 8-trial chunks, one judge category.
    fn partition() -> Vec<TrialChunk> {
        (0..4)
            .map(|index| TrialChunk {
                index,
                input: 0,
                start: index * 8,
                len: 8,
            })
            .collect()
    }

    #[test]
    fn merge_verify_accepts_a_faithful_record() {
        let chunks = partition();
        record(2, 8).verify_against(&chunks, 1).unwrap();
    }

    #[test]
    fn merge_verify_refuses_a_wrong_chunk_index() {
        let chunks = partition();
        // Index past the partition: nothing to merge it into.
        let err = record(9, 8).verify_against(&chunks, 1).unwrap_err();
        assert!(matches!(err, ServeError::Corrupt(_)), "got {err:?}");
        assert!(err.to_string().contains("geometry"), "{err}");

        // Index inside the partition but geometry lifted from another chunk — a record
        // relabeled to fill a different slot must not pass.
        let mut forged = record(1, 8);
        forged.chunk.index = 3;
        let err = forged.verify_against(&chunks, 1).unwrap_err();
        assert!(matches!(err, ServeError::Corrupt(_)), "got {err:?}");
    }

    #[test]
    fn merge_verify_refuses_a_truncated_tally() {
        let chunks = partition();
        // Arity: the tally must carry one counter per judge category.
        let mut truncated = record(1, 8);
        truncated.tally.sdc_counts.clear();
        let err = truncated.verify_against(&chunks, 1).unwrap_err();
        assert!(matches!(err, ServeError::Corrupt(_)), "got {err:?}");
        assert!(err.to_string().contains("SDC counters"), "{err}");

        // Trial count: a tally over fewer trials than the chunk spans is partial work
        // masquerading as a completed chunk.
        let mut short = record(1, 8);
        short.tally.trials = 5;
        let err = short.verify_against(&chunks, 1).unwrap_err();
        assert!(matches!(err, ServeError::Corrupt(_)), "got {err:?}");
        assert!(err.to_string().contains("trials"), "{err}");
    }

    #[test]
    fn merge_verify_rejections_never_reach_the_store() {
        // The coordinator's contract: verify first, append second. Model it directly —
        // a record that fails verification must leave the durable file byte-identical.
        let path = tmp("merge-verify");
        let _ = std::fs::remove_file(&path);
        let chunks = partition();
        let mut store = CheckpointStore::open(&path, "f00d").unwrap();
        store.append(&record(0, 8)).unwrap();
        let bytes_before = std::fs::metadata(&path).unwrap().len();

        let mut forged = record(1, 8);
        forged.tally.sdc_counts.clear();
        assert!(forged.verify_against(&chunks, 1).is_err());
        // (the caller refuses to append on a verify error; nothing to do here)

        assert_eq!(std::fs::metadata(&path).unwrap().len(), bytes_before);
        drop(store);
        let store = CheckpointStore::open(&path, "f00d").unwrap();
        assert_eq!(store.len(), 1, "only the faithful record is durable");
        let _ = std::fs::remove_file(&path);
    }

    #[test]
    fn wrong_version_and_interior_corruption_are_refused() {
        let path = tmp("version");
        let _ = std::fs::remove_file(&path);
        std::fs::write(&path, "{\"version\":99,\"fingerprint\":\"aaaa\"}\n").unwrap();
        let err = CheckpointStore::open(&path, "aaaa").unwrap_err();
        assert!(matches!(err, ServeError::Corrupt(_)), "got {err:?}");

        // Interior garbage (a non-final unreadable line) is corruption, not a torn tail.
        std::fs::write(
            &path,
            format!(
                "{}\ngarbage-line\n{}\n",
                "{\"version\":1,\"fingerprint\":\"aaaa\"}",
                serde_json::to_string(&record(0, 4)).unwrap()
            ),
        )
        .unwrap();
        let err = CheckpointStore::open(&path, "aaaa").unwrap_err();
        assert!(matches!(err, ServeError::Corrupt(_)), "got {err:?}");
        let _ = std::fs::remove_file(&path);
    }
}
