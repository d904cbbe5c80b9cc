//! The append-only on-disk log.
//!
//! Text framing, one record per line:
//!
//! ```text
//! QUESTWAL<TAB>1<TAB><schema fingerprint, hex>          (header)
//! <seq><TAB><fnv64 of body, hex><TAB><body>             (records)
//! ```
//!
//! Sequence numbers start at 1 and increase strictly; the checksum covers
//! the record body, so a torn write (a crash mid-append) is detected. Any
//! invalid *final* line — unterminated or not — ends the log: filesystems
//! flush pages out of order, so an un-synced append interrupted by a crash
//! can surface either way, and refusing to load would hold every durable
//! record hostage to one unacknowledged tail. The dropped tail is always
//! reported ([`LogRecovery::torn_tail`]), so a tail that was in fact
//! synced-then-rotted is surfaced, not silently swallowed. A bad line
//! anywhere *else* cannot be a torn append and refuses to load.

use std::fs::{File, OpenOptions};
use std::io::{Read, Seek, SeekFrom, Write};
use std::path::Path;
use std::time::Instant;

use quest_obs::{TraceCtx, TraceKind};
use relstore::{Catalog, Database};

use crate::codec::{fnv64, schema_fingerprint};
use crate::error::WalError;
use crate::record::ChangeRecord;

/// Magic first field of a log header.
const MAGIC: &str = "QUESTWAL";
/// Format version this code writes and reads.
const VERSION: &str = "1";

/// The WAL's metric names in the [`quest_obs::global`] registry.
pub mod names {
    /// Wall time of one (possibly batched) append (histogram, nanoseconds).
    pub const APPEND: &str = "quest_wal_append_ns";
    /// Wall time of one fsync barrier (histogram, nanoseconds).
    pub const FSYNC: &str = "quest_wal_fsync_ns";
    /// Wall time of one full recovery — snapshot load plus log replay
    /// (histogram, nanoseconds).
    pub const RECOVER: &str = "quest_wal_recover_ns";
    /// Torn (dropped) log tails observed by scans and opens (counter).
    pub const TORN_TAIL: &str = "quest_wal_torn_tail_total";
    /// Writers that poisoned themselves after an unrecoverable I/O failure
    /// (counter).
    pub const POISONED: &str = "quest_wal_poisoned_total";
    /// Records re-rejected during replay (counter).
    pub const REPLAY_REJECTED: &str = "quest_wal_replay_rejected_total";
    /// Logical payload bytes appended — encoded record bodies only, before
    /// framing (counter). `PHYSICAL_BYTES / LOGICAL_BYTES` is the log's
    /// write amplification.
    pub const LOGICAL_BYTES: &str = "quest_wal_logical_bytes_total";
    /// Physical bytes appended — full framed lines including sequence
    /// numbers and checksums (counter).
    pub const PHYSICAL_BYTES: &str = "quest_wal_physical_bytes_total";
}

/// Registry handles for the writer's hot paths, resolved once at open so an
/// append touches only its own relaxed atomics.
#[derive(Debug)]
struct WalObs {
    append: quest_obs::Histogram,
    fsync: quest_obs::Histogram,
    poisoned: quest_obs::Counter,
    logical_bytes: quest_obs::Counter,
    physical_bytes: quest_obs::Counter,
}

impl WalObs {
    fn new() -> WalObs {
        let registry = quest_obs::global();
        registry.describe(names::APPEND, "Wall time of one WAL append, ns.");
        registry.describe(names::FSYNC, "Wall time of one WAL fsync barrier, ns.");
        registry.describe(
            names::LOGICAL_BYTES,
            "Logical payload bytes appended (record bodies, pre-framing).",
        );
        registry.describe(
            names::PHYSICAL_BYTES,
            "Physical bytes appended (framed lines with seq and checksum).",
        );
        WalObs {
            append: registry.histogram(names::APPEND),
            fsync: registry.histogram(names::FSYNC),
            poisoned: registry.counter(names::POISONED),
            logical_bytes: registry.counter(names::LOGICAL_BYTES),
            physical_bytes: registry.counter(names::PHYSICAL_BYTES),
        }
    }
}

/// Count one observed torn tail in the global registry (cold path: scans
/// and opens only).
fn count_torn_tail() {
    quest_obs::global().counter(names::TORN_TAIL).inc();
}

/// When the log fsyncs on its own, independent of explicit
/// [`WalWriter::sync`] calls.
///
/// The default is [`SyncPolicy::Never`]: appends are flushed to the OS but
/// the durability point is wherever the caller puts its `sync()` — the
/// fastest mode, and the right one for tests and for callers that batch
/// their own barriers. `EveryN(n)` bounds data loss to `n` acknowledged
/// appends; `Always` is one fsync per append, the classic group-commit-free
/// worst case.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum SyncPolicy {
    /// No automatic fsync; the caller owns the durability points.
    #[default]
    Never,
    /// fsync once every `n` appends (`EveryN(0)` behaves like `Never`).
    EveryN(u32),
    /// fsync after every append.
    Always,
}

/// Append handle to a write-ahead log bound to one schema.
#[derive(Debug)]
pub struct WalWriter {
    file: File,
    fingerprint: u64,
    next_seq: u64,
    /// Byte length of the last known-good (fully appended) state; a failed
    /// append truncates back to it so no torn line is left mid-file.
    len: u64,
    /// Set when a failed append could not be rolled back: the file may end
    /// in a torn line, so further appends would corrupt it mid-file.
    poisoned: bool,
    /// Automatic-fsync policy (see [`SyncPolicy`]).
    policy: SyncPolicy,
    /// Appends since the last fsync (explicit or automatic); drives
    /// [`SyncPolicy::EveryN`].
    unsynced: u32,
    /// Global-registry handles (append/fsync latency, poison events).
    obs: WalObs,
}

impl WalWriter {
    /// Open (or create) the log at `path` for appending, bound to
    /// `catalog`'s schema.
    ///
    /// An existing log must carry the same schema fingerprint; its records
    /// are scanned to continue the sequence, and a torn tail from an
    /// earlier crash is truncated away before new appends.
    pub fn open(path: &Path, catalog: &Catalog) -> Result<WalWriter, WalError> {
        WalWriter::open_with(path, catalog, SyncPolicy::default())
    }

    /// [`WalWriter::open`] with an explicit automatic-fsync policy.
    pub fn open_with(
        path: &Path,
        catalog: &Catalog,
        policy: SyncPolicy,
    ) -> Result<WalWriter, WalError> {
        // Cold constructor path: arm any QUEST_FAULT_PLAN schedule before
        // the first seam can fire.
        quest_fault::init_from_env();
        let fingerprint = schema_fingerprint(catalog);
        let mut file = OpenOptions::new()
            .read(true)
            .write(true)
            .create(true)
            .truncate(false)
            .open(path)?;
        let mut bytes = Vec::new();
        file.read_to_end(&mut bytes)?;
        // A file without a single complete line never got past writing its
        // header (a crash during creation): nothing is lost by starting
        // over. This also covers the empty file. Without this branch, a
        // torn-but-parseable header would be truncated to zero bytes below
        // and records would then be appended to a headerless file.
        if !bytes.contains(&b'\n') {
            if !bytes.is_empty() {
                // A partial header is a creation-time torn tail.
                count_torn_tail();
            }
            file.set_len(0)?;
            file.seek(SeekFrom::Start(0))?;
            let header = format!("{MAGIC}\t{VERSION}\t{fingerprint:016x}\n");
            file.write_all(header.as_bytes())?;
            return Ok(WalWriter {
                file,
                fingerprint,
                next_seq: 1,
                len: header.len() as u64,
                poisoned: false,
                policy,
                unsynced: 0,
                obs: WalObs::new(),
            });
        }
        let scan = scan_log(&bytes, fingerprint)?;
        if scan.torn_tail {
            count_torn_tail();
        }
        // Drop a torn tail so the next append starts on a clean line.
        if scan.valid_len < bytes.len() {
            file.set_len(scan.valid_len as u64)?;
        }
        file.seek(SeekFrom::End(0))?;
        Ok(WalWriter {
            file,
            fingerprint,
            next_seq: scan.last_seq + 1,
            len: scan.valid_len as u64,
            poisoned: false,
            policy,
            unsynced: 0,
            obs: WalObs::new(),
        })
    }

    /// The schema fingerprint this log is bound to.
    pub fn fingerprint(&self) -> u64 {
        self.fingerprint
    }

    /// Sequence number the next append will receive.
    pub fn next_seq(&self) -> u64 {
        self.next_seq
    }

    /// The automatic-fsync policy in force.
    pub fn sync_policy(&self) -> SyncPolicy {
        self.policy
    }

    /// Whether the writer refuses further appends after an unrecoverable
    /// I/O failure. When set by a *post-write* fsync failure, the batch
    /// that triggered it is still fully in the log ([`WalWriter::next_seq`]
    /// has advanced past it) — callers that mirror the log into live state
    /// can use that to stay consistent with what tailing readers see.
    pub fn poisoned(&self) -> bool {
        self.poisoned
    }

    /// Change the automatic-fsync policy; takes effect from the next append.
    pub fn set_sync_policy(&mut self, policy: SyncPolicy) {
        self.policy = policy;
    }

    /// Append one change record, returning its sequence number. The line is
    /// flushed to the OS; call [`WalWriter::sync`] to force it to disk.
    ///
    /// A failed write (e.g. disk full) is rolled back by truncating to the
    /// last known-good length, so the file never carries a torn line
    /// *mid-file* (which would be unrecoverable corruption, unlike a torn
    /// tail). If even the rollback fails, the writer poisons itself and
    /// refuses further appends; the log on disk is still readable up to
    /// the torn tail.
    pub fn append(&mut self, record: &ChangeRecord) -> Result<u64, WalError> {
        self.append_batch(std::slice::from_ref(record))
            .map(|(first, _)| first)
    }

    /// Append a batch of records **all-or-nothing**, returning the
    /// sequence numbers of the first and last (`(next, next - 1)` — an
    /// empty range — for an empty batch).
    ///
    /// The batch is written as a single `write` to the OS, and a failed
    /// write is rolled back by truncating to the pre-batch length, so a
    /// live process never continues past a log holding only a prefix of a
    /// batch it thinks failed — the failure mode that would silently
    /// diverge a primary from the replicas tailing its log. (A *crash*
    /// mid-batch can still persist a prefix of complete lines; that is the
    /// normal torn-tail story, and recovery/replicas replay exactly what
    /// the log holds.)
    pub fn append_batch(&mut self, records: &[ChangeRecord]) -> Result<(u64, u64), WalError> {
        self.append_batch_in(records, TraceCtx::detached(TraceKind::Commit))
    }

    /// [`WalWriter::append_batch`] under an explicit trace context: the
    /// `wal_append` (and any policy-driven `wal_fsync`) spans carry the
    /// caller's commit id, so the whole `Primary::commit` chain reassembles
    /// into one tree in the Chrome trace export.
    pub fn append_batch_in(
        &mut self,
        records: &[ChangeRecord],
        ctx: TraceCtx,
    ) -> Result<(u64, u64), WalError> {
        if self.poisoned {
            return Err(WalError::Io(std::io::Error::other(
                "writer poisoned by an earlier failed append; reopen the log",
            )));
        }
        let first = self.next_seq;
        if records.is_empty() {
            return Ok((first, first - 1));
        }
        let span = quest_obs::spans().start();
        let start = Instant::now();
        let mut buf = String::new();
        let mut logical = 0u64;
        for (i, record) in records.iter().enumerate() {
            let seq = first + i as u64;
            let body = record.encode();
            logical += body.len() as u64;
            buf.push_str(&format!("{seq}\t{:016x}\t{body}\n", fnv64(body.as_bytes())));
        }
        if let Some(fault) = quest_fault::fire(quest_fault::sites::WAL_APPEND) {
            match fault.kind {
                quest_fault::FaultKind::SlowIo => fault.stall(),
                quest_fault::FaultKind::TornWrite => {
                    // Half the framed batch reaches the file, then the write
                    // errors. Take the real failed-append path: roll back to
                    // the last known-good length, poisoning if that fails.
                    let torn = &buf.as_bytes()[..buf.len() / 2];
                    let _ = self.file.write_all(torn);
                    if self.file.set_len(self.len).is_err()
                        || self.file.seek(SeekFrom::End(0)).is_err()
                    {
                        self.poison();
                    }
                    return Err(WalError::Io(fault.io_error()));
                }
                _ => return Err(WalError::Io(fault.io_error())),
            }
        }
        if let Err(e) = self.file.write_all(buf.as_bytes()) {
            if self.file.set_len(self.len).is_err() || self.file.seek(SeekFrom::End(0)).is_err() {
                self.poison();
            }
            return Err(WalError::Io(e));
        }
        self.len += buf.len() as u64;
        self.next_seq += records.len() as u64;
        match self.policy {
            SyncPolicy::Always => self.sync_or_poison(ctx)?,
            SyncPolicy::EveryN(n) => {
                self.unsynced += records.len() as u32;
                if n > 0 && self.unsynced >= n {
                    self.sync_or_poison(ctx)?;
                }
            }
            SyncPolicy::Never => {}
        }
        self.obs
            .append
            .record(quest_obs::duration_ns(start.elapsed()));
        self.obs.logical_bytes.add(logical);
        self.obs.physical_bytes.add(buf.len() as u64);
        quest_obs::spans().record_with(
            ctx,
            "wal_append",
            span,
            [
                Some(("records", records.len() as u64)),
                Some(("bytes", buf.len() as u64)),
            ],
        );
        Ok((first, self.next_seq - 1))
    }

    /// Refuse further appends and count the event.
    fn poison(&mut self) {
        self.poisoned = true;
        self.obs.poisoned.inc();
    }

    /// Policy-driven durability barrier inside an append. At this point the
    /// batch is already written: a failed fsync leaves the on-disk state
    /// unknown (the bytes may or may not survive a crash), so the writer
    /// poisons itself rather than hand back an error the caller would read
    /// as "batch not written" while tailing readers may already be applying
    /// it. Recovery: reopen the log; the scan re-establishes the truth.
    fn sync_or_poison(&mut self, ctx: TraceCtx) -> Result<(), WalError> {
        if let Err(e) = self.sync_in(ctx) {
            self.poison();
            return Err(e);
        }
        Ok(())
    }

    /// fsync the log file (durability point). Resets the
    /// [`SyncPolicy::EveryN`] append counter.
    pub fn sync(&mut self) -> Result<(), WalError> {
        self.sync_in(TraceCtx::detached(TraceKind::Commit))
    }

    /// [`WalWriter::sync`] under an explicit trace context (the
    /// `wal_fsync` span carries the caller's commit id).
    pub fn sync_in(&mut self, ctx: TraceCtx) -> Result<(), WalError> {
        let span = quest_obs::spans().start();
        let start = Instant::now();
        if let Some(fault) = quest_fault::fire(quest_fault::sites::WAL_FSYNC) {
            match fault.kind {
                quest_fault::FaultKind::SlowIo => fault.stall(),
                _ => return Err(WalError::Io(fault.io_error())),
            }
        }
        self.file.sync_data()?;
        self.obs
            .fsync
            .record(quest_obs::duration_ns(start.elapsed()));
        self.unsynced = 0;
        quest_obs::spans().record(ctx, "wal_fsync", span);
        Ok(())
    }

    /// Attempt to reconcile a poisoned writer in place instead of forcing a
    /// process restart.
    ///
    /// Poison means one of two things, and the same repair covers both:
    /// truncate to the last known-good length `len`, restore the append
    /// position, and prove the file healthy with an fsync.
    ///
    /// * **Rollback failure** — a failed append could not truncate its torn
    ///   line, so `len` excludes the batch; the `set_len` removes the torn
    ///   bytes now.
    /// * **Post-write fsync failure** — the batch is fully in the log and
    ///   `len` includes it, so the `set_len` is a no-op and the successful
    ///   fsync here *is* the durability barrier the append was missing.
    ///
    /// Only a fully successful sequence clears the poison; any failure
    /// leaves the writer poisoned and returns the error, so callers can
    /// retry transient faults under a backoff policy. A no-op on healthy
    /// writers.
    pub fn heal(&mut self) -> Result<(), WalError> {
        if !self.poisoned {
            return Ok(());
        }
        self.file.set_len(self.len)?;
        self.file.seek(SeekFrom::End(0))?;
        self.sync_in(TraceCtx::detached(TraceKind::Commit))?;
        self.poisoned = false;
        quest_fault::count_heal("wal");
        Ok(())
    }
}

/// Outcome of reading a log file.
#[derive(Debug)]
pub struct LogRecovery {
    /// Parsed records with their sequence numbers, in log order.
    pub records: Vec<(u64, ChangeRecord)>,
    /// Whether an invalid final line was dropped — a torn (half-written)
    /// append, or a final record whose checksum failed. If the tail was
    /// knowingly synced before the crash, this flag is the data-loss
    /// signal: the log itself cannot distinguish an unacknowledged torn
    /// append from acknowledged-then-rotted bytes.
    pub torn_tail: bool,
}

/// Internal scan result shared by reader and writer-open.
struct LogScan {
    records: Vec<(u64, ChangeRecord)>,
    last_seq: u64,
    /// Byte length of the valid prefix (everything before a torn tail).
    valid_len: usize,
    torn_tail: bool,
}

/// Read and verify a whole log against the catalog fingerprint `expected`.
/// A torn final line — including a header torn during log creation, i.e. a
/// file with no complete line at all — is tolerated (reported via
/// [`LogRecovery::torn_tail`]); corruption anywhere else is an error.
pub fn read_log(path: &Path, catalog: &Catalog) -> Result<LogRecovery, WalError> {
    let bytes = std::fs::read(path)?;
    let scan = scan_log(&bytes, schema_fingerprint(catalog))?;
    if scan.torn_tail {
        count_torn_tail();
    }
    Ok(LogRecovery {
        records: scan.records,
        torn_tail: scan.torn_tail,
    })
}

fn scan_log(bytes: &[u8], expected_fp: u64) -> Result<LogScan, WalError> {
    let corrupt = |line: usize, message: String| WalError::Corrupt { line, message };
    // A file without a single complete line is a crash during creation
    // (the header write itself was torn) — zero records were ever logged,
    // so recovery legitimately proceeds with an empty log, mirroring what
    // `WalWriter::open` does when it reinitializes such a file.
    let Some(cut) = bytes.iter().rposition(|&b| b == b'\n').map(|i| i + 1) else {
        return Ok(LogScan {
            records: Vec::new(),
            last_seq: 0,
            valid_len: 0,
            torn_tail: !bytes.is_empty(),
        });
    };
    // Everything after the last newline is a torn append; its bytes may not
    // even decode (a crash can split a multi-byte character mid-write), so
    // it is dropped and reported without ever being interpreted. The region
    // of complete lines must decode: it was written as UTF-8, so a decode
    // failure there is rot, not tearing.
    let text = std::str::from_utf8(&bytes[..cut]).map_err(|e| {
        corrupt(
            0,
            format!("log is not valid UTF-8 at byte {}", e.valid_up_to()),
        )
    })?;
    let mut torn_tail = cut < bytes.len();
    // Split keeping track of byte offsets so a torn tail can be truncated.
    let mut header_seen = false;
    let mut records = Vec::new();
    let mut last_seq = 0u64;
    let mut valid_len = 0usize;
    let mut offset = 0usize;
    let mut lines = text.split_inclusive('\n').enumerate().peekable();
    while let Some((i, raw)) = lines.next() {
        let lineno = i + 1;
        let is_last = lines.peek().is_none();
        let complete = raw.ends_with('\n');
        let line = raw.strip_suffix('\n').unwrap_or(raw);
        let parsed: Result<(), String> = if !header_seen {
            parse_header(line, expected_fp).map_err(|e| {
                // Header schema mismatch is never a torn write: fail loud.
                if let WalError::SchemaMismatch { .. } = e {
                    return e;
                }
                corrupt(lineno, e.to_string())
            })?;
            header_seen = true;
            Ok(())
        } else {
            // Sequence regression counts as an invalid record: the seq
            // field sits outside the body checksum, so tail rot can damage
            // it alone — on the final line that must degrade to a dropped
            // tail (below), not a fatal error.
            parse_record(line).and_then(|(seq, rec)| {
                if seq <= last_seq {
                    return Err(format!("sequence {seq} not after {last_seq}"));
                }
                records.push((seq, rec));
                Ok(())
            })
        };
        match parsed {
            Ok(()) if complete => {
                if let Some(&(seq, _)) = records.last() {
                    last_seq = seq;
                }
                offset += raw.len();
                valid_len = offset;
            }
            // Any invalid final line ends the log. A torn append usually
            // lacks the trailing newline, but out-of-order page flush can
            // persist the newline without the bytes before it, so the
            // newline proves nothing; only *position* does — a bad line
            // mid-file cannot be a torn append and is fatal below. An
            // unterminated line that happens to parse (checksum collision
            // on a prefix) is dropped too.
            Ok(()) | Err(_) if is_last && header_seen => {
                if matches!(parsed, Ok(())) {
                    records.pop();
                }
                torn_tail = true;
            }
            Err(e) => return Err(corrupt(lineno, e)),
            Ok(()) => unreachable!("incomplete non-last line"),
        }
    }
    if !header_seen {
        return Err(corrupt(1, "missing header".into()));
    }
    Ok(LogScan {
        records,
        last_seq,
        valid_len,
        torn_tail,
    })
}

/// Parse and verify the header line.
pub(crate) fn parse_header(line: &str, expected_fp: u64) -> Result<(), WalError> {
    let mut fields = line.split('\t');
    let magic = fields.next().unwrap_or_default();
    let version = fields.next().unwrap_or_default();
    let fp = fields.next().unwrap_or_default();
    if magic != MAGIC || version != VERSION {
        return Err(WalError::Corrupt {
            line: 1,
            message: format!("bad header `{line}`"),
        });
    }
    let found = u64::from_str_radix(fp, 16).map_err(|_| WalError::Corrupt {
        line: 1,
        message: format!("bad fingerprint `{fp}`"),
    })?;
    if found != expected_fp {
        return Err(WalError::SchemaMismatch {
            expected: expected_fp,
            found,
        });
    }
    Ok(())
}

/// Parse one record line: `seq \t checksum \t body`.
pub(crate) fn parse_record(line: &str) -> Result<(u64, ChangeRecord), String> {
    let mut parts = line.splitn(3, '\t');
    let seq = parts
        .next()
        .and_then(|s| s.parse::<u64>().ok())
        .ok_or("bad sequence field")?;
    let crc = parts
        .next()
        .and_then(|s| u64::from_str_radix(s, 16).ok())
        .ok_or("bad checksum field")?;
    let body = parts.next().ok_or("missing body")?;
    if fnv64(body.as_bytes()) != crc {
        return Err(format!("checksum mismatch on record {seq}"));
    }
    let record = ChangeRecord::decode(body)?;
    Ok((seq, record))
}

/// Outcome of [`replay`].
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct ReplayReport {
    /// Records applied.
    pub applied: usize,
    /// Records the store rejected — deterministically, exactly as the live
    /// system rejected them when they were first logged (see below).
    pub rejected: usize,
}

/// Apply records (as returned by [`read_log`]) with sequence numbers
/// strictly greater than `after_seq`, in order.
///
/// A record the store rejects (constraint violation) is **skipped and
/// counted**, not treated as an error: under the write-ahead protocol
/// records are logged before they are applied, so the log legitimately
/// contains records the live system rejected. A rejection is a pure
/// function of the database state at that log position, and replay visits
/// the same states in the same order, so it re-rejects exactly the same
/// records and converges on the state the live system held.
///
/// Each record costs O(row): the database maintains its indexes and join
/// counters per record, so replay time grows with the log suffix, not with
/// the size of the tables it touches.
pub fn replay(
    db: &mut Database,
    records: &[(u64, ChangeRecord)],
    after_seq: u64,
) -> Result<ReplayReport, WalError> {
    let mut report = ReplayReport::default();
    for (seq, record) in records {
        if *seq <= after_seq {
            continue;
        }
        match record.apply(db) {
            Ok(_) => report.applied += 1,
            Err(_) => report.rejected += 1,
        }
    }
    if report.rejected > 0 {
        quest_obs::global()
            .counter(names::REPLAY_REJECTED)
            .add(report.rejected as u64);
    }
    Ok(report)
}

#[cfg(test)]
mod tests {
    use super::*;
    use relstore::DataType;
    use std::path::PathBuf;

    fn catalog() -> Catalog {
        let mut c = Catalog::new();
        c.define_table("t")
            .unwrap()
            .pk("id", DataType::Int)
            .unwrap()
            .col("name", DataType::Text)
            .unwrap()
            .finish();
        c
    }

    fn temp_path(name: &str) -> PathBuf {
        let dir = std::env::temp_dir().join("quest-wal-tests");
        std::fs::create_dir_all(&dir).unwrap();
        dir.join(format!("{name}-{}.wal", std::process::id()))
    }

    fn ins(id: i64) -> ChangeRecord {
        ChangeRecord::Insert {
            table: "t".into(),
            row: vec![id.into(), format!("row {id}").into()],
        }
    }

    #[test]
    fn append_read_round_trip() {
        let path = temp_path("roundtrip");
        let c = catalog();
        {
            let mut w = WalWriter::open(&path, &c).unwrap();
            assert_eq!(w.append(&ins(1)).unwrap(), 1);
            assert_eq!(w.append(&ins(2)).unwrap(), 2);
            w.sync().unwrap();
        }
        // Reopen continues the sequence.
        {
            let mut w = WalWriter::open(&path, &c).unwrap();
            assert_eq!(w.next_seq(), 3);
            assert_eq!(w.append(&ins(3)).unwrap(), 3);
        }
        let log = read_log(&path, &c).unwrap();
        assert!(!log.torn_tail);
        assert_eq!(log.records.len(), 3);
        assert_eq!(log.records[2], (3, ins(3)));
        std::fs::remove_file(&path).unwrap();
    }

    #[test]
    fn sync_policies_apply_and_reset() {
        // fsync effects are invisible to a test, but every policy path must
        // append successfully, keep counting, and survive reopen.
        let path = temp_path("syncpolicy");
        let c = catalog();
        {
            let mut w = WalWriter::open_with(&path, &c, SyncPolicy::Always).unwrap();
            assert_eq!(w.sync_policy(), SyncPolicy::Always);
            w.append(&ins(1)).unwrap();
            w.set_sync_policy(SyncPolicy::EveryN(2));
            w.append(&ins(2)).unwrap();
            w.append(&ins(3)).unwrap(); // second unsynced append: auto-syncs
            w.append(&ins(4)).unwrap();
            w.sync().unwrap(); // manual sync resets the EveryN counter
            w.set_sync_policy(SyncPolicy::EveryN(0)); // behaves like Never
            w.append(&ins(5)).unwrap();
            w.set_sync_policy(SyncPolicy::Never);
            w.append(&ins(6)).unwrap();
        }
        let log = read_log(&path, &c).unwrap();
        assert_eq!(log.records.len(), 6);
        assert!(!log.torn_tail);
        // The default stays the fast path.
        let w = WalWriter::open(&path, &c).unwrap();
        assert_eq!(w.sync_policy(), SyncPolicy::Never);
        std::fs::remove_file(&path).unwrap();
    }

    #[test]
    fn torn_tail_is_dropped_not_fatal() {
        let path = temp_path("torn");
        let c = catalog();
        {
            let mut w = WalWriter::open(&path, &c).unwrap();
            w.append(&ins(1)).unwrap();
            w.append(&ins(2)).unwrap();
        }
        // Simulate a crash mid-append: a half-written line with no newline.
        {
            use std::io::Write;
            let mut f = OpenOptions::new().append(true).open(&path).unwrap();
            f.write_all(b"3\t00ff").unwrap();
        }
        let log = read_log(&path, &c).unwrap();
        assert!(log.torn_tail);
        assert_eq!(log.records.len(), 2);
        // Reopening for append truncates the torn tail and resumes at 3.
        let mut w = WalWriter::open(&path, &c).unwrap();
        assert_eq!(w.next_seq(), 3);
        w.append(&ins(3)).unwrap();
        drop(w);
        let log = read_log(&path, &c).unwrap();
        assert!(!log.torn_tail);
        assert_eq!(log.records.len(), 3);
        std::fs::remove_file(&path).unwrap();
    }

    #[test]
    fn torn_header_reinitializes_the_log() {
        // A crash during log *creation* can leave a partial header with no
        // newline; nothing was ever appended, so open() starts over with a
        // fresh header instead of leaving a headerless (or bricked) file.
        let path = temp_path("torn-header");
        let c = catalog();
        for partial in ["QUESTW", "QUESTWAL\t1\t0123456789abcdef"] {
            std::fs::write(&path, partial).unwrap();
            // The read path tolerates it too (recover() must not brick on
            // a log whose creation crashed): empty log, torn tail noted.
            let log = read_log(&path, &c).unwrap();
            assert!(log.records.is_empty());
            assert!(log.torn_tail);
            let mut w = WalWriter::open(&path, &c).unwrap();
            assert_eq!(w.next_seq(), 1);
            w.append(&ins(1)).unwrap();
            drop(w);
            let log = read_log(&path, &c).unwrap();
            assert!(!log.torn_tail);
            assert_eq!(log.records, vec![(1, ins(1))]);
        }
        std::fs::remove_file(&path).unwrap();
    }

    #[test]
    fn mid_file_corruption_is_fatal() {
        let path = temp_path("corrupt");
        let c = catalog();
        {
            let mut w = WalWriter::open(&path, &c).unwrap();
            w.append(&ins(1)).unwrap();
            w.append(&ins(2)).unwrap();
        }
        let mut text = std::fs::read_to_string(&path).unwrap();
        // Flip a byte inside the first record's body.
        text = text.replace("row 1", "row X");
        std::fs::write(&path, text).unwrap();
        let err = read_log(&path, &c).unwrap_err();
        assert!(matches!(err, WalError::Corrupt { line: 2, .. }), "{err}");
        std::fs::remove_file(&path).unwrap();
    }

    #[test]
    fn complete_but_corrupt_final_record_is_dropped_and_reported() {
        // Out-of-order page flush means a crash during an un-synced append
        // can leave a newline-terminated line with garbage before it, so a
        // corrupt *final* record ends the log (availability) — but is
        // always reported via torn_tail, never silently swallowed.
        let path = temp_path("rotted-tail");
        let c = catalog();
        {
            let mut w = WalWriter::open(&path, &c).unwrap();
            w.append(&ins(1)).unwrap();
            w.append(&ins(2)).unwrap();
            w.sync().unwrap();
        }
        let text = std::fs::read_to_string(&path).unwrap();
        assert!(text.ends_with('\n'));
        std::fs::write(&path, text.replace("row 2", "row Z")).unwrap();
        let log = read_log(&path, &c).unwrap();
        assert!(log.torn_tail, "the dropped tail must be reported");
        assert_eq!(log.records, vec![(1, ins(1))]);
        // Reopening truncates the bad tail and resumes the sequence.
        let mut w = WalWriter::open(&path, &c).unwrap();
        assert_eq!(w.next_seq(), 2);
        w.append(&ins(2)).unwrap();
        drop(w);
        let log = read_log(&path, &c).unwrap();
        assert!(!log.torn_tail);
        assert_eq!(log.records.len(), 2);
        std::fs::remove_file(&path).unwrap();
    }

    #[test]
    fn sequence_regression_is_torn_on_the_final_line_but_fatal_mid_file() {
        // The seq field sits outside the body checksum, so tail rot can
        // damage it alone: on the final line that ends the log (dropped,
        // reported); mid-file it is unambiguous corruption.
        let path = temp_path("seq-rot");
        let c = catalog();
        {
            let mut w = WalWriter::open(&path, &c).unwrap();
            w.append(&ins(1)).unwrap();
            w.append(&ins(2)).unwrap();
        }
        let text = std::fs::read_to_string(&path).unwrap();
        let rotted = text.replacen("\n2\t", "\n1\t", 1);
        std::fs::write(&path, &rotted).unwrap();
        let log = read_log(&path, &c).unwrap();
        assert!(log.torn_tail);
        assert_eq!(log.records, vec![(1, ins(1))]);

        // Same damage mid-file (a third record follows) is fatal.
        std::fs::write(&path, text).unwrap();
        {
            let mut w = WalWriter::open(&path, &c).unwrap();
            w.append(&ins(3)).unwrap();
        }
        let text = std::fs::read_to_string(&path).unwrap();
        std::fs::write(&path, text.replacen("\n2\t", "\n1\t", 1)).unwrap();
        assert!(matches!(
            read_log(&path, &c).unwrap_err(),
            WalError::Corrupt { line: 3, .. }
        ));
        std::fs::remove_file(&path).unwrap();
    }

    #[test]
    fn schema_mismatch_refuses_load() {
        let path = temp_path("mismatch");
        let c = catalog();
        {
            let mut w = WalWriter::open(&path, &c).unwrap();
            w.append(&ins(1)).unwrap();
        }
        let mut other = Catalog::new();
        other
            .define_table("t")
            .unwrap()
            .pk("id", DataType::Int)
            .unwrap()
            .col("renamed", DataType::Text)
            .unwrap()
            .finish();
        assert!(matches!(
            read_log(&path, &other).unwrap_err(),
            WalError::SchemaMismatch { .. }
        ));
        assert!(matches!(
            WalWriter::open(&path, &other).unwrap_err(),
            WalError::SchemaMismatch { .. }
        ));
        std::fs::remove_file(&path).unwrap();
    }

    #[test]
    fn wal_metrics_reach_the_global_registry() {
        // Deltas, not absolutes: the global registry is shared by every
        // test in this binary.
        let path = temp_path("obs");
        let c = catalog();
        let registry = quest_obs::global();
        let appends =
            |s: &quest_obs::MetricsSnapshot| s.histogram(names::APPEND).map_or(0, |h| h.count);
        let fsyncs =
            |s: &quest_obs::MetricsSnapshot| s.histogram(names::FSYNC).map_or(0, |h| h.count);
        let torn = |s: &quest_obs::MetricsSnapshot| s.counter(names::TORN_TAIL).unwrap_or(0);
        let before = registry.snapshot();
        {
            let mut w = WalWriter::open(&path, &c).unwrap();
            w.append(&ins(1)).unwrap();
            w.sync().unwrap();
        }
        // `>=`: sibling tests in this binary append concurrently.
        let after = registry.snapshot();
        assert!(appends(&after) > appends(&before));
        assert!(fsyncs(&after) > fsyncs(&before));

        // A torn tail is counted by the scan that observes it.
        {
            use std::io::Write;
            let mut f = OpenOptions::new().append(true).open(&path).unwrap();
            f.write_all(b"2\tdead").unwrap();
        }
        assert!(read_log(&path, &c).unwrap().torn_tail);
        assert!(torn(&registry.snapshot()) > torn(&after));
        std::fs::remove_file(&path).unwrap();
    }

    #[test]
    fn replay_applies_suffix_only_and_rerejects_deterministically() {
        let c = catalog();
        let mut db = Database::new(c.clone()).unwrap();
        db.finalize();
        let records = vec![(1, ins(1)), (2, ins(2)), (3, ins(3))];
        // Pretend a snapshot already contains record 1's effect.
        db.insert("t", relstore::Row::new(vec![1.into(), "row 1".into()]))
            .unwrap();
        let report = replay(&mut db, &records, 1).unwrap();
        assert_eq!(
            report,
            ReplayReport {
                applied: 2,
                rejected: 0
            }
        );
        assert_eq!(db.total_rows(), 3);
        assert!(db.validate().is_ok());
        // A logged record the live system rejected (duplicate key) is
        // re-rejected and skipped, and the records after it still apply —
        // a single poison record must not make the log unrecoverable.
        let tail = vec![(4, ins(2)), (5, ins(4))];
        let report = replay(&mut db, &tail, 0).unwrap();
        assert_eq!(
            report,
            ReplayReport {
                applied: 1,
                rejected: 1
            }
        );
        assert_eq!(db.total_rows(), 4);
        assert!(db.validate().is_ok());
    }
}
