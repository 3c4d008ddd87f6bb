//! The replayable load-report journal: an append-only file of
//! length-prefixed binary records, fsync-batched on the write path and
//! streamed back out to warm-start recovering backends.
//!
//! The journal is the gateway's replication log. Every `load_report`
//! accepted by the gateway is appended here *before* it is broadcast to
//! the backends, so the file is a faithful, ordered transcript of the
//! state every backend is supposed to hold. A backend that restarts
//! empty (or missed a window of broadcasts) is brought back to the
//! fleet's state by replaying the suffix it is missing — bit-identical
//! to having received the original broadcasts, because replay preserves
//! the append order and the forecaster state is a pure function of the
//! per-machine report sequence.
//!
//! ## Frame layout
//!
//! Records reuse the wire's framing discipline: `[u32 LE len][u8 tag]`
//! `[payload]`, where `len` counts the tag byte plus the payload. Tags:
//!
//! | tag | name | payload |
//! |-----|------|---------|
//! | `0x01` | `REC_META` | `"PGWJ"` magic + `u8` version (`0x01`) |
//! | `0x02` | `REC_REPORT` | a binproto `load_report` request frame body |
//! | `0x03` | `REC_TRUNCATE` | `f64` LE cutoff: older reports were compacted away |
//!
//! A `REC_REPORT` payload is exactly what [`binproto::encode_request`]
//! produces for the report minus the outer length word — the body of
//! the client's own `load_report` frame — so the gateway journals a
//! binary report by copying its bytes, replay is one
//! [`binproto::decode_request`] per record, and the journal format can
//! never drift from the wire format: they are the same bytes.
//!
//! ## Staging and commit
//!
//! Records are *staged* into an in-memory buffer and reach the OS when
//! the buffer is *committed*: one `write` for every record staged since
//! the last commit. The gateway stages each report of an event batch
//! and commits once, before any of them leaves for a backend;
//! [`Journal::append_report`] is the write-through form, a stage and a
//! commit. The counters ([`Journal::reports`], [`Journal::frames`],
//! [`Journal::bytes`]) describe committed records only. A commit that
//! fails part-way (`EFBIG`, `ENOSPC`) cuts the file back to where the
//! commit started, so no record of it survives and the next commit
//! lands on a record boundary; if even that cut fails, the handle
//! refuses every later record.
//!
//! ## Durability
//!
//! `fsync` is batched: one `sync_data` per `fsync_every` committed
//! records, plus one on [`Journal::sync`] (called at snapshot and
//! shutdown) — an explicit trade: reports arrive at fleet rates, and
//! per-record fsync would put a disk round-trip on every request. A
//! torn trailing record (crash mid-write) is detected on open and
//! truncated away.
//!
//! The batched syncs run on the journal's own thread, started by the
//! first full batch: the commit that completes a batch only asks for
//! its sync, and a commit waits only when the last *finished* sync is
//! two batches behind its first record. A crash can therefore lose at
//! most the last two batches plus the commit in progress, and the
//! committer — the gateway's event loop — does not stall on the disk's
//! latency. The thread runs under `SCHED_BATCH`, so its wake-ups on I/O
//! completion do not preempt the event loop (or the backends sharing
//! its CPU) in the middle of a batch.

use std::fs::{File, OpenOptions};
use std::io::{self, Read, Write};
use std::path::{Path, PathBuf};
use std::sync::{Arc, Condvar, Mutex, MutexGuard};
use std::thread::JoinHandle;

use proto::binproto;
use proto::proto::LoadReport;
use proto::Request;

/// Journal record: file metadata (first record of every journal).
pub const REC_META: u8 = 0x01;
/// Journal record: one `load_report`, binproto-encoded.
pub const REC_REPORT: u8 = 0x02;
/// Journal record: compaction marker carrying the `f64` cutoff.
pub const REC_TRUNCATE: u8 = 0x03;

/// Magic bytes opening the `REC_META` payload.
pub const META_MAGIC: [u8; 4] = *b"PGWJ";
/// Journal format version.
pub const META_VERSION: u8 = 0x01;

/// Largest record the reader will accept. Reports are tiny (tens of
/// bytes); anything near this is corruption, and bounding it keeps a
/// corrupt length word from driving a huge allocation.
const MAX_RECORD_BYTES: usize = 1 << 20;

/// How many records may ride on one `fsync` by default.
pub const DEFAULT_FSYNC_EVERY: usize = 64;

/// The gateway's append handle on the journal file.
#[derive(Debug)]
pub struct Journal {
    file: File,
    path: PathBuf,
    /// Records in the file (all tags).
    frames: u64,
    /// File length in bytes.
    bytes: u64,
    /// `REC_REPORT` records in the file.
    reports: u64,
    /// A lower bound on the `at` of every report in the file and in
    /// `staged` (see [`oldest_key`]); `+∞` with none. Exact after open
    /// and after every [`Journal::truncate_before`] that reads the file.
    oldest_at: f64,
    fsync_every: usize,
    /// Encoding scratch for [`Journal::append_report`].
    scratch: Vec<u8>,
    /// Records staged for the next commit, framed, in order.
    staged: Vec<u8>,
    /// Records in `staged` (all tags).
    staged_frames: u64,
    /// `REC_REPORT` records in `staged`.
    staged_reports: u64,
    /// Records committed through this handle, all tags — the position
    /// sync progress is measured in.
    appended: u64,
    /// Position covered by the last [`Journal::sync`] (or the open).
    synced: u64,
    /// The sync thread, started by the first full batch.
    syncer: Option<Syncer>,
    /// A failed append left bytes past `bytes` that could not be cut
    /// off; nothing more may be appended behind them.
    torn: bool,
}

impl Journal {
    /// Opens (or creates) the journal at `path` for appending.
    ///
    /// An existing file is scanned front to back: the `REC_META` header
    /// is validated, whole records are counted, and a torn trailing
    /// record is truncated away so the next append lands on a clean
    /// frame boundary. `fsync_every` is clamped to at least 1.
    pub fn open(path: impl Into<PathBuf>, fsync_every: usize) -> io::Result<Journal> {
        let path = path.into();
        let mut file = OpenOptions::new().read(true).create(true).append(true).open(&path)?;
        let mut raw = Vec::new();
        // modelcheck-allow: event-loop — full-file read is the replay
        // contract; open runs at startup and at the rare truncation
        // swap, never per request.
        file.read_to_end(&mut raw)?;
        let mut journal = Journal {
            file,
            path,
            frames: 0,
            bytes: 0,
            reports: 0,
            oldest_at: f64::INFINITY,
            fsync_every: fsync_every.max(1),
            scratch: Vec::with_capacity(256),
            staged: Vec::new(),
            staged_frames: 0,
            staged_reports: 0,
            appended: 0,
            synced: 0,
            syncer: None,
            torn: false,
        };
        if raw.is_empty() {
            let mut meta = Vec::with_capacity(META_MAGIC.len() + 1);
            meta.extend_from_slice(&META_MAGIC);
            meta.push(META_VERSION);
            journal.stage(REC_META, &meta)?;
            journal.commit()?;
            journal.sync()?;
            return Ok(journal);
        }
        let Scan { clean_len, frames, reports, oldest_at } = scan(&raw, journal.path.display())?;
        if clean_len < raw.len() {
            // Torn tail from a crash mid-append: drop it.
            journal.file.set_len(u64::try_from(clean_len).unwrap_or(0))?;
            journal.file.sync_data()?;
        }
        journal.frames = frames;
        journal.reports = reports;
        journal.oldest_at = oldest_at;
        journal.bytes = u64::try_from(clean_len).unwrap_or(0);
        Ok(journal)
    }

    /// The journal file path.
    pub fn path(&self) -> &Path {
        &self.path
    }

    /// Committed records in the file (every tag, the `REC_META` header
    /// included).
    pub fn frames(&self) -> u64 {
        self.frames
    }

    /// File length in bytes: committed records only.
    pub fn bytes(&self) -> u64 {
        self.bytes
    }

    /// Committed `REC_REPORT` records — the replication sequence number
    /// the per-backend cursors are measured against.
    pub fn reports(&self) -> u64 {
        self.reports
    }

    /// `REC_REPORT` records staged and not yet committed.
    pub fn staged(&self) -> u64 {
        self.staged_reports
    }

    /// Appends one load report, write-through: the record is staged and
    /// committed, so it reaches the OS before this returns (with any
    /// record staged before it); it reaches the platter on the next
    /// batched fsync.
    pub fn append_report(&mut self, report: &LoadReport) -> io::Result<()> {
        self.stage_value(report)?;
        self.commit()
    }

    /// Stages one load report given as the body (tag onward) of its
    /// binproto `load_report` frame — the record's payload, copied as
    /// is. Nothing reaches the OS, and no counter but
    /// [`Journal::staged`] moves, until [`Journal::commit`]. A body
    /// [`binproto::check_request`] does not vouch for as a
    /// `load_report` is refused: replay would reject it.
    pub fn stage_report(&mut self, body: &[u8]) -> io::Result<()> {
        if body.first() != Some(&binproto::REQ_LOAD_REPORT) || !binproto::check_request(body) {
            return Err(io::Error::new(
                io::ErrorKind::InvalidInput,
                "not a binproto load_report frame body",
            ));
        }
        self.stage(REC_REPORT, body)?;
        self.staged_reports += 1;
        // A record whose commit fails leaves this bound low: a later
        // truncation then reads the file once and corrects it.
        self.oldest_at = self.oldest_at.min(report_at(body).map_or(f64::NEG_INFINITY, oldest_key));
        Ok(())
    }

    /// Writes every staged record to the file with one `write` (a no-op
    /// with nothing staged), then counts them and does the fsync
    /// bookkeeping. A commit that fails — part-way through the write,
    /// or in the bookkeeping after it — is cut back to where it started
    /// and the staged records are dropped: either all of them stay in
    /// the file or none does.
    pub fn commit(&mut self) -> io::Result<()> {
        if self.staged.is_empty() {
            return Ok(());
        }
        let frames = std::mem::take(&mut self.staged_frames);
        let reports = std::mem::take(&mut self.staged_reports);
        let start = self.bytes;
        let len = u64::try_from(self.staged.len()).unwrap_or(u64::MAX);
        // modelcheck-allow: event-loop — the durable write IS the
        // journal's job: one write per event batch, its records capped,
        // and fsync batched, so the stall is bounded and by design.
        let written = self.file.write_all(&self.staged);
        self.staged.clear();
        if let Err(e) = written {
            self.torn = self.file.set_len(start).is_err();
            return Err(e);
        }
        let first = self.appended;
        self.appended += frames;
        if let Err(e) = self.request_sync(first) {
            self.appended = first;
            self.torn = self.file.set_len(start).is_err();
            return Err(e);
        }
        self.frames += frames;
        self.reports += reports;
        self.bytes += len;
        Ok(())
    }

    /// The fsync bookkeeping of a commit that moved the journal from
    /// position `first` to `self.appended`: starts the sync thread at
    /// the first full batch, then has it sync (see [`Syncer::committed`]).
    fn request_sync(&mut self, first: u64) -> io::Result<()> {
        let every = u64::try_from(self.fsync_every).unwrap_or(u64::MAX);
        if self.syncer.is_none() && self.appended.saturating_sub(self.synced) >= every {
            let file = self.file.try_clone()?;
            self.syncer = Some(Syncer::spawn(file, self.synced)?);
        }
        match &self.syncer {
            Some(syncer) => syncer.committed(first, self.appended, every),
            None => Ok(()),
        }
    }

    /// Stages one load report given as a value: encoded here, then
    /// staged like a client's frame body.
    fn stage_value(&mut self, report: &LoadReport) -> io::Result<()> {
        let mut frame = std::mem::take(&mut self.scratch);
        frame.clear();
        let staged = if binproto::encode_request(&Request::LoadReport(report.clone()), &mut frame) {
            // encode_request framed it as [u32 len][tag][fields]; the
            // record's payload is the body (tag onward).
            self.stage_report(frame.get(4..).unwrap_or_default())
        } else {
            Err(io::Error::new(
                io::ErrorKind::InvalidInput,
                "load report exceeds binproto frame limits",
            ))
        };
        self.scratch = frame;
        staged
    }

    /// Forces the file to stable storage now (resets the fsync batch).
    pub fn sync(&mut self) -> io::Result<()> {
        self.file.sync_data()?;
        self.synced = self.appended;
        if let Some(syncer) = &self.syncer {
            syncer.synced(self.appended);
        }
        Ok(())
    }

    /// Copies the journal (synced first) to `dst` — the `journal
    /// snapshot` subcommand. The copy is a valid journal: replaying or
    /// restoring from it is indistinguishable from the original.
    pub fn snapshot_to(&mut self, dst: &Path) -> io::Result<u64> {
        self.sync()?;
        std::fs::copy(&self.path, dst)
    }

    /// Drops every report older than `cutoff_at` (exclusive) by
    /// rewriting the journal compacted, leaving a `REC_TRUNCATE` marker
    /// recording the cutoff. Returns how many reports were dropped.
    ///
    /// This is the horizon-keyed truncation valve: reports older than
    /// the forecaster's sliding horizon no longer influence answers, so
    /// once every backend is caught up past them they are dead weight.
    /// It is deliberately opt-in (`--journal-horizon-secs`) because a
    /// truncated journal can no longer warm-start a backend from
    /// before the cutoff.
    ///
    /// The file is read only when the oldest retained report is older
    /// than the cutoff, so the gateway's call after every commit costs
    /// nothing until there is something to drop.
    pub fn truncate_before(&mut self, cutoff_at: f64) -> io::Result<u64> {
        self.commit()?;
        if cutoff_at <= self.oldest_at {
            return Ok(0);
        }
        let kept: Vec<LoadReport> =
            read_reports(&self.path)?.into_iter().filter(|r| r.at >= cutoff_at).collect();
        let kept_n = u64::try_from(kept.len()).unwrap_or(u64::MAX);
        let dropped = self.reports.saturating_sub(kept_n);
        if dropped == 0 {
            self.oldest_at = kept.iter().map(|r| oldest_key(r.at)).fold(f64::INFINITY, f64::min);
            return Ok(0);
        }
        let tmp = self.path.with_extension("compact.tmp");
        {
            let mut next = Journal::open(&tmp, usize::MAX)?;
            next.stage(REC_TRUNCATE, &cutoff_at.to_le_bytes())?;
            for r in &kept {
                next.stage_value(r)?;
            }
            next.commit()?;
            next.sync()?;
        }
        std::fs::rename(&tmp, &self.path)?;
        // Reopen the compacted file so the append handle and counters
        // track the new contents (the old sync thread stops with the
        // old handle; the compacted file is already synced).
        *self = Journal::open(&self.path, self.fsync_every)?;
        Ok(dropped)
    }

    /// Stages one framed record of any tag.
    fn stage(&mut self, tag: u8, payload: &[u8]) -> io::Result<()> {
        if self.torn {
            return Err(io::Error::other(
                "journal ends in a torn record that could not be cut off",
            ));
        }
        let len = u32::try_from(1 + payload.len()).map_err(|_| {
            io::Error::new(io::ErrorKind::InvalidInput, "journal record exceeds u32 length")
        })?;
        self.staged.extend_from_slice(&len.to_le_bytes());
        self.staged.push(tag);
        self.staged.extend_from_slice(payload);
        self.staged_frames += 1;
        Ok(())
    }
}

/// A thread that runs a journal's batched `sync_data` calls, and what
/// it shares with the appending side.
#[derive(Debug)]
struct Syncer {
    shared: Arc<SyncShared>,
    thread: Option<JoinHandle<()>>,
}

#[derive(Debug)]
struct SyncShared {
    state: Mutex<SyncState>,
    /// Signals both ways: a new request for the thread, a finished sync
    /// (or a failed one) for a waiting appender.
    changed: Condvar,
}

/// Positions count records appended through the journal handle.
#[derive(Debug)]
struct SyncState {
    /// Position the next sync must cover.
    wanted: u64,
    /// Position the last finished sync covered.
    done: u64,
    /// Why the last sync failed, until an appender reports it.
    failed: Option<io::Error>,
    stop: bool,
}

impl SyncShared {
    fn state(&self) -> MutexGuard<'_, SyncState> {
        // modelcheck-allow: event-loop — held only to read or move the
        // counters; the thread releases it before every sync_data. An
        // appender waits on `changed` only while the disk is two
        // batches behind, which one finished sync ends.
        self.state.lock().unwrap_or_else(|poisoned| poisoned.into_inner())
    }

    fn wait<'a>(&self, guard: MutexGuard<'a, SyncState>) -> MutexGuard<'a, SyncState> {
        self.changed.wait(guard).unwrap_or_else(|poisoned| poisoned.into_inner())
    }
}

impl Syncer {
    /// Starts the thread; everything up to `at` counts as synced.
    fn spawn(file: File, at: u64) -> io::Result<Syncer> {
        let shared = Arc::new(SyncShared {
            state: Mutex::new(SyncState { wanted: at, done: at, failed: None, stop: false }),
            changed: Condvar::new(),
        });
        let theirs = Arc::clone(&shared);
        let thread = std::thread::Builder::new()
            .name("predictgw-journal-sync".to_string())
            .spawn(move || sync_loop(&file, &theirs))?;
        Ok(Syncer { shared, thread: Some(thread) })
    }

    /// Bookkeeping after a commit moved the journal from position
    /// `first` to `at`: request a sync every batch of `every`, and wait
    /// while the last finished sync is two batches or more behind the
    /// commit's first record (for a one-record commit: more than two
    /// batches behind `at`). A failed sync is reported here, to the
    /// next committer.
    fn committed(&self, first: u64, at: u64, every: u64) -> io::Result<()> {
        let mut st = self.shared.state();
        if at.saturating_sub(st.wanted) >= every {
            st.wanted = at;
            self.shared.changed.notify_all();
        }
        loop {
            if let Some(e) = st.failed.take() {
                return Err(e);
            }
            if first.saturating_sub(st.done) < every.saturating_mul(2) {
                return Ok(());
            }
            if st.wanted < at {
                st.wanted = at;
                self.shared.changed.notify_all();
            }
            st = self.shared.wait(st);
        }
    }

    /// Records a sync the appending side ran itself, up to `at`.
    fn synced(&self, at: u64) {
        let mut st = self.shared.state();
        st.done = st.done.max(at);
        st.wanted = st.wanted.max(at);
        self.shared.changed.notify_all();
    }
}

impl Drop for Syncer {
    fn drop(&mut self) {
        self.shared.state().stop = true;
        self.shared.changed.notify_all();
        if let Some(thread) = self.thread.take() {
            let _ = thread.join();
        }
    }
}

/// The syncer thread: sync whenever an appender asked for more than the
/// last sync covered; finish what was asked, then exit on `stop`.
fn sync_loop(file: &File, shared: &SyncShared) {
    // Best effort: under the default policy the thread works the same,
    // it just preempts whoever runs when its sync completes.
    let _ = predictd::poll::batch_scheduling();
    let mut st = shared.state();
    loop {
        if st.wanted <= st.done {
            if st.stop {
                return;
            }
            st = shared.wait(st);
            continue;
        }
        let target = st.wanted;
        drop(st);
        let result = file.sync_data();
        st = shared.state();
        match result {
            Ok(()) => st.done = st.done.max(target),
            Err(e) => {
                // Retry on the next request, not in a loop against a
                // failing disk.
                st.wanted = st.done;
                st.failed = Some(e);
            }
        }
        shared.changed.notify_all();
    }
}

/// The `at` of a `load_report` frame body that passed
/// [`binproto::check_request`]: the word right after its machine name.
pub(crate) fn report_at(body: &[u8]) -> Option<f64> {
    let at = 1 + 4 + binproto::request_machine(body)?.len();
    Some(f64::from_le_bytes(*body.get(at..)?.first_chunk::<8>()?))
}

/// A report's `at` as [`Journal::truncate_before`] orders it: a NaN,
/// which no cutoff keeps, sorts below every cutoff.
fn oldest_key(at: f64) -> f64 {
    if at.is_nan() {
        f64::NEG_INFINITY
    } else {
        at
    }
}

/// What [`scan`] found in a journal's bytes.
struct Scan {
    /// Length of the prefix of whole records.
    clean_len: usize,
    /// Whole records, every tag.
    frames: u64,
    /// Whole `REC_REPORT` records.
    reports: u64,
    /// The least [`oldest_key`] among them; `+∞` with none.
    oldest_at: f64,
}

/// Walks the raw journal bytes, validating the header and counting
/// whole records. A torn trailing record is excluded from the clean
/// prefix, but a malformed record *body* (bad tag, corrupt report) is
/// an error — silently replaying past corruption would desync the
/// fleet.
fn scan(raw: &[u8], path: impl std::fmt::Display) -> io::Result<Scan> {
    let corrupt = |what: &str| {
        Err(io::Error::new(io::ErrorKind::InvalidData, format!("journal {path}: {what}")))
    };
    let mut pos = 0usize;
    let mut frames = 0u64;
    let mut reports = 0u64;
    let mut oldest_at = f64::INFINITY;
    while pos < raw.len() {
        let rest = &raw[pos..];
        if rest.len() < 4 {
            break; // torn length word
        }
        let mut len4 = [0u8; 4];
        len4.copy_from_slice(&rest[..4]);
        let len = usize::try_from(u32::from_le_bytes(len4)).unwrap_or(usize::MAX);
        if len == 0 || len > MAX_RECORD_BYTES {
            return corrupt("record length is zero or absurd");
        }
        if rest.len() < 4 + len {
            break; // torn record body
        }
        let tag = rest[4];
        let payload = &rest[5..4 + len];
        match tag {
            REC_META => {
                if frames != 0 {
                    return corrupt("REC_META is only valid as the first record");
                }
                if payload.len() < 5 || payload[..4] != META_MAGIC || payload[4] != META_VERSION {
                    return corrupt("bad or unsupported journal header");
                }
            }
            REC_REPORT => {
                match binproto::decode_request(payload) {
                    Ok(Request::LoadReport(r)) => oldest_at = oldest_at.min(oldest_key(r.at)),
                    Ok(_) => return corrupt("REC_REPORT does not hold a load_report"),
                    Err(_) => return corrupt("undecodable REC_REPORT record"),
                }
                reports += 1;
            }
            REC_TRUNCATE => {
                if payload.len() != 8 {
                    return corrupt("REC_TRUNCATE payload is not 8 bytes");
                }
            }
            _ => return corrupt("unknown record tag"),
        }
        if frames == 0 && tag != REC_META {
            return corrupt("journal does not start with REC_META");
        }
        frames += 1;
        pos += 4 + len;
    }
    Ok(Scan { clean_len: pos, frames, reports, oldest_at })
}

/// Reads every report from a journal file, in append order — the
/// replay source for warm-starting backends and the `journal restore`
/// subcommand.
pub fn read_reports(path: &Path) -> io::Result<Vec<LoadReport>> {
    let raw = std::fs::read(path)?;
    let Scan { clean_len, reports, .. } = scan(&raw, path.display())?;
    let mut out = Vec::with_capacity(usize::try_from(reports).unwrap_or(0));
    let mut pos = 0usize;
    while pos < clean_len {
        let mut len4 = [0u8; 4];
        len4.copy_from_slice(&raw[pos..pos + 4]);
        let len = usize::try_from(u32::from_le_bytes(len4)).unwrap_or(usize::MAX);
        // scan() already proved every record fits and decodes; the cap
        // re-establishes the bound locally for this second walk.
        let end = (pos + 4 + len).min(clean_len);
        let tag = raw[pos + 4];
        if tag == REC_REPORT {
            if let Ok(Request::LoadReport(r)) = binproto::decode_request(&raw[pos + 5..end]) {
                out.push(r);
            }
        }
        pos += 4 + len;
    }
    Ok(out)
}

/// The wire frames (length prefix included) of a journal's reports
/// from report `from` on (counting from 0, in append order) — what a
/// replay sends a backend that holds the first `from`. Earlier records
/// are skipped by their length words, not decoded; a report this reads
/// that [`binproto::check_request`] does not vouch for is an error, and
/// a torn trailing record ends the read, as in [`read_reports`].
pub fn report_frames(path: &Path, from: u64) -> io::Result<Vec<Vec<u8>>> {
    let raw = std::fs::read(path)?;
    let corrupt = |what: &str| {
        io::Error::new(io::ErrorKind::InvalidData, format!("journal {}: {what}", path.display()))
    };
    let mut frames = Vec::new();
    let mut skip = from;
    let mut rest = &raw[..];
    while let Some((len4, tail)) = rest.split_first_chunk::<4>() {
        let len = usize::try_from(u32::from_le_bytes(*len4)).unwrap_or(usize::MAX);
        if len == 0 || len > MAX_RECORD_BYTES {
            return Err(corrupt("record length is zero or absurd"));
        }
        let Some((record, tail)) = tail.split_at_checked(len) else { break };
        rest = tail;
        let Some((&REC_REPORT, body)) = record.split_first() else { continue };
        if skip > 0 {
            skip -= 1;
            continue;
        }
        if body.first() != Some(&binproto::REQ_LOAD_REPORT) || !binproto::check_request(body) {
            return Err(corrupt("undecodable REC_REPORT record"));
        }
        let mut frame = Vec::with_capacity(4 + body.len());
        frame.extend_from_slice(&u32::try_from(body.len()).unwrap_or(0).to_le_bytes());
        frame.extend_from_slice(body);
        frames.push(frame);
    }
    Ok(frames)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tmp(name: &str) -> PathBuf {
        let mut p = std::env::temp_dir();
        let pid = std::process::id();
        p.push(format!("predictgw-journal-{pid}-{name}"));
        let _ = std::fs::remove_file(&p);
        p
    }

    fn report(machine: &str, at: f64) -> LoadReport {
        LoadReport { machine: machine.to_string(), at, load: 1.5, comm_frac: 0.25 }
    }

    #[test]
    fn appends_survive_reopen_and_replay_in_order() {
        let path = tmp("roundtrip.j");
        {
            let mut j = Journal::open(&path, 2).expect("open");
            for i in 0..5 {
                j.append_report(&report(&format!("m{i}"), f64::from(i))).expect("append");
            }
            assert_eq!(j.reports(), 5);
            assert_eq!(j.frames(), 6, "meta + 5 reports");
        }
        let j = Journal::open(&path, 2).expect("reopen");
        assert_eq!(j.reports(), 5);
        let replayed = read_reports(&path).expect("read");
        assert_eq!(replayed.len(), 5);
        for (i, r) in replayed.iter().enumerate() {
            assert_eq!(r.machine, format!("m{i}"));
            assert_eq!(r.at, f64::from(u8::try_from(i).unwrap_or(0)));
        }
        let _ = std::fs::remove_file(&path);
    }

    #[test]
    fn torn_tail_is_truncated_on_open() {
        let path = tmp("torn.j");
        {
            let mut j = Journal::open(&path, 1).expect("open");
            j.append_report(&report("alpha", 1.0)).expect("append");
            j.append_report(&report("beta", 2.0)).expect("append");
        }
        // Chop bytes off the end, mid-record.
        let raw = std::fs::read(&path).expect("read");
        std::fs::write(&path, &raw[..raw.len() - 3]).expect("write torn");
        let j = Journal::open(&path, 1).expect("reopen");
        assert_eq!(j.reports(), 1, "the torn second report is gone");
        let replayed = read_reports(&path).expect("read");
        assert_eq!(replayed.len(), 1);
        assert_eq!(replayed[0].machine, "alpha");
        let _ = std::fs::remove_file(&path);
    }

    #[test]
    fn corrupt_bodies_are_rejected_not_skipped() {
        let path = tmp("corrupt.j");
        {
            let mut j = Journal::open(&path, 1).expect("open");
            j.append_report(&report("alpha", 1.0)).expect("append");
        }
        let mut raw = std::fs::read(&path).expect("read");
        // The meta record is 10 bytes, so the report's journal tag sits
        // at offset 14 (after its own length word); make it unknown.
        raw[14] = 0xEE;
        std::fs::write(&path, &raw).expect("write corrupt");
        assert!(Journal::open(&path, 1).is_err(), "corruption must not be replayed past");
        let _ = std::fs::remove_file(&path);
    }

    #[test]
    fn truncation_drops_old_reports_and_leaves_a_marker() {
        let path = tmp("truncate.j");
        let mut j = Journal::open(&path, 1).expect("open");
        for i in 0..10 {
            j.append_report(&report(&format!("m{i}"), f64::from(i))).expect("append");
        }
        let dropped = j.truncate_before(6.0).expect("truncate");
        assert_eq!(dropped, 6, "at 0..=5 dropped");
        assert_eq!(j.reports(), 4);
        let replayed = read_reports(&path).expect("read");
        assert_eq!(replayed.len(), 4);
        assert!(replayed.iter().all(|r| r.at >= 6.0));
        // Idempotent once compacted.
        assert_eq!(j.truncate_before(6.0).expect("truncate again"), 0);
        let _ = std::fs::remove_file(&path);
    }

    #[test]
    fn a_truncation_that_drops_nothing_leaves_the_file_unread_and_unchanged() {
        let path = tmp("no-read.j");
        let away = tmp("no-read-away.j");
        let mut j = Journal::open(&path, 1).expect("open");
        for at in [7.0, 5.0, 9.0] {
            j.append_report(&report("m", at)).expect("append");
        }
        j.stage_report(&body(&report("m", 4.0))).expect("stage");
        let bytes = std::fs::read(&path).expect("read");
        // Moved away, the file cannot be read through its path: a
        // truncation that reads it fails.
        std::fs::rename(&path, &away).expect("move away");
        assert_eq!(j.truncate_before(4.0).expect("nothing older than the oldest"), 0);
        assert!(j.truncate_before(4.5).is_err(), "a cutoff past the oldest reads the file");
        std::fs::rename(&away, &path).expect("move back");
        assert!(std::fs::read(&path).expect("read").starts_with(&bytes), "nothing was rewritten");
        assert_eq!((j.reports(), j.frames()), (4, 5), "the staged report committed, no marker");
        let _ = std::fs::remove_file(&path);
    }

    #[test]
    fn compaction_drops_exactly_the_reports_older_than_the_cutoff() {
        let path = tmp("exact.j");
        let away = tmp("exact-away.j");
        let mut j = Journal::open(&path, 1).expect("open");
        let ats = [3.0, 9.0, 1.0, 7.0, 5.0, 8.0, 2.0, 6.0];
        for (i, &at) in ats.iter().enumerate() {
            j.append_report(&report(&format!("m{i}"), at)).expect("append");
        }
        assert_eq!(j.truncate_before(5.0).expect("truncate"), 3, "at 3, 1 and 2 dropped");
        let kept: Vec<f64> = read_reports(&path).expect("read").iter().map(|r| r.at).collect();
        assert_eq!(kept, [9.0, 7.0, 5.0, 8.0, 6.0], "the rest, in order");
        // The reopened journal knows its oldest report is at 5.
        std::fs::rename(&path, &away).expect("move away");
        assert_eq!(j.truncate_before(5.0).expect("nothing to drop, nothing read"), 0);
        std::fs::rename(&away, &path).expect("move back");
        assert_eq!(j.truncate_before(6.5).expect("truncate"), 2, "at 5 and 6 dropped");
        assert_eq!(j.reports(), 3);
        let _ = std::fs::remove_file(&path);
    }

    #[test]
    fn report_frames_from_k_are_the_encodings_of_the_reports_from_k() {
        let path = tmp("frames.j");
        let mut j = Journal::open(&path, 1).expect("open");
        for i in 0..6 {
            j.append_report(&report(&format!("m{i}"), f64::from(i))).expect("append");
        }
        // A compaction marker sits between the header and the reports.
        j.truncate_before(1.0).expect("truncate");
        j.append_report(&report("late", 9.0)).expect("append");
        let all = read_reports(&path).expect("read");
        assert_eq!(all.len(), 6);
        for k in 0..=7 {
            let want: Vec<Vec<u8>> = all
                .iter()
                .skip(k)
                .map(|r| {
                    let mut frame = Vec::new();
                    assert!(binproto::encode_request(&Request::LoadReport(r.clone()), &mut frame));
                    frame
                })
                .collect();
            let got = report_frames(&path, u64::try_from(k).expect("small")).expect("frames");
            assert_eq!(got, want, "from report {k}");
        }
        let _ = std::fs::remove_file(&path);
    }

    #[test]
    fn snapshot_is_a_byte_identical_valid_journal() {
        let src = tmp("snap-src.j");
        let dst = tmp("snap-dst.j");
        let mut j = Journal::open(&src, 4).expect("open");
        for i in 0..3 {
            j.append_report(&report("m", f64::from(i))).expect("append");
        }
        j.snapshot_to(&dst).expect("snapshot");
        assert_eq!(std::fs::read(&src).expect("src"), std::fs::read(&dst).expect("dst"));
        assert_eq!(read_reports(&dst).expect("read").len(), 3);
        let _ = std::fs::remove_file(&src);
        let _ = std::fs::remove_file(&dst);
    }

    #[test]
    fn syncs_keep_at_most_two_batches_unsynced() {
        let path = tmp("background.j");
        {
            let mut j = Journal::open(&path, 4).expect("open");
            for i in 0..200 {
                j.append_report(&report(&format!("m{}", i % 7), f64::from(i))).expect("append");
                let done = j.syncer.as_ref().map_or(0, |s| s.shared.state().done);
                assert!(j.appended - done <= 8, "{} appended, {done} synced", j.appended);
            }
            j.sync().expect("sync");
            let st = j.syncer.as_ref().map(|s| s.shared.state().done);
            assert_eq!(st, Some(j.appended), "an explicit sync covers everything");
            assert_eq!(j.truncate_before(100.0).expect("truncate"), 100);
            j.append_report(&report("late", 500.0)).expect("append after compaction");
        }
        let replayed = read_reports(&path).expect("read");
        assert_eq!(replayed.len(), 101);
        assert!(replayed.iter().take(100).all(|r| r.at >= 100.0));
        assert_eq!(replayed.last().map(|r| r.machine.as_str()), Some("late"));
        let _ = std::fs::remove_file(&path);
    }

    fn body(report: &LoadReport) -> Vec<u8> {
        let mut frame = Vec::new();
        assert!(binproto::encode_request(&Request::LoadReport(report.clone()), &mut frame));
        frame.split_off(4)
    }

    #[test]
    fn staged_records_reach_the_file_and_the_counters_only_on_commit() {
        let path = tmp("staged.j");
        let mut j = Journal::open(&path, 1).expect("open");
        let (frames, bytes) = (j.frames(), j.bytes());
        let reports: Vec<LoadReport> = (0..3).map(|i| report(&format!("m{i}"), 1.0)).collect();
        for r in &reports {
            j.stage_report(&body(r)).expect("stage");
        }
        assert_eq!((j.reports(), j.staged(), j.frames(), j.bytes()), (0, 3, frames, bytes));
        let on_disk = std::fs::metadata(&path).expect("metadata").len();
        assert_eq!(on_disk, bytes, "staging wrote to the file");
        j.commit().expect("commit");
        assert_eq!((j.reports(), j.staged(), j.frames()), (3, 0, frames + 3));
        assert_eq!(std::fs::metadata(&path).expect("metadata").len(), j.bytes());
        assert_eq!(read_reports(&path).expect("read"), reports);
        // A staged body is the record's payload byte for byte.
        let raw = std::fs::read(&path).expect("raw");
        let first = &raw[usize::try_from(bytes).expect("small") + 5..];
        assert!(first.starts_with(&body(&reports[0])));
        j.commit().expect("an empty commit is a no-op");
        assert_eq!(j.frames(), frames + 3);
        let _ = std::fs::remove_file(&path);
    }

    #[test]
    fn only_load_report_bodies_can_be_staged() {
        let path = tmp("stage-refuse.j");
        let mut j = Journal::open(&path, 1).expect("open");
        let mut stats = Vec::new();
        assert!(binproto::encode_request(&Request::Stats, &mut stats));
        let good = body(&report("m", 1.0));
        for bad in [&stats[4..], &good[..good.len() - 1], &[][..]] {
            assert!(j.stage_report(bad).is_err(), "{bad:?} was staged");
        }
        assert_eq!(j.staged(), 0);
        let _ = std::fs::remove_file(&path);
    }

    #[test]
    fn empty_or_garbage_files_are_handled() {
        let path = tmp("fresh.j");
        let j = Journal::open(&path, 1).expect("fresh journal");
        assert_eq!(j.reports(), 0);
        assert_eq!(j.frames(), 1, "just the header");
        drop(j);
        std::fs::write(&path, b"definitely not a journal, much too long").expect("write");
        assert!(Journal::open(&path, 1).is_err());
        let _ = std::fs::remove_file(&path);
    }

    /// DESIGN.md §9's record table lists exactly this file's `REC_*`
    /// constants, each with its tag byte. The constants are read from
    /// the source, so a new one without a row fails here.
    #[test]
    fn design_record_table_matches_the_rec_constants() {
        let mut consts: Vec<(String, String)> = include_str!("journal.rs")
            .lines()
            .filter_map(|l| l.strip_prefix("pub const REC_"))
            .map(|rest| {
                let (name, tag) = rest.split_once(": u8 = ").expect("a u8 record tag");
                (format!("REC_{name}"), tag.trim_end_matches(';').to_string())
            })
            .collect();
        let mut rows: Vec<(String, String)> = include_str!("../../../DESIGN.md")
            .lines()
            .skip_while(|l| l.trim() != "| tag | record | payload |")
            .skip(2)
            .take_while(|l| l.starts_with('|'))
            .map(|l| {
                let cells: Vec<&str> = l.split('|').map(|c| c.trim().trim_matches('`')).collect();
                (cells[2].to_string(), cells[1].to_string())
            })
            .collect();
        consts.sort();
        rows.sort();
        assert!(!rows.is_empty(), "no §9 record table in DESIGN.md");
        assert_eq!(rows, consts, "DESIGN.md §9 rows vs the REC_* constants");
    }
}
