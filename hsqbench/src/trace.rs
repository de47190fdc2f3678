//! Traced-run plumbing, all on the benchmark's side of the API: a
//! [`BlockDevice`] wrapper timing every device call, a [`Connector`]
//! wrapper timing every wire round trip, and an in-memory span ledger
//! written out when the run ends.

use std::io::{self, Write};
use std::path::Path;
use std::sync::atomic::{AtomicU64, Ordering::Relaxed};
use std::sync::{Arc, Mutex};
use std::time::{Duration, Instant};

use hsq::service::proto::Request;
use hsq::service::transport::{Connector, TcpConnector, Transport};
use hsq::storage::{BlockDevice, FileId, IoStats};

// ---------------------------------------------------------------------
// Storage layer.

/// Counters of one [`TracedDevice`]; times in nanoseconds.
#[derive(Default)]
pub struct DevTap {
    reads: AtomicU64,
    seq_reads: AtomicU64,
    read_ns: AtomicU64,
    writes: AtomicU64,
    write_ns: AtomicU64,
    syncs: AtomicU64,
    sync_ns: AtomicU64,
    /// Last block read, per file id, packed as `file << 32 | block` (a
    /// read of the block after it counts as sequential).
    last_read: AtomicU64,
}

/// A point-in-time copy of a [`DevTap`].
#[derive(Default, Clone, Copy, Debug)]
pub struct DevCounts {
    pub reads: u64,
    pub seq_reads: u64,
    pub read_ns: u64,
    pub writes: u64,
    pub write_ns: u64,
    pub syncs: u64,
    pub sync_ns: u64,
}

impl std::ops::Add for DevCounts {
    type Output = DevCounts;
    fn add(self, o: DevCounts) -> DevCounts {
        DevCounts {
            reads: self.reads + o.reads,
            seq_reads: self.seq_reads + o.seq_reads,
            read_ns: self.read_ns + o.read_ns,
            writes: self.writes + o.writes,
            write_ns: self.write_ns + o.write_ns,
            syncs: self.syncs + o.syncs,
            sync_ns: self.sync_ns + o.sync_ns,
        }
    }
}

impl std::ops::Sub for DevCounts {
    type Output = DevCounts;
    fn sub(self, o: DevCounts) -> DevCounts {
        DevCounts {
            reads: self.reads - o.reads,
            seq_reads: self.seq_reads - o.seq_reads,
            read_ns: self.read_ns - o.read_ns,
            writes: self.writes - o.writes,
            write_ns: self.write_ns - o.write_ns,
            syncs: self.syncs - o.syncs,
            sync_ns: self.sync_ns - o.sync_ns,
        }
    }
}

impl DevTap {
    pub fn counts(&self) -> DevCounts {
        DevCounts {
            reads: self.reads.load(Relaxed),
            seq_reads: self.seq_reads.load(Relaxed),
            read_ns: self.read_ns.load(Relaxed),
            writes: self.writes.load(Relaxed),
            write_ns: self.write_ns.load(Relaxed),
            syncs: self.syncs.load(Relaxed),
            sync_ns: self.sync_ns.load(Relaxed),
        }
    }

    fn read(&self, file: FileId, first: u64, count: u64, t: Instant) {
        self.read_ns.fetch_add(elapsed_ns(t), Relaxed);
        self.reads.fetch_add(count, Relaxed);
        let key = (file << 32) | (first & 0xFFFF_FFFF);
        let prev = self.last_read.swap(key + count.saturating_sub(1), Relaxed);
        // The first block continues the previous read or not; the rest of
        // a multi-block read are sequential by construction.
        let seq = count.saturating_sub(1) + u64::from(prev.wrapping_add(1) == key);
        self.seq_reads.fetch_add(seq, Relaxed);
    }
}

fn elapsed_ns(t: Instant) -> u64 {
    t.elapsed().as_nanos() as u64
}

/// Times and counts every call into the wrapped device.
pub struct TracedDevice<D: BlockDevice> {
    inner: Arc<D>,
    tap: Arc<DevTap>,
}

impl<D: BlockDevice> TracedDevice<D> {
    pub fn new(inner: Arc<D>) -> Arc<Self> {
        Arc::new(TracedDevice {
            inner,
            tap: Arc::new(DevTap::default()),
        })
    }

    pub fn tap(&self) -> &DevTap {
        &self.tap
    }
}

impl<D: BlockDevice> BlockDevice for TracedDevice<D> {
    fn block_size(&self) -> usize {
        self.inner.block_size()
    }

    fn create(&self) -> io::Result<FileId> {
        self.inner.create()
    }

    fn write_block(&self, file: FileId, idx: u64, data: &[u8]) -> io::Result<()> {
        let t = Instant::now();
        let r = self.inner.write_block(file, idx, data);
        self.tap.write_ns.fetch_add(elapsed_ns(t), Relaxed);
        self.tap.writes.fetch_add(1, Relaxed);
        r
    }

    fn read_block(&self, file: FileId, idx: u64, buf: &mut [u8]) -> io::Result<usize> {
        let t = Instant::now();
        let r = self.inner.read_block(file, idx, buf);
        self.tap.read(file, idx, 1, t);
        r
    }

    fn read_blocks(
        &self,
        file: FileId,
        first: u64,
        count: u64,
        buf: &mut [u8],
    ) -> io::Result<usize> {
        let t = Instant::now();
        let r = self.inner.read_blocks(file, first, count, buf);
        self.tap.read(file, first, count, t);
        r
    }

    fn sync(&self, file: FileId) -> io::Result<()> {
        let t = Instant::now();
        let r = self.inner.sync(file);
        self.tap.sync_ns.fetch_add(elapsed_ns(t), Relaxed);
        self.tap.syncs.fetch_add(1, Relaxed);
        r
    }

    fn num_blocks(&self, file: FileId) -> io::Result<u64> {
        self.inner.num_blocks(file)
    }

    fn file_len(&self, file: FileId) -> io::Result<u64> {
        self.inner.file_len(file)
    }

    fn delete(&self, file: FileId) -> io::Result<()> {
        self.inner.delete(file)
    }

    fn stats(&self) -> &IoStats {
        self.inner.stats()
    }
}

// ---------------------------------------------------------------------
// Service layer.

/// What a wire exchange carried, from its request frame.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Kind {
    OpenSession,
    Extract,
    Probe,
    /// Ingest, end-step and ping frames.
    Other,
}

impl Kind {
    fn of(frame: &[u8]) -> Kind {
        match Request::<u64>::decode(frame) {
            Ok(Request::OpenSession { .. }) => Kind::OpenSession,
            Ok(Request::Extract { .. }) => Kind::Extract,
            Ok(Request::Probe { .. }) => Kind::Probe,
            _ => Kind::Other,
        }
    }
}

/// One network round: from the first frame sent while nothing was in
/// flight to the last response received. A probe round fans one frame
/// out to every group before collecting the answers, so its exchanges
/// overlap and the round's wall time is what the coordinator waits.
#[derive(Clone, Copy, Debug)]
pub struct Round {
    pub kind: Kind,
    pub exchanges: u32,
    pub wait: Duration,
    pub bytes: u64,
}

#[derive(Default)]
struct NetState {
    rounds: Vec<Round>,
    in_flight: u32,
    open: Option<(Instant, Kind, u32, u64)>,
}

/// Shared wire ledger of every [`TracedTransport`] of one coordinator.
#[derive(Default, Clone)]
pub struct NetTap {
    state: Arc<Mutex<NetState>>,
}

impl NetTap {
    /// Number of rounds recorded so far (a cursor for [`NetTap::since`]).
    pub fn cursor(&self) -> usize {
        self.lock().rounds.len()
    }

    /// Rounds recorded after `cursor`.
    pub fn since(&self, cursor: usize) -> Vec<Round> {
        self.lock().rounds[cursor..].to_vec()
    }

    fn lock(&self) -> std::sync::MutexGuard<'_, NetState> {
        self.state
            .lock()
            .expect("net tap lock poisoned by a panicking client")
    }

    /// A frame went out; `t` is when its send began.
    fn sent(&self, kind: Kind, bytes: usize, t: Instant) {
        let mut s = self.lock();
        s.in_flight += 1;
        let open = s.open.get_or_insert((t, kind, 0, 0));
        open.2 += 1;
        open.3 += bytes as u64 + 4;
    }

    fn received(&self, bytes: usize) {
        let mut s = self.lock();
        s.in_flight = s.in_flight.saturating_sub(1);
        if let Some(open) = &mut s.open {
            open.3 += bytes as u64 + 4;
        }
        if s.in_flight == 0 {
            if let Some((t, kind, exchanges, bytes)) = s.open.take() {
                s.rounds.push(Round {
                    kind,
                    exchanges,
                    wait: t.elapsed(),
                    bytes,
                });
            }
        }
    }
}

/// [`TcpConnector`] whose transports report to a [`NetTap`].
pub struct TracedConnector {
    inner: TcpConnector,
    tap: NetTap,
}

impl TracedConnector {
    pub fn new(inner: TcpConnector, tap: NetTap) -> TracedConnector {
        TracedConnector { inner, tap }
    }
}

impl Connector for TracedConnector {
    fn connect(&self, addr: &str) -> io::Result<Box<dyn Transport>> {
        Ok(Box::new(TracedTransport {
            inner: self.inner.connect(addr)?,
            tap: self.tap.clone(),
        }))
    }
}

struct TracedTransport {
    inner: Box<dyn Transport>,
    tap: NetTap,
}

impl Transport for TracedTransport {
    fn send_frame(&mut self, frame: &[u8]) -> io::Result<()> {
        let t = Instant::now();
        let r = self.inner.send_frame(frame);
        // A frame that never left expects no response.
        if r.is_ok() {
            self.tap.sent(Kind::of(frame), frame.len(), t);
        }
        r
    }

    fn recv_frame(&mut self) -> io::Result<Vec<u8>> {
        let r = self.inner.recv_frame();
        self.tap.received(r.as_ref().map_or(0, |f| f.len()));
        r
    }
}

// ---------------------------------------------------------------------
// Spans.

/// One timed call: `name` inside end-to-end operation `op`. Every span
/// of one operation shares its `op` id; the root span is named after the
/// operation (`step`, `query`, ...).
#[derive(Clone, Copy, Debug)]
pub struct Span {
    pub op: u64,
    pub name: &'static str,
    pub start: Duration,
    pub dur: Duration,
}

/// In-memory span store of one traced run.
pub struct Ledger {
    origin: Instant,
    spans: Vec<Span>,
    next_op: u64,
}

impl Default for Ledger {
    fn default() -> Self {
        Ledger {
            origin: Instant::now(),
            spans: Vec::new(),
            next_op: 0,
        }
    }
}

impl Ledger {
    /// Start a new end-to-end operation; returns its id.
    pub fn begin(&mut self) -> u64 {
        self.next_op += 1;
        self.next_op
    }

    /// Record a span that started at `t` and ends now.
    pub fn record(&mut self, op: u64, name: &'static str, t: Instant) -> Duration {
        let dur = t.elapsed();
        self.record_dur(op, name, t, dur);
        dur
    }

    /// Record a span of known duration (e.g. a phase the program itself
    /// timed and reported) starting at `t`.
    pub fn record_dur(&mut self, op: u64, name: &'static str, t: Instant, dur: Duration) {
        self.spans.push(Span {
            op,
            name,
            start: t.saturating_duration_since(self.origin),
            dur,
        });
    }

    /// For every op that has a `root` span: the root's duration and the
    /// summed duration of its spans named in `leaves`.
    pub fn coverage(&self, root: &str, leaves: &[&str]) -> Vec<(f64, f64)> {
        let mut out: Vec<(u64, f64, f64)> = Vec::new();
        for s in &self.spans {
            let is_root = s.name == root;
            if !is_root && !leaves.contains(&s.name) {
                continue;
            }
            if out.last().map(|o| o.0) != Some(s.op) {
                out.push((s.op, 0.0, 0.0));
            }
            let o = out.last_mut().expect("just pushed");
            if is_root {
                o.1 += s.dur.as_secs_f64();
            } else {
                o.2 += s.dur.as_secs_f64();
            }
        }
        out.into_iter()
            .filter(|o| o.1 > 0.0)
            .map(|(_, root, leaves)| (root, leaves))
            .collect()
    }

    /// Write every span as a tab-separated line: op, name, start µs,
    /// duration µs.
    pub fn write_tsv(&self, path: &Path) -> io::Result<()> {
        let mut out = io::BufWriter::new(std::fs::File::create(path)?);
        writeln!(out, "op\tname\tstart_us\tdur_us")?;
        for s in &self.spans {
            writeln!(
                out,
                "{}\t{}\t{:.3}\t{:.3}",
                s.op,
                s.name,
                s.start.as_secs_f64() * 1e6,
                s.dur.as_secs_f64() * 1e6
            )?;
        }
        out.flush()
    }
}
