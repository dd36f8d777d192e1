//! The stream: the second consumer of the frame model. A bounded
//! lock-free ring carries the [`Frame`]s a [`Recorder`](super::Recorder)
//! emits to a background writer thread, which renders each through
//! [`Frame::to_json`] into a length-prefixed JSONL file.
//!
//! Design contract (DESIGN.md §6):
//!
//! * The **hot path never blocks**: [`StreamSink::push`] is a single
//!   CAS-loop enqueue onto a fixed-capacity MPMC ring. When the writer
//!   falls behind and the ring is full, the frame is *dropped* and a
//!   relaxed atomic drop counter incremented — the solve loop proceeds
//!   at full speed regardless of disk stalls.
//! * Serialization and I/O happen **only on the writer thread**. The
//!   producer side moves already-owned frames (the same values the
//!   buffer retains) into the ring.
//! * Each frame on disk is `XXXXXXXX <json>\n` where `XXXXXXXX` is the
//!   lowercase-hex byte length of `<json>`. A tail reader
//!   ([`StreamReader`]) uses the prefix to detect torn writes and only
//!   yields complete frames, so `pbte-trace --follow` can tail the file
//!   while the solve is still running.
//! * The final [`Frame::RunEnd`] frame is written by the writer thread
//!   itself after the ring drains on shutdown — it is never droppable
//!   and carries the total frame/drop accounting, so readers have an
//!   unambiguous end-of-stream marker.

use std::cell::UnsafeCell;
use std::fs::File;
use std::io::{BufWriter, Read, Seek, SeekFrom, Write};
use std::mem::MaybeUninit;
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicBool, AtomicU64, AtomicUsize, Ordering};
use std::sync::Arc;
use std::thread::JoinHandle;
use std::time::Duration;

use super::Frame;

// ---------------------------------------------------------------------------
// Bounded lock-free MPMC ring (Vyukov queue on std atomics).
// ---------------------------------------------------------------------------

struct Slot<T> {
    seq: AtomicUsize,
    value: UnsafeCell<MaybeUninit<T>>,
}

/// Fixed-capacity multi-producer multi-consumer queue. `try_push` and
/// `try_pop` are wait-free in the common case (one CAS each) and never
/// block; a full ring rejects the value instead of waiting.
struct Ring<T> {
    slots: Box<[Slot<T>]>,
    mask: usize,
    enqueue_pos: AtomicUsize,
    dequeue_pos: AtomicUsize,
}

// Safety: slots are handed off between threads through the `seq`
// acquire/release protocol below; a value is only ever read by the single
// consumer that won the CAS on `dequeue_pos` for that slot.
unsafe impl<T: Send> Sync for Ring<T> {}
unsafe impl<T: Send> Send for Ring<T> {}

impl<T> Ring<T> {
    fn with_capacity(capacity: usize) -> Ring<T> {
        let cap = capacity.max(2).next_power_of_two();
        let slots: Box<[Slot<T>]> = (0..cap)
            .map(|i| Slot {
                seq: AtomicUsize::new(i),
                value: UnsafeCell::new(MaybeUninit::uninit()),
            })
            .collect();
        Ring {
            slots,
            mask: cap - 1,
            enqueue_pos: AtomicUsize::new(0),
            dequeue_pos: AtomicUsize::new(0),
        }
    }

    /// Enqueue without blocking. Returns the value back when the ring is
    /// full so the caller can account the drop.
    fn try_push(&self, value: T) -> Result<(), T> {
        let mut pos = self.enqueue_pos.load(Ordering::Relaxed);
        loop {
            let slot = &self.slots[pos & self.mask];
            let seq = slot.seq.load(Ordering::Acquire);
            let diff = seq as isize - pos as isize;
            if diff == 0 {
                match self.enqueue_pos.compare_exchange_weak(
                    pos,
                    pos.wrapping_add(1),
                    Ordering::Relaxed,
                    Ordering::Relaxed,
                ) {
                    Ok(_) => {
                        // Safety: winning the CAS grants exclusive write
                        // access to this slot until `seq` is published.
                        unsafe { (*slot.value.get()).write(value) };
                        slot.seq.store(pos.wrapping_add(1), Ordering::Release);
                        return Ok(());
                    }
                    Err(p) => pos = p,
                }
            } else if diff < 0 {
                // Full: the slot still holds an unconsumed value.
                return Err(value);
            } else {
                pos = self.enqueue_pos.load(Ordering::Relaxed);
            }
        }
    }

    /// Dequeue without blocking. `None` when empty.
    fn try_pop(&self) -> Option<T> {
        let mut pos = self.dequeue_pos.load(Ordering::Relaxed);
        loop {
            let slot = &self.slots[pos & self.mask];
            let seq = slot.seq.load(Ordering::Acquire);
            let diff = seq as isize - pos.wrapping_add(1) as isize;
            if diff == 0 {
                match self.dequeue_pos.compare_exchange_weak(
                    pos,
                    pos.wrapping_add(1),
                    Ordering::Relaxed,
                    Ordering::Relaxed,
                ) {
                    Ok(_) => {
                        // Safety: winning the CAS grants exclusive read
                        // access; the producer published the value with
                        // the Release store matched by the Acquire above.
                        let value = unsafe { (*slot.value.get()).assume_init_read() };
                        slot.seq.store(
                            pos.wrapping_add(self.mask).wrapping_add(1),
                            Ordering::Release,
                        );
                        return Some(value);
                    }
                    Err(p) => pos = p,
                }
            } else if diff < 0 {
                return None;
            } else {
                pos = self.dequeue_pos.load(Ordering::Relaxed);
            }
        }
    }
}

impl<T> Drop for Ring<T> {
    fn drop(&mut self) {
        while self.try_pop().is_some() {}
    }
}

// ---------------------------------------------------------------------------
// Sink / writer
// ---------------------------------------------------------------------------

struct StreamShared {
    ring: Ring<Frame>,
    dropped: AtomicU64,
    pushed: AtomicU64,
    closed: AtomicBool,
}

/// Producer handle for the streaming sink. Cheap to clone (one `Arc`);
/// every rank's recorder holds one and pushes frames from the solve loop.
#[derive(Clone)]
pub struct StreamSink {
    shared: Arc<StreamShared>,
}

impl std::fmt::Debug for StreamSink {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("StreamSink")
            .field("pushed", &self.shared.pushed.load(Ordering::Relaxed))
            .field("dropped", &self.shared.dropped.load(Ordering::Relaxed))
            .finish()
    }
}

impl StreamSink {
    /// Standalone bounded sink with **no writer thread** — frames
    /// accumulate in the ring until popped. This models a fully stalled
    /// writer and backs the never-blocks drop-counter test.
    pub fn bounded(capacity: usize) -> StreamSink {
        StreamSink {
            shared: Arc::new(StreamShared {
                ring: Ring::with_capacity(capacity),
                dropped: AtomicU64::new(0),
                pushed: AtomicU64::new(0),
                closed: AtomicBool::new(false),
            }),
        }
    }

    /// Enqueue a frame. Never blocks: a full ring drops the frame and
    /// increments the drop counter.
    pub fn push(&self, frame: Frame) {
        match self.shared.ring.try_push(frame) {
            Ok(()) => {
                self.shared.pushed.fetch_add(1, Ordering::Relaxed);
            }
            Err(_) => {
                self.shared.dropped.fetch_add(1, Ordering::Relaxed);
            }
        }
    }

    /// Frames dropped so far under backpressure.
    pub fn dropped(&self) -> u64 {
        self.shared.dropped.load(Ordering::Relaxed)
    }

    /// Frames accepted into the ring so far.
    pub fn pushed(&self) -> u64 {
        self.shared.pushed.load(Ordering::Relaxed)
    }

    /// Pop one frame (test/drain use).
    pub fn pop(&self) -> Option<Frame> {
        self.shared.ring.try_pop()
    }
}

/// Configuration for [`StreamWriter`].
#[derive(Debug, Clone, Copy)]
pub struct StreamConfig {
    /// Ring capacity in frames (rounded up to a power of two).
    pub capacity: usize,
}

impl Default for StreamConfig {
    fn default() -> StreamConfig {
        StreamConfig { capacity: 4096 }
    }
}

/// End-of-run accounting returned by [`StreamWriter::finish`].
#[derive(Debug, Clone, Copy)]
pub struct StreamStats {
    /// Frames written to the file (excluding the `run_end` frame).
    pub frames_written: u64,
    /// Frames dropped under backpressure.
    pub dropped: u64,
    /// Bytes written to the file.
    pub bytes: u64,
}

/// Background writer draining a [`StreamSink`]'s ring into a
/// length-prefixed JSONL file.
pub struct StreamWriter {
    sink: StreamSink,
    handle: Option<JoinHandle<std::io::Result<StreamStats>>>,
    path: PathBuf,
}

impl std::fmt::Debug for StreamWriter {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("StreamWriter")
            .field("path", &self.path)
            .finish()
    }
}

impl StreamWriter {
    /// Create the stream file and spawn the writer thread. The returned
    /// [`StreamWriter::sink`] handle is what recorders push into.
    pub fn create(path: &Path, cfg: StreamConfig) -> std::io::Result<StreamWriter> {
        let file = File::create(path)?;
        let sink = StreamSink::bounded(cfg.capacity);
        let shared = Arc::clone(&sink.shared);
        let handle = std::thread::Builder::new()
            .name("pbte-stream-writer".into())
            .spawn(move || writer_loop(shared, file))?;
        Ok(StreamWriter {
            sink,
            handle: Some(handle),
            path: path.to_path_buf(),
        })
    }

    /// Producer handle to attach to recorders.
    pub fn sink(&self) -> StreamSink {
        self.sink.clone()
    }

    /// Path of the stream file.
    pub fn path(&self) -> &Path {
        &self.path
    }

    /// Close the stream: stop accepting frames, drain the ring, write
    /// the `run_end` frame, join the writer thread.
    pub fn finish(mut self) -> std::io::Result<StreamStats> {
        self.sink.shared.closed.store(true, Ordering::Release);
        match self.handle.take() {
            Some(h) => h
                .join()
                .unwrap_or_else(|_| panic!("stream writer thread panicked")),
            None => Ok(StreamStats {
                frames_written: 0,
                dropped: 0,
                bytes: 0,
            }),
        }
    }
}

impl Drop for StreamWriter {
    fn drop(&mut self) {
        self.sink.shared.closed.store(true, Ordering::Release);
        if let Some(h) = self.handle.take() {
            let _ = h.join();
        }
    }
}

fn write_frame(w: &mut BufWriter<File>, json: &str, bytes: &mut u64) -> std::io::Result<()> {
    // `{:08x}` hex length prefix + space + payload + newline; the prefix
    // lets the tail reader distinguish a torn final line from a complete
    // frame.
    let line = format!("{:08x} {json}\n", json.len());
    *bytes += line.len() as u64;
    w.write_all(line.as_bytes())
}

fn writer_loop(shared: Arc<StreamShared>, file: File) -> std::io::Result<StreamStats> {
    let mut w = BufWriter::new(file);
    let mut frames: u64 = 0;
    let mut bytes: u64 = 0;
    let mut since_flush: u32 = 0;
    loop {
        let mut drained = false;
        while let Some(frame) = shared.ring.try_pop() {
            write_frame(&mut w, &frame.to_json(), &mut bytes)?;
            frames += 1;
            since_flush += 1;
            drained = true;
            if since_flush >= 64 {
                w.flush()?;
                since_flush = 0;
            }
        }
        if drained {
            // Keep followers current: flush once the burst is drained.
            w.flush()?;
            since_flush = 0;
        }
        if shared.closed.load(Ordering::Acquire) {
            // One final drain: producers may have raced the close flag.
            while let Some(frame) = shared.ring.try_pop() {
                write_frame(&mut w, &frame.to_json(), &mut bytes)?;
                frames += 1;
            }
            break;
        }
        std::thread::park_timeout(Duration::from_millis(1));
    }
    let dropped = shared.dropped.load(Ordering::Relaxed);
    let end = Frame::RunEnd {
        time: 0.0,
        frames,
        dropped,
    };
    write_frame(&mut w, &end.to_json(), &mut bytes)?;
    w.flush()?;
    Ok(StreamStats {
        frames_written: frames,
        dropped,
        bytes,
    })
}

// ---------------------------------------------------------------------------
// Reader (tailing)
// ---------------------------------------------------------------------------

/// Incremental reader for a stream file being written concurrently.
/// [`StreamReader::poll`] returns the JSON payloads of every *complete*
/// frame appended since the last poll; a torn tail (partial write) is
/// left in place for the next poll.
#[derive(Debug)]
pub struct StreamReader {
    file: File,
    offset: u64,
    pending: Vec<u8>,
}

impl StreamReader {
    /// Open a stream file for tailing from the start.
    pub fn open(path: &Path) -> std::io::Result<StreamReader> {
        Ok(StreamReader {
            file: File::open(path)?,
            offset: 0,
            pending: Vec::new(),
        })
    }

    /// Read newly appended complete frames; returns their JSON payloads.
    pub fn poll(&mut self) -> std::io::Result<Vec<String>> {
        self.file.seek(SeekFrom::Start(self.offset))?;
        let mut buf = Vec::new();
        let read = self.file.read_to_end(&mut buf)? as u64;
        self.offset += read;
        self.pending.extend_from_slice(&buf);

        let mut out = Vec::new();
        let mut pos = 0usize;
        while self.pending.len() >= pos + 10 {
            // Prefix: 8 hex digits + one space.
            let prefix = &self.pending[pos..pos + 8];
            let len = match std::str::from_utf8(prefix)
                .ok()
                .and_then(|s| usize::from_str_radix(s, 16).ok())
            {
                Some(l) => l,
                None => {
                    return Err(std::io::Error::new(
                        std::io::ErrorKind::InvalidData,
                        "corrupt stream frame prefix",
                    ))
                }
            };
            let frame_end = pos + 9 + len + 1; // prefix + space + payload + '\n'
            if self.pending.len() < frame_end {
                break; // torn tail — wait for the writer
            }
            let payload = &self.pending[pos + 9..pos + 9 + len];
            out.push(String::from_utf8_lossy(payload).into_owned());
            pos = frame_end;
        }
        self.pending.drain(..pos);
        Ok(out)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::telemetry::{Event, Severity};

    #[test]
    fn ring_push_pop_fifo() {
        let ring: Ring<u64> = Ring::with_capacity(8);
        for i in 0..8 {
            assert!(ring.try_push(i).is_ok());
        }
        assert!(ring.try_push(99).is_err(), "full ring rejects");
        for i in 0..8 {
            assert_eq!(ring.try_pop(), Some(i));
        }
        assert_eq!(ring.try_pop(), None);
        // Wraps around.
        assert!(ring.try_push(42).is_ok());
        assert_eq!(ring.try_pop(), Some(42));
    }

    #[test]
    fn ring_concurrent_producers() {
        let ring: Arc<Ring<u64>> = Arc::new(Ring::with_capacity(1024));
        let n_threads = 4;
        let per = 200;
        std::thread::scope(|s| {
            for t in 0..n_threads {
                let ring = Arc::clone(&ring);
                s.spawn(move || {
                    for i in 0..per {
                        ring.try_push((t * per + i) as u64).unwrap();
                    }
                });
            }
        });
        let mut seen = Vec::new();
        while let Some(v) = ring.try_pop() {
            seen.push(v);
        }
        seen.sort_unstable();
        assert_eq!(seen.len(), n_threads * per);
        assert_eq!(seen, (0..(n_threads * per) as u64).collect::<Vec<_>>());
    }

    #[test]
    fn stalled_writer_drops_never_blocks() {
        // No writer thread: the ring fills, then every push drops.
        let sink = StreamSink::bounded(8);
        for i in 0..30 {
            sink.push(Frame::RunStart {
                time: i as f64,
                label: "x".into(),
                tier: "row".into(),
                flux: "table".into(),
                walls: "fixed:0 gather:0 callback:0".into(),
                plan: "lowered".into(),
                jvp_plan: None,
            });
        }
        assert_eq!(sink.pushed(), 8);
        assert_eq!(sink.dropped(), 22);
    }

    #[test]
    #[cfg_attr(miri, ignore = "file I/O, which Miri's isolation refuses")]
    fn writer_reader_roundtrip() {
        let dir = std::env::temp_dir();
        let path = dir.join(format!("pbte-stream-test-{}.pbts", std::process::id()));
        let writer = StreamWriter::create(&path, StreamConfig::default()).unwrap();
        let sink = writer.sink();
        sink.push(Frame::RunStart {
            time: 0.0,
            label: "unit".into(),
            tier: "row".into(),
            flux: "table".into(),
            walls: "fixed:0 gather:0 callback:0".into(),
            plan: "lowered".into(),
            jvp_plan: None,
        });
        sink.push(Frame::Event(Event {
            severity: Severity::Warning,
            name: "marker",
            message: "hello \"stream\"".into(),
            time: 0.5,
            rank: 0,
        }));
        let stats = writer.finish().unwrap();
        assert_eq!(stats.frames_written, 2);
        assert_eq!(stats.dropped, 0);

        let mut reader = StreamReader::open(&path).unwrap();
        let frames = reader.poll().unwrap();
        assert_eq!(frames.len(), 3, "2 frames + run_end");
        assert!(frames[0].contains("\"frame\":\"run_start\""));
        assert!(frames[1].contains("\\\"stream\\\""));
        assert!(frames[2].contains("\"frame\":\"run_end\""));
        assert!(frames[2].contains("\"frames\":2"));
        std::fs::remove_file(&path).ok();
    }

    #[test]
    #[cfg_attr(miri, ignore = "file I/O, which Miri's isolation refuses")]
    fn reader_holds_torn_tail() {
        let dir = std::env::temp_dir();
        let path = dir.join(format!("pbte-stream-torn-{}.pbts", std::process::id()));
        let json = "{\"frame\":\"run_start\",\"time\":0,\"label\":\"t\"}";
        let line = format!("{:08x} {json}\n", json.len());
        // Write one complete frame plus a torn prefix of the next.
        std::fs::write(&path, format!("{line}{}", &line[..10])).unwrap();
        let mut r = StreamReader::open(&path).unwrap();
        let frames = r.poll().unwrap();
        assert_eq!(frames.len(), 1);
        // Complete the torn frame; the next poll yields it.
        std::fs::OpenOptions::new()
            .append(true)
            .open(&path)
            .unwrap()
            .write_all(&line.as_bytes()[10..])
            .unwrap();
        let frames = r.poll().unwrap();
        assert_eq!(frames.len(), 1);
        std::fs::remove_file(&path).ok();
    }
}
