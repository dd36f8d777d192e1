//! The stream: the second consumer of the frame model. A bounded channel
//! (`std::sync::mpsc::sync_channel`) carries the [`Frame`]s a
//! [`Recorder`](super::Recorder) emits to a background writer thread,
//! which writes each as one line of JSONL through [`Frame::to_json`].
//!
//! Design contract (DESIGN.md §6):
//!
//! * The **hot path never blocks**: [`StreamSink::push`] is a
//!   `try_send`. When the writer falls behind and the channel is full
//!   (or the writer is gone), the frame is *dropped* and a relaxed atomic
//!   drop counter incremented — the solve loop proceeds at full speed
//!   regardless of disk stalls.
//! * Serialization and I/O happen **only on the writer thread**. The
//!   producer side moves already-owned frames (the same values the
//!   buffer retains) into the channel.
//! * Each frame on disk is `<json>\n`: [`super::json_str`] escapes every
//!   control character, so a newline only ever ends a frame. A stream
//!   file is the `summary.jsonl` dialect with the spans included, and a
//!   tail reader ([`StreamReader`]) yields only the complete lines, so
//!   `pbte-trace --follow` can tail the file while the solve is still
//!   running.
//! * The final [`Frame::RunEnd`] frame is written by the writer thread
//!   itself once [`StreamWriter::finish`] (or dropping the writer) closes
//!   the stream — it is never droppable and carries the total frame/drop
//!   accounting, so readers have an unambiguous end-of-stream marker.

use std::fs::File;
use std::io::{BufWriter, Read, Write};
use std::path::Path;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::mpsc::{sync_channel, Receiver, SyncSender};
use std::sync::Arc;
use std::thread::JoinHandle;

use super::Frame;

/// Frames accepted and dropped so far, shared by every clone of a sink.
#[derive(Debug, Default)]
struct Counts {
    pushed: AtomicU64,
    dropped: AtomicU64,
}

/// Producer handle for the streaming sink. Cheap to clone; every rank's
/// recorder holds one and pushes frames from the solve loop. `None` on
/// the channel closes the stream.
#[derive(Debug, Clone)]
pub struct StreamSink {
    tx: SyncSender<Option<Frame>>,
    counts: Arc<Counts>,
}

impl StreamSink {
    /// A sink holding at most `capacity` undelivered frames, and the
    /// receiving end. A receiver held but never read models a fully
    /// stalled writer; a dropped one makes every push a drop.
    pub fn bounded(capacity: usize) -> (StreamSink, Receiver<Option<Frame>>) {
        let (tx, rx) = sync_channel(capacity.max(1));
        let counts = Arc::new(Counts::default());
        (StreamSink { tx, counts }, rx)
    }

    /// Enqueue a frame. Never blocks: a full or closed channel drops the
    /// frame and increments the drop counter.
    pub fn push(&self, frame: Frame) {
        let counter = match self.tx.try_send(Some(frame)) {
            Ok(()) => &self.counts.pushed,
            Err(_) => &self.counts.dropped,
        };
        counter.fetch_add(1, Ordering::Relaxed);
    }

    /// Frames dropped so far under backpressure.
    pub fn dropped(&self) -> u64 {
        self.counts.dropped.load(Ordering::Relaxed)
    }

    /// Frames accepted into the channel so far.
    pub fn pushed(&self) -> u64 {
        self.counts.pushed.load(Ordering::Relaxed)
    }
}

/// Configuration for [`StreamWriter`].
#[derive(Debug, Clone, Copy)]
pub struct StreamConfig {
    /// Channel capacity in frames.
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

/// Background writer draining a [`StreamSink`]'s channel into a JSONL
/// file. Dropping it without [`StreamWriter::finish`] still closes the
/// stream, so a run that exits early ends its file with `run_end`.
#[derive(Debug)]
pub struct StreamWriter {
    sink: StreamSink,
    handle: Option<JoinHandle<std::io::Result<StreamStats>>>,
}

impl StreamWriter {
    /// Create the stream file and spawn the writer thread. The returned
    /// [`StreamWriter::sink`] handle is what recorders push into.
    pub fn create(path: &Path, cfg: StreamConfig) -> std::io::Result<StreamWriter> {
        let file = File::create(path)?;
        let (sink, rx) = StreamSink::bounded(cfg.capacity);
        let counts = Arc::clone(&sink.counts);
        let handle = std::thread::Builder::new()
            .name("pbte-stream-writer".into())
            .spawn(move || writer_loop(rx, &counts, file))?;
        Ok(StreamWriter {
            sink,
            handle: Some(handle),
        })
    }

    /// Producer handle to attach to recorders.
    pub fn sink(&self) -> StreamSink {
        self.sink.clone()
    }

    /// Close the stream: write what is queued, then the `run_end` frame,
    /// and join the writer thread.
    pub fn finish(mut self) -> std::io::Result<StreamStats> {
        let joined = self.close().expect("the writer is joined only once");
        joined.unwrap_or_else(|_| panic!("stream writer thread panicked"))
    }

    /// Send the closing `None` (waiting for room, not dropping it) and
    /// join the writer; `None` once joined.
    fn close(&mut self) -> Option<std::thread::Result<std::io::Result<StreamStats>>> {
        let handle = self.handle.take()?;
        // A writer that already stopped on an I/O error has dropped its
        // receiver; its join below reports the error.
        let _ = self.sink.tx.send(None);
        Some(handle.join())
    }
}

impl Drop for StreamWriter {
    fn drop(&mut self) {
        let _ = self.close();
    }
}

fn writer_loop(
    rx: Receiver<Option<Frame>>,
    counts: &Counts,
    file: File,
) -> std::io::Result<StreamStats> {
    let mut w = BufWriter::new(file);
    let (mut frames, mut bytes) = (0u64, 0u64);
    let mut write = |w: &mut BufWriter<File>, frame: &Frame| {
        let line = frame.to_json() + "\n";
        bytes += line.len() as u64;
        w.write_all(line.as_bytes())
    };
    // Block for the next frame, write the burst queued behind it, and
    // flush so followers stay current. Frames that raced the closing
    // `None` into the same burst are still written.
    let mut open = true;
    while open {
        let Ok(first) = rx.recv() else { break };
        for frame in std::iter::once(first).chain(rx.try_iter()) {
            match frame {
                Some(frame) => {
                    write(&mut w, &frame)?;
                    frames += 1;
                }
                None => open = false,
            }
        }
        w.flush()?;
    }
    let dropped = counts.dropped.load(Ordering::Relaxed);
    let end = Frame::RunEnd {
        time: 0.0,
        frames,
        dropped,
    };
    write(&mut w, &end)?;
    w.flush()?;
    Ok(StreamStats {
        frames_written: frames,
        dropped,
        bytes,
    })
}

/// Incremental reader for a stream file being written concurrently.
/// [`StreamReader::poll`] returns every *complete* line appended since
/// the last poll; an unterminated tail (a write in progress) is kept for
/// the next poll.
#[derive(Debug)]
pub struct StreamReader {
    file: File,
    pending: Vec<u8>,
}

impl StreamReader {
    /// Open a stream file for tailing from the start.
    pub fn open(path: &Path) -> std::io::Result<StreamReader> {
        Ok(StreamReader {
            file: File::open(path)?,
            pending: Vec::new(),
        })
    }

    /// Read newly appended complete frames; returns their JSON lines.
    pub fn poll(&mut self) -> std::io::Result<Vec<String>> {
        self.file.read_to_end(&mut self.pending)?;
        let complete = self.pending.iter().rposition(|&b| b == b'\n');
        let Some(end) = complete.map(|i| i + 1) else {
            return Ok(Vec::new());
        };
        let lines = String::from_utf8_lossy(&self.pending[..end])
            .lines()
            .map(str::to_owned)
            .collect();
        self.pending.drain(..end);
        Ok(lines)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::telemetry::{Event, Severity};

    fn run_start(time: f64) -> Frame {
        Frame::RunStart {
            time,
            label: "unit".into(),
            tier: "row".into(),
            flux: "table".into(),
            walls: "fixed:0 gather:0 callback:0".into(),
            plan: "lowered".into(),
            jvp_plan: None,
        }
    }

    fn temp_path(tag: &str) -> std::path::PathBuf {
        std::env::temp_dir().join(format!("pbte-stream-{tag}-{}.pbts", std::process::id()))
    }

    #[test]
    fn stalled_writer_drops_never_blocks() {
        // A receiver nobody reads: the channel fills, then every push drops.
        let (sink, _rx) = StreamSink::bounded(8);
        for i in 0..30 {
            sink.push(run_start(i as f64));
        }
        assert_eq!(sink.pushed(), 8);
        assert_eq!(sink.dropped(), 22);
    }

    #[test]
    #[cfg_attr(miri, ignore = "file I/O, which Miri's isolation refuses")]
    fn writer_reader_roundtrip() {
        let path = temp_path("test");
        let writer = StreamWriter::create(&path, StreamConfig::default()).unwrap();
        let sink = writer.sink();
        sink.push(run_start(0.0));
        sink.push(Frame::Event(Event {
            severity: Severity::Warning,
            name: "marker",
            message: "hello \"stream\"\n\tnext\u{1}".into(),
            time: 0.5,
            rank: 0,
        }));
        let stats = writer.finish().unwrap();
        assert_eq!(stats.frames_written, 2);
        assert_eq!(stats.dropped, 0);

        let mut reader = StreamReader::open(&path).unwrap();
        let frames = reader.poll().unwrap();
        assert_eq!(frames.len(), 3, "2 frames + run_end, one line each");
        assert!(frames[0].contains("\"frame\":\"run_start\""));
        assert!(frames[1].contains(r#"hello \"stream\"\n\tnext\u0001"#));
        assert!(frames[2].contains("\"frame\":\"run_end\""));
        assert!(frames[2].contains("\"frames\":2"));
        std::fs::remove_file(&path).ok();
    }

    #[test]
    #[cfg_attr(miri, ignore = "file I/O, which Miri's isolation refuses")]
    fn reader_holds_torn_tail() {
        let path = temp_path("torn");
        let line = "{\"frame\":\"run_start\",\"time\":0,\"label\":\"t\"}\n";
        // Write one complete frame plus the start of the next, unterminated.
        std::fs::write(&path, format!("{line}{}", &line[..10])).unwrap();
        let mut r = StreamReader::open(&path).unwrap();
        assert_eq!(r.poll().unwrap(), [line.trim_end()]);
        // Complete the torn frame; the next poll yields it whole.
        std::fs::OpenOptions::new()
            .append(true)
            .open(&path)
            .unwrap()
            .write_all(&line.as_bytes()[10..])
            .unwrap();
        assert_eq!(r.poll().unwrap(), [line.trim_end()]);
        std::fs::remove_file(&path).ok();
    }

    #[test]
    #[cfg_attr(miri, ignore = "file I/O, which Miri's isolation refuses")]
    fn dropped_writer_still_ends_with_run_end() {
        let path = temp_path("drop");
        let writer = StreamWriter::create(&path, StreamConfig::default()).unwrap();
        writer.sink().push(run_start(0.0));
        drop(writer);
        let frames = StreamReader::open(&path).unwrap().poll().unwrap();
        assert_eq!(frames.len(), 2, "the frame + run_end");
        assert!(frames[1].contains("\"frame\":\"run_end\""));
        assert!(frames[1].contains("\"frames\":1"));
        std::fs::remove_file(&path).ok();
    }
}
