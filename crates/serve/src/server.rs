//! TCP front end: a nonblocking reactor thread plus a bounded worker pool.
//!
//! The previous front end spawned one OS thread per connection, so a load
//! generator holding a thousand mostly idle connections cost a thousand
//! stacks and a thousand schedulable threads. This one costs two fixed sets
//! of threads regardless of connection count:
//!
//! * **one reactor thread** owns the nonblocking listener and every
//!   connection. Each loop tick it accepts pending connections, drains
//!   worker completions into per-connection write buffers, flushes those
//!   buffers, and scans readable connections for complete request lines.
//!   Idle ticks decay from `yield_now` to a short sleep, so a thousand idle
//!   connections cost one mostly sleeping thread while an active connection
//!   still sees sub-millisecond turnaround;
//! * **a fixed pool of worker threads** executes requests. The reactor
//!   dispatches at most one in-flight request per connection (responses
//!   therefore come back in request order without any sequencing machinery)
//!   into a bounded queue; when the queue is full the reactor answers
//!   `ERR busy` immediately instead of buffering unboundedly
//!   (`serve.pool.rejected`). Queue depth and active workers are visible as
//!   the `serve.pool.{queued,active}` gauges and in `STATS`.
//!
//! A request line longer than [`MAX_LINE_BYTES`] is answered with `ERR` and
//! the connection is closed — a client that streams an unbounded "line" can
//! no longer pin reactor memory.
//!
//! Shutdown is a drain, not an axe: [`ServerHandle::shutdown`] stops
//! accepting and stops parsing new requests, but every dispatched request —
//! including a cold search mid-beam — completes, its response is flushed,
//! and only then do the reactor and workers exit. The write-behind tune
//! cache therefore always sees in-flight results before the process goes
//! away.

use std::collections::{HashMap, VecDeque};
use std::io::{BufRead, BufReader, Read, Write};
use std::net::{SocketAddr, TcpListener, TcpStream};
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{mpsc, Arc, Condvar, Mutex};
use std::time::Duration;

use tilelink_probe::metrics::{SERVE_POOL_ACTIVE, SERVE_POOL_QUEUED, SERVE_POOL_REJECTED};

use crate::protocol::{parse_command, Command, TuneRequest};
use crate::service::TuneService;

/// Hard cap on one request line. Anything longer gets `ERR` and a closed
/// connection instead of an unbounded buffer.
pub const MAX_LINE_BYTES: usize = 64 * 1024;

/// How long the reactor sleeps on a fully idle tick. Bounds the latency a
/// request can sit unnoticed, so it is sized well under the warm-path p99
/// budget (1 ms).
const IDLE_SLEEP: Duration = Duration::from_micros(200);

/// Idle ticks spent merely yielding before the reactor starts sleeping —
/// keeps back-to-back requests on the fast path.
const IDLE_SPINS: u32 = 64;

/// Read granularity per connection per tick.
const READ_CHUNK: usize = 4096;

/// Request worker threads behind the reactor.
const POOL_WORKERS: usize = 8;

/// Dispatch-queue bound; requests beyond it are answered `ERR busy`.
const POOL_QUEUE: usize = 256;

/// One parsed `TUNE` request the warm cache missed, travelling to the worker
/// pool.
struct Job {
    conn: u64,
    req: Box<TuneRequest>,
}

#[derive(Default)]
struct QueueState {
    jobs: VecDeque<Job>,
    closed: bool,
}

/// The bounded dispatch queue between the reactor and the workers.
#[derive(Default)]
struct JobQueue {
    state: Mutex<QueueState>,
    ready: Condvar,
}

impl JobQueue {
    /// Enqueues unless the queue is at capacity. Never blocks — the reactor
    /// must not stall behind a slow pool.
    fn try_push(&self, job: Job) -> bool {
        let mut state = self.state.lock().unwrap_or_else(|e| e.into_inner());
        if state.jobs.len() >= POOL_QUEUE {
            return false;
        }
        state.jobs.push_back(job);
        SERVE_POOL_QUEUED.add(1);
        drop(state);
        self.ready.notify_one();
        true
    }

    /// Blocks for the next job; `None` once closed and drained.
    fn pop(&self) -> Option<Job> {
        let mut state = self.state.lock().unwrap_or_else(|e| e.into_inner());
        loop {
            if let Some(job) = state.jobs.pop_front() {
                SERVE_POOL_QUEUED.add(-1);
                return Some(job);
            }
            if state.closed {
                return None;
            }
            state = self.ready.wait(state).unwrap_or_else(|e| e.into_inner());
        }
    }

    fn close(&self) {
        self.state.lock().unwrap_or_else(|e| e.into_inner()).closed = true;
        self.ready.notify_all();
    }
}

/// Per-connection reactor state: buffered reads, pending writes, and whether
/// a request is out at the pool.
struct Conn {
    stream: TcpStream,
    read_buf: Vec<u8>,
    write_buf: Vec<u8>,
    write_pos: usize,
    /// One request dispatched, its response not yet queued for write.
    busy: bool,
    /// Close once the write buffer drains (line-cap violations).
    close_after_write: bool,
    /// Peer sent FIN; stop reading, drain what's owed, then drop.
    peer_closed: bool,
}

impl Conn {
    fn new(stream: TcpStream) -> std::io::Result<Self> {
        stream.set_nonblocking(true)?;
        let _ = stream.set_nodelay(true);
        Ok(Self {
            stream,
            read_buf: Vec::new(),
            write_buf: Vec::new(),
            write_pos: 0,
            busy: false,
            close_after_write: false,
            peer_closed: false,
        })
    }

    fn queue_response(&mut self, response: &str) {
        self.write_buf.extend_from_slice(response.as_bytes());
        self.write_buf.push(b'\n');
    }

    /// Writes as much of the pending buffer as the socket accepts.
    /// `Err(())` means the connection is dead.
    fn flush_writes(&mut self) -> Result<bool, ()> {
        let mut progressed = false;
        while self.write_pos < self.write_buf.len() {
            match self.stream.write(&self.write_buf[self.write_pos..]) {
                Ok(0) => return Err(()),
                Ok(n) => {
                    self.write_pos += n;
                    progressed = true;
                }
                Err(e) if e.kind() == std::io::ErrorKind::WouldBlock => break,
                Err(e) if e.kind() == std::io::ErrorKind::Interrupted => continue,
                Err(_) => return Err(()),
            }
        }
        if self.write_pos >= self.write_buf.len() {
            self.write_buf.clear();
            self.write_pos = 0;
        }
        Ok(progressed)
    }

    /// Pulls available bytes into the read buffer, stopping once it holds
    /// more than [`MAX_LINE_BYTES`] (the caller refuses such a line), so one
    /// call buffers at most one chunk past the cap. `Err(())` = dead.
    fn fill_read_buf(&mut self) -> Result<bool, ()> {
        let mut progressed = false;
        let mut chunk = [0u8; READ_CHUNK];
        loop {
            match self.stream.read(&mut chunk) {
                Ok(0) => {
                    self.peer_closed = true;
                    break;
                }
                Ok(n) => {
                    self.read_buf.extend_from_slice(&chunk[..n]);
                    progressed = true;
                    if n < chunk.len() || self.read_buf.len() > MAX_LINE_BYTES {
                        break;
                    }
                }
                Err(e) if e.kind() == std::io::ErrorKind::WouldBlock => break,
                Err(e) if e.kind() == std::io::ErrorKind::Interrupted => continue,
                Err(_) => return Err(()),
            }
        }
        Ok(progressed)
    }

    /// Splits one complete line (newline stripped, optional `\r` too) off the
    /// front of the read buffer.
    fn take_line(&mut self) -> Option<Vec<u8>> {
        let pos = self.read_buf.iter().position(|&b| b == b'\n')?;
        let mut line: Vec<u8> = self.read_buf.drain(..=pos).collect();
        line.pop();
        if line.last() == Some(&b'\r') {
            line.pop();
        }
        Some(line)
    }

    fn has_full_line(&self) -> bool {
        self.read_buf.contains(&b'\n')
    }
}

/// A running daemon: the bound address plus the handles needed to stop it.
pub struct ServerHandle {
    addr: SocketAddr,
    shutdown: Arc<AtomicBool>,
    reactor: Option<std::thread::JoinHandle<()>>,
    workers: Vec<std::thread::JoinHandle<()>>,
    queue: Arc<JobQueue>,
    service: Arc<TuneService>,
}

impl std::fmt::Debug for ServerHandle {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("ServerHandle")
            .field("addr", &self.addr)
            .field("workers", &self.workers.len())
            .finish_non_exhaustive()
    }
}

impl ServerHandle {
    /// The address the daemon is listening on (useful with `addr` port 0).
    pub fn addr(&self) -> SocketAddr {
        self.addr
    }

    /// The service behind the listener.
    pub fn service(&self) -> &Arc<TuneService> {
        &self.service
    }

    /// Drains and stops the daemon: no new connections or requests are
    /// admitted, every dispatched request (cold searches included) completes
    /// and has its response flushed, then the reactor and workers exit.
    pub fn shutdown(mut self) {
        self.stop();
    }

    fn stop(&mut self) {
        self.shutdown.store(true, Ordering::SeqCst);
        // The reactor notices the flag within one idle sleep and drains:
        // joining it is what waits for in-flight requests to finish.
        if let Some(thread) = self.reactor.take() {
            let _ = thread.join();
        }
        self.queue.close();
        for thread in self.workers.drain(..) {
            let _ = thread.join();
        }
    }
}

impl Drop for ServerHandle {
    fn drop(&mut self) {
        if self.reactor.is_some() {
            self.stop();
        }
    }
}

/// Binds `addr` (e.g. `"127.0.0.1:0"` for an ephemeral port) and serves
/// `service` until [`ServerHandle::shutdown`] on 8 worker threads behind a
/// 256-request dispatch queue.
///
/// # Errors
///
/// Returns the bind error if the address is unavailable, or the spawn error
/// if a thread cannot be created.
pub fn serve(service: Arc<TuneService>, addr: &str) -> std::io::Result<ServerHandle> {
    let listener = TcpListener::bind(addr)?;
    listener.set_nonblocking(true)?;
    let local = listener.local_addr()?;
    let shutdown = Arc::new(AtomicBool::new(false));
    let queue = Arc::new(JobQueue::default());
    let (completion_tx, completion_rx) = mpsc::channel::<(u64, String)>();

    let mut workers = Vec::with_capacity(POOL_WORKERS);
    for i in 0..POOL_WORKERS {
        let service = Arc::clone(&service);
        let queue = Arc::clone(&queue);
        let tx = completion_tx.clone();
        workers.push(
            std::thread::Builder::new()
                .name(format!("serve-worker-{i}"))
                .spawn(move || worker_loop(&service, &queue, &tx))?,
        );
    }
    drop(completion_tx);

    let reactor = {
        let shutdown = Arc::clone(&shutdown);
        let queue = Arc::clone(&queue);
        let service = Arc::clone(&service);
        std::thread::Builder::new()
            .name("serve-reactor".to_string())
            .spawn(move || reactor_loop(&listener, &shutdown, &queue, &completion_rx, &service))?
    };

    Ok(ServerHandle {
        addr: local,
        shutdown,
        reactor: Some(reactor),
        workers,
        queue,
        service,
    })
}

/// One pool worker: pop, execute, push the response back to the reactor. A
/// panicking handler (a buggy oracle, say) costs that request an `ERR`, not
/// the pool a worker.
fn worker_loop(service: &TuneService, queue: &JobQueue, completions: &mpsc::Sender<(u64, String)>) {
    while let Some(job) = queue.pop() {
        SERVE_POOL_ACTIVE.add(1);
        let response = catch_unwind(AssertUnwindSafe(|| match service.tune(&job.req) {
            Ok((outcome, source)) => outcome.ok_fields(job.req.workload.name(), source).render(),
            Err(message) => format!("ERR {}", message.replace('\n', " ")),
        }))
        .unwrap_or_else(|_| "ERR internal: request handler panicked".to_string());
        SERVE_POOL_ACTIVE.add(-1);
        if completions.send((job.conn, response)).is_err() {
            break;
        }
    }
}

/// The reactor: owns the listener and every connection; see the module docs
/// for the per-tick structure.
fn reactor_loop(
    listener: &TcpListener,
    shutdown: &AtomicBool,
    queue: &JobQueue,
    completions: &mpsc::Receiver<(u64, String)>,
    service: &TuneService,
) {
    let mut conns: HashMap<u64, Conn> = HashMap::new();
    let mut next_id: u64 = 0;
    let mut idle_ticks: u32 = 0;
    loop {
        let draining = shutdown.load(Ordering::SeqCst);
        let mut activity = false;

        if !draining {
            loop {
                match listener.accept() {
                    Ok((stream, _)) => {
                        if let Ok(conn) = Conn::new(stream) {
                            conns.insert(next_id, conn);
                            next_id += 1;
                            activity = true;
                        }
                    }
                    Err(e) if e.kind() == std::io::ErrorKind::WouldBlock => break,
                    Err(_) => break,
                }
            }
        }

        while let Ok((id, response)) = completions.try_recv() {
            activity = true;
            if let Some(conn) = conns.get_mut(&id) {
                conn.queue_response(&response);
                conn.busy = false;
            }
        }

        let mut dead: Vec<u64> = Vec::new();
        for (&id, conn) in conns.iter_mut() {
            if tick_conn(id, conn, queue, service, draining, &mut activity).is_err() {
                dead.push(id);
            }
        }
        for id in dead {
            conns.remove(&id);
        }

        if draining {
            // Keep only connections still owed a response; exit once none.
            conns.retain(|_, c| c.busy || c.write_pos < c.write_buf.len());
            if conns.is_empty() {
                return;
            }
        }

        if activity {
            idle_ticks = 0;
            // Let peers run before the next tick: on a loaded (or small)
            // machine the reactor would otherwise monopolize its core until
            // preemption, and clients waiting to send their next request
            // would see multi-millisecond scheduling stalls as tail latency.
            // On an idle machine the yield is a no-op.
            std::thread::yield_now();
        } else {
            idle_ticks = idle_ticks.saturating_add(1);
            if idle_ticks < IDLE_SPINS {
                std::thread::yield_now();
            } else {
                std::thread::sleep(IDLE_SLEEP);
            }
        }
    }
}

/// Advances one connection one tick: flush writes, then (unless draining or
/// awaiting a response) read and maybe dispatch one request line.
/// `Err(())` means the connection should be dropped.
fn tick_conn(
    id: u64,
    conn: &mut Conn,
    queue: &JobQueue,
    service: &TuneService,
    draining: bool,
    activity: &mut bool,
) -> Result<(), ()> {
    *activity |= conn.flush_writes()?;
    let write_pending = conn.write_pos < conn.write_buf.len();
    if conn.close_after_write && !write_pending {
        // Drain what the peer already sent (up to the line cap) before
        // dropping the stream: closing with unread bytes in the receive
        // queue turns the close into an RST, which can destroy the ERR we
        // just flushed before the client gets to read it.
        let _ = conn.fill_read_buf();
        conn.read_buf.clear();
        return Err(());
    }
    if draining || conn.busy || conn.close_after_write {
        return Ok(());
    }
    if !conn.peer_closed {
        *activity |= conn.fill_read_buf()?;
    }
    if let Some(raw) = conn.take_line() {
        *activity = true;
        if raw.len() > MAX_LINE_BYTES {
            conn.queue_response(&format!("ERR request line exceeds {MAX_LINE_BYTES} bytes"));
            conn.close_after_write = true;
        } else {
            match dispatch(service, &String::from_utf8_lossy(&raw)) {
                // Answered inline on the reactor thread — warm hits and
                // control commands never pay the two scheduler hops through
                // the worker pool.
                Dispatch::Reply(response) => conn.queue_response(&response),
                Dispatch::Search(req) => {
                    if queue.try_push(Job { conn: id, req }) {
                        conn.busy = true;
                    } else {
                        SERVE_POOL_REJECTED.inc();
                        conn.queue_response("ERR busy: request queue is full");
                    }
                }
            }
        }
    } else if conn.read_buf.len() > MAX_LINE_BYTES {
        conn.queue_response(&format!("ERR request line exceeds {MAX_LINE_BYTES} bytes"));
        conn.close_after_write = true;
        conn.read_buf.clear();
    } else if conn.peer_closed && !conn.busy && !write_pending && !conn.has_full_line() {
        return Err(());
    }
    Ok(())
}

/// What the reactor does with one request line.
enum Dispatch {
    /// Answer inline with this response line.
    Reply(String),
    /// Hand this request (a cold or in-flight search) to the worker pool.
    Search(Box<TuneRequest>),
}

/// Parses a request line — the only parse it gets — and answers it inline
/// when doing so cannot block the reactor: control commands, parse errors,
/// and `TUNE` requests the warm cache can satisfy.
fn dispatch(service: &TuneService, line: &str) -> Dispatch {
    if line.trim().is_empty() {
        return Dispatch::Reply("ERR empty request".to_string());
    }
    match parse_command(line) {
        Ok(Command::Ping) => Dispatch::Reply("PONG".to_string()),
        Ok(Command::Stats) => Dispatch::Reply(format!("STATS {}", service.stats_line())),
        Ok(Command::Tune(req)) => match service.try_warm(&req) {
            Some((outcome, source)) => {
                Dispatch::Reply(outcome.ok_fields(req.workload.name(), source).render())
            }
            None => Dispatch::Search(req),
        },
        Err(message) => Dispatch::Reply(format!("ERR {}", message.replace('\n', " "))),
    }
}

/// A minimal blocking client for the daemon's protocol — what the
/// `reproduce --serve` smoke, the wire tests and the benchmark use to talk to
/// the server.
#[derive(Debug)]
pub struct Client {
    reader: BufReader<TcpStream>,
    writer: TcpStream,
}

impl Client {
    /// Connects to a daemon at `addr`.
    ///
    /// # Errors
    ///
    /// Returns the connect error.
    pub fn connect(addr: SocketAddr) -> std::io::Result<Self> {
        let stream = TcpStream::connect(addr)?;
        let _ = stream.set_nodelay(true);
        let writer = stream.try_clone()?;
        Ok(Self {
            reader: BufReader::new(stream),
            writer,
        })
    }

    /// Sends one request line and reads the matching response line.
    ///
    /// # Errors
    ///
    /// Returns an I/O error if the connection drops.
    pub fn request(&mut self, line: &str) -> std::io::Result<String> {
        self.writer.write_all(line.as_bytes())?;
        self.writer.write_all(b"\n")?;
        self.writer.flush()?;
        let mut response = String::new();
        let n = self.reader.read_line(&mut response)?;
        if n == 0 {
            return Err(std::io::Error::new(
                std::io::ErrorKind::UnexpectedEof,
                "server closed the connection",
            ));
        }
        Ok(response.trim_end().to_string())
    }
}

/// Shared infrastructure for binding test/bench servers: a server on an
/// ephemeral localhost port.
///
/// # Errors
///
/// Returns the bind error.
pub fn serve_ephemeral(service: TuneService) -> std::io::Result<ServerHandle> {
    serve(Arc::new(service), "127.0.0.1:0")
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn one_read_stops_one_chunk_past_the_line_cap() {
        let listener = TcpListener::bind("127.0.0.1:0").expect("bind loopback");
        let addr = listener.local_addr().expect("listener address");
        let writer = std::thread::spawn(move || {
            let mut stream = TcpStream::connect(addr).expect("connect");
            // 1 MiB without a newline; the write fails once the reader hangs up.
            let _ = stream.write_all(&vec![b'X'; 1 << 20]);
        });
        let (stream, _) = listener.accept().expect("accept");

        // Wait until the kernel holds more than one chunk past the cap, so a
        // read loop that only stops on a short read or `WouldBlock` overruns.
        let queued = MAX_LINE_BYTES + 2 * READ_CHUNK;
        let mut peek = vec![0u8; queued];
        let deadline = std::time::Instant::now() + Duration::from_secs(10);
        while stream.peek(&mut peek).expect("peek") < queued {
            assert!(
                std::time::Instant::now() < deadline,
                "loopback never queued {queued} bytes"
            );
            std::thread::sleep(Duration::from_millis(1));
        }

        let mut conn = Conn::new(stream).expect("nonblocking connection");
        assert_eq!(conn.fill_read_buf(), Ok(true));
        assert!(
            conn.read_buf.len() <= MAX_LINE_BYTES + READ_CHUNK,
            "one read buffered {} bytes",
            conn.read_buf.len()
        );
        drop(conn);
        writer.join().expect("writer thread");
    }
}
