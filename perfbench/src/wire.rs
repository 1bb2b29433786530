//! The open-loop load generator: keep-alive HTTP/1.1 `POST /ingest`
//! clients that send each batch at its due time, whatever the replies
//! are doing, and time it from that due time to the parsed reply.
//!
//! The generator is open loop: many independent wearers share each
//! connection, and a batch goes out when it is due even while earlier
//! replies are outstanding (HTTP/1.1 pipelining). One process, two
//! threads per connection, at most `nproc` threads; the server serves
//! each keep-alive connection on one worker, so the connection count is
//! also capped by `FleetConfig::conn_workers`.
//!
//! The same clients also run closed loop ([`Pace::Window`]): a fixed
//! number of requests outstanding per connection, each reply releasing
//! the next request. That keeps the server saturated, so the reply rate
//! is the server's capacity rather than the send schedule. A closed-loop
//! client acknowledges every reply segment at once (`TCP_QUICKACK`):
//! the server writes each reply in two parts on a Nagle socket, and a
//! client that only sends after a whole reply would otherwise wait out
//! its delayed ACK (~40 ms) whenever a segment ends mid-reply, so the
//! rate would measure that timer instead of the server.

use crate::inputs::SampleSource;
use prefall_fleet::{IngestReply, IngestStatus};
use prefall_telemetry::JsonValue;
use std::io::{self, BufRead, BufReader, Read, Write};
use std::net::{SocketAddr, TcpStream};
use std::sync::{mpsc, Barrier, OnceLock};
use std::time::{Duration, Instant};

/// A generator thread gives up on its schedule once it runs this late:
/// the rung is over capacity, and the rest of it would only measure the
/// backlog.
pub const ABORT_LAG: Duration = Duration::from_secs(1);

/// Read deadline of one request; a reply slower than this is a failure.
const REPLY_TIMEOUT: Duration = Duration::from_secs(5);

/// What a scheduled batch is for.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Kind {
    /// Fills the wearer's first window; not in the latency figures.
    Warm,
    /// A steady batch: one completed window.
    Steady,
    /// The first batch after a silence long enough to be parked.
    Return,
    /// A re-delivery of the batch before it; must come back `Duplicate`.
    Duplicate,
}

/// One scheduled batch.
#[derive(Debug, Clone, Copy)]
pub struct Send {
    /// Due time, from the start of the schedule.
    pub due: Duration,
    pub wearer: u64,
    pub seq: u64,
    pub kind: Kind,
}

/// One batch as it went: times are from the start of the schedule.
#[derive(Debug, Clone)]
pub struct Done {
    pub send: Send,
    /// When the request write started.
    pub sent: Duration,
    /// When the last reply byte was read.
    pub replied: Duration,
    /// When the reply was parsed.
    pub parsed: Duration,
    pub reply: Result<IngestReply, String>,
}

impl Done {
    fn failed(send: Send, e: String) -> Self {
        Done {
            send,
            sent: Duration::ZERO,
            replied: Duration::ZERO,
            parsed: Duration::ZERO,
            reply: Err(e),
        }
    }

    pub fn lag_ms(&self) -> f64 {
        crate::stats::ms(self.sent.saturating_sub(self.send.due))
    }

    pub fn latency_ms(&self) -> f64 {
        crate::stats::ms(self.parsed.saturating_sub(self.send.due))
    }

    /// Whether the reply is what this kind of batch must get: 200,
    /// not shed, `Duplicate` for a re-delivery and `Accepted` otherwise.
    pub fn ok(&self) -> bool {
        match &self.reply {
            Ok(r) => {
                let want = if self.send.kind == Kind::Duplicate {
                    IngestStatus::Duplicate
                } else {
                    IngestStatus::Accepted
                };
                r.status == want && !r.shed && r.wearer == self.send.wearer
            }
            Err(_) => false,
        }
    }
}

/// One generator connection's record.
#[derive(Debug, Default)]
pub struct Log {
    pub done: Vec<Done>,
    /// The writer stopped early at [`ABORT_LAG`].
    pub aborted: bool,
}

/// How a connection's writer paces its plan.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Pace {
    /// Open loop: each batch at its due time, stopping at [`ABORT_LAG`].
    Open,
    /// Closed loop: at most this many requests outstanding; due times
    /// are ignored.
    Window(usize),
}

/// Runs one schedule per connection against `addr` and returns the logs
/// in connection order. Each connection has a writer thread that sends
/// the plan pipelined, without waiting for earlier replies beyond what
/// `pace` allows, and a reader thread that takes the replies in order.
pub fn run(addr: SocketAddr, src: &SampleSource, plans: Vec<Vec<Send>>, pace: Pace) -> Vec<Log> {
    let barrier = Barrier::new(plans.len());
    let start: OnceLock<Instant> = OnceLock::new();
    std::thread::scope(|s| {
        let handles: Vec<_> = plans
            .into_iter()
            .map(|plan| {
                let (barrier, start) = (&barrier, &start);
                s.spawn(move || {
                    let conn = connect(addr);
                    // A closed-loop burst is encoded up front, so the
                    // client's work per request stays small.
                    let encoded: Option<Vec<Vec<u8>>> = matches!(pace, Pace::Window(_))
                        .then(|| plan.iter().map(|send| encode(src, send)).collect());
                    barrier.wait();
                    let t0 = *start.get_or_init(Instant::now);
                    match conn {
                        Ok((stream, replies)) => {
                            drive(stream, replies, t0, src, &plan, pace, encoded.as_deref())
                        }
                        Err(e) => Log {
                            done: plan
                                .iter()
                                .map(|&send| Done::failed(send, e.to_string()))
                                .collect(),
                            aborted: false,
                        },
                    }
                })
            })
            .collect();
        handles
            .into_iter()
            .map(|h| h.join().expect("generator thread"))
            .collect()
    })
}

/// One scheduled batch framed as a request.
fn encode(src: &SampleSource, send: &Send) -> Vec<u8> {
    let mut req = Vec::new();
    request_into(&mut req, &src.batch(send.wearer, send.seq).to_bytes());
    req
}

/// Sends `plan` as `pace` allows and collects the replies on a second
/// thread; the channel carries (send index, sent instant) in wire order,
/// and the reader returns one credit per reply taken. With `encoded`
/// requests (closed loop) the reader also leaves parsing until the
/// burst is over, and a reply's parse instant is its read instant.
fn drive(
    mut stream: TcpStream,
    mut replies: Replies,
    t0: Instant,
    src: &SampleSource,
    plan: &[Send],
    pace: Pace,
    encoded: Option<&[Vec<u8>]>,
) -> Log {
    let (tx, rx) = mpsc::channel::<(usize, Duration)>();
    let (credit_tx, credit_rx) = mpsc::channel::<()>();
    let deferred = encoded.is_some();
    replies.reader.get_mut().quickack = matches!(pace, Pace::Window(_));
    std::thread::scope(|s| {
        let reader = s.spawn(move || {
            let mut done = Vec::with_capacity(plan.len());
            let mut raw = Vec::new();
            let mut broken: Option<String> = None;
            for (i, sent) in rx {
                let send = plan[i];
                if let Some(e) = &broken {
                    done.push(Done::failed(send, e.clone()));
                    let _ = credit_tx.send(());
                    continue;
                }
                let read = replies.read_reply().map_err(|e| e.to_string());
                let replied = t0.elapsed();
                if deferred {
                    if let Err(e) = &read {
                        broken = Some(e.clone());
                    }
                    raw.push((done.len(), sent, replied, read));
                    done.push(Done::failed(send, String::new()));
                    let _ = credit_tx.send(());
                    continue;
                }
                let reply = read.and_then(|(code, body)| parse_reply(code, &body));
                let parsed = t0.elapsed();
                if let Err(e) = &reply {
                    // Replies can no longer be matched to requests.
                    broken = Some(e.clone());
                }
                done.push(Done {
                    send,
                    sent,
                    replied,
                    parsed,
                    reply,
                });
                let _ = credit_tx.send(());
            }
            for (at, sent, replied, read) in raw {
                done[at] = Done {
                    send: done[at].send,
                    sent,
                    replied,
                    parsed: replied,
                    reply: read.and_then(|(code, body)| parse_reply(code, &body)),
                };
            }
            done
        });
        let mut aborted = false;
        // Open loop: the next request is encoded while waiting for its
        // due time.
        let mut req = Vec::new();
        for (i, send) in plan.iter().enumerate() {
            let req: &[u8] = match encoded {
                Some(all) => &all[i],
                None => {
                    req.clear();
                    request_into(&mut req, &src.batch(send.wearer, send.seq).to_bytes());
                    &req
                }
            };
            match pace {
                Pace::Open => {
                    let due_at = t0 + send.due;
                    let now = Instant::now();
                    if due_at > now {
                        std::thread::sleep(due_at - now);
                    }
                    if t0.elapsed().saturating_sub(send.due) > ABORT_LAG {
                        aborted = true;
                        break;
                    }
                }
                Pace::Window(w) => {
                    if i >= w && credit_rx.recv().is_err() {
                        break;
                    }
                }
            }
            let sent = t0.elapsed();
            if tx.send((i, sent)).is_err() || stream.write_all(req).is_err() {
                break;
            }
        }
        drop(tx);
        let done = reader.join().expect("reply reader");
        let _ = stream.shutdown(std::net::Shutdown::Both);
        Log { done, aborted }
    })
}

/// Frames a batch as a keep-alive `POST /ingest` request into `req`.
pub fn request_into(req: &mut Vec<u8>, body: &[u8]) {
    let _ = write!(
        req,
        "POST /ingest HTTP/1.1\r\nHost: bench\r\nContent-Length: {}\r\n\r\n",
        body.len()
    );
    req.extend_from_slice(body);
}

/// Decodes a reply the way a client does: status, then the JSON body
/// through the protocol's own reader.
pub fn parse_reply(code: u16, body: &[u8]) -> Result<IngestReply, String> {
    if code != 200 {
        return Err(format!("HTTP {code}"));
    }
    let text = std::str::from_utf8(body).map_err(|e| e.to_string())?;
    let doc = JsonValue::parse(text)?;
    IngestReply::from_json(&doc)
}

/// The reading half of a keep-alive HTTP/1.1 client connection.
pub struct Replies {
    reader: BufReader<Socket>,
    line: String,
}

/// The reading side of a client socket.
struct Socket {
    stream: TcpStream,
    /// Acknowledge at once whatever each read took in.
    quickack: bool,
}

impl Read for Socket {
    fn read(&mut self, buf: &mut [u8]) -> io::Result<usize> {
        let n = self.stream.read(buf)?;
        if self.quickack {
            quickack(&self.stream)?;
        }
        Ok(n)
    }
}

/// Connects a keep-alive client: the stream requests are written to,
/// and the reader of their replies.
fn connect(addr: SocketAddr) -> io::Result<(TcpStream, Replies)> {
    let stream = TcpStream::connect(addr)?;
    stream.set_nodelay(true)?;
    stream.set_read_timeout(Some(REPLY_TIMEOUT))?;
    let replies = Replies {
        reader: BufReader::new(Socket {
            stream: stream.try_clone()?,
            quickack: false,
        }),
        line: String::new(),
    };
    Ok((stream, replies))
}

impl Replies {
    /// Reads the next reply on the connection: (status, body).
    pub fn read_reply(&mut self) -> io::Result<(u16, Vec<u8>)> {
        self.line.clear();
        if self.reader.read_line(&mut self.line)? == 0 {
            return Err(io::Error::new(
                io::ErrorKind::UnexpectedEof,
                "connection closed",
            ));
        }
        let code: u16 = self
            .line
            .split_whitespace()
            .nth(1)
            .and_then(|c| c.parse().ok())
            .ok_or_else(|| io::Error::new(io::ErrorKind::InvalidData, "bad status line"))?;
        let mut content_length = 0usize;
        loop {
            self.line.clear();
            self.reader.read_line(&mut self.line)?;
            let header = self.line.trim_end();
            if header.is_empty() {
                break;
            }
            if let Some((name, value)) = header.split_once(':') {
                if name.eq_ignore_ascii_case("content-length") {
                    content_length = value.trim().parse().unwrap_or(0);
                }
            }
        }
        let mut body = vec![0u8; content_length];
        self.reader.read_exact(&mut body)?;
        Ok((code, body))
    }
}

/// Sends any delayed ACK now. Linux leaves quick-ACK mode on its own,
/// so this follows every read.
fn quickack(stream: &TcpStream) -> io::Result<()> {
    use std::os::fd::AsRawFd;
    extern "C" {
        fn setsockopt(fd: i32, level: i32, name: i32, value: *const i32, len: u32) -> i32;
    }
    const IPPROTO_TCP: i32 = 6;
    const TCP_QUICKACK: i32 = 12;
    let one: i32 = 1;
    // SAFETY: a valid socket descriptor and a pointer to an `int` of the
    // stated length, as setsockopt(2) requires.
    let rc = unsafe { setsockopt(stream.as_raw_fd(), IPPROTO_TCP, TCP_QUICKACK, &one, 4) };
    if rc == 0 {
        Ok(())
    } else {
        Err(io::Error::last_os_error())
    }
}

/// Ids of this process's threads.
pub fn thread_ids() -> Vec<i32> {
    std::fs::read_dir("/proc/self/task")
        .map(|dir| {
            dir.flatten()
                .filter_map(|t| t.file_name().to_str()?.parse().ok())
                .collect()
        })
        .unwrap_or_default()
}

/// On-CPU nanoseconds of one thread of this process, read from its
/// CPU-time clock; 0 once the thread has ended.
pub fn thread_cpu_ns(tid: i32) -> u64 {
    // The kernel's per-thread scheduler clock of `tid`, as
    // pthread_getcpuclockid(3) builds it: (!tid << 3) | PERTHREAD | SCHED.
    cpu_clock_ns((!tid << 3) | 4 | 2)
}

/// Reads a CPU-time clock in nanoseconds; 0 when it cannot be read.
fn cpu_clock_ns(clock: i32) -> u64 {
    #[repr(C)]
    struct Timespec {
        sec: i64,
        nsec: i64,
    }
    extern "C" {
        fn clock_gettime(clock: i32, tp: *mut Timespec) -> i32;
    }
    let mut tp = Timespec { sec: 0, nsec: 0 };
    // SAFETY: `tp` is a valid timespec for the call to fill.
    if unsafe { clock_gettime(clock, &mut tp) } != 0 {
        return 0;
    }
    tp.sec as u64 * 1_000_000_000 + tp.nsec as u64
}

/// On-CPU nanoseconds of all of this process's threads so far
/// (`CLOCK_PROCESS_CPUTIME_ID`). With paravirtual steal accounting the
/// kernel leaves out the time a virtual CPU was preempted by its host.
pub fn process_cpu_ns() -> u64 {
    cpu_clock_ns(2)
}

/// On-CPU nanoseconds of the calling thread so far
/// (`CLOCK_THREAD_CPUTIME_ID`).
pub fn own_thread_cpu_ns() -> u64 {
    cpu_clock_ns(3)
}

/// Generator connections for this machine: two threads (writer and
/// reader) per connection within `nproc` threads, and no more than the
/// server has connection workers.
pub fn generator_connections(conn_workers: usize) -> usize {
    let nproc = std::thread::available_parallelism().map_or(1, |n| n.get());
    (nproc / 2).min(conn_workers).max(1)
}
