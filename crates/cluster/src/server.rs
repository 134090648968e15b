//! The shard side of the wire: accept connections and answer the fleet
//! protocol ([`crate::wire`]) by calling a [`Shard`] — the same methods an
//! in-process fleet calls on it. `asdr-shardd` is this loop over a
//! [`LocalShard`](crate::LocalShard) plus flags, a listener and signals.
//!
//! A connection is two threads: a reader that answers each frame, and a
//! writer that drains the connection's `Outbox`. A request's end is queued
//! there by whoever the shard has call its [`Done`] — for a
//! `LocalShard` the service worker that rendered it — so no thread exists
//! per request, a worker never waits on a peer's socket, and a peer that
//! stops reading holds up nobody's frames but its own.
//!
//! [`Server::run`] blocks in `accept`, so a client is served the moment it
//! dials; [`Server::stop`] wakes it by dialling the listener itself.
//!
//! Drain is graceful: the accept loop ends, in-flight requests finish
//! rendering, every queued frame is shipped, and only then does
//! [`Server::drain`] return — so a router sees either a completed result or
//! a closed connection, never a half-written frame.

use crate::net::{Listener, ShardAddr, Stream};
use crate::shard::{Done, Shard};
use crate::wire::{self, Message};
use asdr_serve::ServeError;
use std::io::BufReader;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::mpsc::{self, Sender};
use std::sync::{Arc, Condvar, Mutex};
use std::time::Duration;

/// How long the server lets its own shard take over one call. The shard
/// is normally in this process and ignores it.
const PATIENCE: Duration = Duration::from_secs(30);

/// Counts what drain must wait for before the process exits: frames queued
/// and not yet written, and prewarms still running.
#[derive(Default)]
struct WaitGroup {
    count: Mutex<usize>,
    cond: Condvar,
}

impl WaitGroup {
    fn enter(self: &Arc<Self>) -> WaitGuard {
        *self.count.lock().unwrap() += 1;
        WaitGuard { wg: self.clone() }
    }

    fn wait_idle(&self, timeout: Duration) {
        let count = self.count.lock().unwrap();
        drop(self.cond.wait_timeout_while(count, timeout, |count| *count > 0).unwrap());
    }
}

struct WaitGuard {
    wg: Arc<WaitGroup>,
}

impl Drop for WaitGuard {
    fn drop(&mut self) {
        *self.wg.count.lock().unwrap() -= 1;
        self.wg.cond.notify_all();
    }
}

/// One connection's way out: a queue its writer thread drains in order.
/// Sending never blocks.
#[derive(Clone)]
struct Outbox {
    frames: Sender<(Message, WaitGuard)>,
    unsent: Arc<WaitGroup>,
}

impl Outbox {
    fn send(&self, msg: Message) {
        // the writer outlives every sender; a frame it can no longer write is
        // dropped there — a vanished client is the fleet's problem, not the shard's
        let _ = self.frames.send((msg, self.unsent.enter()));
    }
}

/// One shard served over one listener.
pub struct Server {
    shard: Arc<dyn Shard>,
    shard_id: u64,
    /// Set by [`Server::stop`] or a wire `Drain`; the accept loop reads it
    /// after every accept.
    stopping: AtomicBool,
    /// Where [`Server::run`] is accepting, while it is: what `stop` dials
    /// to wake it.
    accepting: Mutex<Option<ShardAddr>>,
    unsent: Arc<WaitGroup>,
}

impl Server {
    /// A server answering for `shard`, which introduces itself as
    /// `shard_id` in the handshake (for logs; the ring keys on the
    /// router's own numbering).
    pub fn new(shard: Arc<dyn Shard>, shard_id: u64) -> Arc<Server> {
        Arc::new(Server {
            shard,
            shard_id,
            stopping: AtomicBool::new(false),
            accepting: Mutex::default(),
            unsent: Arc::default(),
        })
    }

    /// Begins the drain (what SIGTERM and a wire `Drain` both do): ends
    /// [`Server::run`], waking its accept with a connection of its own.
    pub fn stop(&self) {
        self.stopping.store(true, Ordering::SeqCst);
        // `run` publishes its address under this lock before it first reads
        // the flag: either it sees the flag, or the address is here to dial
        let accepting =
            self.accepting.lock().expect("the address lock is never held across a panic");
        if let Some(addr) = accepting.as_ref() {
            // failing, the listener is gone, and so is the accept to wake
            let _ = addr.connect();
        }
    }

    /// Serves `listener` until [`Server::stop`]: one blocking accept per
    /// client, whose connection gets its own threads. Follow with
    /// [`Server::drain`].
    ///
    /// # Errors
    ///
    /// Propagates an accept error, or the listener's address error.
    pub fn run(self: &Arc<Self>, listener: &Listener) -> std::io::Result<()> {
        *self.accepting.lock().expect("the address lock is never held across a panic") =
            Some(listener.local_addr()?);
        let served = loop {
            if self.stopping.load(Ordering::SeqCst) {
                break Ok(());
            }
            match listener.accept() {
                // once stopping, what was accepted (the wake-up) is dropped
                Ok(stream) if !self.stopping.load(Ordering::SeqCst) => {
                    let server = self.clone();
                    std::thread::spawn(move || server.serve_connection(stream));
                }
                Ok(_) => {}
                Err(e) if e.kind() == std::io::ErrorKind::Interrupted => {}
                Err(e) => break Err(e),
            }
        };
        *self.accepting.lock().expect("the address lock is never held across a panic") = None;
        served
    }

    /// Stops admissions, renders out what was admitted — which queues its
    /// replies — and waits for every connection's writer to ship them.
    pub fn drain(&self) {
        self.shard.drain(PATIENCE);
        self.unsent.wait_idle(PATIENCE);
    }

    /// Serves one connection until EOF or protocol error. Frames are read
    /// through a buffer, so one usually costs one `read`.
    fn serve_connection(self: &Arc<Self>, stream: Stream) {
        let Ok(mut write_half) = stream.try_clone() else { return };
        let mut reader = BufReader::new(stream);
        // the handshake is answered from this thread, before the writer
        // exists: a connecting client waits for the accept and nothing else
        let version = match wire::read_frame(&mut reader) {
            Ok(Some(Message::Hello { version })) => version,
            // a probe that connected and left, or no fleet client
            _ => return,
        };
        if version != wire::VERSION {
            eprintln!(
                "shardd: peer speaks wire version {version}, this shard speaks {}",
                wire::VERSION
            );
            return;
        }
        if wire::write_frame(&mut write_half, &Message::HelloOk { shard: self.shard_id }).is_err() {
            return;
        }
        let (frames, queued) = mpsc::channel::<(Message, WaitGuard)>();
        let writer = std::thread::spawn(move || {
            // after a failed write the rest of the queue is only released
            let mut open = true;
            for (msg, _unsent) in queued {
                open = open && wire::write_frame(&mut write_half, &msg).is_ok();
            }
        });
        let outbox = Outbox { frames, unsent: self.unsent.clone() };
        loop {
            let msg = match wire::read_frame(&mut reader) {
                Ok(Some(msg)) => msg,
                Ok(None) => break,
                Err(e) => {
                    eprintln!("shardd: dropping connection: {e}");
                    break;
                }
            };
            let reply = match msg {
                Message::Submit { id, req } => {
                    self.submit(id, &req, &outbox);
                    continue;
                }
                Message::StatsPoll { id } => match self.shard.stats(PATIENCE) {
                    Ok(stats) => Message::Stats { id, stats },
                    Err(_) => continue,
                },
                Message::Health { id } => match self.shard.health(PATIENCE) {
                    Ok(()) => Message::HealthOk { id },
                    Err(_) => continue,
                },
                Message::Prewarm { id, scene } => {
                    // a cold scene fits for seconds: off the reader thread
                    let (server, outbox, guard) =
                        (self.clone(), outbox.clone(), self.unsent.enter());
                    std::thread::spawn(move || {
                        let _guard = guard;
                        let ok = server.shard.prewarm(&scene, PATIENCE).unwrap_or(false);
                        outbox.send(Message::Warmed { id, ok });
                    });
                    continue;
                }
                Message::Drain { id } => {
                    // queued first: drain, which follows the stop, waits for it
                    outbox.send(Message::Draining { id });
                    self.stop();
                    continue;
                }
                // server-to-client kinds arriving here are a peer bug; skip
                // them rather than killing a connection carrying in-flight
                // work
                other => {
                    eprintln!("shardd: ignoring unexpected {other:?}");
                    continue;
                }
            };
            outbox.send(reply);
        }
        // the writer ends with the last sender: this one, then those of the
        // requests and prewarms still in flight
        drop(outbox);
        if writer.join().is_err() {
            eprintln!("shardd: a connection's writer panicked");
        }
    }

    /// Admits one request, its end to be queued by whoever the shard has
    /// report it, or refuses it. Either way the client's next word of it
    /// is its end: `Result` or `Failed`.
    fn submit(&self, id: u64, req: &wire::WireRequest, outbox: &Outbox) {
        let req = match req.to_request() {
            Ok(req) => req,
            Err(why) => {
                let error = ServeError::InvalidRequest(why);
                return outbox.send(Message::Failed { id, error });
            }
        };
        let done: Done = {
            let outbox = outbox.clone();
            Box::new(move |outcome| {
                outbox.send(match outcome {
                    Ok(result) => Message::Result { id, result },
                    Err(error) => Message::Failed { id, error },
                });
            })
        };
        // a refusal drops `done` uncalled: this is the request's one end
        if let Err(error) = self.shard.submit(&req, done) {
            outbox.send(Message::Failed { id, error });
        }
    }
}
