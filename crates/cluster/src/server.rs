//! The shard side of the wire: accept connections and answer the fleet
//! protocol ([`crate::wire`]) by calling a [`Shard`] — the same methods an
//! in-process fleet calls on it. `asdr-shardd` is this loop over a
//! [`LocalShard`](crate::LocalShard) plus flags, a listener and signals.
//!
//! Drain is graceful: the listener stops being polled, in-flight requests
//! finish rendering, every pending `Result` frame is shipped, and only
//! then does [`Server::drain`] return — so a router sees either a
//! completed result or a closed connection, never a half-written frame.

use crate::net::{Listener, Stream};
use crate::shard::{Shard, ShardError};
use crate::wire::{self, Message};
use std::collections::HashSet;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Arc, Condvar, Mutex};
use std::time::Duration;

/// How long the server lets its own shard take over one call. The shard
/// is normally in this process and ignores it.
const PATIENCE: Duration = Duration::from_secs(30);

/// Counts in-flight response writers so drain can wait for the last
/// `Result` frame to ship before the process exits.
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

/// Sends one frame under the connection's writer lock, ignoring errors —
/// a vanished client is the fleet's problem, not the shard's.
fn send(writer: &Mutex<Stream>, msg: &Message) {
    let mut w = writer.lock().unwrap();
    let _ = wire::write_frame(&mut *w, msg);
}

/// One shard served over one listener.
pub struct Server {
    shard: Arc<dyn Shard>,
    shard_id: u64,
    /// Set by [`Server::stop`] or a wire `Drain`; the accept loop polls it.
    stopping: AtomicBool,
    responders: Arc<WaitGroup>,
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
            responders: Arc::default(),
        })
    }

    /// Begins the drain (what SIGTERM and a wire `Drain` both do).
    pub fn stop(&self) {
        self.stopping.store(true, Ordering::SeqCst);
    }

    /// Serves `listener` (nonblocking: a blocking accept would sleep
    /// through a signal) until stopped, calling `tick` between polls.
    /// Follow with [`Server::drain`].
    ///
    /// # Errors
    ///
    /// Propagates an accept error other than `WouldBlock`.
    pub fn run(
        self: &Arc<Self>,
        listener: &Listener,
        mut tick: impl FnMut(),
    ) -> std::io::Result<()> {
        while !self.stopping.load(Ordering::SeqCst) {
            match listener.accept() {
                Ok(stream) => {
                    let server = self.clone();
                    std::thread::spawn(move || server.serve_connection(stream));
                }
                Err(e) if e.kind() == std::io::ErrorKind::WouldBlock => {
                    std::thread::sleep(Duration::from_millis(20));
                }
                Err(e) => return Err(e),
            }
            tick();
        }
        Ok(())
    }

    /// Stops admissions, renders out what was admitted and ships every
    /// pending reply.
    pub fn drain(&self) {
        self.shard.drain(PATIENCE);
        self.responders.wait_idle(PATIENCE);
    }

    /// Serves one connection until EOF or protocol error.
    fn serve_connection(self: &Arc<Self>, stream: Stream) {
        let _ = stream.set_blocking();
        let Ok(write_half) = stream.try_clone() else { return };
        let writer = Arc::new(Mutex::new(write_half));
        let cancelled: Arc<Mutex<HashSet<u64>>> = Arc::default();
        let mut reader = stream;
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
                Message::Hello { version } if version != wire::VERSION => {
                    eprintln!(
                        "shardd: peer speaks wire version {version}, this shard speaks {}",
                        wire::VERSION
                    );
                    break;
                }
                Message::Hello { .. } => Message::HelloOk { shard: self.shard_id },
                Message::Submit { id, req } => match self.submit(id, &req, &writer, &cancelled) {
                    Some(refusal) => refusal,
                    None => continue,
                },
                Message::Cancel { id } => {
                    cancelled.lock().unwrap().insert(id);
                    continue;
                }
                Message::StatsPoll { id } => match self.shard.stats(PATIENCE) {
                    Ok(stats) => Message::Stats { id, stats },
                    Err(_) => continue,
                },
                Message::Health { id } => match self.shard.health(PATIENCE) {
                    Ok(h) => Message::HealthOk {
                        id,
                        queue_len: h.queue_len,
                        draining: h.draining || self.stopping.load(Ordering::SeqCst),
                    },
                    Err(_) => continue,
                },
                Message::Prewarm { id, scene } => {
                    // a cold scene fits for seconds: off the reader thread
                    let (server, writer, guard) =
                        (self.clone(), writer.clone(), self.responders.enter());
                    std::thread::spawn(move || {
                        let _guard = guard;
                        let ok = server.shard.prewarm(&scene, PATIENCE).unwrap_or(false);
                        send(&writer, &Message::Warmed { id, ok });
                    });
                    continue;
                }
                Message::SetWorkers { id, workers } => {
                    match self.shard.set_workers(workers as usize, PATIENCE) {
                        Ok(previous) => Message::WorkersSet { id, previous: previous as u64 },
                        Err(_) => continue,
                    }
                }
                Message::Drain { id } => {
                    // acknowledged first: once stopped, the process may be gone
                    send(&writer, &Message::Draining { id });
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
            send(&writer, &reply);
        }
    }

    /// Admits one request: acknowledges it and leaves a responder thread
    /// waiting to ship its outcome, or returns the refusal to send.
    fn submit(
        &self,
        id: u64,
        req: &wire::WireRequest,
        writer: &Arc<Mutex<Stream>>,
        cancelled: &Arc<Mutex<HashSet<u64>>>,
    ) -> Option<Message> {
        let admitted = req
            .to_request()
            .map_err(|why| ShardError::Refused { retryable: false, why })
            .and_then(|req| self.shard.submit(&req, Box::new(|_| ()), PATIENCE));
        let ticket = match admitted {
            Ok(ticket) => ticket,
            Err(ShardError::Refused { retryable, why }) => {
                return Some(Message::Refused { id, retryable, why })
            }
            Err(e) => return Some(Message::Refused { id, retryable: false, why: e.to_string() }),
        };
        // acknowledged before the responder exists: the client must never
        // see a `Result` ahead of its `Submitted`
        send(writer, &Message::Submitted { id });
        let (writer, cancelled, guard) =
            (writer.clone(), cancelled.clone(), self.responders.enter());
        std::thread::spawn(move || {
            let _guard = guard;
            let outcome = loop {
                match ticket.wait_result(PATIENCE) {
                    Err(ShardError::Timeout) => {}
                    outcome => break outcome,
                }
            };
            if cancelled.lock().unwrap().remove(&id) {
                return; // a hedge won elsewhere; drop the reply
            }
            send(
                &writer,
                &match outcome {
                    Ok(result) => Message::Result { id, result },
                    Err(e) => Message::Failed { id, why: e.to_string() },
                },
            );
        });
        None
    }
}
