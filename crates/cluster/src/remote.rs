//! The wire client of one `asdr-shardd` process: [`RemoteShard`].
//!
//! A small pool of [`Stream`]s, each with a reader thread demultiplexing
//! reply frames by correlation id, so any number of requests, health probes,
//! and stats polls share a connection without head-of-line blocking on the
//! client side. A submit is one frame out and nothing waited for: it returns
//! once the `Submit` is written. A probe's or command's one reply goes to the
//! caller parked on a one-shot channel. A request's end is nobody's to wait
//! for: the reader reports the `Result` or `Failed` frame, or the connection
//! dying under it, through the submission's [`Done`] when it happens.
//! [`Shard::abandon`] ends every request the pooled connections carry and
//! leaves the connections open, so a shard that is connected but no longer
//! answers ends what it holds as a dead one does while its probes still go
//! out on a connection bounded by their own timeout.

use crate::net::{ShardAddr, Stream};
use crate::shard::{Done, Shard};
use crate::wire::{self, Message, WireRequest, WireStats};
use asdr_serve::{RenderRequest, ServeError};
use std::collections::HashMap;
use std::io::BufReader;
use std::sync::atomic::{AtomicBool, AtomicU64, AtomicUsize, Ordering};
use std::sync::mpsc::{self, RecvTimeoutError, SyncSender};
use std::sync::{Arc, Mutex};
use std::time::Duration;

/// What the connection owes one registered id.
enum Pending {
    /// A probe's or command's one reply, or why there will be none, to the
    /// caller parked on the other end.
    Reply(SyncSender<Result<Message, String>>),
    /// A submitted request's end.
    End(Done),
}

/// One pooled connection: a locked writer half plus a reader thread that
/// routes reply frames by id.
struct Conn {
    writer: Mutex<Stream>,
    read_half: Stream,
    pending: Mutex<HashMap<u64, Pending>>,
    alive: AtomicBool,
}

impl Conn {
    fn open(addr: &ShardAddr) -> Result<Arc<Conn>, ServeError> {
        let lost = |e: std::io::Error| ServeError::Connection(e.to_string());
        let stream = addr.connect().map_err(lost)?;
        let mut writer = stream.try_clone().map_err(lost)?;
        // handshake synchronously, bounded, before the reader thread owns
        // the stream; unbuffered, so no byte after `HelloOk` is read here
        stream.set_read_timeout(Some(Duration::from_secs(5))).map_err(lost)?;
        wire::write_frame(&mut writer, &Message::Hello { version: wire::VERSION }).map_err(lost)?;
        let mut read_half = stream.try_clone().map_err(lost)?;
        match wire::read_frame(&mut read_half) {
            Ok(Some(Message::HelloOk { .. })) => {}
            Ok(Some(other)) => {
                return Err(ServeError::Protocol(format!("expected HelloOk, got {other:?}")))
            }
            Ok(None) => return Err(ServeError::Connection("closed during handshake".into())),
            Err(e) => return Err(ServeError::Connection(e)),
        }
        stream.set_read_timeout(None).map_err(lost)?;
        let conn = Arc::new(Conn {
            writer: Mutex::new(writer),
            read_half: stream,
            pending: Mutex::new(HashMap::new()),
            alive: AtomicBool::new(true),
        });
        let reader_conn = conn.clone();
        std::thread::spawn(move || reader_loop(&reader_conn, read_half));
        Ok(conn)
    }

    /// Forgets `id`, returning whether it was still registered. A submit
    /// whose frame could not be written has its [`Done`] dropped uncalled.
    fn unregister(&self, id: u64) -> bool {
        // a statement of its own: the `Done` drops after the lock is released
        let forgotten = self.pending.lock().unwrap().remove(&id);
        forgotten.is_some()
    }

    /// Routes one reply frame to its id, which it takes off the table:
    /// every id is owed one frame. A `Result` or `Failed` ends a request,
    /// and its [`Done`] is called here, on the reader thread.
    /// Frames for unregistered ids (a probe that timed out) are dropped.
    fn deliver(&self, id: u64, msg: Message) {
        // a statement of its own: the `Done` runs after the lock is released
        let pending = self.pending.lock().unwrap().remove(&id);
        match pending {
            Some(Pending::Reply(reply)) => {
                let _ = reply.try_send(Ok(msg));
            }
            Some(Pending::End(done)) => done(match msg {
                Message::Result { result, .. } => Ok(result),
                Message::Failed { error, .. } => Err(error),
                other => Err(ServeError::Protocol(format!("a request ended with {other:?}"))),
            }),
            None => {}
        }
    }

    /// Ends every request in flight on this connection with `why` and
    /// leaves the connection, and the probes parked on it, alone: a request's
    /// late end finds its id gone and is dropped.
    fn abandon(&self, why: &str) {
        let ended: Vec<Pending> = (self.pending.lock().unwrap())
            .extract_if(|_, p| matches!(p, Pending::End(_)))
            .map(|(_, p)| p)
            .collect();
        for pending in ended {
            if let Pending::End(done) = pending {
                done(Err(ServeError::Connection(why.to_string())));
            }
        }
    }

    /// Marks the connection dead, ends every request in flight on it with
    /// the reason and wakes every caller still parked — the client-side
    /// signal a kill −9 produces.
    fn fail(&self, why: &str) {
        if self.alive.swap(false, Ordering::SeqCst) {
            self.read_half.shutdown();
        }
        let lost: Vec<Pending> = self.pending.lock().unwrap().drain().map(|(_, p)| p).collect();
        for pending in lost {
            match pending {
                Pending::Reply(reply) => {
                    let _ = reply.try_send(Err(why.to_string()));
                }
                Pending::End(done) => done(Err(ServeError::Connection(why.to_string()))),
            }
        }
    }
}

/// Reads through a buffer: a frame's length prefix is taken a byte at a
/// time, so a frame is usually one `read` instead of one per prefix byte.
fn reader_loop(conn: &Conn, read_half: Stream) {
    let mut read_half = BufReader::new(read_half);
    loop {
        match wire::read_frame(&mut read_half) {
            Ok(Some(msg)) => {
                if let Some(id) = msg.id() {
                    conn.deliver(id, msg);
                }
            }
            Ok(None) => return conn.fail("shard closed the connection"),
            Err(e) => return conn.fail(&e),
        }
    }
}

/// The client of one `asdr-shardd` process.
pub struct RemoteShard {
    addr: ShardAddr,
    pool: Mutex<Vec<Option<Arc<Conn>>>>,
    next_conn: AtomicUsize,
    next_id: AtomicU64,
}

impl RemoteShard {
    /// A client over `addr` with a `connections` pool (>= 1), verifying
    /// reachability with one eager connection.
    ///
    /// # Errors
    ///
    /// [`ServeError::Connection`] when the shard is unreachable.
    pub fn connect(addr: ShardAddr, connections: usize) -> Result<RemoteShard, ServeError> {
        let mut pool = vec![None; connections.max(1)];
        pool[0] = Some(Conn::open(&addr)?);
        Ok(RemoteShard {
            addr,
            pool: Mutex::new(pool),
            next_conn: AtomicUsize::new(0),
            next_id: AtomicU64::new(1),
        })
    }

    /// A live pooled connection (round-robin), re-dialing a dead or
    /// unopened pool slot — which is also how a restarted shard rejoins.
    fn conn(&self) -> Result<Arc<Conn>, ServeError> {
        let mut pool = self.pool.lock().unwrap();
        let i = self.next_conn.fetch_add(1, Ordering::Relaxed) % pool.len();
        if let Some(conn) = &pool[i] {
            if conn.alive.load(Ordering::SeqCst) {
                return Ok(conn.clone());
            }
        }
        let fresh = Conn::open(&self.addr)?;
        pool[i] = Some(fresh.clone());
        Ok(fresh)
    }

    /// Registers what the next id is owed and sends the frame `build` makes
    /// for it.
    fn request(
        &self,
        owed: Pending,
        build: impl FnOnce(u64) -> Message,
    ) -> Result<(Arc<Conn>, u64), ServeError> {
        let conn = self.conn()?;
        let id = self.next_id.fetch_add(1, Ordering::Relaxed);
        conn.pending.lock().unwrap().insert(id, owed);
        let msg = build(id);
        let written = wire::write_frame(&mut *conn.writer.lock().unwrap(), &msg);
        if let Err(e) = written {
            // forgotten before the connection fails, so the `Err` is the only
            // word of it; unless the reader failed it first and has reported
            let forgotten = conn.unregister(id);
            conn.fail(&e.to_string());
            if forgotten {
                return Err(ServeError::Connection(e.to_string()));
            }
        }
        Ok((conn, id))
    }

    /// One-reply request/response helper.
    fn roundtrip(
        &self,
        timeout: Duration,
        build: impl FnOnce(u64) -> Message,
    ) -> Result<Message, ServeError> {
        // room for the one reply, so the reader never waits for its caller
        let (reply, first) = mpsc::sync_channel(1);
        let (conn, id) = self.request(Pending::Reply(reply), build)?;
        let answer = match first.recv_timeout(timeout) {
            Ok(Ok(msg)) => Ok(msg),
            Ok(Err(why)) => Err(ServeError::Connection(why)),
            Err(RecvTimeoutError::Timeout) => {
                Err(ServeError::Connection(format!("no reply within {timeout:?}")))
            }
            Err(RecvTimeoutError::Disconnected) => {
                Err(ServeError::Protocol("the connection dropped the reply".into()))
            }
        };
        conn.unregister(id);
        answer
    }

    /// [`Shard::prewarm`], callable without the trait in scope.
    ///
    /// # Errors
    ///
    /// Connection or protocol errors.
    pub fn prewarm(&self, scene: &str, timeout: Duration) -> Result<bool, ServeError> {
        let scene = scene.to_string();
        match self.roundtrip(timeout, |id| Message::Prewarm { id, scene })? {
            Message::Warmed { ok, .. } => Ok(ok),
            other => Err(ServeError::Protocol(format!("expected Warmed, got {other:?}"))),
        }
    }
}

impl Shard for RemoteShard {
    fn submit(&self, req: &RenderRequest, done: Done) -> Result<(), ServeError> {
        let req = WireRequest::from_request(req);
        self.request(Pending::End(done), |id| Message::Submit { id, req }).map(drop)
    }

    fn abandon(&self, why: &str) {
        // outside the pool lock: each request's `Done` runs in `Conn::abandon`
        let pooled: Vec<Arc<Conn>> = self.pool.lock().unwrap().iter().flatten().cloned().collect();
        for conn in pooled {
            conn.abandon(why);
        }
    }

    fn health(&self, timeout: Duration) -> Result<(), ServeError> {
        match self.roundtrip(timeout, |id| Message::Health { id })? {
            Message::HealthOk { .. } => Ok(()),
            other => Err(ServeError::Protocol(format!("expected HealthOk, got {other:?}"))),
        }
    }

    fn stats(&self, timeout: Duration) -> Result<WireStats, ServeError> {
        match self.roundtrip(timeout, |id| Message::StatsPoll { id })? {
            Message::Stats { stats, .. } => Ok(stats),
            other => Err(ServeError::Protocol(format!("expected Stats, got {other:?}"))),
        }
    }

    fn prewarm(&self, scene: &str, timeout: Duration) -> Result<bool, ServeError> {
        RemoteShard::prewarm(self, scene, timeout)
    }

    fn drain(&self, timeout: Duration) {
        let _ = self.roundtrip(timeout, |id| Message::Drain { id });
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::net::Listener;
    use crate::wire::WireResult;

    #[test]
    fn connecting_to_a_dead_address_is_a_named_error() {
        let addr = ShardAddr::Unix(std::env::temp_dir().join("asdr-no-such-shard.sock"));
        let Err(e) = RemoteShard::connect(addr, 1) else {
            panic!("connecting to a dead shard must fail");
        };
        assert!(matches!(e, ServeError::Connection(_)), "{e}");
    }

    /// A [`Done`] that tells `ends` how it ended: called with what, or
    /// dropped uncalled.
    fn recorded(name: &'static str, ends: &mpsc::Sender<(&'static str, String)>) -> Done {
        struct Uncalled(&'static str, Option<mpsc::Sender<(&'static str, String)>>);
        impl Drop for Uncalled {
            fn drop(&mut self) {
                if let Some(ends) = self.1.take() {
                    ends.send((self.0, "dropped".into())).unwrap();
                }
            }
        }
        let mut guard = Uncalled(name, Some(ends.clone()));
        Box::new(move |outcome| {
            let how = match outcome {
                Ok(result) => format!("result of {}", result.scene),
                Err(e) => format!("error: {e}"),
            };
            guard.1.take().expect("called once").send((guard.0, how)).unwrap();
        })
    }

    /// Every way a submitted request can end on this client reaches its
    /// `Done` exactly once: a result, a render failure, a refusal, the
    /// connection dying under it, and the shard being abandoned while the
    /// connection is still up (a silent shard's eviction) — which leaves
    /// that connection open for the next probe and drops the request's
    /// late result. The peer is scripted — each step blocks on the frame or
    /// the word it expects — and each end is received from a channel, so
    /// nothing here waits on a clock.
    #[test]
    fn every_end_of_a_request_reaches_its_done_exactly_once() {
        const NAMES: [&str; 5] = ["rendered", "failed", "refused", "orphaned", "abandoned"];
        let sock = std::env::temp_dir().join(format!("asdr-ends-{}.sock", std::process::id()));
        let (listener, addr) = Listener::bind(&ShardAddr::Unix(sock.clone())).unwrap();
        let (now, hang_up) = mpsc::channel();
        let peer = std::thread::spawn(move || {
            let send = |stream: &mut Stream, msg| wire::write_frame(stream, &msg).unwrap();
            let expect = |stream: &mut Stream| wire::read_frame(stream).unwrap().expect("a frame");
            let greet = |stream: &mut Stream| {
                assert!(matches!(expect(stream), Message::Hello { .. }));
                send(stream, Message::HelloOk { shard: 0 });
            };
            let mut stream = listener.accept().unwrap();
            greet(&mut stream);
            // nothing acknowledges a submit: the next frame is the next submit
            let ids = [(); 4].map(|()| expect(&mut stream).id().expect("a submit"));
            let result = WireResult {
                scene: "Mic".into(),
                resolution: 8,
                reused_frames: 0,
                queue_wait_us: 0,
                latency_us: 1,
                deadline_met: None,
                completed_seq: 0,
                images: Vec::new(),
                trace: asdr_obs::TraceId::UNSET,
            };
            send(&mut stream, Message::Result { id: ids[0], result: result.clone() });
            let error = ServeError::RenderFailed("boom".into());
            send(&mut stream, Message::Failed { id: ids[1], error });
            let error = ServeError::QueueFull { capacity: 64 };
            send(&mut stream, Message::Failed { id: ids[2], error });
            // closing the connection ends the fourth request
            hang_up.recv().unwrap();
            drop(stream);
            // the fifth comes on a fresh connection, which the client abandons
            // while this end stays open: its result comes too late, and the
            // next probe comes on the same connection
            let mut stream = listener.accept().unwrap();
            greet(&mut stream);
            let id = expect(&mut stream).id().expect("a submit");
            hang_up.recv().unwrap();
            let result = WireResult { scene: "Lego".into(), ..result };
            send(&mut stream, Message::Result { id, result });
            let Message::Health { id } = expect(&mut stream) else { panic!("a probe") };
            send(&mut stream, Message::HealthOk { id });
        });
        let shard = RemoteShard::connect(addr, 1).unwrap();
        let (ends, ended) = mpsc::channel();
        let mut dones: Vec<Done> = NAMES.iter().map(|name| recorded(name, &ends)).collect();
        drop(ends);
        let req = RenderRequest::frame(asdr_scenes::registry::handle("Mic"), 8);
        let abandoned = dones.pop().expect("five ends");
        dones.into_iter().for_each(|done| shard.submit(&req, done).unwrap());
        let next = || ended.recv_timeout(Duration::from_secs(30)).expect("a request never ended");
        assert_eq!(next(), ("rendered", "result of Mic".to_string()));
        assert_eq!(next(), ("failed", "error: render failed: boom".to_string()));
        let refusal = "error: admission queue full (64 pending)".to_string();
        assert_eq!(next(), ("refused", refusal));
        let conn = shard.conn().unwrap();
        assert_eq!(conn.pending.lock().unwrap().len(), 1, "an ended request kept its id");
        now.send(()).unwrap();
        let (name, how) = next();
        assert_eq!(name, "orphaned");
        assert!(how.starts_with("error: connection: "), "{how}");
        // the dead slot is dialled again for the next submit
        shard.submit(&req, abandoned).unwrap();
        shard.abandon("evicted");
        assert_eq!(next(), ("abandoned", "error: connection: evicted".to_string()));
        now.send(()).unwrap();
        // the peer accepts no third connection: this probe is answered on
        // the abandoned one, after the late result it drops
        shard.health(Duration::from_secs(30)).expect("the abandoned connection was closed");
        peer.join().unwrap();
        shard.abandon("evicted again");
        assert!(ended.recv().is_err(), "a request ended twice");
        let _ = std::fs::remove_file(&sock);
    }
}
