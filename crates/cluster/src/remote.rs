//! The wire client of one `asdr-shardd` process: [`RemoteShard`].
//!
//! A small pool of [`Stream`]s, each with a reader thread demultiplexing
//! reply frames into per-request slots by correlation id, so any number of
//! requests, health probes, and stats polls share a connection without
//! head-of-line blocking on the client side. The reader is also what
//! reports a request terminal to the fleet ([`Done`]): the `Result` or
//! `Failed` frame, or the connection dying under it, is observed when it
//! happens, not when somebody waits.

use crate::net::{ShardAddr, Stream};
use crate::shard::{Done, HealthInfo, Shard, ShardError, ShardTicket};
use crate::wire::{self, Message, WireRequest, WireResult, WireStats};
use asdr_serve::RenderRequest;
use std::collections::{HashMap, VecDeque};
use std::sync::atomic::{AtomicBool, AtomicU64, AtomicUsize, Ordering};
use std::sync::{Arc, Condvar, Mutex};
use std::time::Duration;

/// One correlation id's reply stream (a submit sees `Submitted` then
/// `Result`; probes see a single reply).
#[derive(Default)]
struct SlotState {
    replies: VecDeque<Message>,
    dead: Option<String>,
    /// A submit's terminal report, until it has been made.
    done: Option<Done>,
}

#[derive(Default)]
struct Slot {
    state: Mutex<SlotState>,
    cond: Condvar,
}

impl Slot {
    /// The next reply for this id, waiting up to `timeout`.
    fn next(&self, timeout: Duration) -> Result<Message, ShardError> {
        let st = self.state.lock().unwrap();
        let idle = |st: &mut SlotState| st.replies.is_empty() && st.dead.is_none();
        let mut st = self.cond.wait_timeout_while(st, timeout, idle).unwrap().0;
        match (st.replies.pop_front(), &st.dead) {
            (Some(msg), _) => Ok(msg),
            (None, Some(why)) => Err(ShardError::Connection(why.clone())),
            (None, None) => Err(ShardError::Timeout),
        }
    }

    /// Makes the terminal report, if it is still owed.
    fn finish(&self, service_ms: Option<f64>) {
        let done = self.state.lock().unwrap().done.take();
        if let Some(done) = done {
            done(service_ms);
        }
    }

    /// Queues a reply frame. A `Result` or `Failed` is reported terminal
    /// before any waiter can wake on it, so whoever saw the reply also
    /// sees the budget it released and the cost it taught.
    fn deliver(&self, msg: Message) {
        match &msg {
            Message::Result { result, .. } => {
                let service_us = result.latency_us.saturating_sub(result.queue_wait_us);
                self.finish(Some(service_us as f64 / 1e3));
            }
            Message::Failed { .. } => self.finish(None),
            _ => {}
        }
        self.state.lock().unwrap().replies.push_back(msg);
        self.cond.notify_all();
    }
}

/// One pooled connection: a locked writer half plus a reader thread that
/// routes reply frames into slots by id.
struct Conn {
    writer: Mutex<Stream>,
    read_half: Stream,
    pending: Mutex<HashMap<u64, Arc<Slot>>>,
    alive: AtomicBool,
}

impl Conn {
    fn open(addr: &ShardAddr) -> Result<Arc<Conn>, ShardError> {
        let stream = addr.connect().map_err(|e| ShardError::Connection(e.to_string()))?;
        let mut writer = stream.try_clone().map_err(|e| ShardError::Connection(e.to_string()))?;
        // handshake synchronously, bounded, before the reader thread owns
        // the stream
        stream
            .set_read_timeout(Some(Duration::from_secs(5)))
            .map_err(|e| ShardError::Connection(e.to_string()))?;
        wire::write_frame(&mut writer, &Message::Hello { version: wire::VERSION })
            .map_err(|e| ShardError::Connection(e.to_string()))?;
        let mut read_half =
            stream.try_clone().map_err(|e| ShardError::Connection(e.to_string()))?;
        match wire::read_frame(&mut read_half) {
            Ok(Some(Message::HelloOk { .. })) => {}
            Ok(Some(other)) => {
                return Err(ShardError::Protocol(format!("expected HelloOk, got {other:?}")))
            }
            Ok(None) => return Err(ShardError::Connection("closed during handshake".into())),
            Err(e) => return Err(ShardError::Connection(e)),
        }
        stream.set_read_timeout(None).map_err(|e| ShardError::Connection(e.to_string()))?;
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

    fn register(&self, id: u64, done: Option<Done>) -> Arc<Slot> {
        let slot = Arc::new(Slot::default());
        slot.state.lock().unwrap().done = done;
        self.pending.lock().unwrap().insert(id, slot.clone());
        slot
    }

    /// Forgets `id`, returning whether it was still registered. A submit
    /// abandoned before its reply is terminal as far as this client will
    /// ever know, and is reported so.
    fn unregister(&self, id: u64) -> bool {
        let slot = self.pending.lock().unwrap().remove(&id);
        if let Some(slot) = &slot {
            slot.finish(None);
        }
        slot.is_some()
    }

    fn send(&self, msg: &Message) -> Result<(), ShardError> {
        let mut w = self.writer.lock().unwrap();
        wire::write_frame(&mut *w, msg).map_err(|e| {
            self.fail(&e.to_string());
            ShardError::Connection(e.to_string())
        })
    }

    /// Marks the connection dead and wakes every pending waiter with the
    /// reason — the client-side signal a kill −9 produces.
    fn fail(&self, why: &str) {
        if self.alive.swap(false, Ordering::SeqCst) {
            self.read_half.shutdown();
        }
        let slots: Vec<Arc<Slot>> = self.pending.lock().unwrap().drain().map(|(_, s)| s).collect();
        for slot in slots {
            slot.finish(None);
            slot.state.lock().unwrap().dead = Some(why.to_string());
            slot.cond.notify_all();
        }
    }
}

fn reader_loop(conn: &Conn, mut read_half: Stream) {
    loop {
        match wire::read_frame(&mut read_half) {
            Ok(Some(msg)) => {
                let Some(id) = msg.id() else { continue };
                let slot = conn.pending.lock().unwrap().get(&id).cloned();
                // replies for unregistered ids (cancelled hedges, dropped
                // tickets) are dropped
                if let Some(slot) = slot {
                    slot.deliver(msg);
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
    /// [`ShardError::Connection`] when the shard is unreachable.
    pub fn connect(addr: ShardAddr, connections: usize) -> Result<RemoteShard, ShardError> {
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
    fn conn(&self) -> Result<Arc<Conn>, ShardError> {
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

    fn request(
        &self,
        done: Option<Done>,
        build: impl FnOnce(u64) -> Message,
    ) -> Result<(Arc<Conn>, Arc<Slot>, u64), ShardError> {
        let conn = self.conn()?;
        let id = self.next_id.fetch_add(1, Ordering::Relaxed);
        let slot = conn.register(id, done);
        if let Err(e) = conn.send(&build(id)) {
            conn.unregister(id);
            return Err(e);
        }
        Ok((conn, slot, id))
    }

    /// One-reply request/response helper.
    fn roundtrip(
        &self,
        timeout: Duration,
        build: impl FnOnce(u64) -> Message,
    ) -> Result<Message, ShardError> {
        let (conn, slot, id) = self.request(None, build)?;
        let reply = slot.next(timeout);
        conn.unregister(id);
        reply
    }

    /// [`Shard::prewarm`], callable without the trait in scope.
    ///
    /// # Errors
    ///
    /// Connection, protocol, or timeout errors.
    pub fn prewarm(&self, scene: &str, timeout: Duration) -> Result<bool, ShardError> {
        let scene = scene.to_string();
        match self.roundtrip(timeout, |id| Message::Prewarm { id, scene })? {
            Message::Warmed { ok, .. } => Ok(ok),
            other => Err(ShardError::Protocol(format!("expected Warmed, got {other:?}"))),
        }
    }
}

impl Shard for RemoteShard {
    fn submit(
        &self,
        req: &RenderRequest,
        done: Done,
        timeout: Duration,
    ) -> Result<Arc<dyn ShardTicket>, ShardError> {
        let wire_req = WireRequest::from_request(req);
        let (conn, slot, id) =
            self.request(Some(done), |id| Message::Submit { id, req: wire_req })?;
        let refusal = match slot.next(timeout) {
            Ok(Message::Submitted { .. }) => return Ok(Arc::new(RemoteTicket { conn, slot, id })),
            Ok(Message::Refused { retryable, why, .. }) => ShardError::Refused { retryable, why },
            Ok(other) => ShardError::Protocol(format!("expected Submitted, got {other:?}")),
            Err(e) => e,
        };
        conn.unregister(id);
        Err(refusal)
    }

    fn health(&self, timeout: Duration) -> Result<HealthInfo, ShardError> {
        match self.roundtrip(timeout, |id| Message::Health { id })? {
            Message::HealthOk { queue_len, draining, .. } => Ok(HealthInfo { queue_len, draining }),
            other => Err(ShardError::Protocol(format!("expected HealthOk, got {other:?}"))),
        }
    }

    fn stats(&self, timeout: Duration) -> Result<WireStats, ShardError> {
        match self.roundtrip(timeout, |id| Message::StatsPoll { id })? {
            Message::Stats { stats, .. } => Ok(stats),
            other => Err(ShardError::Protocol(format!("expected Stats, got {other:?}"))),
        }
    }

    fn prewarm(&self, scene: &str, timeout: Duration) -> Result<bool, ShardError> {
        RemoteShard::prewarm(self, scene, timeout)
    }

    fn set_workers(&self, workers: usize, timeout: Duration) -> Result<usize, ShardError> {
        let workers = workers as u64;
        match self.roundtrip(timeout, |id| Message::SetWorkers { id, workers })? {
            Message::WorkersSet { previous, .. } => Ok(previous as usize),
            other => Err(ShardError::Protocol(format!("expected WorkersSet, got {other:?}"))),
        }
    }

    fn drain(&self, timeout: Duration) {
        let _ = self.roundtrip(timeout, |id| Message::Drain { id });
    }
}

/// A submitted remote request's completion handle. Dropping it before its
/// outcome arrived cancels the request: the slot leaves the connection and
/// the shard is told to keep the reply.
pub struct RemoteTicket {
    conn: Arc<Conn>,
    slot: Arc<Slot>,
    id: u64,
}

impl ShardTicket for RemoteTicket {
    fn wait_result(&self, timeout: Duration) -> Result<WireResult, ShardError> {
        let reply = match self.slot.next(timeout) {
            Err(ShardError::Timeout) => return Err(ShardError::Timeout),
            reply => reply,
        };
        self.conn.unregister(self.id);
        match reply? {
            Message::Result { result, .. } => Ok(result),
            Message::Failed { why, .. } => Err(ShardError::Render(why)),
            other => Err(ShardError::Protocol(format!("expected Result, got {other:?}"))),
        }
    }

    fn cancel(&self) {
        if self.conn.unregister(self.id) {
            let _ = self.conn.send(&Message::Cancel { id: self.id });
        }
    }
}

impl Drop for RemoteTicket {
    fn drop(&mut self) {
        self.cancel();
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::net::Listener;

    #[test]
    fn connecting_to_a_dead_address_is_a_named_error() {
        let addr = ShardAddr::Unix(std::env::temp_dir().join("asdr-no-such-shard.sock"));
        let Err(e) = RemoteShard::connect(addr, 1) else {
            panic!("connecting to a dead shard must fail");
        };
        assert!(matches!(e, ShardError::Connection(_)), "{e}");
    }

    #[test]
    fn slots_deliver_in_order_report_once_and_fail_on_death() {
        let reports = Arc::new(Mutex::new(Vec::new()));
        let slot = Slot::default();
        let seen = reports.clone();
        slot.state.lock().unwrap().done = Some(Box::new(move |ms| seen.lock().unwrap().push(ms)));
        slot.deliver(Message::Submitted { id: 1 });
        assert!(reports.lock().unwrap().is_empty(), "an admission is not an end");
        slot.deliver(Message::Failed { id: 1, why: "x".into() });
        slot.finish(Some(1.0)); // nothing left to report
        assert_eq!(*reports.lock().unwrap(), [None]);
        assert_eq!(slot.next(Duration::from_millis(1)).unwrap(), Message::Submitted { id: 1 });
        assert!(matches!(slot.next(Duration::from_millis(1)).unwrap(), Message::Failed { .. }));
        assert_eq!(slot.next(Duration::from_millis(1)).unwrap_err(), ShardError::Timeout);
        slot.state.lock().unwrap().dead = Some("gone".into());
        assert!(matches!(
            slot.next(Duration::from_millis(1)).unwrap_err(),
            ShardError::Connection(_)
        ));
    }

    /// A ticket dropped un-waited must not leave its slot (and, later, the
    /// frames the shard sent) in `Conn::pending` for the life of the
    /// connection, must tell the shard to keep the reply, and must report
    /// the request over. The peer is scripted: each step blocks on the
    /// frame it expects, so nothing here waits on a clock.
    #[test]
    fn a_dropped_ticket_unregisters_cancels_and_reports() {
        let sock = std::env::temp_dir().join(format!("asdr-drop-{}.sock", std::process::id()));
        let (listener, addr) = Listener::bind(&ShardAddr::Unix(sock.clone())).unwrap();
        let peer = std::thread::spawn(move || {
            let mut stream = listener.accept().unwrap();
            let mut expect = |reply: Option<fn(u64) -> Message>| {
                let msg = wire::read_frame(&mut stream).unwrap().expect("a frame");
                if let Some(reply) = reply {
                    wire::write_frame(&mut stream, &reply(msg.id().unwrap_or(0))).unwrap();
                }
                msg
            };
            expect(Some(|_| Message::HelloOk { shard: 0 }));
            let submit = expect(Some(|id| Message::Submitted { id }));
            let cancel = expect(None);
            (submit.id(), cancel)
        });
        let shard = RemoteShard::connect(addr, 1).unwrap();
        let reports = Arc::new(Mutex::new(Vec::new()));
        let seen = reports.clone();
        let req = RenderRequest::frame(asdr_scenes::registry::handle("Mic"), 8);
        let ticket = shard
            .submit(
                &req,
                Box::new(move |ms| seen.lock().unwrap().push(ms)),
                Duration::from_secs(30),
            )
            .unwrap();
        let conn = shard.conn().unwrap();
        assert_eq!(conn.pending.lock().unwrap().len(), 1);
        drop(ticket);
        assert!(conn.pending.lock().unwrap().is_empty(), "the dropped ticket left its slot behind");
        assert_eq!(*reports.lock().unwrap(), [None]);
        let (submitted, cancel) = peer.join().unwrap();
        assert_eq!(Some(cancel), submitted.map(|id| Message::Cancel { id }));
        let _ = std::fs::remove_file(&sock);
    }
}
