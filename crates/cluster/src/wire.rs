//! The fleet wire protocol — a hand-rolled length-prefixed binary codec
//! carrying render requests, tickets, stats polls, health probes, and
//! prewarms between the router front-end and `asdr-shardd` daemons.
//!
//! Framing is a varint byte length followed by that many payload bytes;
//! the payload is a one-byte message tag plus tag-specific fields (LEB128
//! varints, packed flag bits, little-endian float bits — no serde in this
//! environment), read back by one bounds-checked `Reader`. Every
//! request-shaped message carries a client-assigned correlation `id` and
//! every response echoes it, so one connection multiplexes any number of
//! in-flight operations and a reader thread can demultiplex replies by id
//! alone.
//!
//! Image payloads in [`Message::Result`] serialize each pixel channel as
//! its **exact** `f32` bit pattern, so a frame rendered on a shard is
//! byte-identical after the round trip — the property the kill-−9
//! acceptance test pins down.
//!
//! Decoding is total: any byte string either decodes or returns a named
//! error (`"wire frame: why"` / `"wire message: why"`); it never panics
//! and never allocates more than the input length, whatever the bytes.

use asdr_math::{Image, Vec3};
use asdr_obs::TraceId;
use asdr_scenes::registry::OrbitCamera;
use asdr_serve::service::{Priority, RenderRequest, RenderResult};
use asdr_serve::workload::{check_pixels, MAX_DEADLINE_MS, MAX_FRAMES, MAX_PIXELS, MAX_RESOLUTION};
use asdr_serve::{ServeError, ServeStats, StoreStats};
use std::io::{Read, Write};

/// Wire protocol version, exchanged in [`Message::Hello`]. 2: `Stats`
/// carries the counted and skipped evaluation totals. 3: admission is
/// one-way — a shard no longer acknowledges a `Submit` (tag 3, `Submitted`,
/// is retired), and a `Refused` is one of the request's ends. 4: worker
/// pools are fixed when a shard is built (tags 16 and 17, the pool resize
/// pair, are retired). 5: a request that ends without a result ends with
/// one `Failed` carrying the [`ServeError`] itself (tag 4, `Refused`, is
/// retired); `HealthOk` carries only its id, `Stats` no queue length.
/// 6: a fleet no longer withdraws a reply it has stopped wanting (tag 7,
/// `Cancel`, is retired).
pub const VERSION: u8 = 6;

/// Largest frame payload a peer will read: it bounds a hostile length
/// prefix, and the largest result a shard admits to render fits it.
pub const MAX_FRAME_BYTES: u64 = 1 << 28;

/// Bytes [`read_frame`] reserves before a payload arrives: a whole frame up
/// to this size, the start of a longer one.
const PAYLOAD_RESERVE: usize = 1 << 16;

/// Longest scene name / error string on the wire.
const MAX_STRING: u64 = 4096;

/// Deadline bound, microseconds (the workload format's millisecond bound).
const MAX_DEADLINE_US: u64 = MAX_DEADLINE_MS * 1000;

/// Longest LEB128 varint: a `u64` in 7-bit groups.
const MAX_VARINT: u64 = 10;

// The largest `Result` a shard can owe — MAX_PIXELS pixels of three f32
// channels over MAX_FRAMES images, each with its two dimension varints, a
// longest scene name and every scalar at its widest — fits one frame, so
// an admitted request's reply is never refused by `read_frame`.
const _: () = assert!(
    MAX_PIXELS * 12 + MAX_FRAMES * 2 * MAX_VARINT + (MAX_VARINT + MAX_STRING) + 2 + 8 * MAX_VARINT
        <= MAX_FRAME_BYTES
);

/// Appends `v` LEB128-encoded (7 bits per byte, high bit = continue).
pub fn push_varint(out: &mut Vec<u8>, mut v: u64) {
    loop {
        let byte = (v & 0x7f) as u8;
        v >>= 7;
        if v == 0 {
            out.push(byte);
            return;
        }
        out.push(byte | 0x80);
    }
}

/// The two-bit code a [`Priority`] travels as.
fn priority_code(p: Priority) -> u8 {
    match p {
        Priority::Low => 0,
        Priority::Normal => 1,
        Priority::High => 2,
    }
}

/// The [`Priority`] a code names; any other code is an error.
fn priority_from_code(c: u8) -> Result<Priority, String> {
    match c {
        0 => Ok(Priority::Low),
        1 => Ok(Priority::Normal),
        2 => Ok(Priority::High),
        _ => Err(format!("unknown priority code {c}")),
    }
}

/// Streaming byte reader with bounds-checked primitives, under every
/// message decoder. Every read fails with a bare message — the input
/// ended, or the value broke the bound the method names — and
/// [`Message::decode`] prefixes `"wire message: "`.
struct Reader<'a> {
    bytes: &'a [u8],
    pos: usize,
}

impl<'a> Reader<'a> {
    /// A reader at the start of `bytes`.
    fn new(bytes: &'a [u8]) -> Self {
        Reader { bytes, pos: 0 }
    }

    /// Bytes not yet read.
    fn remaining(&self) -> usize {
        self.bytes.len() - self.pos
    }

    /// The next `n` bytes.
    fn take(&mut self, n: usize) -> Result<&'a [u8], String> {
        if n > self.remaining() {
            return Err("unexpected end of input".into());
        }
        let s = &self.bytes[self.pos..self.pos + n];
        self.pos += n;
        Ok(s)
    }

    /// The next byte.
    fn u8(&mut self) -> Result<u8, String> {
        Ok(self.take(1)?[0])
    }

    /// The next LEB128 varint; one that overflows `u64` is an error.
    fn varint(&mut self) -> Result<u64, String> {
        let mut v = 0u64;
        let mut shift = 0u32;
        loop {
            let byte = self.u8()?;
            if shift >= 63 && byte > 1 {
                return Err("varint overflows u64".into());
            }
            v |= u64::from(byte & 0x7f) << shift;
            if byte & 0x80 == 0 {
                return Ok(v);
            }
            shift += 7;
        }
    }

    /// The next varint, which must be at most `max`.
    fn bounded(&mut self, what: &str, max: u64) -> Result<u64, String> {
        let v = self.varint()?;
        if v > max {
            return Err(format!("{what} {v} out of range (max {max})"));
        }
        Ok(v)
    }

    /// The next little-endian `f32`, which must be finite.
    fn finite_f32(&mut self, what: &str) -> Result<f32, String> {
        let v = f32::from_le_bytes(self.take(4)?.try_into().expect("4 bytes"));
        if !v.is_finite() {
            return Err(format!("{what} is not finite"));
        }
        Ok(v)
    }

    /// The next little-endian `f64`.
    fn f64(&mut self) -> Result<f64, String> {
        Ok(f64::from_le_bytes(self.take(8)?.try_into().expect("8 bytes")))
    }

    /// The next length-prefixed UTF-8 string, of at most `max` bytes.
    fn string(&mut self, what: &str, max: u64) -> Result<String, String> {
        let len = self.bounded(what, max)? as usize;
        let bytes = self.take(len)?;
        String::from_utf8(bytes.to_vec()).map_err(|_| format!("{what} is not UTF-8"))
    }

    /// The next byte, which must be 0 or 1.
    fn boolean(&mut self, what: &str) -> Result<bool, String> {
        match self.u8()? {
            0 => Ok(false),
            1 => Ok(true),
            b => Err(format!("{what} flag {b} is not 0/1")),
        }
    }
}

fn push_string(out: &mut Vec<u8>, s: &str) {
    push_varint(out, s.len() as u64);
    out.extend_from_slice(s.as_bytes());
}

fn push_f32(out: &mut Vec<u8>, v: f32) {
    out.extend_from_slice(&v.to_le_bytes());
}

fn push_f64(out: &mut Vec<u8>, v: f64) {
    out.extend_from_slice(&v.to_le_bytes());
}

/// A [`ServeError`] as a one-byte code, then a full queue's capacity or
/// any other variant's message.
fn push_error(out: &mut Vec<u8>, e: &ServeError) {
    let (code, why) = match e {
        ServeError::QueueFull { capacity } => {
            out.push(0);
            return push_varint(out, *capacity as u64);
        }
        ServeError::ShuttingDown => return out.push(1),
        ServeError::InvalidRequest(why) => (2, why),
        ServeError::RenderFailed(why) => (3, why),
        ServeError::Connection(why) => (4, why),
        ServeError::Protocol(why) => (5, why),
    };
    out.push(code);
    push_string(out, why);
}

/// The [`ServeError`] [`push_error`] wrote.
fn read_error(r: &mut Reader<'_>) -> Result<ServeError, String> {
    let code = r.u8()?;
    let why = |r: &mut Reader<'_>| r.string("error message", MAX_STRING);
    Ok(match code {
        0 => {
            ServeError::QueueFull { capacity: r.bounded("capacity", u64::from(u32::MAX))? as usize }
        }
        1 => ServeError::ShuttingDown,
        2 => ServeError::InvalidRequest(why(r)?),
        3 => ServeError::RenderFailed(why(r)?),
        4 => ServeError::Connection(why(r)?),
        5 => ServeError::Protocol(why(r)?),
        c => return Err(format!("unknown error code {c}")),
    })
}

/// A render request as it travels to a shard: the scene by registry name,
/// scheduling metadata by value. Resolved back into a [`RenderRequest`]
/// on the shard with [`WireRequest::to_request`].
#[derive(Debug, Clone, PartialEq)]
pub struct WireRequest {
    /// Registry scene name.
    pub scene: String,
    /// Square frame resolution.
    pub resolution: u32,
    /// Frames in the request (>= 1).
    pub frames: u64,
    /// Per-frame azimuth advance, degrees.
    pub azimuth_step_deg: f32,
    /// Scheduling class.
    pub priority: Priority,
    /// Latency budget, microseconds from shard-side admission.
    pub deadline_us: Option<u64>,
    /// Viewpoint override (`None`: the scene's standard orbit).
    pub camera: Option<OrbitCamera>,
    /// Distributed trace id, joining client-side and shard-side spans
    /// ([`TraceId::UNSET`]: tracing off — no id bytes follow). Peers of
    /// another wire version never see either shape: a shard refuses any
    /// [`Message::Hello`] whose version differs from [`VERSION`].
    pub trace: TraceId,
}

impl WireRequest {
    /// Captures a resolved request for the wire.
    pub fn from_request(req: &RenderRequest) -> WireRequest {
        WireRequest {
            scene: req.scene.name().to_string(),
            resolution: req.resolution,
            frames: req.frames as u64,
            azimuth_step_deg: req.azimuth_step_deg,
            priority: req.priority,
            deadline_us: req.deadline.map(|d| (d.as_micros() as u64).min(MAX_DEADLINE_US)),
            camera: req.camera,
            trace: req.trace,
        }
    }

    /// Resolves the wire form against the shard's scene registry.
    ///
    /// # Errors
    ///
    /// Returns a message if the scene is not registered there.
    pub fn to_request(&self) -> Result<RenderRequest, String> {
        let scene = asdr_scenes::registry::get(&self.scene)
            .ok_or_else(|| format!("unknown scene {:?} on this shard", self.scene))?;
        let mut req = RenderRequest::sequence(scene, self.resolution, self.frames as usize);
        req.azimuth_step_deg = self.azimuth_step_deg;
        req.priority = self.priority;
        req.deadline = self.deadline_us.map(std::time::Duration::from_micros);
        req.camera = self.camera;
        req.trace = self.trace;
        Ok(req)
    }

    fn encode(&self, out: &mut Vec<u8>) {
        push_string(out, &self.scene);
        push_varint(out, u64::from(self.resolution));
        push_varint(out, self.frames);
        push_f32(out, self.azimuth_step_deg);
        let mut flags = priority_code(self.priority) << 2;
        flags |= u8::from(self.deadline_us.is_some());
        flags |= u8::from(self.camera.is_some()) << 1;
        flags |= u8::from(self.trace.is_set()) << 4;
        out.push(flags);
        if let Some(us) = self.deadline_us {
            push_varint(out, us);
        }
        if let Some(cam) = &self.camera {
            for v in [
                cam.azimuth_deg,
                cam.elevation_deg,
                cam.radius,
                cam.fov_deg,
                cam.center.x,
                cam.center.y,
                cam.center.z,
            ] {
                push_f32(out, v);
            }
        }
        if self.trace.is_set() {
            push_varint(out, self.trace.as_u64());
        }
    }

    fn decode(r: &mut Reader<'_>) -> Result<WireRequest, String> {
        let scene = r.string("scene name", MAX_STRING)?;
        if scene.is_empty() {
            return Err("scene name is empty".into());
        }
        let resolution = r.bounded("resolution", MAX_RESOLUTION)? as u32;
        if resolution == 0 {
            return Err("resolution 0 out of range (min 1)".into());
        }
        let frames = r.bounded("frames", MAX_FRAMES)?;
        if frames == 0 {
            return Err("frames 0 out of range (min 1)".into());
        }
        check_pixels(u64::from(resolution), frames)?;
        let azimuth_step_deg = r.finite_f32("azimuth step")?;
        let flags = r.u8()?;
        if flags & !0b11111 != 0 {
            return Err(format!("unknown request flag bits {flags:#x}"));
        }
        let priority = priority_from_code((flags >> 2) & 0b11)?;
        let deadline_us =
            if flags & 1 != 0 { Some(r.bounded("deadline_us", MAX_DEADLINE_US)?) } else { None };
        let camera = if flags & 2 != 0 {
            let mut v = [0f32; 7];
            for (i, slot) in v.iter_mut().enumerate() {
                *slot = r.finite_f32(&format!("camera field {i}"))?;
            }
            Some(OrbitCamera {
                azimuth_deg: v[0],
                elevation_deg: v[1],
                radius: v[2],
                fov_deg: v[3],
                center: Vec3::new(v[4], v[5], v[6]),
            })
        } else {
            None
        };
        let trace =
            if flags & 0b10000 != 0 { TraceId::from_u64(r.varint()?) } else { TraceId::UNSET };
        Ok(WireRequest {
            scene,
            resolution,
            frames,
            azimuth_step_deg,
            priority,
            deadline_us,
            camera,
            trace,
        })
    }
}

/// A completed request as it travels back: measurements plus the rendered
/// frames with exact pixel bits.
#[derive(Debug, Clone, PartialEq)]
pub struct WireResult {
    /// Scene name.
    pub scene: String,
    /// Resolution rendered at.
    pub resolution: u32,
    /// Frames that reused the request's sample plan.
    pub reused_frames: u64,
    /// Shard-side queue wait, microseconds.
    pub queue_wait_us: u64,
    /// Shard-side admission-to-completion latency, microseconds.
    pub latency_us: u64,
    /// Whether the shard-side latency met the deadline (`None`: none set).
    pub deadline_met: Option<bool>,
    /// Shard-local completion sequence number.
    pub completed_seq: u64,
    /// The rendered frames, in order, bit-exact.
    pub images: Vec<Image>,
    /// The trace id echoed from the originating submit
    /// ([`TraceId::UNSET`]: the request carried none). Encoded by folding
    /// a trace-follows marker into the deadline byte (codes 3–5); a
    /// trace-free result uses codes 0–2 and carries no id bytes.
    pub trace: TraceId,
}

/// A shard-side result, as it travels: the frames move, not copy.
impl From<RenderResult> for WireResult {
    fn from(r: RenderResult) -> WireResult {
        WireResult {
            scene: r.scene,
            resolution: r.resolution,
            reused_frames: r.reused_frames as u64,
            queue_wait_us: r.queue_wait.as_micros() as u64,
            latency_us: r.latency.as_micros() as u64,
            deadline_met: r.deadline_met,
            completed_seq: r.completed_seq,
            images: r.images,
            trace: r.trace,
        }
    }
}

impl WireResult {
    fn encode(&self, out: &mut Vec<u8>) {
        push_string(out, &self.scene);
        push_varint(out, u64::from(self.resolution));
        push_varint(out, self.reused_frames);
        push_varint(out, self.queue_wait_us);
        push_varint(out, self.latency_us);
        let met_code = match self.deadline_met {
            None => 0,
            Some(true) => 1,
            Some(false) => 2,
        };
        // codes 3-5 mean "met code minus 3, and a trace id varint follows
        // after the images"; a peer of another wire version is refused at
        // the `Hello`, so no decoder here ever meets a code it lacks
        out.push(if self.trace.is_set() { met_code + 3 } else { met_code });
        push_varint(out, self.completed_seq);
        push_varint(out, self.images.len() as u64);
        for img in &self.images {
            push_varint(out, u64::from(img.width()));
            push_varint(out, u64::from(img.height()));
            for px in img.pixels() {
                push_f32(out, px.r);
                push_f32(out, px.g);
                push_f32(out, px.b);
            }
        }
        if self.trace.is_set() {
            push_varint(out, self.trace.as_u64());
        }
    }

    fn decode(r: &mut Reader<'_>) -> Result<WireResult, String> {
        let scene = r.string("scene name", MAX_STRING)?;
        let resolution = r.bounded("resolution", MAX_RESOLUTION)? as u32;
        let reused_frames = r.bounded("reused frames", MAX_FRAMES)?;
        let queue_wait_us = r.varint()?;
        let latency_us = r.varint()?;
        let code = r.u8()?;
        let (deadline_met, has_trace) = match code {
            0 => (None, false),
            1 => (Some(true), false),
            2 => (Some(false), false),
            3 => (None, true),
            4 => (Some(true), true),
            5 => (Some(false), true),
            c => return Err(format!("unknown deadline code {c}")),
        };
        let completed_seq = r.varint()?;
        let count = r.bounded("image count", MAX_FRAMES)? as usize;
        let mut images = Vec::with_capacity(count.min(64));
        for i in 0..count {
            let w = r.bounded("image width", MAX_RESOLUTION)? as u32;
            let h = r.bounded("image height", MAX_RESOLUTION)? as u32;
            if w == 0 || h == 0 {
                return Err(format!("image {i} has a zero dimension"));
            }
            // bounds-check before allocating pixel storage: the byte count
            // must actually be present in the payload
            let bytes = r.take(w as usize * h as usize * 12)?;
            let mut img = Image::new(w, h);
            for (px, chunk) in img.pixels_mut().iter_mut().zip(bytes.chunks_exact(12)) {
                px.r = f32::from_le_bytes(chunk[0..4].try_into().expect("4 bytes"));
                px.g = f32::from_le_bytes(chunk[4..8].try_into().expect("4 bytes"));
                px.b = f32::from_le_bytes(chunk[8..12].try_into().expect("4 bytes"));
            }
            images.push(img);
        }
        let trace = if has_trace { TraceId::from_u64(r.varint()?) } else { TraceId::UNSET };
        Ok(WireResult {
            scene,
            resolution,
            reused_frames,
            queue_wait_us,
            latency_us,
            deadline_met,
            completed_seq,
            images,
            trace,
        })
    }
}

/// A shard's statistics snapshot on the wire: the full [`ServeStats`]
/// plus the shard's pool size.
#[derive(Debug, Clone, PartialEq)]
pub struct WireStats {
    /// Worker-pool size, fixed when the shard was built.
    pub workers: u64,
    /// The service snapshot.
    pub serve: ServeStats,
}

impl WireStats {
    fn encode(&self, out: &mut Vec<u8>) {
        let s = &self.serve;
        for v in [
            self.workers,
            s.requests,
            s.frames,
            s.reused_frames,
            s.deadlined_requests,
            s.deadline_misses,
            s.probe_points,
            s.density_evals,
            s.color_evals,
            s.skipped_density,
            s.skipped_color,
        ] {
            push_varint(out, v);
        }
        for v in [
            s.p50_latency_ms,
            s.p95_latency_ms,
            s.mean_queue_wait_ms,
            s.throughput_fps,
            s.probe_points_avoided_est,
        ] {
            push_f64(out, v);
        }
        let st = &s.store;
        for v in [
            st.memory_hits,
            st.disk_hits,
            st.fits,
            st.evictions,
            st.disk_errors,
            st.single_flight_waits,
            st.lock_waits,
            st.lock_steals,
            st.resident as u64,
        ] {
            push_varint(out, v);
        }
    }

    fn decode(r: &mut Reader<'_>) -> Result<WireStats, String> {
        let mut ints = [0u64; 11];
        for v in &mut ints {
            *v = r.varint()?;
        }
        let mut floats = [0f64; 5];
        for v in &mut floats {
            *v = r.f64()?;
        }
        let mut store_ints = [0u64; 9];
        for v in &mut store_ints {
            *v = r.varint()?;
        }
        Ok(WireStats {
            workers: ints[0],
            serve: ServeStats {
                requests: ints[1],
                frames: ints[2],
                reused_frames: ints[3],
                deadlined_requests: ints[4],
                deadline_misses: ints[5],
                probe_points: ints[6],
                density_evals: ints[7],
                color_evals: ints[8],
                skipped_density: ints[9],
                skipped_color: ints[10],
                p50_latency_ms: floats[0],
                p95_latency_ms: floats[1],
                mean_queue_wait_ms: floats[2],
                throughput_fps: floats[3],
                probe_points_avoided_est: floats[4],
                store: StoreStats {
                    memory_hits: store_ints[0],
                    disk_hits: store_ints[1],
                    fits: store_ints[2],
                    evictions: store_ints[3],
                    disk_errors: store_ints[4],
                    single_flight_waits: store_ints[5],
                    lock_waits: store_ints[6],
                    lock_steals: store_ints[7],
                    resident: store_ints[8] as usize,
                },
            },
        })
    }
}

/// Every message the fleet protocol speaks. Requests carry a
/// client-assigned correlation `id`; responses echo it.
#[derive(Debug, Clone, PartialEq)]
pub enum Message {
    /// First frame on every connection, client → shard.
    Hello {
        /// The client's protocol version; the shard refuses a mismatch.
        version: u8,
    },
    /// The shard's handshake acknowledgement.
    HelloOk {
        /// The shard's self-reported id (for logs; the ring keys on the
        /// router's own numbering).
        shard: u64,
    },
    /// Admit one render request. Nothing acknowledges it: the next frame
    /// with its id is its end.
    Submit {
        /// Correlation id.
        id: u64,
        /// The request.
        req: WireRequest,
    },
    /// A completed request's result.
    Result {
        /// Correlation id of the originating submit.
        id: u64,
        /// The measurements and bit-exact frames.
        result: WireResult,
    },
    /// A submitted request ended without a result: the shard refused it
    /// (full, draining, invalid) or its render failed. One of a submit's
    /// two ends, with [`Message::Result`].
    Failed {
        /// Correlation id of the originating submit.
        id: u64,
        /// Why, as the shard's service said it.
        error: ServeError,
    },
    /// Request a statistics snapshot.
    StatsPoll {
        /// Correlation id.
        id: u64,
    },
    /// The statistics snapshot.
    Stats {
        /// Correlation id.
        id: u64,
        /// The snapshot.
        stats: WireStats,
    },
    /// Liveness probe.
    Health {
        /// Correlation id (doubles as the probe nonce).
        id: u64,
    },
    /// Liveness acknowledgement.
    HealthOk {
        /// Correlation id of the probe.
        id: u64,
    },
    /// Pre-fetch a scene's model from the checkpoint directory (the
    /// replica a busy home's next overlap spills to).
    Prewarm {
        /// Correlation id.
        id: u64,
        /// Registry scene name.
        scene: String,
    },
    /// The pre-fetch finished.
    Warmed {
        /// Correlation id of the prewarm.
        id: u64,
        /// Whether the model was loaded/fit (`false`: unknown scene).
        ok: bool,
    },
    /// Ask the shard to drain: finish in-flight work, then exit.
    Drain {
        /// Correlation id.
        id: u64,
    },
    /// The shard acknowledged the drain and stops accepting connections.
    Draining {
        /// Correlation id of the drain request.
        id: u64,
    },
}

impl Message {
    /// The correlation id, for reply demultiplexing (`None` for the
    /// handshake pair).
    pub fn id(&self) -> Option<u64> {
        match self {
            Message::Hello { .. } | Message::HelloOk { .. } => None,
            Message::Submit { id, .. }
            | Message::Result { id, .. }
            | Message::Failed { id, .. }
            | Message::StatsPoll { id }
            | Message::Stats { id, .. }
            | Message::Health { id }
            | Message::HealthOk { id }
            | Message::Prewarm { id, .. }
            | Message::Warmed { id, .. }
            | Message::Drain { id }
            | Message::Draining { id } => Some(*id),
        }
    }

    /// Serializes the message payload (tag + fields, no length prefix).
    pub fn encode(&self) -> Vec<u8> {
        let mut out = Vec::new();
        match self {
            Message::Hello { version } => {
                out.push(0);
                out.push(*version);
            }
            Message::HelloOk { shard } => {
                out.push(1);
                push_varint(&mut out, *shard);
            }
            Message::Submit { id, req } => {
                out.push(2);
                push_varint(&mut out, *id);
                req.encode(&mut out);
            }
            Message::Result { id, result } => {
                out.push(5);
                push_varint(&mut out, *id);
                result.encode(&mut out);
            }
            Message::Failed { id, error } => {
                out.push(6);
                push_varint(&mut out, *id);
                push_error(&mut out, error);
            }
            Message::StatsPoll { id } => {
                out.push(8);
                push_varint(&mut out, *id);
            }
            Message::Stats { id, stats } => {
                out.push(9);
                push_varint(&mut out, *id);
                stats.encode(&mut out);
            }
            Message::Health { id } => {
                out.push(10);
                push_varint(&mut out, *id);
            }
            Message::HealthOk { id } => {
                out.push(11);
                push_varint(&mut out, *id);
            }
            Message::Prewarm { id, scene } => {
                out.push(12);
                push_varint(&mut out, *id);
                push_string(&mut out, scene);
            }
            Message::Warmed { id, ok } => {
                out.push(13);
                push_varint(&mut out, *id);
                out.push(u8::from(*ok));
            }
            Message::Drain { id } => {
                out.push(14);
                push_varint(&mut out, *id);
            }
            Message::Draining { id } => {
                out.push(15);
                push_varint(&mut out, *id);
            }
        }
        out
    }

    /// Decodes one message payload.
    ///
    /// # Errors
    ///
    /// Returns `"wire message: why"` for truncated, corrupt, or
    /// trailing-byte payloads — decoding never panics, whatever the bytes.
    pub fn decode(bytes: &[u8]) -> Result<Message, String> {
        let ctx = |e: String| format!("wire message: {e}");
        let mut r = Reader::new(bytes);
        let tag = r.u8().map_err(ctx)?;
        let msg = (|| -> Result<Message, String> {
            Ok(match tag {
                0 => Message::Hello { version: r.u8()? },
                1 => Message::HelloOk { shard: r.varint()? },
                2 => {
                    let id = r.varint()?;
                    Message::Submit { id, req: WireRequest::decode(&mut r)? }
                }
                5 => {
                    let id = r.varint()?;
                    Message::Result { id, result: WireResult::decode(&mut r)? }
                }
                6 => {
                    let id = r.varint()?;
                    Message::Failed { id, error: read_error(&mut r)? }
                }
                8 => Message::StatsPoll { id: r.varint()? },
                9 => {
                    let id = r.varint()?;
                    Message::Stats { id, stats: WireStats::decode(&mut r)? }
                }
                10 => Message::Health { id: r.varint()? },
                11 => Message::HealthOk { id: r.varint()? },
                12 => {
                    let id = r.varint()?;
                    Message::Prewarm { id, scene: r.string("scene name", MAX_STRING)? }
                }
                13 => {
                    let id = r.varint()?;
                    Message::Warmed { id, ok: r.boolean("warmed")? }
                }
                14 => Message::Drain { id: r.varint()? },
                15 => Message::Draining { id: r.varint()? },
                t => return Err(format!("unknown message tag {t}")),
            })
        })()
        .map_err(ctx)?;
        if r.remaining() != 0 {
            return Err(ctx(format!("{} trailing bytes after message", r.remaining())));
        }
        Ok(msg)
    }
}

/// Writes one framed message (varint length prefix + payload) in one
/// `write_all`, and flushes.
///
/// # Errors
///
/// Propagates the underlying I/O error.
pub fn write_frame(w: &mut impl Write, msg: &Message) -> std::io::Result<()> {
    let payload = msg.encode();
    let mut frame = Vec::with_capacity(payload.len() + 10);
    push_varint(&mut frame, payload.len() as u64);
    frame.extend_from_slice(&payload);
    w.write_all(&frame)?;
    w.flush()
}

/// Reads one framed message. `Ok(None)` is a clean end-of-stream (EOF
/// exactly at a frame boundary); EOF mid-frame is an error.
///
/// # Errors
///
/// Returns `"wire frame: why"` for I/O errors, truncation, an oversized
/// length prefix, or an undecodable payload.
pub fn read_frame(r: &mut impl Read) -> Result<Option<Message>, String> {
    let ctx = |e: String| format!("wire frame: {e}");
    // the length prefix is read byte-by-byte so a clean EOF before any
    // byte means "peer closed", not "corrupt frame"; a socket's readers
    // buffer, so these are not a syscall each
    let mut len = 0u64;
    let mut shift = 0u32;
    loop {
        let mut byte = [0u8; 1];
        match r.read(&mut byte) {
            Ok(0) if shift == 0 => return Ok(None),
            Ok(0) => return Err(ctx("unexpected end of stream in length prefix".into())),
            Ok(_) => {}
            Err(e) if e.kind() == std::io::ErrorKind::Interrupted => continue,
            Err(e) => return Err(ctx(e.to_string())),
        }
        if shift >= 63 && byte[0] > 1 {
            return Err(ctx("length prefix overflows u64".into()));
        }
        len |= u64::from(byte[0] & 0x7f) << shift;
        if byte[0] & 0x80 == 0 {
            break;
        }
        shift += 7;
    }
    if len > MAX_FRAME_BYTES {
        return Err(ctx(format!("frame of {len} bytes exceeds the {MAX_FRAME_BYTES} limit")));
    }
    // the buffer grows with what arrives, never to a length only claimed:
    // a prefix of 256 MiB followed by nothing allocates next to nothing
    let mut payload = Vec::with_capacity((len as usize).min(PAYLOAD_RESERVE));
    let got = r.take(len).read_to_end(&mut payload).map_err(|e| ctx(e.to_string()))?;
    if (got as u64) < len {
        return Err(ctx(format!("short frame: the stream ended after {got} of {len} bytes")));
    }
    Message::decode(&payload).map(Some)
}

#[cfg(test)]
mod tests {
    use super::*;
    use asdr_math::Rgb;

    fn sample_image(w: u32, h: u32) -> Image {
        let mut img = Image::new(w, h);
        for (i, px) in img.pixels_mut().iter_mut().enumerate() {
            *px = Rgb { r: i as f32 * 0.25, g: -1.5, b: f32::MIN_POSITIVE };
        }
        img
    }

    fn sample_messages() -> Vec<Message> {
        vec![
            Message::Hello { version: VERSION },
            Message::HelloOk { shard: 2 },
            Message::Submit {
                id: 7,
                req: WireRequest {
                    scene: "Mic".into(),
                    resolution: 32,
                    frames: 3,
                    azimuth_step_deg: 1.5,
                    priority: Priority::High,
                    deadline_us: Some(250_000),
                    camera: Some(OrbitCamera::default()),
                    trace: TraceId::from_u64(0xdead_beef_cafe_f00d),
                },
            },
            Message::Failed { id: 8, error: ServeError::QueueFull { capacity: 64 } },
            Message::Failed { id: 8, error: ServeError::ShuttingDown },
            Message::Failed { id: 8, error: ServeError::InvalidRequest("resolution 0".into()) },
            Message::Failed { id: 8, error: ServeError::Connection("reset".into()) },
            Message::Failed { id: 8, error: ServeError::Protocol("tag 4".into()) },
            Message::Result {
                id: 7,
                result: WireResult {
                    scene: "Mic".into(),
                    resolution: 2,
                    reused_frames: 2,
                    queue_wait_us: 120,
                    latency_us: 4800,
                    deadline_met: Some(true),
                    completed_seq: 41,
                    images: vec![sample_image(2, 2), sample_image(2, 2)],
                    trace: TraceId::from_u64(0xdead_beef_cafe_f00d),
                },
            },
            Message::Failed { id: 9, error: ServeError::RenderFailed("boom".into()) },
            Message::StatsPoll { id: 10 },
            Message::Stats {
                id: 10,
                stats: WireStats {
                    workers: 2,
                    serve: ServeStats {
                        requests: 5,
                        frames: 9,
                        reused_frames: 4,
                        deadlined_requests: 3,
                        deadline_misses: 1,
                        p50_latency_ms: 10.5,
                        p95_latency_ms: 31.25,
                        mean_queue_wait_ms: 0.5,
                        throughput_fps: 12.0,
                        probe_points: 1000,
                        probe_points_avoided_est: 400.0,
                        density_evals: 9000,
                        color_evals: 5000,
                        skipped_density: 7000,
                        skipped_color: 3500,
                        store: StoreStats { fits: 2, disk_hits: 1, ..StoreStats::default() },
                    },
                },
            },
            Message::Health { id: 11 },
            Message::HealthOk { id: 11 },
            Message::Prewarm { id: 12, scene: "Lego".into() },
            Message::Warmed { id: 12, ok: true },
            Message::Drain { id: 13 },
            Message::Draining { id: 13 },
        ]
    }

    #[test]
    fn varint_round_trips_across_widths() {
        for v in [0u64, 1, 127, 128, 300, 1 << 20, u64::MAX] {
            let mut buf = Vec::new();
            push_varint(&mut buf, v);
            let mut r = Reader::new(&buf);
            assert_eq!(r.varint().unwrap(), v);
            assert_eq!(r.remaining(), 0);
        }
    }

    #[test]
    fn every_message_kind_round_trips() {
        for msg in sample_messages() {
            let back = Message::decode(&msg.encode()).unwrap_or_else(|e| panic!("{msg:?}: {e}"));
            assert_eq!(back, msg);
        }
    }

    #[test]
    fn result_pixels_keep_exact_bits() {
        let msg = Message::Result {
            id: 1,
            result: WireResult {
                scene: "Mic".into(),
                resolution: 1,
                reused_frames: 0,
                queue_wait_us: 0,
                latency_us: 1,
                deadline_met: None,
                completed_seq: 0,
                images: vec![sample_image(1, 1)],
                trace: TraceId::UNSET,
            },
        };
        let Message::Result { result, .. } = Message::decode(&msg.encode()).unwrap() else {
            panic!("decoded to a different kind");
        };
        let px = result.images[0].pixels()[0];
        assert_eq!(px.r.to_bits(), 0.0f32.to_bits());
        assert_eq!(px.g.to_bits(), (-1.5f32).to_bits());
        assert_eq!(px.b.to_bits(), f32::MIN_POSITIVE.to_bits());
    }

    #[test]
    fn framing_round_trips_a_stream_and_ends_cleanly() {
        let mut buf = Vec::new();
        for msg in sample_messages() {
            write_frame(&mut buf, &msg).unwrap();
        }
        let mut cursor = &buf[..];
        let mut back = Vec::new();
        while let Some(msg) = read_frame(&mut cursor).unwrap() {
            back.push(msg);
        }
        assert_eq!(back, sample_messages());
    }

    #[test]
    fn truncated_frames_and_payloads_are_named_errors() {
        let mut buf = Vec::new();
        write_frame(&mut buf, &sample_messages()[2]).unwrap();
        for cut in 1..buf.len() {
            let e = read_frame(&mut &buf[..cut]).map(|m| format!("{m:?}")).unwrap_err();
            assert!(
                e.starts_with("wire frame: ") || e.starts_with("wire message: "),
                "cut {cut}: {e}"
            );
        }
    }

    #[test]
    fn hostile_length_prefixes_are_rejected_without_allocating() {
        let mut buf = Vec::new();
        push_varint(&mut buf, MAX_FRAME_BYTES + 1);
        let e = read_frame(&mut &buf[..]).unwrap_err();
        assert!(e.contains("exceeds"), "{e}");
        let overflow = [0xffu8; 10];
        let e = read_frame(&mut &overflow[..]).unwrap_err();
        assert!(e.contains("overflows"), "{e}");
    }

    #[test]
    fn a_claimed_length_is_not_allocated_before_its_bytes_arrive() {
        // the largest admitted length, then three bytes and the end of the
        // stream: an error naming the short frame, not 256 MiB of zeros
        let mut buf = Vec::new();
        push_varint(&mut buf, MAX_FRAME_BYTES);
        buf.extend_from_slice(&[1, 2, 3]);
        let e = read_frame(&mut &buf[..]).unwrap_err();
        assert!(e.contains("short frame") && e.contains("after 3 of 268435456 bytes"), "{e}");
    }

    #[test]
    fn bad_payload_fields_are_named_errors() {
        // unknown tag
        assert!(Message::decode(&[200]).unwrap_err().contains("unknown message tag"));
        // trailing bytes
        let mut bytes = Message::Health { id: 1 }.encode();
        bytes.push(0);
        assert!(Message::decode(&bytes).unwrap_err().contains("trailing"));
        // zero frames
        let mut out = vec![2u8];
        push_varint(&mut out, 1);
        push_string(&mut out, "Mic");
        push_varint(&mut out, 32); // resolution
        push_varint(&mut out, 0); // frames
        push_f32(&mut out, 0.0);
        out.push(0);
        assert!(Message::decode(&out).unwrap_err().contains("frames 0"));
        // one past MAX_PIXELS: one frame of 4097², two of 4096²
        for (resolution, frames) in [(4097, 1), (4096, 2)] {
            let req = WireRequest {
                scene: "Mic".into(),
                resolution,
                frames,
                azimuth_step_deg: 0.0,
                priority: Priority::Normal,
                deadline_us: None,
                camera: None,
                trace: TraceId::UNSET,
            };
            let e = Message::decode(&Message::Submit { id: 1, req }.encode()).unwrap_err();
            assert!(e.contains("pixels, over the bound"), "{resolution}² x {frames}: {e}");
        }
        // bad priority code
        let mut out = vec![2u8];
        push_varint(&mut out, 1);
        push_string(&mut out, "Mic");
        push_varint(&mut out, 32);
        push_varint(&mut out, 1);
        push_f32(&mut out, 0.0);
        out.push(0b1100); // priority code 3
        assert!(Message::decode(&out).unwrap_err().contains("priority"));
        // unknown error code
        assert!(Message::decode(&[6, 1, 6]).unwrap_err().contains("unknown error code 6"));
    }

    #[test]
    fn trace_free_messages_match_the_pre_trace_encoding() {
        // a request/result with no trace must encode byte-identically to
        // the protocol before trace ids existed: flag bit 4 clear,
        // deadline codes 0-2, no trailing varint — so old peers decode it
        let req = WireRequest {
            scene: "Mic".into(),
            resolution: 8,
            frames: 1,
            azimuth_step_deg: 0.0,
            priority: Priority::Normal,
            deadline_us: None,
            camera: None,
            trace: TraceId::UNSET,
        };
        let mut bytes = Vec::new();
        req.encode(&mut bytes);
        // scene(1+3) + resolution(1) + frames(1) + azimuth(4) + flags(1)
        assert_eq!(bytes.len(), 11);
        assert_eq!(bytes[10] & 0b10000, 0, "trace flag set on a trace-free request");
        let back = WireRequest::decode(&mut Reader::new(&bytes)).unwrap();
        assert_eq!(back, req);

        let res = WireResult {
            scene: "Mic".into(),
            resolution: 1,
            reused_frames: 0,
            queue_wait_us: 0,
            latency_us: 1,
            deadline_met: Some(false),
            completed_seq: 0,
            images: Vec::new(),
            trace: TraceId::UNSET,
        };
        let mut bytes = Vec::new();
        res.encode(&mut bytes);
        assert_eq!(*bytes.last().unwrap(), 0, "expected empty image count last");
        assert_eq!(bytes[bytes.len() - 3], 2, "deadline byte should stay a bare code 2");
        let back = WireResult::decode(&mut Reader::new(&bytes)).unwrap();
        assert_eq!(back, res);
    }

    #[test]
    fn trace_ids_survive_both_wire_directions() {
        let trace = TraceId::from_u64(0x0123_4567_89ab_cdef);
        let req = WireRequest {
            scene: "Mic".into(),
            resolution: 8,
            frames: 1,
            azimuth_step_deg: 0.0,
            priority: Priority::Normal,
            deadline_us: None,
            camera: None,
            trace,
        };
        let mut bytes = Vec::new();
        req.encode(&mut bytes);
        let back = WireRequest::decode(&mut Reader::new(&bytes)).unwrap();
        assert_eq!(back.trace, trace);
        // and through request resolution on the shard side
        assert_eq!(back.to_request().unwrap().trace, trace);

        let res = WireResult {
            scene: "Mic".into(),
            resolution: 1,
            reused_frames: 0,
            queue_wait_us: 0,
            latency_us: 1,
            deadline_met: None,
            completed_seq: 0,
            images: vec![sample_image(1, 1)],
            trace,
        };
        let mut bytes = Vec::new();
        res.encode(&mut bytes);
        let back = WireResult::decode(&mut Reader::new(&bytes)).unwrap();
        assert_eq!(back.trace, trace);
        assert_eq!(back.deadline_met, None);
    }

    #[test]
    fn requests_survive_the_wire_and_resolve_against_the_registry() {
        let req = RenderRequest::sequence(asdr_scenes::registry::handle("Mic"), 24, 2)
            .with_priority(Priority::Low)
            .with_deadline(std::time::Duration::from_millis(40))
            .with_camera(OrbitCamera { azimuth_deg: 99.0, ..OrbitCamera::default() });
        let wire = WireRequest::from_request(&req);
        let back = wire.to_request().unwrap();
        assert_eq!(back.scene.name(), "Mic");
        assert_eq!(back.resolution, 24);
        assert_eq!(back.frames, 2);
        assert_eq!(back.priority, Priority::Low);
        assert_eq!(back.deadline, Some(std::time::Duration::from_millis(40)));
        assert_eq!(back.camera.unwrap().azimuth_deg, 99.0);
        let missing = WireRequest { scene: "no-such-scene".into(), ..wire };
        assert!(missing.to_request().is_err());
    }
}
