//! The length-prefixed binary frame codec.
//!
//! Every message on a wire connection is one frame:
//!
//! ```text
//! offset  size  field
//! 0       2     magic          0xD1 0x70
//! 2       1     version        1
//! 3       1     kind           request/response discriminant
//! 4       2     app id         u16 LE (0 for app-less kinds)
//! 6       2     auth token     u16 LE (0 = none; per-app tenancy check)
//! 8       8     seq            u64 LE, echoed verbatim in the response
//! 16      4     payload len    u32 LE, capped at MAX_PAYLOAD_BYTES
//! 20      …     payload        kind-specific body
//! ```
//!
//! All integers are little-endian. The `seq` field is what makes request
//! pipelining work: a client may have any number of requests outstanding
//! and responses may arrive out of request order (batch completions finish
//! when the slowest shard does), so every response carries its request's
//! sequence number back.
//!
//! Decoding is fuzz-resistant by construction: every read is
//! bounds-checked; on the slice path declared lengths are validated
//! against the bytes actually present *before* any allocation, and on the
//! streaming path the payload buffer grows only with bytes actually
//! received (a declared-but-never-sent 64 MiB payload pins kilobytes);
//! no input — truncated, corrupt or adversarial — panics the decoder
//! (property-tested in `tests/frame_roundtrip.rs`).

use std::fmt;
use std::io::Read;

use datagen::Tuple;

/// Frame magic: the first two bytes of every frame.
pub const MAGIC: [u8; 2] = [0xD1, 0x70];

/// Protocol version this build speaks.
pub const VERSION: u8 = 1;

/// Fixed header size in bytes.
pub const HEADER_BYTES: usize = 20;

/// Upper bound on a frame payload (64 MiB) — anything larger is rejected
/// before allocation.
pub const MAX_PAYLOAD_BYTES: usize = 1 << 26;

/// Upper bound on a ping echo payload.
pub const MAX_PING_BYTES: usize = 1024;

/// Bytes one encoded tuple occupies in a `Submit` payload.
pub const TUPLE_BYTES: usize = 16;

/// Body encodings a [`Request::Metrics`] may ask for.
pub mod metrics_format {
    /// The compact binary snapshot codec (`ditto_obs::decode_snapshot`).
    pub const BINARY: u8 = 0;
    /// Prometheus text exposition format 0.0.4 (UTF-8).
    pub const PROMETHEUS: u8 = 1;
}

/// Error codes carried by [`Response::Error`].
pub mod error_code {
    /// The frame named an app id the server does not host.
    pub const UNKNOWN_APP: u16 = 1;
    /// The request frame was structurally invalid.
    pub const BAD_REQUEST: u16 = 2;
    /// The server is shutting down and no longer admits work.
    pub const SHUTTING_DOWN: u16 = 3;
    /// The server is at its connection budget
    /// ([`AdmissionConfig::max_connections`](crate::AdmissionConfig::max_connections))
    /// and refused the connection.
    pub const TOO_MANY_CONNECTIONS: u16 = 4;
    /// The frame's auth token does not match the app's registered token.
    pub const BAD_TOKEN: u16 = 5;
}

/// Frame discriminants. Requests use the low range, responses the high.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
#[repr(u8)]
pub enum FrameKind {
    /// Client → server: admit a tuple batch.
    Submit = 0x01,
    /// Client → server: report serving statistics.
    Stats = 0x02,
    /// Client → server: drain, merge and finalize the app, return its
    /// output; a fresh cluster keeps serving afterwards.
    Finalize = 0x03,
    /// Client → server: liveness echo.
    Ping = 0x04,
    /// Client → server: dump the merged observability registry (app id 0
    /// addresses every hosted app at once).
    Metrics = 0x05,
    /// Server → client: the batch completed (result ack + latency).
    Done = 0x81,
    /// Server → client: statistics reply.
    StatsReply = 0x82,
    /// Server → client: finalized application output.
    Output = 0x83,
    /// Server → client: ping echo.
    Pong = 0x84,
    /// Server → client: observability registry dump.
    MetricsDump = 0x85,
    /// Server → client: the batch was shed by admission control.
    Overloaded = 0x90,
    /// Server → client: request failed.
    Error = 0x91,
}

impl FrameKind {
    fn from_u8(v: u8) -> Option<FrameKind> {
        Some(match v {
            0x01 => FrameKind::Submit,
            0x02 => FrameKind::Stats,
            0x03 => FrameKind::Finalize,
            0x04 => FrameKind::Ping,
            0x05 => FrameKind::Metrics,
            0x81 => FrameKind::Done,
            0x82 => FrameKind::StatsReply,
            0x83 => FrameKind::Output,
            0x84 => FrameKind::Pong,
            0x85 => FrameKind::MetricsDump,
            0x90 => FrameKind::Overloaded,
            0x91 => FrameKind::Error,
            _ => return None,
        })
    }
}

/// Everything that can go wrong decoding a frame. Corrupt input yields one
/// of these — never a panic.
#[derive(Debug)]
pub enum FrameError {
    /// Underlying transport error (includes truncation mid-frame on a
    /// reader, surfaced as `UnexpectedEof`).
    Io(std::io::Error),
    /// The first two bytes were not [`MAGIC`].
    BadMagic([u8; 2]),
    /// Unsupported protocol version.
    BadVersion(u8),
    /// Unknown frame kind byte.
    UnknownKind(u8),
    /// Declared payload length exceeds [`MAX_PAYLOAD_BYTES`].
    Oversize(u32),
    /// A byte-slice decode ran out of input.
    Truncated {
        /// Bytes the decoder needed.
        needed: usize,
        /// Bytes available.
        got: usize,
    },
    /// The payload did not match its kind's schema.
    BadPayload(&'static str),
}

impl fmt::Display for FrameError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            FrameError::Io(e) => write!(f, "transport error: {e}"),
            FrameError::BadMagic(m) => write!(f, "bad magic {m:02x?}"),
            FrameError::BadVersion(v) => write!(f, "unsupported protocol version {v}"),
            FrameError::UnknownKind(k) => write!(f, "unknown frame kind {k:#04x}"),
            FrameError::Oversize(n) => write!(f, "payload of {n} bytes exceeds the frame cap"),
            FrameError::Truncated { needed, got } => {
                write!(f, "truncated frame: needed {needed} bytes, got {got}")
            }
            FrameError::BadPayload(why) => write!(f, "malformed payload: {why}"),
        }
    }
}

impl std::error::Error for FrameError {}

impl From<std::io::Error> for FrameError {
    fn from(e: std::io::Error) -> Self {
        FrameError::Io(e)
    }
}

/// A decoded frame: header fields plus the raw payload bytes.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Frame {
    /// Frame discriminant.
    pub kind: FrameKind,
    /// App id the frame addresses (0 when the kind is app-less).
    pub app: u16,
    /// Per-app auth token (0 = none). These used to be the reserved
    /// header bits; old clients that zeroed them speak token-less frames,
    /// which apps without a registered token accept unchanged.
    pub token: u16,
    /// Request sequence number, echoed in the response.
    pub seq: u64,
    /// Kind-specific body.
    pub payload: Vec<u8>,
}

impl Frame {
    /// Appends the encoded frame to `out`.
    ///
    /// # Panics
    ///
    /// Panics if the payload exceeds [`MAX_PAYLOAD_BYTES`] — an encode-side
    /// contract, since such a frame could never be decoded back.
    pub fn encode(&self, out: &mut Vec<u8>) {
        assert!(
            self.payload.len() <= MAX_PAYLOAD_BYTES,
            "frame payload exceeds the protocol cap"
        );
        out.extend_from_slice(&MAGIC);
        out.push(VERSION);
        out.push(self.kind as u8);
        out.extend_from_slice(&self.app.to_le_bytes());
        out.extend_from_slice(&self.token.to_le_bytes());
        out.extend_from_slice(&self.seq.to_le_bytes());
        out.extend_from_slice(&(self.payload.len() as u32).to_le_bytes());
        out.extend_from_slice(&self.payload);
    }

    /// Size of this frame on the wire: header plus payload.
    pub fn encoded_len(&self) -> usize {
        HEADER_BYTES + self.payload.len()
    }

    /// Encodes into a fresh buffer.
    pub fn to_bytes(&self) -> Vec<u8> {
        let mut out = Vec::with_capacity(HEADER_BYTES + self.payload.len());
        self.encode(&mut out);
        out
    }

    /// Decodes one frame from the front of `buf`, returning it and the
    /// number of bytes consumed.
    ///
    /// # Errors
    ///
    /// Any structural defect — short input, bad magic/version/kind, set
    /// reserved bits, oversize or short payload — yields a [`FrameError`].
    pub fn decode(buf: &[u8]) -> Result<(Frame, usize), FrameError> {
        if buf.len() < HEADER_BYTES {
            return Err(FrameError::Truncated {
                needed: HEADER_BYTES,
                got: buf.len(),
            });
        }
        let (kind, app, token, seq, len) = parse_header(&buf[..HEADER_BYTES])?;
        let total = HEADER_BYTES + len;
        if buf.len() < total {
            return Err(FrameError::Truncated {
                needed: total,
                got: buf.len(),
            });
        }
        let payload = buf[HEADER_BYTES..total].to_vec();
        Ok((
            Frame {
                kind,
                app,
                token,
                seq,
                payload,
            },
            total,
        ))
    }

    /// Reads one frame from a blocking reader. Returns `Ok(None)` on a
    /// clean EOF at a frame boundary (the peer closed the connection).
    ///
    /// # Errors
    ///
    /// Transport errors and mid-frame EOF surface as [`FrameError::Io`];
    /// structural defects as their specific variants.
    pub fn read_from(r: &mut impl Read) -> Result<Option<Frame>, FrameError> {
        let mut header = [0u8; HEADER_BYTES];
        // Distinguish "no more frames" from "died mid-header".
        let mut first = [0u8; 1];
        loop {
            match r.read(&mut first) {
                Ok(0) => return Ok(None),
                Ok(_) => break,
                Err(e) if e.kind() == std::io::ErrorKind::Interrupted => continue,
                Err(e) => return Err(FrameError::Io(e)),
            }
        }
        header[0] = first[0];
        r.read_exact(&mut header[1..])?;
        let (kind, app, token, seq, len) = parse_header(&header)?;
        // Grow the buffer with the bytes actually received instead of
        // allocating the declared length up front — a peer declaring a
        // 64 MiB payload and going silent pins kilobytes, not gigabytes.
        let mut payload = Vec::with_capacity(len.min(64 * 1024));
        (&mut *r).take(len as u64).read_to_end(&mut payload)?;
        if payload.len() < len {
            return Err(FrameError::Io(std::io::Error::new(
                std::io::ErrorKind::UnexpectedEof,
                "connection closed mid-payload",
            )));
        }
        Ok(Some(Frame {
            kind,
            app,
            token,
            seq,
            payload,
        }))
    }
}

/// Validates a 20-byte header, returning
/// `(kind, app, token, seq, payload_len)`.
fn parse_header(h: &[u8]) -> Result<(FrameKind, u16, u16, u64, usize), FrameError> {
    if h[0..2] != MAGIC {
        return Err(FrameError::BadMagic([h[0], h[1]]));
    }
    if h[2] != VERSION {
        return Err(FrameError::BadVersion(h[2]));
    }
    let kind = FrameKind::from_u8(h[3]).ok_or(FrameError::UnknownKind(h[3]))?;
    let app = u16::from_le_bytes([h[4], h[5]]);
    let token = u16::from_le_bytes([h[6], h[7]]);
    let seq = u64::from_le_bytes(h[8..16].try_into().expect("8 bytes"));
    let len = u32::from_le_bytes(h[16..20].try_into().expect("4 bytes"));
    if len as usize > MAX_PAYLOAD_BYTES {
        return Err(FrameError::Oversize(len));
    }
    Ok((kind, app, token, seq, len as usize))
}

/// Bounds-checked little-endian reader over a payload slice.
#[derive(Debug)]
pub struct ByteReader<'a> {
    buf: &'a [u8],
    pos: usize,
}

impl<'a> ByteReader<'a> {
    /// Wraps a payload slice.
    pub fn new(buf: &'a [u8]) -> Self {
        ByteReader { buf, pos: 0 }
    }

    /// Bytes not yet consumed.
    pub fn remaining(&self) -> usize {
        self.buf.len() - self.pos
    }

    fn take(&mut self, n: usize) -> Result<&'a [u8], FrameError> {
        if self.remaining() < n {
            return Err(FrameError::Truncated {
                needed: self.pos + n,
                got: self.buf.len(),
            });
        }
        let s = &self.buf[self.pos..self.pos + n];
        self.pos += n;
        Ok(s)
    }

    /// Reads a `u16`.
    pub fn u16(&mut self) -> Result<u16, FrameError> {
        Ok(u16::from_le_bytes(self.take(2)?.try_into().expect("2")))
    }

    /// Reads a `u32`.
    pub fn u32(&mut self) -> Result<u32, FrameError> {
        Ok(u32::from_le_bytes(self.take(4)?.try_into().expect("4")))
    }

    /// Reads a `u64`.
    pub fn u64(&mut self) -> Result<u64, FrameError> {
        Ok(u64::from_le_bytes(self.take(8)?.try_into().expect("8")))
    }

    /// Reads `n` raw bytes.
    pub fn bytes(&mut self, n: usize) -> Result<&'a [u8], FrameError> {
        self.take(n)
    }

    /// Validates that a declared item count fits in the bytes actually
    /// remaining (`count * bytes_per` of them) — the pre-allocation guard
    /// against adversarial length fields.
    pub fn expect_items(&self, count: usize, bytes_per: usize) -> Result<(), FrameError> {
        let needed = count
            .checked_mul(bytes_per)
            .ok_or(FrameError::BadPayload("item count overflows"))?;
        if needed > self.remaining() {
            return Err(FrameError::Truncated {
                needed: self.pos + needed,
                got: self.buf.len(),
            });
        }
        Ok(())
    }

    /// Asserts the payload was fully consumed.
    pub fn finish(self) -> Result<(), FrameError> {
        if self.remaining() != 0 {
            return Err(FrameError::BadPayload("trailing payload bytes"));
        }
        Ok(())
    }
}

/// Appends a `u16` little-endian.
pub fn put_u16(out: &mut Vec<u8>, v: u16) {
    out.extend_from_slice(&v.to_le_bytes());
}

/// Appends a `u32` little-endian.
pub fn put_u32(out: &mut Vec<u8>, v: u32) {
    out.extend_from_slice(&v.to_le_bytes());
}

/// Appends a `u64` little-endian.
pub fn put_u64(out: &mut Vec<u8>, v: u64) {
    out.extend_from_slice(&v.to_le_bytes());
}

/// Serving statistics as carried by [`Response::Stats`] — the wire view of
/// the cluster's [`AdmissionSnapshot`](ditto_serve::AdmissionSnapshot).
///
/// Batch/tuple counters are lifetime totals (the server accumulates them
/// across `Finalize` epochs); queue depth and the latency percentiles
/// describe the current epoch.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct WireStats {
    /// Batches admitted so far.
    pub batches_submitted: u64,
    /// Batches fully served so far.
    pub batches_completed: u64,
    /// Batches refused by admission control.
    pub batches_shed: u64,
    /// Tuples admitted so far.
    pub tuples_submitted: u64,
    /// Tuples in completed batches.
    pub tuples_completed: u64,
    /// Tuples in shed batches.
    pub tuples_shed: u64,
    /// Tuples admitted but not yet in a completed batch.
    pub queue_depth: u64,
    /// Lifetime high-watermark of `queue_depth`.
    pub queue_depth_peak: u64,
    /// Median batch latency in simulated cycles.
    pub p50_cycles: u64,
    /// 99th-percentile batch latency in simulated cycles.
    pub p99_cycles: u64,
    /// Median batch latency in wall-clock microseconds.
    pub p50_wall_us: u64,
    /// 99th-percentile batch latency in wall-clock microseconds.
    pub p99_wall_us: u64,
    /// 99.9th-percentile batch latency in simulated cycles.
    pub p999_cycles: u64,
    /// 99.9th-percentile batch latency in wall-clock microseconds.
    pub p999_wall_us: u64,
}

impl WireStats {
    fn encode(&self, out: &mut Vec<u8>) {
        for v in [
            self.batches_submitted,
            self.batches_completed,
            self.batches_shed,
            self.tuples_submitted,
            self.tuples_completed,
            self.tuples_shed,
            self.queue_depth,
            self.queue_depth_peak,
            self.p50_cycles,
            self.p99_cycles,
            self.p50_wall_us,
            self.p99_wall_us,
            // p999 fields ride at the end so pre-p999 decoders that read a
            // fixed prefix stay layout-compatible.
            self.p999_cycles,
            self.p999_wall_us,
        ] {
            put_u64(out, v);
        }
    }

    fn decode(r: &mut ByteReader<'_>) -> Result<WireStats, FrameError> {
        Ok(WireStats {
            batches_submitted: r.u64()?,
            batches_completed: r.u64()?,
            batches_shed: r.u64()?,
            tuples_submitted: r.u64()?,
            tuples_completed: r.u64()?,
            tuples_shed: r.u64()?,
            queue_depth: r.u64()?,
            queue_depth_peak: r.u64()?,
            p50_cycles: r.u64()?,
            p99_cycles: r.u64()?,
            p50_wall_us: r.u64()?,
            p99_wall_us: r.u64()?,
            p999_cycles: r.u64()?,
            p999_wall_us: r.u64()?,
        })
    }
}

/// A typed client → server request.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Request {
    /// Admit a tuple batch to the addressed app.
    Submit {
        /// The batch contents.
        tuples: Vec<Tuple>,
    },
    /// Report the addressed app's serving statistics.
    Stats,
    /// Drain, merge and finalize the addressed app; reply with its output.
    Finalize,
    /// Liveness echo (app-less).
    Ping {
        /// Opaque bytes echoed back, at most [`MAX_PING_BYTES`].
        echo: Vec<u8>,
    },
    /// Dump the merged observability registry for the addressed app (app
    /// id 0: every hosted app, each entry labelled `app=<id>`).
    Metrics {
        /// Requested body encoding — see [`metrics_format`].
        format: u8,
    },
}

impl Request {
    /// Wraps the request into a frame addressed to `app` with sequence
    /// number `seq` and no auth token.
    pub fn into_frame(self, app: u16, seq: u64) -> Frame {
        self.into_frame_with_token(app, seq, 0)
    }

    /// [`into_frame`](Self::into_frame) carrying a per-app auth `token`
    /// on the header bits that used to be reserved.
    pub fn into_frame_with_token(self, app: u16, seq: u64, token: u16) -> Frame {
        let (kind, payload) = match self {
            Request::Submit { tuples } => {
                let mut p = Vec::with_capacity(4 + tuples.len() * TUPLE_BYTES);
                put_u32(&mut p, tuples.len() as u32);
                for t in &tuples {
                    put_u64(&mut p, t.key);
                    put_u64(&mut p, t.value);
                }
                (FrameKind::Submit, p)
            }
            Request::Stats => (FrameKind::Stats, Vec::new()),
            Request::Finalize => (FrameKind::Finalize, Vec::new()),
            Request::Ping { echo } => (FrameKind::Ping, echo),
            Request::Metrics { format } => (FrameKind::Metrics, vec![format]),
        };
        Frame {
            kind,
            app,
            token,
            seq,
            payload,
        }
    }

    /// Decodes a request from a frame.
    ///
    /// # Errors
    ///
    /// [`FrameError::BadPayload`] when the frame is a response kind or its
    /// payload violates the kind's schema.
    pub fn decode(frame: &Frame) -> Result<Request, FrameError> {
        let mut r = ByteReader::new(&frame.payload);
        match frame.kind {
            FrameKind::Submit => {
                let count = r.u32()? as usize;
                r.expect_items(count, TUPLE_BYTES)?;
                let mut tuples = Vec::with_capacity(count);
                for _ in 0..count {
                    let key = r.u64()?;
                    let value = r.u64()?;
                    tuples.push(Tuple::new(key, value));
                }
                r.finish()?;
                Ok(Request::Submit { tuples })
            }
            FrameKind::Stats => {
                r.finish()?;
                Ok(Request::Stats)
            }
            FrameKind::Finalize => {
                r.finish()?;
                Ok(Request::Finalize)
            }
            FrameKind::Ping => {
                if frame.payload.len() > MAX_PING_BYTES {
                    return Err(FrameError::BadPayload("ping echo too large"));
                }
                Ok(Request::Ping {
                    echo: frame.payload.clone(),
                })
            }
            FrameKind::Metrics => {
                let format = *r.bytes(1)?.first().expect("bytes(1) yields one byte");
                if format != metrics_format::BINARY && format != metrics_format::PROMETHEUS {
                    return Err(FrameError::BadPayload("unknown metrics format"));
                }
                r.finish()?;
                Ok(Request::Metrics { format })
            }
            _ => Err(FrameError::BadPayload("response kind in request position")),
        }
    }
}

/// A typed server → client response.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Response {
    /// The batch was served to completion.
    Done {
        /// Tuples the batch carried.
        tuples: u64,
        /// Admission-to-completion latency in simulated cycles (worst
        /// shard).
        latency_cycles: u64,
        /// Frame-receipt-to-completion wall latency in microseconds —
        /// includes wire, queueing and simulation time.
        wall_us: u64,
    },
    /// Serving statistics for the addressed app.
    Stats(WireStats),
    /// The finalized application output, in the app's own output encoding.
    Output {
        /// Encoded output bytes (see the `WireApp` codecs).
        bytes: Vec<u8>,
    },
    /// Ping echo.
    Pong {
        /// The request's echo bytes.
        echo: Vec<u8>,
    },
    /// The observability registry dump.
    MetricsDump {
        /// The body encoding actually used (echoes the request's).
        format: u8,
        /// Encoded body: the binary snapshot codec or Prometheus text.
        body: Vec<u8>,
    },
    /// The batch was shed by admission control and **not** served.
    Overloaded {
        /// Cluster queue depth observed at the final admission attempt.
        queue_depth: u64,
        /// The configured shed watermark.
        watermark: u64,
    },
    /// The request failed; see [`error_code`].
    Error {
        /// Machine-readable code.
        code: u16,
        /// Human-readable detail.
        message: String,
    },
}

impl Response {
    /// Wraps the response into a frame addressed to `app`, echoing `seq`.
    pub fn into_frame(self, app: u16, seq: u64) -> Frame {
        let (kind, payload) = match self {
            Response::Done {
                tuples,
                latency_cycles,
                wall_us,
            } => {
                let mut p = Vec::with_capacity(24);
                put_u64(&mut p, tuples);
                put_u64(&mut p, latency_cycles);
                put_u64(&mut p, wall_us);
                (FrameKind::Done, p)
            }
            Response::Stats(stats) => {
                let mut p = Vec::with_capacity(96);
                stats.encode(&mut p);
                (FrameKind::StatsReply, p)
            }
            Response::Output { bytes } => (FrameKind::Output, bytes),
            Response::Pong { echo } => (FrameKind::Pong, echo),
            Response::MetricsDump { format, body } => {
                let mut p = Vec::with_capacity(1 + body.len());
                p.push(format);
                p.extend_from_slice(&body);
                (FrameKind::MetricsDump, p)
            }
            Response::Overloaded {
                queue_depth,
                watermark,
            } => {
                let mut p = Vec::with_capacity(16);
                put_u64(&mut p, queue_depth);
                put_u64(&mut p, watermark);
                (FrameKind::Overloaded, p)
            }
            Response::Error { code, message } => {
                let msg = message.as_bytes();
                let mut p = Vec::with_capacity(4 + msg.len());
                put_u16(&mut p, code);
                put_u16(&mut p, msg.len().min(u16::MAX as usize) as u16);
                p.extend_from_slice(&msg[..msg.len().min(u16::MAX as usize)]);
                (FrameKind::Error, p)
            }
        };
        Frame {
            kind,
            app,
            token: 0,
            seq,
            payload,
        }
    }

    /// Decodes a response from a frame.
    ///
    /// # Errors
    ///
    /// [`FrameError::BadPayload`] when the frame is a request kind or its
    /// payload violates the kind's schema.
    pub fn decode(frame: &Frame) -> Result<Response, FrameError> {
        let mut r = ByteReader::new(&frame.payload);
        match frame.kind {
            FrameKind::Done => {
                let resp = Response::Done {
                    tuples: r.u64()?,
                    latency_cycles: r.u64()?,
                    wall_us: r.u64()?,
                };
                r.finish()?;
                Ok(resp)
            }
            FrameKind::StatsReply => {
                let stats = WireStats::decode(&mut r)?;
                r.finish()?;
                Ok(Response::Stats(stats))
            }
            FrameKind::Output => Ok(Response::Output {
                bytes: frame.payload.clone(),
            }),
            FrameKind::Pong => Ok(Response::Pong {
                echo: frame.payload.clone(),
            }),
            FrameKind::MetricsDump => {
                let format = *r.bytes(1)?.first().expect("bytes(1) yields one byte");
                let body = r.bytes(r.remaining())?.to_vec();
                Ok(Response::MetricsDump { format, body })
            }
            FrameKind::Overloaded => {
                let resp = Response::Overloaded {
                    queue_depth: r.u64()?,
                    watermark: r.u64()?,
                };
                r.finish()?;
                Ok(resp)
            }
            FrameKind::Error => {
                let code = r.u16()?;
                let len = r.u16()? as usize;
                let bytes = r.bytes(len)?;
                let message = String::from_utf8(bytes.to_vec())
                    .map_err(|_| FrameError::BadPayload("error message not UTF-8"))?;
                r.finish()?;
                Ok(Response::Error { code, message })
            }
            _ => Err(FrameError::BadPayload("request kind in response position")),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn header_layout_is_stable() {
        let f = Request::Submit {
            tuples: vec![Tuple::new(7, 9)],
        }
        .into_frame(3, 0x0102_0304_0506_0708);
        let bytes = f.to_bytes();
        assert_eq!(bytes.len(), HEADER_BYTES + 4 + TUPLE_BYTES);
        assert_eq!(&bytes[0..2], &MAGIC);
        assert_eq!(bytes[2], VERSION);
        assert_eq!(bytes[3], FrameKind::Submit as u8);
        assert_eq!(u16::from_le_bytes([bytes[4], bytes[5]]), 3);
        assert_eq!(&bytes[6..8], &[0, 0], "token-less frames zero bytes 6..8");
        assert_eq!(bytes[8..16], 0x0102_0304_0506_0708u64.to_le_bytes());
        assert_eq!(u32::from_le_bytes(bytes[16..20].try_into().unwrap()), 20);
    }

    #[test]
    fn auth_token_rides_the_former_reserved_bits() {
        let f = Request::Finalize.into_frame_with_token(3, 9, 0xBEEF);
        let bytes = f.to_bytes();
        assert_eq!(u16::from_le_bytes([bytes[6], bytes[7]]), 0xBEEF);
        let (back, _) = Frame::decode(&bytes).expect("tokened frame decodes");
        assert_eq!(back.token, 0xBEEF);
        assert_eq!(back, f);
        // Token-less construction stays wire-identical to the pre-token
        // protocol (reserved bits were zero).
        assert_eq!(Request::Finalize.into_frame(3, 9).token, 0);
    }

    #[test]
    fn request_roundtrip() {
        let reqs = [
            Request::Submit {
                tuples: vec![Tuple::new(1, 2), Tuple::new(u64::MAX, 0)],
            },
            Request::Stats,
            Request::Finalize,
            Request::Ping {
                echo: b"hello".to_vec(),
            },
            Request::Metrics {
                format: metrics_format::BINARY,
            },
            Request::Metrics {
                format: metrics_format::PROMETHEUS,
            },
        ];
        for (i, req) in reqs.into_iter().enumerate() {
            let f = req.clone().into_frame(i as u16, 1000 + i as u64);
            let (back, used) = Frame::decode(&f.to_bytes()).expect("decode");
            assert_eq!(used, f.to_bytes().len());
            assert_eq!(back, f);
            assert_eq!(Request::decode(&back).expect("typed"), req);
        }
    }

    #[test]
    fn response_roundtrip() {
        let resps = [
            Response::Done {
                tuples: 5,
                latency_cycles: 1234,
                wall_us: 88,
            },
            Response::Stats(WireStats {
                batches_submitted: 10,
                queue_depth_peak: 99,
                ..WireStats::default()
            }),
            Response::Output {
                bytes: vec![1, 2, 3],
            },
            Response::Pong { echo: vec![] },
            Response::MetricsDump {
                format: metrics_format::PROMETHEUS,
                body: b"# TYPE x counter\nx 1\n".to_vec(),
            },
            Response::Overloaded {
                queue_depth: 4096,
                watermark: 1024,
            },
            Response::Error {
                code: error_code::UNKNOWN_APP,
                message: "no app 9".to_owned(),
            },
        ];
        for resp in resps {
            let f = resp.clone().into_frame(2, 7);
            let (back, _) = Frame::decode(&f.to_bytes()).expect("decode");
            assert_eq!(Response::decode(&back).expect("typed"), resp);
        }
    }

    #[test]
    fn submit_count_is_validated_before_allocation() {
        // A frame whose declared tuple count wildly exceeds its payload must
        // fail cheaply.
        let mut payload = Vec::new();
        put_u32(&mut payload, u32::MAX);
        let frame = Frame {
            kind: FrameKind::Submit,
            app: 0,
            token: 0,
            seq: 0,
            payload,
        };
        assert!(matches!(
            Request::decode(&frame),
            Err(FrameError::Truncated { .. }) | Err(FrameError::BadPayload(_))
        ));
    }

    #[test]
    fn oversize_length_is_rejected() {
        let f = Request::Stats.into_frame(0, 0);
        let mut bytes = f.to_bytes();
        bytes[16..20].copy_from_slice(&(MAX_PAYLOAD_BYTES as u32 + 1).to_le_bytes());
        assert!(matches!(
            Frame::decode(&bytes),
            Err(FrameError::Oversize(_))
        ));
    }

    #[test]
    fn clean_eof_yields_none() {
        let mut empty: &[u8] = &[];
        assert!(Frame::read_from(&mut empty).expect("eof ok").is_none());
        let partial = Request::Stats.into_frame(0, 0).to_bytes();
        let mut cut: &[u8] = &partial[..5];
        assert!(matches!(Frame::read_from(&mut cut), Err(FrameError::Io(_))));
    }
}
