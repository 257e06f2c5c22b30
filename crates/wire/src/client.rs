//! The client side: a pipelining [`WireClient`].

use std::io::{BufReader, BufWriter, Write};
use std::net::{SocketAddr, TcpStream};
use std::time::{Duration, Instant};

use datagen::Tuple;
use ditto_obs::{decode_snapshot, MetricsSnapshot};

use crate::frame::{metrics_format, Frame, FrameError, Request, Response, WireStats};

/// Client-side failure.
#[derive(Debug)]
pub enum WireError {
    /// Transport error.
    Io(std::io::Error),
    /// Frame-level decode failure.
    Frame(FrameError),
    /// The server answered with something the operation cannot use.
    Protocol(&'static str),
    /// The server answered [`Response::Error`].
    Server {
        /// Machine-readable code (see [`crate::frame::error_code`]).
        code: u16,
        /// Server-provided detail.
        message: String,
    },
}

impl std::fmt::Display for WireError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            WireError::Io(e) => write!(f, "transport error: {e}"),
            WireError::Frame(e) => write!(f, "frame error: {e}"),
            WireError::Protocol(why) => write!(f, "protocol violation: {why}"),
            WireError::Server { code, message } => {
                write!(f, "server error {code}: {message}")
            }
        }
    }
}

impl std::error::Error for WireError {}

impl From<std::io::Error> for WireError {
    fn from(e: std::io::Error) -> Self {
        WireError::Io(e)
    }
}

impl From<FrameError> for WireError {
    fn from(e: FrameError) -> Self {
        match e {
            FrameError::Io(io) => WireError::Io(io),
            other => WireError::Frame(other),
        }
    }
}

/// A blocking wire connection with request pipelining.
///
/// [`submit`](Self::submit) only *sends* — any number of batches may be in
/// flight, and [`recv`](Self::recv) returns completions in whatever order
/// the cluster finishes them, matched to requests by sequence number. The
/// synchronous helpers ([`stats`](Self::stats), [`finalize`](Self::finalize),
/// [`ping`](Self::ping)) require no submissions outstanding, since they
/// pair one request with the next response of the matching kind.
pub struct WireClient {
    reader: BufReader<TcpStream>,
    writer: BufWriter<TcpStream>,
    next_seq: u64,
    token: u16,
}

impl WireClient {
    /// Connects to a wire server.
    ///
    /// # Errors
    ///
    /// Propagates socket errors.
    pub fn connect(addr: SocketAddr) -> Result<WireClient, WireError> {
        let stream = TcpStream::connect(addr)?;
        stream.set_nodelay(true).ok();
        let reader = BufReader::new(stream.try_clone()?);
        Ok(WireClient {
            reader,
            writer: BufWriter::new(stream),
            next_seq: 0,
            token: 0,
        })
    }

    /// Sets the auth token stamped into every subsequent request frame —
    /// required by servers whose registry
    /// [`set_token`](crate::AppRegistry::set_token)s the target app.
    /// Token 0 (the default) means "none".
    pub fn set_token(&mut self, token: u16) {
        self.token = token;
    }

    fn send(&mut self, request: Request, app: u16) -> Result<u64, WireError> {
        let seq = self.next_seq;
        self.next_seq += 1;
        let bytes = request
            .into_frame_with_token(app, seq, self.token)
            .to_bytes();
        self.writer.write_all(&bytes)?;
        self.writer.flush()?;
        Ok(seq)
    }

    /// Sends a batch to `app` without waiting; returns the sequence number
    /// its eventual response will echo.
    ///
    /// # Errors
    ///
    /// Propagates transport errors.
    pub fn submit(&mut self, app: u16, tuples: &[Tuple]) -> Result<u64, WireError> {
        self.send(
            Request::Submit {
                tuples: tuples.to_vec(),
            },
            app,
        )
    }

    /// Blocks for the next response frame: `(seq, app, response)`.
    ///
    /// # Errors
    ///
    /// [`WireError::Protocol`] on a clean EOF (server closed while
    /// responses were expected); transport/frame errors otherwise.
    pub fn recv(&mut self) -> Result<(u64, u16, Response), WireError> {
        let frame = Frame::read_from(&mut self.reader)?
            .ok_or(WireError::Protocol("connection closed by server"))?;
        let response = Response::decode(&frame)?;
        Ok((frame.seq, frame.app, response))
    }

    /// Submits one batch and blocks until *its* response arrives (requires
    /// no other requests outstanding).
    ///
    /// # Errors
    ///
    /// [`WireError::Protocol`] if an unrelated response arrives.
    pub fn submit_wait(&mut self, app: u16, tuples: &[Tuple]) -> Result<Response, WireError> {
        let seq = self.submit(app, tuples)?;
        let (got_seq, _, response) = self.recv()?;
        if got_seq != seq {
            return Err(WireError::Protocol("response for a different request"));
        }
        Ok(response)
    }

    fn expect<T>(
        &mut self,
        request: Request,
        app: u16,
        pick: impl FnOnce(Response) -> Result<T, WireError>,
    ) -> Result<T, WireError> {
        let seq = self.send(request, app)?;
        let (got_seq, _, response) = self.recv()?;
        if got_seq != seq {
            return Err(WireError::Protocol("response for a different request"));
        }
        if let Response::Error { code, message } = response {
            return Err(WireError::Server { code, message });
        }
        pick(response)
    }

    /// Fetches `app`'s serving statistics.
    ///
    /// # Errors
    ///
    /// Transport, frame or server errors.
    pub fn stats(&mut self, app: u16) -> Result<WireStats, WireError> {
        self.expect(Request::Stats, app, |r| match r {
            Response::Stats(stats) => Ok(stats),
            _ => Err(WireError::Protocol("expected a stats reply")),
        })
    }

    /// Drains and finalizes `app`, returning its encoded output (decode
    /// with the matching [`WireApp`](crate::WireApp) codec).
    ///
    /// # Errors
    ///
    /// Transport, frame or server errors.
    pub fn finalize(&mut self, app: u16) -> Result<Vec<u8>, WireError> {
        self.expect(Request::Finalize, app, |r| match r {
            Response::Output { bytes } => Ok(bytes),
            _ => Err(WireError::Protocol("expected an output reply")),
        })
    }

    /// Fetches the merged observability registry for `app` (0 for every
    /// hosted app, each entry labelled `app=<id>`) as a decoded snapshot.
    ///
    /// # Errors
    ///
    /// Transport, frame or server errors; [`WireError::Frame`] if the
    /// binary body fails to decode.
    pub fn metrics(&mut self, app: u16) -> Result<MetricsSnapshot, WireError> {
        self.expect(
            Request::Metrics {
                format: metrics_format::BINARY,
            },
            app,
            |r| match r {
                Response::MetricsDump { format, body } if format == metrics_format::BINARY => {
                    decode_snapshot(&body)
                        .map_err(|_| WireError::Protocol("undecodable metrics body"))
                }
                _ => Err(WireError::Protocol("expected a binary metrics dump")),
            },
        )
    }

    /// Fetches the registry for `app` (0 for all apps) in Prometheus text
    /// exposition format.
    ///
    /// # Errors
    ///
    /// Transport, frame or server errors; [`WireError::Protocol`] on a
    /// non-UTF-8 body.
    pub fn metrics_text(&mut self, app: u16) -> Result<String, WireError> {
        self.expect(
            Request::Metrics {
                format: metrics_format::PROMETHEUS,
            },
            app,
            |r| match r {
                Response::MetricsDump { format, body } if format == metrics_format::PROMETHEUS => {
                    String::from_utf8(body)
                        .map_err(|_| WireError::Protocol("metrics text not UTF-8"))
                }
                _ => Err(WireError::Protocol("expected a text metrics dump")),
            },
        )
    }

    /// Round-trips a ping, returning the wall latency.
    ///
    /// # Errors
    ///
    /// Transport, frame or server errors.
    pub fn ping(&mut self) -> Result<Duration, WireError> {
        let t0 = Instant::now();
        self.expect(
            Request::Ping {
                echo: b"ditto".to_vec(),
            },
            0,
            |r| match r {
                Response::Pong { .. } => Ok(()),
                _ => Err(WireError::Protocol("expected a pong")),
            },
        )?;
        Ok(t0.elapsed())
    }
}

impl std::fmt::Debug for WireClient {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("WireClient")
            .field("next_seq", &self.next_seq)
            .finish()
    }
}
