//! A live introspection endpoint: a tiny HTTP/1.1 server exposing the
//! metrics registry, the flight recorder and the views derived from it,
//! and the health board.
//!
//! Routes:
//! - `GET /metrics` — Prometheus-style text exposition
//! - `GET /metrics.json` — the same registry as JSON
//! - `GET /traces` — span trees of recent traces, derived from the
//!   flight recorder, as a JSON array
//! - `GET /health` — connection health board as JSON (HTTP 503 when
//!   any component is unhealthy)
//! - `GET /convergence` — commit-to-data-plane convergence lag
//! - `GET /flight` — flight-recorder status plus its buffered events
//!
//! Each accepted connection is served on its own short-lived thread so
//! a slow or stalled client cannot delay other scrapes; concurrent
//! connections are capped (excess ones get an immediate 503), which
//! bounds both thread count and memory.

use std::io::{Read, Write};
use std::net::{IpAddr, Ipv4Addr, SocketAddr, TcpListener, TcpStream, ToSocketAddrs};
use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};
use std::sync::Arc;
use std::thread::JoinHandle;
use std::time::Duration;

use crate::Telemetry;

/// Concurrent connections served before new ones are turned away.
const MAX_CONNS: usize = 32;

/// A running introspection server; shuts down on drop.
pub struct IntrospectionServer {
    addr: std::net::SocketAddr,
    shutdown: Arc<AtomicBool>,
    handle: Option<JoinHandle<()>>,
}

impl IntrospectionServer {
    /// Bind `addr` (use port 0 for an ephemeral port) and serve
    /// `telemetry` until shutdown or drop.
    pub fn start(addr: impl ToSocketAddrs, telemetry: Arc<Telemetry>) -> std::io::Result<Self> {
        let listener = TcpListener::bind(addr)?;
        let local = listener.local_addr()?;
        let shutdown = Arc::new(AtomicBool::new(false));
        let stop = shutdown.clone();
        let handle = std::thread::spawn(move || {
            let active = Arc::new(AtomicUsize::new(0));
            for stream in listener.incoming() {
                // After shutdown the next connection is the wake-up call.
                if stop.load(Ordering::SeqCst) {
                    break;
                }
                let Ok(mut stream) = stream else { break };
                // Serve each connection on its own thread so a stalled
                // client only occupies one slot; past the cap, shed load
                // immediately.
                if active.load(Ordering::SeqCst) >= MAX_CONNS {
                    let _ = stream.write_all(
                        b"HTTP/1.1 503 Service Unavailable\r\nContent-Length: 0\r\nConnection: close\r\n\r\n",
                    );
                    continue;
                }
                active.fetch_add(1, Ordering::SeqCst);
                let tel = telemetry.clone();
                let slots = active.clone();
                std::thread::spawn(move || {
                    let _ = serve_conn(stream, &tel);
                    slots.fetch_sub(1, Ordering::SeqCst);
                });
            }
        });
        Ok(IntrospectionServer {
            addr: local,
            shutdown,
            handle: Some(handle),
        })
    }

    /// The bound address (useful with port 0).
    pub fn local_addr(&self) -> std::net::SocketAddr {
        self.addr
    }

    /// Stop the accept loop and join the server thread.
    pub fn shutdown(&mut self) {
        self.shutdown.store(true, Ordering::SeqCst);
        if let Some(h) = self.handle.take() {
            if wake_accept(self.addr) {
                let _ = h.join();
            }
        }
    }
}

impl Drop for IntrospectionServer {
    fn drop(&mut self) {
        self.shutdown();
    }
}

/// Wake a thread blocked in `accept` on `addr` by connecting to it
/// (through 127.0.0.1 when `addr` is unspecified). Every accept loop in
/// the stack blocks, and stops this way: its owner sets a stop flag,
/// wakes it, and the loop sees the flag and exits without serving or
/// counting the connection. Returns false when the connect failed — the
/// loop has already exited or cannot be reached — so the owner must not
/// wait for it.
pub fn wake_accept(addr: SocketAddr) -> bool {
    let ip = if addr.ip().is_unspecified() {
        IpAddr::V4(Ipv4Addr::LOCALHOST)
    } else {
        addr.ip()
    };
    TcpStream::connect((ip, addr.port())).is_ok()
}

fn serve_conn(mut stream: TcpStream, telemetry: &Telemetry) -> std::io::Result<()> {
    stream.set_read_timeout(Some(Duration::from_millis(500)))?;
    let mut buf = Vec::new();
    let mut chunk = [0u8; 1024];
    // Read until the end of the request head; we ignore any body.
    loop {
        let n = stream.read(&mut chunk)?;
        if n == 0 {
            break;
        }
        buf.extend_from_slice(&chunk[..n]);
        if buf.windows(4).any(|w| w == b"\r\n\r\n") || buf.len() > 16 * 1024 {
            break;
        }
    }
    let head = String::from_utf8_lossy(&buf);
    let mut parts = head.split_whitespace();
    let method = parts.next().unwrap_or("");
    let path = parts.next().unwrap_or("");
    let (status, content_type, body) = route(method, path, telemetry);
    let response = format!(
        "HTTP/1.1 {status}\r\nContent-Type: {content_type}\r\nContent-Length: {}\r\nConnection: close\r\n\r\n{body}",
        body.len()
    );
    stream.write_all(response.as_bytes())?;
    stream.flush()
}

fn route(method: &str, path: &str, telemetry: &Telemetry) -> (&'static str, &'static str, String) {
    if method != "GET" {
        return (
            "405 Method Not Allowed",
            "text/plain",
            "method not allowed\n".to_string(),
        );
    }
    match path {
        "/metrics" => (
            "200 OK",
            "text/plain; version=0.0.4",
            telemetry.registry.render_text(),
        ),
        "/metrics.json" => (
            "200 OK",
            "application/json",
            telemetry.registry.render_json(),
        ),
        "/traces" => (
            "200 OK",
            "application/json",
            crate::trace::render_json(&telemetry.traces()),
        ),
        "/convergence" => ("200 OK", "application/json", telemetry.render_convergence()),
        "/flight" => {
            let events = telemetry.recorder.snapshot();
            let mut body = String::from("{\"enabled\":");
            body.push_str(if telemetry.recorder.is_enabled() {
                "true"
            } else {
                "false"
            });
            body.push_str(",\"events\":[");
            for (i, ev) in events.iter().enumerate() {
                if i > 0 {
                    body.push(',');
                }
                body.push_str(&ev.to_json());
            }
            body.push_str("]}");
            ("200 OK", "application/json", body)
        }
        "/health" => {
            let body = telemetry.health.render_json();
            if telemetry.health.all_healthy() {
                ("200 OK", "application/json", body)
            } else {
                ("503 Service Unavailable", "application/json", body)
            }
        }
        _ => match telemetry.render_page(path) {
            Some((content_type, body)) => ("200 OK", content_type, body),
            None => ("404 Not Found", "text/plain", "not found\n".to_string()),
        },
    }
}

/// Fetch `path` from an introspection server at `addr` and return
/// `(status_line, body)`. A minimal client for tests and CI probes.
pub fn http_get(addr: std::net::SocketAddr, path: &str) -> std::io::Result<(String, String)> {
    let mut stream = TcpStream::connect(addr)?;
    stream.set_read_timeout(Some(Duration::from_secs(5)))?;
    write!(
        stream,
        "GET {path} HTTP/1.1\r\nHost: introspect\r\nConnection: close\r\n\r\n"
    )?;
    stream.flush()?;
    let mut raw = String::new();
    stream.read_to_string(&mut raw)?;
    let (head, body) = raw
        .split_once("\r\n\r\n")
        .ok_or_else(|| std::io::Error::new(std::io::ErrorKind::InvalidData, "no header end"))?;
    let status = head.lines().next().unwrap_or("").to_string();
    Ok((status, body.to_string()))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn endpoint_serves_all_routes() {
        let tel = Arc::new(Telemetry::new());
        tel.registry.counter("demo_total", "a demo counter").add(7);
        tel.health.set("ovsdb", "connected");
        let server = IntrospectionServer::start("127.0.0.1:0", tel.clone()).unwrap();
        let addr = server.local_addr();

        let (status, body) = http_get(addr, "/metrics").unwrap();
        assert!(status.contains("200"), "{status}");
        assert!(body.contains("demo_total 7"), "{body}");
        crate::metrics::validate_exposition(&body).unwrap();

        let (status, body) = http_get(addr, "/metrics.json").unwrap();
        assert!(status.contains("200"));
        assert!(body.contains("\"demo_total\""));

        let (status, body) = http_get(addr, "/traces").unwrap();
        assert!(status.contains("200"));
        assert_eq!(body, "[]");

        let (status, body) = http_get(addr, "/health").unwrap();
        assert!(status.contains("200"));
        assert!(body.contains("\"healthy\":true"));

        tel.health.set("switch/0", "down(io)");
        let (status, _) = http_get(addr, "/health").unwrap();
        assert!(status.contains("503"));

        let (status, _) = http_get(addr, "/nope").unwrap();
        assert!(status.contains("404"));

        tel.register_page("/dataflow", "application/json", || "{\"ok\":1}".to_string());
        let (status, body) = http_get(addr, "/dataflow").unwrap();
        assert!(status.contains("200"), "{status}");
        assert_eq!(body, "{\"ok\":1}");
    }
}
