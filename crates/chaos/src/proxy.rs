//! The fault-injecting TCP proxy.

use std::collections::HashMap;
use std::io::{Read, Write};
use std::net::{Shutdown, SocketAddr, TcpListener, TcpStream, ToSocketAddrs};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Arc, Mutex, MutexGuard};
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

use crate::schedule::{Direction, FaultSchedule, ResolvedFault, Splitter};

/// Counters exposed by a running proxy.
#[derive(Debug, Clone, Default)]
pub struct ProxyStats {
    /// Connections accepted (including refused-by-partition ones).
    pub connections: u64,
    /// Connections refused while the link was partitioned.
    pub refused: u64,
    /// Messages forwarded client → server.
    pub forwarded_c2s: u64,
    /// Messages forwarded server → client.
    pub forwarded_s2c: u64,
    /// Connections severed by a scripted kill.
    pub kills: u64,
    /// Fatal frames that were forwarded truncated.
    pub truncations: u64,
    /// Scripted stalls that fired (connection frozen without closing).
    pub stalls: u64,
}

struct ProxyState {
    schedule: FaultSchedule,
    shutdown: AtomicBool,
    next_conn: AtomicU64,
    stats: Mutex<ProxyStats>,
    partition_until: Mutex<Option<Instant>>,
    conns: Mutex<HashMap<u64, (TcpStream, TcpStream)>>,
}

fn lock<T>(m: &Mutex<T>) -> MutexGuard<'_, T> {
    m.lock().unwrap_or_else(|e| e.into_inner())
}

impl ProxyState {
    fn partitioned(&self) -> bool {
        matches!(*lock(&self.partition_until), Some(t) if Instant::now() < t)
    }

    fn arm_partition(&self, d: Duration) {
        if d.is_zero() {
            return;
        }
        let until = Instant::now() + d;
        let mut g = lock(&self.partition_until);
        match *g {
            Some(t) if t >= until => {}
            _ => *g = Some(until),
        }
    }
}

/// A deterministic fault-injecting TCP proxy.
///
/// Accepts connections on an ephemeral local port and forwards each to
/// the upstream address, executing the [`FaultSchedule`] plan resolved
/// for that connection. Faults can also be fired manually
/// ([`FaultProxy::sever_all`], [`FaultProxy::partition_for`]) for tests
/// that want imperative control.
pub struct FaultProxy {
    addr: SocketAddr,
    state: Arc<ProxyState>,
    accept_thread: Option<JoinHandle<()>>,
}

impl FaultProxy {
    /// Start a proxy in front of `upstream` executing `schedule`.
    pub fn start(
        upstream: impl ToSocketAddrs,
        schedule: FaultSchedule,
    ) -> std::io::Result<FaultProxy> {
        let upstream = upstream
            .to_socket_addrs()?
            .next()
            .ok_or_else(|| std::io::Error::new(std::io::ErrorKind::InvalidInput, "no address"))?;
        let listener = TcpListener::bind("127.0.0.1:0")?;
        let addr = listener.local_addr()?;
        let state = Arc::new(ProxyState {
            schedule,
            shutdown: AtomicBool::new(false),
            next_conn: AtomicU64::new(0),
            stats: Mutex::new(ProxyStats::default()),
            partition_until: Mutex::new(None),
            conns: Mutex::new(HashMap::new()),
        });
        let accept_state = state.clone();
        let accept_thread = std::thread::spawn(move || {
            for client in listener.incoming() {
                // After shutdown the next connection is the wake-up call:
                // neither proxied nor counted.
                if accept_state.shutdown.load(Ordering::SeqCst) {
                    break;
                }
                let Ok(client) = client else { break };
                let conn_id = accept_state.next_conn.fetch_add(1, Ordering::Relaxed);
                lock(&accept_state.stats).connections += 1;
                if accept_state.partitioned() {
                    lock(&accept_state.stats).refused += 1;
                    telemetry::catalogue::CHAOS_FAULT.record_note(
                        0,
                        &[("conn", conn_id)],
                        "partition-refused",
                    );
                    let _ = client.shutdown(Shutdown::Both);
                    continue;
                }
                let server = match TcpStream::connect(upstream) {
                    Ok(s) => s,
                    Err(_) => {
                        let _ = client.shutdown(Shutdown::Both);
                        continue;
                    }
                };
                let _ = client.set_nodelay(true);
                let _ = server.set_nodelay(true);
                spawn_pumps(accept_state.clone(), conn_id, client, server);
            }
        });
        Ok(FaultProxy {
            addr,
            state,
            accept_thread: Some(accept_thread),
        })
    }

    /// The proxy's listening address (point clients here).
    pub fn local_addr(&self) -> SocketAddr {
        self.addr
    }

    /// A snapshot of the proxy counters.
    pub fn stats(&self) -> ProxyStats {
        lock(&self.state.stats).clone()
    }

    /// Imperatively sever every active proxied connection.
    pub fn sever_all(&self) {
        let conns = lock(&self.state.conns);
        for (client, server) in conns.values() {
            let _ = client.shutdown(Shutdown::Both);
            let _ = server.shutdown(Shutdown::Both);
        }
    }

    /// Imperatively partition the link: new connections are refused
    /// until `d` elapses. Active connections are also severed.
    pub fn partition_for(&self, d: Duration) {
        telemetry::catalogue::CHAOS_FAULT.record_note(
            0,
            &[("duration_ms", d.as_millis() as u64)],
            "partition",
        );
        self.state.arm_partition(d);
        self.sever_all();
    }

    /// Whether the link is currently partitioned.
    pub fn is_partitioned(&self) -> bool {
        self.state.partitioned()
    }

    /// Number of currently active proxied connections.
    pub fn active_connections(&self) -> usize {
        lock(&self.state.conns).len()
    }

    /// Stop the proxy: no new connections, all active ones severed.
    pub fn shutdown(&mut self) {
        self.state.shutdown.store(true, Ordering::SeqCst);
        if let Some(h) = self.accept_thread.take() {
            if telemetry::server::wake_accept(self.addr) {
                let _ = h.join();
            }
        }
        self.sever_all();
    }
}

impl Drop for FaultProxy {
    fn drop(&mut self) {
        self.shutdown();
    }
}

/// Per-connection shared fault state: one message counter shared by the
/// two pump threads so `Direction::Both` counting is globally ordered,
/// plus the armed-stall deadline both pumps honor so a triggered stall
/// freezes the connection in *both* directions.
struct ConnShared {
    counted: AtomicU64,
    stall_fired: AtomicBool,
    stall_until: Mutex<Option<Instant>>,
    throttle_noted: AtomicBool,
}

fn spawn_pumps(state: Arc<ProxyState>, conn_id: u64, client: TcpStream, server: TcpStream) {
    let fault = state.schedule.resolve(conn_id);
    let shared = Arc::new(ConnShared {
        counted: AtomicU64::new(0),
        stall_fired: AtomicBool::new(false),
        stall_until: Mutex::new(None),
        throttle_noted: AtomicBool::new(false),
    });

    let clones = (
        client.try_clone(),
        server.try_clone(),
        server.try_clone(),
        client.try_clone(),
    );
    let (c_read, s_write, s_read, c_write) = match clones {
        (Ok(cr), Ok(sw), Ok(sr), Ok(cw)) => (cr, sw, sr, cw),
        _ => {
            let _ = client.shutdown(Shutdown::Both);
            let _ = server.shutdown(Shutdown::Both);
            return;
        }
    };
    lock(&state.conns).insert(conn_id, (client, server));

    let counted_c2s = matches!(
        fault.count_direction,
        Direction::ClientToServer | Direction::Both
    );
    let counted_s2c = matches!(
        fault.count_direction,
        Direction::ServerToClient | Direction::Both
    );

    let st = state.clone();
    let f = fault.clone();
    let sh = shared.clone();
    std::thread::spawn(move || {
        pump(
            st,
            conn_id,
            c_read,
            s_write,
            /*to_server=*/ true,
            f,
            sh,
            counted_c2s,
        );
    });
    std::thread::spawn(move || {
        pump(
            state,
            conn_id,
            s_read,
            c_write,
            /*to_server=*/ false,
            fault,
            shared,
            counted_s2c,
        );
    });
}

/// Forward messages from `src` to `dst` until EOF, error, or a scripted
/// kill. `to_server` selects which forwarding counter to bump.
#[allow(clippy::too_many_arguments)]
fn pump(
    state: Arc<ProxyState>,
    conn_id: u64,
    mut src: TcpStream,
    mut dst: TcpStream,
    to_server: bool,
    fault: ResolvedFault,
    shared: Arc<ConnShared>,
    counted: bool,
) {
    let mut splitter = Splitter::new(state.schedule.framing());
    let mut buf = [0u8; 16 * 1024];
    'outer: loop {
        let n = match src.read(&mut buf) {
            Ok(0) | Err(_) => break,
            Ok(n) => n,
        };
        splitter.push(&buf[..n]);
        while let Some(msg) = splitter.next_message() {
            if !fault.delay.is_zero() {
                std::thread::sleep(fault.delay);
            }
            // Slow-consumer emulation: cap the server→client drain rate
            // while leaving the client→server direction untouched.
            if !to_server && !fault.s2c_throttle.is_zero() {
                if !shared.throttle_noted.swap(true, Ordering::SeqCst) {
                    telemetry::catalogue::CHAOS_FAULT.record_note(
                        0,
                        &[
                            ("conn", conn_id),
                            ("per_message_us", fault.s2c_throttle.as_micros() as u64),
                        ],
                        "slow-consumer",
                    );
                }
                std::thread::sleep(fault.s2c_throttle);
            }
            let fatal = if counted {
                let seq = shared.counted.fetch_add(1, Ordering::SeqCst) + 1;
                if fault.stall_at == Some(seq) && !shared.stall_fired.swap(true, Ordering::SeqCst) {
                    *lock(&shared.stall_until) = Some(Instant::now() + fault.stall_duration);
                    lock(&state.stats).stalls += 1;
                    telemetry::catalogue::CHAOS_FAULT.record_note(
                        0,
                        &[
                            ("conn", conn_id),
                            ("duration_ms", fault.stall_duration.as_millis() as u64),
                        ],
                        "stall",
                    );
                }
                match fault.kill_at {
                    Some(k) if seq > k => break 'outer, // past the kill point
                    Some(k) => seq == k,
                    None => false,
                }
            } else {
                false
            };
            // Honor an armed stall: hold this message (and, via the
            // shared deadline, the opposite pump's next message) until
            // the freeze elapses. The socket stays open throughout —
            // the peer sees a hang, never an EOF.
            let stall_deadline = *lock(&shared.stall_until);
            if let Some(t) = stall_deadline {
                std::thread::sleep(t.saturating_duration_since(Instant::now()));
            }
            let payload: &[u8] = if fatal {
                match fault.truncate_to {
                    Some(t) if t < msg.len() => {
                        lock(&state.stats).truncations += 1;
                        telemetry::catalogue::CHAOS_FAULT.record_note(
                            0,
                            &[("conn", conn_id), ("bytes", t as u64)],
                            "truncate",
                        );
                        &msg[..t]
                    }
                    _ => &msg,
                }
            } else {
                &msg
            };
            if dst.write_all(payload).and_then(|_| dst.flush()).is_err() {
                break 'outer;
            }
            {
                let mut stats = lock(&state.stats);
                if to_server {
                    stats.forwarded_c2s += 1;
                } else {
                    stats.forwarded_s2c += 1;
                }
            }
            if fatal {
                lock(&state.stats).kills += 1;
                telemetry::catalogue::CHAOS_FAULT.record_note(
                    0,
                    &[
                        ("conn", conn_id),
                        ("to_server", to_server as u64),
                        (
                            "partition_ms",
                            fault.partition_after_kill.as_millis() as u64,
                        ),
                    ],
                    "kill",
                );
                state.arm_partition(fault.partition_after_kill);
                break 'outer;
            }
        }
    }
    // Tear down both halves so each peer observes the close, and drop
    // the registry entry (first pump thread to exit wins).
    if let Some((client, server)) = lock(&state.conns).remove(&conn_id) {
        let _ = client.shutdown(Shutdown::Both);
        let _ = server.shutdown(Shutdown::Both);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::schedule::{ConnFault, Framing};
    use std::io::{BufRead, BufReader};

    /// A line-based echo server: replies `ack:<line>` to every line.
    fn echo_server() -> (SocketAddr, JoinHandle<()>) {
        let listener = TcpListener::bind("127.0.0.1:0").unwrap();
        let addr = listener.local_addr().unwrap();
        let handle = std::thread::spawn(move || {
            // Serve a bounded number of connections so the thread ends.
            for _ in 0..16 {
                let Ok((stream, _)) = listener.accept() else {
                    return;
                };
                std::thread::spawn(move || {
                    let mut reader = BufReader::new(stream.try_clone().unwrap());
                    let mut w = stream;
                    let mut line = String::new();
                    loop {
                        line.clear();
                        match reader.read_line(&mut line) {
                            Ok(0) | Err(_) => return,
                            Ok(_) => {
                                let reply = format!("ack:{line}");
                                if w.write_all(reply.as_bytes()).is_err() {
                                    return;
                                }
                            }
                        }
                    }
                });
            }
        });
        (addr, handle)
    }

    fn request(stream: &mut TcpStream, reader: &mut BufReader<TcpStream>, i: usize) -> bool {
        if stream.write_all(format!("m{i}\n").as_bytes()).is_err() {
            return false;
        }
        let mut reply = String::new();
        matches!(reader.read_line(&mut reply), Ok(n) if n > 0)
    }

    #[test]
    fn transparent_proxy_forwards() {
        let (upstream, _h) = echo_server();
        let proxy =
            FaultProxy::start(upstream, FaultSchedule::transparent(1, Framing::Ndjson)).unwrap();
        let mut c = TcpStream::connect(proxy.local_addr()).unwrap();
        let mut r = BufReader::new(c.try_clone().unwrap());
        for i in 0..5 {
            assert!(request(&mut c, &mut r, i), "request {i} failed");
        }
        // The c2s counter is bumped after the forwarding write, so the
        // final reply can round-trip before the pump thread records it;
        // poll briefly instead of snapshotting immediately.
        let deadline = Instant::now() + Duration::from_secs(2);
        let mut stats = proxy.stats();
        while (stats.forwarded_c2s, stats.forwarded_s2c) != (5, 5) && Instant::now() < deadline {
            std::thread::sleep(Duration::from_millis(5));
            stats = proxy.stats();
        }
        assert_eq!(stats.forwarded_c2s, 5);
        assert_eq!(stats.forwarded_s2c, 5);
        assert_eq!(stats.kills, 0);
    }

    #[test]
    fn scripted_kill_after_n_replies() {
        let (upstream, _h) = echo_server();
        let schedule = FaultSchedule::scripted(
            9,
            Framing::Ndjson,
            vec![ConnFault::kill_after(3, Direction::ServerToClient)],
        );
        let proxy = FaultProxy::start(upstream, schedule).unwrap();
        let mut c = TcpStream::connect(proxy.local_addr()).unwrap();
        let mut r = BufReader::new(c.try_clone().unwrap());
        // Exactly 3 round trips succeed; the link dies with the third
        // reply delivered.
        let mut ok = 0;
        for i in 0..6 {
            if request(&mut c, &mut r, i) {
                ok += 1;
            } else {
                break;
            }
        }
        assert_eq!(ok, 3, "stats: {:?}", proxy.stats());
        assert_eq!(proxy.stats().kills, 1);

        // The next connection is transparent: recovery traffic flows.
        let mut c2 = TcpStream::connect(proxy.local_addr()).unwrap();
        let mut r2 = BufReader::new(c2.try_clone().unwrap());
        assert!(request(&mut c2, &mut r2, 99));
    }

    #[test]
    fn seeded_kill_point_is_reproducible() {
        let run = |seed: u64| -> usize {
            let (upstream, _h) = echo_server();
            let schedule = FaultSchedule::scripted(
                seed,
                Framing::Ndjson,
                vec![ConnFault::kill_between(2, 6, Direction::ServerToClient)],
            );
            let proxy = FaultProxy::start(upstream, schedule).unwrap();
            let mut c = TcpStream::connect(proxy.local_addr()).unwrap();
            let mut r = BufReader::new(c.try_clone().unwrap());
            let mut ok = 0;
            for i in 0..10 {
                if request(&mut c, &mut r, i) {
                    ok += 1;
                } else {
                    break;
                }
            }
            ok
        };
        let a = run(1234);
        let b = run(1234);
        assert_eq!(a, b, "same seed must kill at the same message");
        assert!((2..=6).contains(&(a as u64)));
    }

    #[test]
    fn partition_refuses_reconnects_then_heals() {
        let (upstream, _h) = echo_server();
        let schedule = FaultSchedule::scripted(
            5,
            Framing::Ndjson,
            vec![ConnFault::kill_after(1, Direction::ServerToClient)
                .partitioning(Duration::from_millis(250))],
        );
        let proxy = FaultProxy::start(upstream, schedule).unwrap();
        let mut c = TcpStream::connect(proxy.local_addr()).unwrap();
        let mut r = BufReader::new(c.try_clone().unwrap());
        assert!(request(&mut c, &mut r, 0));
        assert!(
            !request(&mut c, &mut r, 1),
            "link must die after the first reply"
        );
        assert!(proxy.is_partitioned());

        // During the partition a fresh connection is cut immediately.
        let mut c2 = TcpStream::connect(proxy.local_addr()).unwrap();
        let mut r2 = BufReader::new(c2.try_clone().unwrap());
        assert!(!request(&mut c2, &mut r2, 2));

        // After it heals, traffic flows again.
        std::thread::sleep(Duration::from_millis(300));
        assert!(!proxy.is_partitioned());
        let mut c3 = TcpStream::connect(proxy.local_addr()).unwrap();
        let mut r3 = BufReader::new(c3.try_clone().unwrap());
        assert!(request(&mut c3, &mut r3, 3));
        assert!(proxy.stats().refused >= 1);
    }

    #[test]
    fn truncated_fatal_frame() {
        let (upstream, _h) = echo_server();
        // Kill on the first client→server message, forwarding only 2 of
        // its bytes: the server sees a torn frame, the client sees EOF.
        let schedule = FaultSchedule::scripted(
            11,
            Framing::Ndjson,
            vec![ConnFault::kill_after(1, Direction::ClientToServer).truncating(2)],
        );
        let proxy = FaultProxy::start(upstream, schedule).unwrap();
        let mut c = TcpStream::connect(proxy.local_addr()).unwrap();
        let mut r = BufReader::new(c.try_clone().unwrap());
        assert!(!request(&mut c, &mut r, 0));
        assert_eq!(proxy.stats().truncations, 1);
        assert_eq!(proxy.stats().kills, 1);
    }

    #[test]
    fn stall_freezes_without_closing() {
        let (upstream, _h) = echo_server();
        // Counting both directions: m0 (1), ack0 (2), m1 (3) — the
        // stall fires while forwarding the second request, freezing the
        // link for 300ms without closing it.
        let schedule = FaultSchedule::scripted(
            3,
            Framing::Ndjson,
            vec![ConnFault::transparent().stalling(3, 3, Duration::from_millis(300))],
        );
        let proxy = FaultProxy::start(upstream, schedule).unwrap();
        let mut c = TcpStream::connect(proxy.local_addr()).unwrap();
        let mut r = BufReader::new(c.try_clone().unwrap());
        assert!(request(&mut c, &mut r, 0));
        let t0 = Instant::now();
        assert!(request(&mut c, &mut r, 1), "link must survive the stall");
        assert!(
            t0.elapsed() >= Duration::from_millis(250),
            "stalled request returned too fast: {:?}",
            t0.elapsed()
        );
        // After the freeze the connection keeps working — no kill.
        assert!(request(&mut c, &mut r, 2));
        assert_eq!(proxy.stats().stalls, 1);
        assert_eq!(proxy.stats().kills, 0);
    }

    #[test]
    fn slow_consumer_throttles_replies() {
        let (upstream, _h) = echo_server();
        let schedule = FaultSchedule::scripted(
            4,
            Framing::Ndjson,
            vec![ConnFault::transparent().slow_consumer(Duration::from_millis(100))],
        );
        let proxy = FaultProxy::start(upstream, schedule).unwrap();
        let mut c = TcpStream::connect(proxy.local_addr()).unwrap();
        let mut r = BufReader::new(c.try_clone().unwrap());
        let t0 = Instant::now();
        for i in 0..3 {
            assert!(request(&mut c, &mut r, i));
        }
        // Each reply pays the 100ms throttle; requests flow untouched.
        assert!(
            t0.elapsed() >= Duration::from_millis(300),
            "replies were not throttled: {:?}",
            t0.elapsed()
        );
    }

    #[test]
    fn sever_all_cuts_active_connections() {
        let (upstream, _h) = echo_server();
        let proxy =
            FaultProxy::start(upstream, FaultSchedule::transparent(0, Framing::Ndjson)).unwrap();
        let mut c = TcpStream::connect(proxy.local_addr()).unwrap();
        let mut r = BufReader::new(c.try_clone().unwrap());
        assert!(request(&mut c, &mut r, 0));
        assert_eq!(proxy.active_connections(), 1);
        proxy.sever_all();
        assert!(!request(&mut c, &mut r, 1));
    }
}
