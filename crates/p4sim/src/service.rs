//! The switch control service: a P4Runtime-style protocol over TCP with
//! length-prefixed binary frames (the body codec is
//! [`crate::runtime::Wire`]), plus the in-process device wrapper that
//! the packet substrate drives.

use std::io::{BufReader, Read, Write};
use std::net::{SocketAddr, TcpListener, TcpStream, ToSocketAddrs};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::Arc;
use std::time::Duration;

use crossbeam_channel::{unbounded, Receiver, Sender};
use parking_lot::Mutex;

use crate::p4info::P4Info;
use crate::runtime::{ControlRequest, ControlResponse, Digest, Update, Wire};
use crate::switch::{ProcessResult, Switch};

/// An in-process switch device: the switch plus digest fan-out. The
/// packet substrate calls [`SwitchDevice::inject`]; controllers subscribe
/// to digests either in-process or over TCP.
#[derive(Clone)]
pub struct SwitchDevice {
    inner: Arc<Mutex<Switch>>,
    digest_subs: Arc<Mutex<Vec<Sender<Vec<Digest>>>>>,
    /// Trace id of the most recent successful write (0 = none yet).
    last_write_trace: Arc<AtomicU64>,
}

impl SwitchDevice {
    /// Wrap a switch.
    pub fn new(switch: Switch) -> SwitchDevice {
        SwitchDevice {
            inner: Arc::new(Mutex::new(switch)),
            digest_subs: Arc::new(Mutex::new(Vec::new())),
            last_write_trace: Arc::new(AtomicU64::new(0)),
        }
    }

    /// Process a packet; digests are also fanned out to subscribers.
    pub fn inject(&self, port: u16, bytes: &[u8]) -> ProcessResult {
        let result = self.inner.lock().process_packet(port, bytes);
        if !result.digests.is_empty() {
            telemetry::catalogue::P4_DIGEST.record(
                0,
                &[
                    ("digests", result.digests.len() as u64),
                    ("port", port as u64),
                ],
            );
            let subs = self.digest_subs.lock();
            for s in subs.iter() {
                let _ = s.send(result.digests.clone());
            }
        }
        result
    }

    /// Subscribe to digests in-process.
    pub fn subscribe_digests(&self) -> Receiver<Vec<Digest>> {
        let (tx, rx) = unbounded();
        self.digest_subs.lock().push(tx);
        rx
    }

    /// Apply table updates.
    pub fn write(&self, updates: &[Update]) -> Result<(), String> {
        self.write_traced(updates, None)
    }

    /// Apply table updates, noting the causal trace that produced them.
    pub fn write_traced(&self, updates: &[Update], trace: Option<u64>) -> Result<(), String> {
        let res = self.inner.lock().write(updates);
        match &res {
            Ok(()) => {
                if let Some(t) = trace {
                    self.last_write_trace.store(t, Ordering::Relaxed);
                }
                telemetry::catalogue::P4_WRITE
                    .record(trace.unwrap_or(0), &[("updates", updates.len() as u64)]);
            }
            Err(_) => {
                telemetry::catalogue::P4_WRITE_ERROR
                    .record(trace.unwrap_or(0), &[("updates", updates.len() as u64)]);
            }
        }
        res
    }

    /// Trace id of the most recent successful traced write, if any.
    pub fn last_write_trace(&self) -> Option<u64> {
        match self.last_write_trace.load(Ordering::Relaxed) {
            0 => None,
            t => Some(t),
        }
    }

    /// Read a table's entries (`None` if the table doesn't exist).
    pub fn read_table(&self, table: &str) -> Option<Vec<crate::runtime::TableEntry>> {
        self.inner.lock().read_table(table).map(|e| e.to_vec())
    }

    /// Snapshot every table's entries, sorted by table name.
    pub fn read_all_tables(&self) -> Vec<(String, Vec<crate::runtime::TableEntry>)> {
        self.inner.lock().read_all_tables()
    }

    /// Configure a multicast group.
    pub fn set_mcast_group(&self, group: u16, ports: Vec<u16>) {
        self.inner.lock().set_mcast_group(group, ports);
    }

    /// The configured multicast groups, order-normalized (group id →
    /// sorted member set). The installed-state read used by the
    /// differential oracle; empty groups are never stored.
    pub fn mcast_snapshot(
        &self,
    ) -> std::collections::BTreeMap<u16, std::collections::BTreeSet<u16>> {
        self.inner
            .lock()
            .mcast_groups
            .iter()
            .map(|(g, ports)| (*g, ports.iter().copied().collect()))
            .collect()
    }

    /// Access the underlying switch.
    pub fn with_switch<T>(&self, f: impl FnOnce(&mut Switch) -> T) -> T {
        f(&mut self.inner.lock())
    }

    /// The program's P4Info.
    pub fn p4info(&self) -> P4Info {
        P4Info::from_program(&self.inner.lock().program)
    }
}

// ------------------------------------------------------------- framing

/// The largest body a frame may declare.
const MAX_FRAME: usize = 64 * 1024 * 1024;

/// Write one length-prefixed message: the body's length as 4 big-endian
/// bytes, then the body, built in one buffer and sent with one
/// `write_all`.
pub fn write_frame<T: Wire>(w: &mut impl Write, msg: &T) -> std::io::Result<()> {
    send(w, |out| msg.encode(out))
}

/// Frame the body `encode` appends and send it.
fn send(w: &mut impl Write, encode: impl FnOnce(&mut Vec<u8>)) -> std::io::Result<()> {
    let mut buf = vec![0; 4];
    encode(&mut buf);
    let len = buf.len() - 4;
    if len > MAX_FRAME {
        return Err(std::io::Error::new(
            std::io::ErrorKind::InvalidInput,
            format!("a {len}-byte body exceeds the frame cap"),
        ));
    }
    buf[..4].copy_from_slice(&(len as u32).to_be_bytes());
    w.write_all(&buf)?;
    w.flush()
}

/// Read one length-prefixed message; `Ok(None)` on clean EOF. The
/// body is read through `take(len)`, so a length prefix the peer never
/// backs with bytes costs only what actually arrived.
pub fn read_frame<T: Wire>(r: &mut impl Read) -> std::io::Result<Option<T>> {
    let mut len_buf = [0u8; 4];
    match r.read_exact(&mut len_buf) {
        Ok(()) => {}
        Err(e) if e.kind() == std::io::ErrorKind::UnexpectedEof => return Ok(None),
        Err(e) => return Err(e),
    }
    let len = u32::from_be_bytes(len_buf) as usize;
    if len > MAX_FRAME {
        return Err(std::io::Error::new(
            std::io::ErrorKind::InvalidData,
            "frame too large",
        ));
    }
    let mut body = Vec::new();
    if r.take(len as u64).read_to_end(&mut body)? < len {
        return Err(std::io::Error::new(
            std::io::ErrorKind::UnexpectedEof,
            "frame truncated",
        ));
    }
    T::from_bytes(&body).map(Some)
}

// ------------------------------------------------------------- service

/// A running control service for one switch device. Shutting it down
/// (or dropping it) severs live control connections, so a service
/// restart looks exactly like a switch restart from the controller's
/// side: connections die, state must be reconciled on reconnect.
pub struct ControlService {
    addr: SocketAddr,
    shutdown: Arc<AtomicBool>,
    conns: Arc<Mutex<Vec<TcpStream>>>,
    accept_thread: Option<std::thread::JoinHandle<()>>,
}

impl ControlService {
    /// Serve `device` on `addr` (port 0 = ephemeral).
    pub fn start(
        device: SwitchDevice,
        addr: impl ToSocketAddrs,
    ) -> std::io::Result<ControlService> {
        ControlService::start_with_write_delay(device, addr, Duration::ZERO)
    }

    /// Serve `device` on `addr`, stalling each table write by
    /// `per_entry` per update before applying it — an emulation of real
    /// switch-ASIC programming latency (hardware tables take on the
    /// order of 0.1–1 ms per entry), so that benchmarks exercising the
    /// async write pipeline see device pushes that actually cost time.
    pub fn start_with_write_delay(
        device: SwitchDevice,
        addr: impl ToSocketAddrs,
        per_entry: Duration,
    ) -> std::io::Result<ControlService> {
        let listener = TcpListener::bind(addr)?;
        let addr = listener.local_addr()?;
        let shutdown = Arc::new(AtomicBool::new(false));
        let conns: Arc<Mutex<Vec<TcpStream>>> = Arc::new(Mutex::new(Vec::new()));
        let sd = shutdown.clone();
        let cn = conns.clone();
        let accept_thread = std::thread::spawn(move || {
            for stream in listener.incoming() {
                // After shutdown the next connection is the wake-up call.
                if sd.load(Ordering::SeqCst) {
                    break;
                }
                let Ok(stream) = stream else { break };
                let dev = device.clone();
                if let Ok(handle) = stream.try_clone() {
                    cn.lock().push(handle);
                }
                std::thread::spawn(move || serve_conn(dev, stream, per_entry));
            }
        });
        Ok(ControlService {
            addr,
            shutdown,
            conns,
            accept_thread: Some(accept_thread),
        })
    }

    /// The bound address.
    pub fn local_addr(&self) -> SocketAddr {
        self.addr
    }

    /// Sever every live control connection without stopping the
    /// listener (a transient switch-channel failure).
    pub fn disconnect_all(&self) {
        let mut conns = self.conns.lock();
        for stream in conns.iter() {
            let _ = stream.shutdown(std::net::Shutdown::Both);
        }
        conns.clear();
    }

    /// Stop accepting connections and sever the live ones.
    pub fn shutdown(&mut self) {
        self.shutdown.store(true, Ordering::SeqCst);
        if let Some(h) = self.accept_thread.take() {
            if telemetry::server::wake_accept(self.addr) {
                let _ = h.join();
            }
        }
        self.disconnect_all();
    }
}

impl Drop for ControlService {
    fn drop(&mut self) {
        self.shutdown();
    }
}

fn serve_conn(device: SwitchDevice, stream: TcpStream, write_delay_per_entry: Duration) {
    let _ = stream.set_nodelay(true);
    let mut read_half = match stream.try_clone() {
        Ok(s) => BufReader::new(s),
        Err(_) => return,
    };
    let write_half = Arc::new(Mutex::new(stream));
    while let Ok(Some(req)) = read_frame::<ControlRequest>(&mut read_half) {
        let resp = match req {
            ControlRequest::Write { updates, trace } => {
                if !write_delay_per_entry.is_zero() {
                    std::thread::sleep(write_delay_per_entry * updates.len() as u32);
                }
                match device.write_traced(&updates, trace) {
                    Ok(()) => ControlResponse::WriteResult { error: None },
                    Err(e) => ControlResponse::WriteResult { error: Some(e) },
                }
            }
            ControlRequest::GetP4Info => ControlResponse::P4Info {
                info: device.p4info(),
            },
            ControlRequest::ReadTable { table } => {
                device.with_switch(|sw| match sw.read_table(&table) {
                    Some(entries) => ControlResponse::TableEntries {
                        entries: entries.to_vec(),
                    },
                    None => ControlResponse::Error {
                        message: format!("no table `{table}`"),
                    },
                })
            }
            ControlRequest::ReadAllTables => device.with_switch(|sw| ControlResponse::AllTables {
                tables: sw.read_all_tables(),
            }),
            ControlRequest::SubscribeDigests => {
                let rx = device.subscribe_digests();
                let w = write_half.clone();
                std::thread::spawn(move || {
                    for digests in rx.iter() {
                        let msg = ControlResponse::DigestList { digests };
                        if write_frame(&mut *w.lock(), &msg).is_err() {
                            break;
                        }
                    }
                });
                ControlResponse::Ok
            }
            ControlRequest::PacketOut { port, bytes } => {
                device.inject(port, &bytes);
                ControlResponse::Ok
            }
            ControlRequest::SetMcastGroup { group, ports } => {
                device.set_mcast_group(group, ports);
                ControlResponse::Ok
            }
            ControlRequest::ReadCounters => device.with_switch(|sw| {
                let mut counters = vec![
                    ("drops".to_string(), sw.stats.drops),
                    ("parse_errors".to_string(), sw.stats.parse_errors),
                    ("digests".to_string(), sw.stats.digests),
                ];
                for (p, n) in &sw.stats.rx_packets {
                    counters.push((format!("rx[{p}]"), *n));
                }
                for (p, n) in &sw.stats.tx_packets {
                    counters.push((format!("tx[{p}]"), *n));
                }
                ControlResponse::Counters { counters }
            }),
        };
        if write_frame(&mut *write_half.lock(), &resp).is_err() {
            break;
        }
    }
}

/// A blocking control client for a remote switch.
pub struct ControlClient {
    /// The connection's write half, and its read half behind a buffer so
    /// that a response usually costs one `read` call, not one per part.
    conn: Mutex<(TcpStream, BufReader<TcpStream>)>,
}

impl ControlClient {
    /// Connect to a switch control service.
    pub fn connect(addr: impl ToSocketAddrs) -> std::io::Result<ControlClient> {
        let stream = TcpStream::connect(addr)?;
        stream.set_nodelay(true)?;
        let reader = BufReader::new(stream.try_clone()?);
        Ok(ControlClient {
            conn: Mutex::new((stream, reader)),
        })
    }

    fn roundtrip(&self, req: &ControlRequest) -> Result<ControlResponse, String> {
        self.exchange(|out| req.encode(out))
    }

    /// Send the request body `encode` appends and wait for its response.
    fn exchange(&self, encode: impl FnOnce(&mut Vec<u8>)) -> Result<ControlResponse, String> {
        let mut conn = self.conn.lock();
        let (stream, reader) = &mut *conn;
        send(stream, encode).map_err(|e| e.to_string())?;
        loop {
            match read_frame::<ControlResponse>(reader) {
                Ok(Some(ControlResponse::DigestList { .. })) => {
                    // Digests are handled by subscribe(); a synchronous
                    // caller skips any interleaved notification.
                    continue;
                }
                Ok(Some(resp)) => return Ok(resp),
                Ok(None) => return Err("connection closed".to_string()),
                Err(e) => return Err(e.to_string()),
            }
        }
    }

    /// Apply table updates atomically.
    pub fn write(&self, updates: &[Update]) -> Result<(), String> {
        self.write_traced(updates, None)
    }

    /// Apply table updates atomically, carrying the causal trace id
    /// across the wire so the switch can attribute the write.
    pub fn write_traced(&self, updates: &[Update], trace: Option<u64>) -> Result<(), String> {
        match self.exchange(|out| ControlRequest::encode_write(updates, trace, out))? {
            ControlResponse::WriteResult { error: None } => Ok(()),
            ControlResponse::WriteResult { error: Some(e) } => Err(e),
            other => Err(format!("unexpected response {other:?}")),
        }
    }

    /// Fetch the P4Info.
    pub fn p4info(&self) -> Result<P4Info, String> {
        match self.roundtrip(&ControlRequest::GetP4Info)? {
            ControlResponse::P4Info { info } => Ok(info),
            other => Err(format!("unexpected response {other:?}")),
        }
    }

    /// Read a table's entries.
    pub fn read_table(&self, table: &str) -> Result<Vec<crate::runtime::TableEntry>, String> {
        match self.roundtrip(&ControlRequest::ReadTable {
            table: table.to_string(),
        })? {
            ControlResponse::TableEntries { entries } => Ok(entries),
            ControlResponse::Error { message } => Err(message),
            other => Err(format!("unexpected response {other:?}")),
        }
    }

    /// Read every table's entries in one round trip (sorted by table
    /// name) — the reconciliation snapshot for a restarted switch.
    pub fn read_all_tables(
        &self,
    ) -> Result<Vec<(String, Vec<crate::runtime::TableEntry>)>, String> {
        match self.roundtrip(&ControlRequest::ReadAllTables)? {
            ControlResponse::AllTables { tables } => Ok(tables),
            ControlResponse::Error { message } => Err(message),
            other => Err(format!("unexpected response {other:?}")),
        }
    }

    /// Configure a multicast group on the remote switch.
    pub fn set_mcast_group(&self, group: u16, ports: Vec<u16>) -> Result<(), String> {
        match self.roundtrip(&ControlRequest::SetMcastGroup { group, ports })? {
            ControlResponse::Ok => Ok(()),
            other => Err(format!("unexpected response {other:?}")),
        }
    }

    /// Inject a packet (packet-out).
    pub fn packet_out(&self, port: u16, bytes: Vec<u8>) -> Result<(), String> {
        match self.roundtrip(&ControlRequest::PacketOut { port, bytes })? {
            ControlResponse::Ok => Ok(()),
            other => Err(format!("unexpected response {other:?}")),
        }
    }

    /// Subscribe to digest notifications. After this call the connection
    /// is dedicated to the digest stream; use a separate client for
    /// synchronous requests.
    pub fn subscribe_digests(self) -> Result<Receiver<Vec<Digest>>, String> {
        let (mut stream, mut reader) = self.conn.into_inner();
        write_frame(&mut stream, &ControlRequest::SubscribeDigests).map_err(|e| e.to_string())?;
        // Consume the Ok ack.
        match read_frame::<ControlResponse>(&mut reader) {
            Ok(Some(ControlResponse::Ok)) => {}
            other => return Err(format!("unexpected subscribe response {other:?}")),
        }
        let (tx, rx) = unbounded();
        std::thread::spawn(move || loop {
            match read_frame::<ControlResponse>(&mut reader) {
                Ok(Some(ControlResponse::DigestList { digests })) => {
                    if tx.send(digests).is_err() {
                        break;
                    }
                }
                Ok(Some(_)) => continue,
                Ok(None) | Err(_) => break,
            }
        });
        Ok(rx)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::parser::DEMO;
    use crate::runtime::{FieldMatch, TableEntry, WriteOp};

    fn demo_device() -> SwitchDevice {
        SwitchDevice::new(Switch::from_source(DEMO).unwrap())
    }

    #[test]
    fn control_over_tcp() {
        let device = demo_device();
        let svc = ControlService::start(device.clone(), "127.0.0.1:0").unwrap();
        let client = ControlClient::connect(svc.local_addr()).unwrap();

        let info = client.p4info().unwrap();
        assert_eq!(info.tables.len(), 2);

        client
            .write(&[Update {
                op: WriteOp::Insert,
                entry: TableEntry {
                    table: "InVlan".into(),
                    matches: vec![FieldMatch::Exact { value: 1 }],
                    priority: 0,
                    action: "set_vlan".into(),
                    params: vec![10],
                },
            }])
            .unwrap();
        let entries = client.read_table("InVlan").unwrap();
        assert_eq!(entries.len(), 1);
        assert!(client.read_table("NoSuch").is_err());

        // Full-state read-back: every table, sorted, in one round trip.
        let all = client.read_all_tables().unwrap();
        assert_eq!(all.len(), 2);
        let mut names: Vec<&str> = all.iter().map(|(n, _)| n.as_str()).collect();
        let sorted = names.clone();
        names.sort();
        assert_eq!(names, sorted);
        let invlan = all.iter().find(|(n, _)| n == "InVlan").unwrap();
        assert_eq!(invlan.1.len(), 1);

        // Invalid write reports the error without closing the stream.
        let err = client
            .write(&[Update {
                op: WriteOp::Insert,
                entry: TableEntry {
                    table: "InVlan".into(),
                    matches: vec![],
                    priority: 0,
                    action: "set_vlan".into(),
                    params: vec![],
                },
            }])
            .unwrap_err();
        assert!(err.contains("key field"));
        assert_eq!(client.read_table("InVlan").unwrap().len(), 1);
    }

    #[test]
    fn digest_stream_over_tcp() {
        let device = demo_device();
        device
            .write(&[Update {
                op: WriteOp::Insert,
                entry: TableEntry {
                    table: "InVlan".into(),
                    matches: vec![FieldMatch::Exact { value: 1 }],
                    priority: 0,
                    action: "set_vlan".into(),
                    params: vec![10],
                },
            }])
            .unwrap();
        let svc = ControlService::start(device.clone(), "127.0.0.1:0").unwrap();
        let digest_client = ControlClient::connect(svc.local_addr()).unwrap();
        let rx = digest_client.subscribe_digests().unwrap();

        // Inject a packet in-process; the digest must arrive over TCP.
        let mut frame = vec![0u8; 14];
        frame[5] = 0xBB;
        frame[11] = 0xAA;
        frame[12] = 0x08;
        device.inject(1, &frame);

        let digests = rx.recv_timeout(Duration::from_secs(5)).unwrap();
        assert_eq!(digests.len(), 1);
        assert_eq!(digests[0].field("mac"), Some(0xAA));
    }

    #[test]
    fn frame_codec_roundtrip() {
        let mut buf = Vec::new();
        let req = ControlRequest::ReadTable { table: "T".into() };
        write_frame(&mut buf, &req).unwrap();
        let mut r = buf.as_slice();
        let back: ControlRequest = read_frame(&mut r).unwrap().unwrap();
        assert_eq!(req, back);
        let eof: Option<ControlRequest> = read_frame(&mut r).unwrap();
        assert!(eof.is_none());
    }
}
