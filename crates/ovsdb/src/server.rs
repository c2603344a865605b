//! The OVSDB server: thread-per-connection TCP service over the shared
//! database, with monitor notification fan-out.

use std::collections::HashMap;
use std::net::{SocketAddr, TcpListener, TcpStream, ToSocketAddrs};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::Arc;
use std::thread::JoinHandle;
use std::time::Duration;

use crossbeam_channel::{bounded, unbounded, Sender, TrySendError};
use parking_lot::{Mutex, MutexGuard};
use serde_json::{json, Value as Json};

use crate::db::Database;
use crate::monitor::Monitor;
use crate::rpc::{write_message, Message, MessageReader};

/// Bounds for monitor fan-out: each connection gets a bounded outbox
/// drained by its writer thread, and a subscriber that cannot drain it
/// within the deadline is **evicted** — its connection is closed and
/// its subscriptions are dropped, bounding server memory no matter how
/// slow the consumer. Evicted clients are expected to reconnect and
/// re-monitor (the supervisor's resync path), which yields a complete
/// fresh snapshot, so eviction never loses them state for good.
#[derive(Debug, Clone)]
pub struct MonitorOverload {
    /// Max notifications buffered per connection outbox.
    pub outbox_cap: usize,
    /// How long a full outbox may block the fan-out before the
    /// subscriber is evicted.
    pub evict_deadline: Duration,
}

impl Default for MonitorOverload {
    fn default() -> MonitorOverload {
        MonitorOverload {
            outbox_cap: 1024,
            evict_deadline: Duration::from_secs(1),
        }
    }
}

/// Reserved key attached to monitor update objects carrying the causal
/// trace minted at commit time. Table names never collide with it, and
/// schema-driven consumers skip unknown tables, so it is safe to ride
/// along inside the updates object.
pub const TRACE_KEY: &str = "__trace";

struct ServerMetrics {
    commits: telemetry::Counter,
    commit_us: telemetry::Histogram,
    outbox_depth: telemetry::Gauge,
    outbox_depth_hwm: telemetry::Gauge,
}

fn server_metrics() -> &'static ServerMetrics {
    static M: std::sync::OnceLock<ServerMetrics> = std::sync::OnceLock::new();
    M.get_or_init(|| {
        let reg = &telemetry::global().registry;
        ServerMetrics {
            commits: reg.counter(
                "ovsdb_commits_total",
                "Committed management-plane transactions",
            ),
            commit_us: reg.histogram(
                "ovsdb_commit_duration_us",
                "OVSDB transaction commit latency (us)",
                &telemetry::LATENCY_BOUNDS_US,
            ),
            outbox_depth: reg.gauge(
                "ovsdb_monitor_outbox_depth",
                "Notifications buffered in the fullest monitor outbox at last fan-out",
            ),
            outbox_depth_hwm: reg.gauge(
                "ovsdb_monitor_outbox_depth_hwm",
                "High-water mark of monitor outbox depth",
            ),
        }
    })
}

struct Subscription {
    conn_id: u64,
    mon_id: Json,
    monitor: Monitor,
    tx: Sender<Message>,
}

struct ServerState {
    db: Mutex<Database>,
    subs: Mutex<Vec<Subscription>>,
    shutdown: AtomicBool,
    next_conn: AtomicU64,
    /// Live connection sockets, so shutdown can sever them cleanly.
    conns: Mutex<Vec<(u64, TcpStream)>>,
    overload: MonitorOverload,
}

impl ServerState {
    /// Sever one connection's socket (both directions). Its reader
    /// observes EOF and finishes the ordinary connection teardown.
    fn sever_conn(&self, conn_id: u64) {
        let conns = self.conns.lock();
        for (id, stream) in conns.iter() {
            if *id == conn_id {
                let _ = stream.shutdown(std::net::Shutdown::Both);
            }
        }
    }
}

/// A running OVSDB server. Dropping it (or calling [`Server::shutdown`])
/// stops the listener and severs every live connection, so clients
/// observe the close immediately instead of hanging on a dead socket.
pub struct Server {
    state: Arc<ServerState>,
    addr: SocketAddr,
    accept_thread: Option<JoinHandle<()>>,
}

impl Server {
    /// [`Server::start_with`] under the default [`MonitorOverload`].
    pub fn start(db: Database, addr: impl ToSocketAddrs) -> std::io::Result<Server> {
        Server::start_with(db, addr, MonitorOverload::default())
    }

    /// Start serving `db` on `addr` (use port 0 for an ephemeral port)
    /// with explicit monitor-overload bounds.
    pub fn start_with(
        db: Database,
        addr: impl ToSocketAddrs,
        overload: MonitorOverload,
    ) -> std::io::Result<Server> {
        let listener = TcpListener::bind(addr)?;
        let addr = listener.local_addr()?;
        let state = Arc::new(ServerState {
            db: Mutex::new(db),
            subs: Mutex::new(Vec::new()),
            shutdown: AtomicBool::new(false),
            next_conn: AtomicU64::new(1),
            conns: Mutex::new(Vec::new()),
            overload,
        });
        let accept_state = state.clone();
        let accept_thread = std::thread::spawn(move || {
            for stream in listener.incoming() {
                // After shutdown the next connection is the wake-up call.
                if accept_state.shutdown.load(Ordering::SeqCst) {
                    break;
                }
                let Ok(stream) = stream else { break };
                let st = accept_state.clone();
                std::thread::spawn(move || serve_connection(st, stream));
            }
        });
        Ok(Server {
            state,
            addr,
            accept_thread: Some(accept_thread),
        })
    }

    /// The bound address.
    pub fn local_addr(&self) -> SocketAddr {
        self.addr
    }

    /// Run a transaction directly (in-process), still notifying monitors.
    pub fn transact_local(&self, ops: &Json) -> Json {
        commit(&self.state, self.state.db.lock(), ops)
    }

    /// Read-only access to the database.
    pub fn with_db<T>(&self, f: impl FnOnce(&Database) -> T) -> T {
        f(&self.state.db.lock())
    }

    /// Sever every live client connection (the server keeps accepting
    /// new ones). Simulates a crash of the monitor channel: clients see
    /// EOF at once.
    pub fn disconnect_all(&self) {
        let conns = self.state.conns.lock();
        for (_, stream) in conns.iter() {
            let _ = stream.shutdown(std::net::Shutdown::Both);
        }
    }

    /// Number of live client connections.
    pub fn connection_count(&self) -> usize {
        self.state.conns.lock().len()
    }

    /// Number of live monitor subscriptions.
    pub fn subscription_count(&self) -> usize {
        self.state.subs.lock().len()
    }

    /// Stop accepting connections and sever the live ones.
    pub fn shutdown(&mut self) {
        self.state.shutdown.store(true, Ordering::SeqCst);
        if let Some(h) = self.accept_thread.take() {
            if telemetry::server::wake_accept(self.addr) {
                let _ = h.join();
            }
        }
        self.disconnect_all();
    }
}

impl Drop for Server {
    fn drop(&mut self) {
        self.shutdown();
    }
}

/// Run `ops` on the locked database and fan the committed changes out
/// to every subscriber. The subscription lock is taken before the
/// database lock is released (db → subs, the order `monitor` takes them
/// in too), so concurrent commits reach every outbox in commit order.
fn commit(state: &ServerState, mut db: MutexGuard<'_, Database>, ops: &Json) -> Json {
    let started = std::time::Instant::now();
    let examined = db.rows_examined();
    let (results, changes) = db.transact(ops);
    let commit_ns = started.elapsed().as_nanos().min(u64::MAX as u128) as u64;
    let examined = db.rows_examined() - examined;
    let m = server_metrics();
    m.commits.inc();
    m.commit_us.record(commit_ns / 1_000);
    if !changes.is_empty() {
        let subs = state.subs.lock();
        drop(db);
        notify(
            state,
            subs,
            &changes,
            (telemetry::next_trace_id(), commit_ns, examined),
        );
    }
    results
}

fn notify(
    state: &ServerState,
    mut subs: MutexGuard<'_, Vec<Subscription>>,
    changes: &[crate::db::RowChange],
    (id, commit_ns, examined): (u64, u64, u64),
) {
    // The flight recorder sees every acknowledged commit, and the
    // convergence clock starts here: lag is measured from this ack to
    // the switch writes that settle the trace. `examined` (rows the
    // transaction read) against `rows` (rows it changed) is the hop's
    // work per change.
    telemetry::catalogue::OVSDB_COMMIT.record(
        id,
        &[
            ("rows", changes.len() as u64),
            ("commit_ns", commit_ns),
            ("examined", examined),
        ],
    );
    telemetry::global().convergence_begin(id);
    let mut evicted: Vec<u64> = Vec::new();
    let mut dead: Vec<u64> = Vec::new();
    let mut max_depth = 0usize;
    for sub in subs.iter() {
        if evicted.contains(&sub.conn_id) || dead.contains(&sub.conn_id) {
            continue;
        }
        let Some(mut updates) = sub.monitor.format_changes(changes) else {
            continue;
        };
        if let Some(obj) = updates.as_object_mut() {
            obj.insert(
                TRACE_KEY.to_string(),
                json!({"id": id, "commit_ns": commit_ns}),
            );
        }
        let msg = Message::Notification {
            method: "update".to_string(),
            params: json!([sub.mon_id, updates]),
        };
        // Fast path first; only a full outbox pays the blocking
        // wait, and only up to the eviction deadline.
        let sent = match sub.tx.try_send(msg) {
            Ok(()) => Ok(()),
            Err(TrySendError::Disconnected(_)) => {
                dead.push(sub.conn_id);
                continue;
            }
            Err(TrySendError::Full(msg)) => sub
                .tx
                .send_timeout(msg, state.overload.evict_deadline)
                .map_err(|e| e.is_timeout()),
        };
        match sent {
            Ok(()) => {
                max_depth = max_depth.max(sub.tx.len());
                telemetry::catalogue::OVSDB_MONITOR_FANOUT
                    .record(id, &[("conn", sub.conn_id), ("rows", changes.len() as u64)]);
            }
            Err(true) => {
                // Slow consumer: could not drain one slot within
                // the deadline. Evict the whole connection; its
                // reconnect + re-monitor resync makes this safe.
                telemetry::catalogue::OVSDB_MONITOR_EVICT.record(
                    id,
                    &[
                        ("conn", sub.conn_id),
                        ("outbox", sub.tx.len() as u64),
                        (
                            "deadline_ms",
                            state.overload.evict_deadline.as_millis() as u64,
                        ),
                    ],
                );
                evicted.push(sub.conn_id);
            }
            Err(false) => {
                dead.push(sub.conn_id);
            }
        }
    }
    let m = server_metrics();
    m.outbox_depth.set(max_depth as i64);
    m.outbox_depth_hwm.set_max(max_depth as i64);
    // Tear evicted/dead connections down now (not when their reader
    // notices): drop every subscription of theirs, then sever the
    // socket so the client observes the close.
    subs.retain(|s| !evicted.contains(&s.conn_id) && !dead.contains(&s.conn_id));
    drop(subs);
    for conn_id in evicted.iter().chain(dead.iter()) {
        state.sever_conn(*conn_id);
    }
}

fn serve_connection(state: Arc<ServerState>, stream: TcpStream) {
    let conn_id = state.next_conn.fetch_add(1, Ordering::Relaxed);
    telemetry::catalogue::OVSDB_CONNECT.record(0, &[("conn", conn_id)]);
    let _ = stream.set_nodelay(true);
    let write_stream = match stream.try_clone() {
        Ok(s) => s,
        Err(_) => return,
    };
    if let Ok(handle) = stream.try_clone() {
        state.conns.lock().push((conn_id, handle));
    }
    // Writer thread: drains the outbound queue so slow readers do not
    // block transaction commit. The outbox is bounded — a subscriber
    // that stops draining fills it and `notify` evicts the connection
    // rather than buffering without limit.
    let (tx, rx) = bounded::<Message>(state.overload.outbox_cap);
    let writer_state = Arc::clone(&state);
    let writer = std::thread::spawn(move || {
        let mut w = write_stream;
        for msg in rx.iter() {
            if let Err(e) = write_message(&mut w, &msg) {
                // The peer is gone (or its socket is wedged): tear down
                // this connection's subscriptions now so fan-out stops
                // paying for it, instead of waiting for the reader side
                // to notice EOF.
                telemetry::catalogue::OVSDB_WRITE_ERROR.record_note(
                    0,
                    &[("conn", conn_id)],
                    e.to_string(),
                );
                writer_state.subs.lock().retain(|s| s.conn_id != conn_id);
                writer_state.sever_conn(conn_id);
                break;
            }
        }
        let _ = w.shutdown(std::net::Shutdown::Both);
    });

    let mut reader = MessageReader::new(stream);
    while let Ok(Some(msg)) = reader.read() {
        match msg {
            Message::Request { id, method, params } => {
                let (result, error) = handle_request(&state, conn_id, &tx, &method, &params);
                let _ = tx.send(Message::Response { id, result, error });
            }
            Message::Notification { .. } | Message::Response { .. } => {
                // Clients do not send notifications we care about; echo
                // replies etc. are ignored.
            }
        }
    }
    // Connection closed: drop its subscriptions, registry entry, writer.
    state.subs.lock().retain(|s| s.conn_id != conn_id);
    state.conns.lock().retain(|(id, _)| *id != conn_id);
    drop(tx);
    let _ = writer.join();
}

fn handle_request(
    state: &ServerState,
    conn_id: u64,
    tx: &Sender<Message>,
    method: &str,
    params: &Json,
) -> (Json, Json) {
    let err = |msg: String| (Json::Null, json!({"error": msg}));
    match method {
        "echo" => (params.clone(), Json::Null),
        "list_dbs" => {
            let db = state.db.lock();
            (json!([db.schema().name]), Json::Null)
        }
        "get_schema" => {
            let db = state.db.lock();
            match params.get(0).and_then(Json::as_str) {
                Some(name) if name == db.schema().name => (db.schema().to_json(), Json::Null),
                Some(name) => err(format!("no database {name:?}")),
                None => err("get_schema needs a database name".to_string()),
            }
        }
        "transact" => {
            let arr = match params.as_array() {
                Some(a) if !a.is_empty() => a,
                _ => return err("transact needs [db, op...]".to_string()),
            };
            let db = state.db.lock();
            if arr[0].as_str() != Some(db.schema().name.as_str()) {
                return err(format!("no database {}", arr[0]));
            }
            let ops = Json::Array(arr[1..].to_vec());
            (commit(state, db, &ops), Json::Null)
        }
        "monitor" => {
            let arr = match params.as_array() {
                Some(a) if a.len() == 3 => a,
                _ => return err("monitor needs [db, id, requests]".to_string()),
            };
            let db = state.db.lock();
            if arr[0].as_str() != Some(db.schema().name.as_str()) {
                return err(format!("no database {}", arr[0]));
            }
            let monitor = match Monitor::parse(&arr[2], &db) {
                Ok(m) => m,
                Err(e) => return err(e),
            };
            let initial = monitor.initial_state(&db);
            state.subs.lock().push(Subscription {
                conn_id,
                mon_id: arr[1].clone(),
                monitor,
                tx: tx.clone(),
            });
            (initial, Json::Null)
        }
        "commit_index" => {
            let db = state.db.lock();
            (json!(db.commit_index()), Json::Null)
        }
        "monitor_cancel" => {
            let mon_id = params.get(0).cloned().unwrap_or(Json::Null);
            let mut subs = state.subs.lock();
            let before = subs.len();
            subs.retain(|s| !(s.conn_id == conn_id && s.mon_id == mon_id));
            if subs.len() == before {
                return err("unknown monitor".to_string());
            }
            (json!({}), Json::Null)
        }
        other => err(format!("unknown method {other:?}")),
    }
}

/// State shared between a [`Client`] and its reader thread. When the
/// connection dies (server crash, proxy kill, EOF) the reader thread
/// tears this down: it marks the client dead, fails every in-flight
/// call, and closes every monitor channel — so callers observe the
/// failure immediately instead of hanging until a timeout.
struct ClientState {
    pending: Mutex<HashMap<String, Sender<(Json, Json)>>>,
    monitors: Mutex<Vec<(Json, Sender<Json>)>>,
    dead: AtomicBool,
}

impl ClientState {
    /// Mark the connection dead and release every waiter. Dropping the
    /// pending senders fails in-flight `call`s; dropping the monitor
    /// senders disconnects their receivers, which is how the controller
    /// notices the monitor stream is gone.
    fn teardown(&self) {
        self.dead.store(true, Ordering::SeqCst);
        self.pending.lock().clear();
        self.monitors.lock().clear();
    }
}

/// A blocking OVSDB client with explicit connection-failure semantics:
/// once the transport dies, every call fails fast with "connection
/// closed" (nothing hangs), monitor channels disconnect, and
/// [`Client::reconnect`] yields a fresh connection to the same server.
pub struct Client {
    writer: Mutex<TcpStream>,
    state: Arc<ClientState>,
    next_id: AtomicU64,
    peer: SocketAddr,
    reader: Mutex<Option<JoinHandle<()>>>,
}

impl Client {
    /// Connect to a server.
    pub fn connect(addr: impl ToSocketAddrs) -> std::io::Result<Client> {
        let stream = TcpStream::connect(addr)?;
        stream.set_nodelay(true)?;
        let peer = stream.peer_addr()?;
        let read_stream = stream.try_clone()?;
        let state = Arc::new(ClientState {
            pending: Mutex::new(HashMap::new()),
            monitors: Mutex::new(Vec::new()),
            dead: AtomicBool::new(false),
        });
        let st = state.clone();
        let reader = std::thread::spawn(move || {
            let mut r = MessageReader::new(read_stream);
            while let Ok(Some(msg)) = r.read() {
                match msg {
                    Message::Response { id, result, error } => {
                        let key = id.to_string();
                        if let Some(tx) = st.pending.lock().remove(&key) {
                            let _ = tx.send((result, error));
                        }
                    }
                    Message::Notification { method, params } if method == "update" => {
                        let mon_id = params.get(0).cloned().unwrap_or(Json::Null);
                        let updates = params.get(1).cloned().unwrap_or(Json::Null);
                        for (id, tx) in st.monitors.lock().iter() {
                            if *id == mon_id {
                                let _ = tx.send(updates.clone());
                            }
                        }
                    }
                    _ => {}
                }
            }
            st.teardown();
        });
        Ok(Client {
            writer: Mutex::new(stream),
            state,
            next_id: AtomicU64::new(1),
            peer,
            reader: Mutex::new(Some(reader)),
        })
    }

    /// Whether the transport is still up. `false` once the server end
    /// dropped or [`Client::close`] ran.
    pub fn is_connected(&self) -> bool {
        !self.state.dead.load(Ordering::SeqCst)
    }

    /// The server address this client connected to.
    pub fn peer_addr(&self) -> SocketAddr {
        self.peer
    }

    /// Open a fresh connection to the same server. The original client
    /// keeps its (possibly dead) connection; monitors are per-connection
    /// and must be re-issued on the new client.
    pub fn reconnect(&self) -> std::io::Result<Client> {
        Client::connect(self.peer)
    }

    /// Close the connection: in-flight calls fail, monitor channels
    /// disconnect, subsequent calls return "connection closed".
    pub fn close(&self) {
        self.state.teardown();
        let _ = self.writer.lock().shutdown(std::net::Shutdown::Both);
        if let Some(h) = self.reader.lock().take() {
            let _ = h.join();
        }
    }

    fn call(&self, method: &str, params: Json) -> Result<Json, String> {
        if self.state.dead.load(Ordering::SeqCst) {
            return Err("connection closed".to_string());
        }
        let id = self.next_id.fetch_add(1, Ordering::Relaxed);
        let id_json = json!(id);
        let (tx, rx) = unbounded();
        let key = id_json.to_string();
        self.state.pending.lock().insert(key.clone(), tx);
        // Teardown may have raced between the liveness check and the
        // insert; re-check so the entry cannot linger and the call
        // cannot wait on a sender nobody will ever use.
        if self.state.dead.load(Ordering::SeqCst) {
            self.state.pending.lock().remove(&key);
            return Err("connection closed".to_string());
        }
        {
            let mut w = self.writer.lock();
            let res = write_message(
                &mut *w,
                &Message::Request {
                    id: id_json,
                    method: method.to_string(),
                    params,
                },
            );
            if let Err(e) = res {
                self.state.pending.lock().remove(&key);
                self.state.teardown();
                return Err(e.to_string());
            }
        }
        let (result, error) = rx.recv_timeout(Duration::from_secs(30)).map_err(|e| {
            self.state.pending.lock().remove(&key);
            match e {
                crossbeam_channel::RecvTimeoutError::Disconnected => {
                    "connection closed".to_string()
                }
                crossbeam_channel::RecvTimeoutError::Timeout => "rpc timeout".to_string(),
            }
        })?;
        if !error.is_null() {
            return Err(error.to_string());
        }
        Ok(result)
    }

    /// Run a transaction; `ops` is the JSON array of operations.
    pub fn transact(&self, db: &str, ops: Json) -> Result<Json, String> {
        let mut params = vec![json!(db)];
        match ops {
            Json::Array(a) => params.extend(a),
            other => params.push(other),
        }
        self.call("transact", Json::Array(params))
    }

    /// Fetch the database schema.
    pub fn get_schema(&self, db: &str) -> Result<Json, String> {
        self.call("get_schema", json!([db]))
    }

    /// Round-trip liveness probe.
    pub fn echo(&self) -> Result<Json, String> {
        self.call("echo", json!(["ping"]))
    }

    /// The server's monotonic commit index. A freshly restarted server
    /// that lost (some) state reports a lower index than before —
    /// supervisors use this to detect an epoch reset and force a full
    /// resync rather than trusting monitor continuity.
    pub fn commit_index(&self) -> Result<u64, String> {
        let v = self.call("commit_index", json!([]))?;
        v.as_u64()
            .ok_or_else(|| format!("commit_index returned non-integer {v}"))
    }

    /// Register a monitor; returns the initial table-updates plus a
    /// channel of subsequent updates. The channel disconnects when the
    /// connection dies — receivers observe `RecvError` rather than
    /// blocking forever.
    pub fn monitor(
        &self,
        db: &str,
        mon_id: Json,
        requests: Json,
    ) -> Result<(Json, crossbeam_channel::Receiver<Json>), String> {
        let (tx, rx) = unbounded();
        self.state.monitors.lock().push((mon_id.clone(), tx));
        match self.call("monitor", json!([db, mon_id, requests])) {
            Ok(initial) => Ok((initial, rx)),
            Err(e) => {
                self.state.monitors.lock().retain(|(id, _)| *id != mon_id);
                Err(e)
            }
        }
    }

    /// Cancel a monitor registered on this connection. On a dead
    /// connection this returns an error immediately instead of hanging.
    pub fn monitor_cancel(&self, mon_id: Json) -> Result<(), String> {
        self.call("monitor_cancel", json!([mon_id]))?;
        self.state.monitors.lock().retain(|(id, _)| *id != mon_id);
        Ok(())
    }
}

impl Drop for Client {
    fn drop(&mut self) {
        self.close();
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::schema::Schema;

    fn test_db() -> Database {
        let schema = Schema::from_json(&json!({
            "name": "testdb",
            "tables": {
                "T": {"columns": {"k": {"type": "string"},
                                  "v": {"type": "integer"}}, "isRoot": true}
            }
        }))
        .unwrap();
        Database::new(schema)
    }

    #[test]
    fn end_to_end_over_tcp() {
        let server = Server::start(test_db(), "127.0.0.1:0").unwrap();
        let client = Client::connect(server.local_addr()).unwrap();

        assert_eq!(client.echo().unwrap(), json!(["ping"]));
        assert_eq!(
            client.get_schema("testdb").unwrap()["name"],
            json!("testdb")
        );
        assert!(client.get_schema("nope").is_err());

        // Monitor, then transact from a second client; the update must
        // arrive on the monitor channel.
        let (initial, updates) = client
            .monitor("testdb", json!("m1"), json!({"T": {}}))
            .unwrap();
        assert_eq!(initial, json!({}));

        let client2 = Client::connect(server.local_addr()).unwrap();
        let res = client2
            .transact(
                "testdb",
                json!([{"op": "insert", "table": "T", "row": {"k": "a", "v": 1}}]),
            )
            .unwrap();
        assert!(res[0]["uuid"].is_array());

        let upd = updates.recv_timeout(Duration::from_secs(5)).unwrap();
        let rows = upd["T"].as_object().unwrap();
        assert_eq!(rows.len(), 1);
        assert_eq!(rows.values().next().unwrap()["new"]["k"], json!("a"));

        // Cancel: further transactions produce no update.
        client.monitor_cancel(json!("m1")).unwrap();
        client2
            .transact(
                "testdb",
                json!([{"op": "insert", "table": "T", "row": {"k": "b", "v": 2}}]),
            )
            .unwrap();
        assert!(updates.recv_timeout(Duration::from_millis(300)).is_err());
    }

    #[test]
    fn transact_local_notifies_tcp_monitors() {
        let server = Server::start(test_db(), "127.0.0.1:0").unwrap();
        let client = Client::connect(server.local_addr()).unwrap();
        let (_, updates) = client
            .monitor("testdb", json!(1), json!({"T": {}}))
            .unwrap();
        server.transact_local(&json!([
            {"op": "insert", "table": "T", "row": {"k": "x", "v": 9}}
        ]));
        let upd = updates.recv_timeout(Duration::from_secs(5)).unwrap();
        assert!(upd["T"].is_object());
    }

    #[test]
    fn bad_method_and_bad_db() {
        let server = Server::start(test_db(), "127.0.0.1:0").unwrap();
        let client = Client::connect(server.local_addr()).unwrap();
        assert!(client.call("bogus", json!([])).is_err());
        assert!(client.transact("wrongdb", json!([])).is_err());
    }

    /// Register a monitor from a raw socket (no reader thread) and hand
    /// back the socket plus a reader positioned after the monitor reply.
    fn raw_monitor(addr: SocketAddr, mon_id: &str) -> (TcpStream, MessageReader<TcpStream>) {
        let mut sock = TcpStream::connect(addr).unwrap();
        write_message(
            &mut sock,
            &Message::Request {
                id: json!(1),
                method: "monitor".to_string(),
                params: json!(["testdb", mon_id, {"T": {}}]),
            },
        )
        .unwrap();
        let mut rd = MessageReader::new(sock.try_clone().unwrap());
        match rd.read().unwrap() {
            Some(Message::Response { error, .. }) => assert!(error.is_null()),
            other => panic!("expected monitor reply, got {other:?}"),
        }
        (sock, rd)
    }

    #[test]
    fn slow_monitor_subscriber_is_evicted_and_healthy_one_survives() {
        let server = Server::start_with(
            test_db(),
            "127.0.0.1:0",
            MonitorOverload {
                outbox_cap: 2,
                evict_deadline: Duration::from_millis(100),
            },
        )
        .unwrap();

        // Healthy subscriber: regular client whose reader thread drains.
        let healthy = Client::connect(server.local_addr()).unwrap();
        let (_, updates) = healthy
            .monitor("testdb", json!("ok"), json!({"T": {}}))
            .unwrap();

        // Slow subscriber: raw socket that registers a monitor and then
        // never reads another byte, so its TCP window and then its
        // bounded outbox fill up.
        let (_slow_sock, mut slow_rd) = raw_monitor(server.local_addr(), "slow");
        assert_eq!(server.subscription_count(), 2);

        let registry = &telemetry::global().registry;
        let evictions_before = registry.value("ovsdb_monitor_evictions_total");
        let disconnects = || registry.value("ovsdb_monitor_disconnects_total");
        let disconnects_before = disconnects();

        // Flood with fat rows until the slow subscriber is evicted.
        let big = "x".repeat(1 << 20);
        let mut evicted = false;
        for i in 0..32 {
            server.transact_local(&json!([
                {"op": "insert", "table": "T", "row": {"k": format!("r{i}-{big}"), "v": 1}}
            ]));
            if server.subscription_count() == 1 {
                evicted = true;
                break;
            }
        }
        assert!(evicted, "slow subscriber was never evicted");
        assert!(registry.value("ovsdb_monitor_evictions_total") > evictions_before);

        // The healthy subscriber keeps receiving; the last transact must
        // still reach it after the eviction.
        server.transact_local(&json!([
            {"op": "insert", "table": "T", "row": {"k": "after", "v": 2}}
        ]));
        let mut saw_after = false;
        while let Ok(upd) = updates.recv_timeout(Duration::from_secs(5)) {
            if upd["T"]
                .as_object()
                .map(|rows| rows.values().any(|r| r["new"]["k"] == json!("after")))
                .unwrap_or(false)
            {
                saw_after = true;
                break;
            }
        }
        assert!(saw_after, "healthy subscriber lost updates after eviction");

        // The evicted socket observes the close: draining whatever was
        // buffered ends in EOF or an error, never a hang.
        while let Ok(Some(_)) = slow_rd.read() {}

        // Severing the socket makes the blocked writer's in-flight
        // write fail, which exercises the failed-write teardown path.
        let deadline = std::time::Instant::now() + Duration::from_secs(5);
        while disconnects() == disconnects_before && std::time::Instant::now() < deadline {
            std::thread::sleep(Duration::from_millis(10));
        }
        assert!(disconnects() > disconnects_before);
    }

    #[test]
    fn dead_peer_subscriptions_are_torn_down() {
        let server = Server::start(test_db(), "127.0.0.1:0").unwrap();
        let (sock, rd) = raw_monitor(server.local_addr(), "doomed");
        assert_eq!(server.subscription_count(), 1);
        drop(rd);
        sock.shutdown(std::net::Shutdown::Both).unwrap();
        drop(sock);

        // Keep committing; the server must notice the dead peer (reader
        // EOF or failed write) and drop its subscriptions.
        let mut gone = false;
        for i in 0..200 {
            server.transact_local(&json!([
                {"op": "insert", "table": "T", "row": {"k": format!("d{i}"), "v": 1}}
            ]));
            if server.subscription_count() == 0 {
                gone = true;
                break;
            }
            std::thread::sleep(Duration::from_millis(5));
        }
        assert!(gone, "dead peer's subscriptions were never dropped");
    }
}
