//! Failure recovery: reconnect with backoff, and delta-only state
//! resynchronization.
//!
//! The paper's core claim is incrementality: a management-plane change
//! costs work proportional to the change, not to the database. This
//! module extends that claim across failures. After an OVSDB link drop,
//! the controller does **not** rebuild the engine from scratch: it takes
//! the fresh `monitor` snapshot, diffs it against the engine's current
//! input relations, and commits only the delta — so a reconnect costs
//! O(missed changes), not O(database). Likewise a restarted switch is
//! reconciled by reading back its actual table state and pushing only
//! the difference from the desired state derived from the engine's
//! output relations.

use std::collections::BTreeMap;
use std::net::{SocketAddr, ToSocketAddrs};
use std::time::Duration;

use crossbeam_channel::Receiver;
use ddlog::Value;
use rand::rngs::StdRng;
use rand::{RngExt, SeedableRng};
use serde_json::Value as Json;

use crate::controller::Controller;

// ------------------------------------------------------------ reports

/// What a snapshot resync committed: the delta between the engine's
/// input relations and the fresh monitor snapshot.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct ResyncReport {
    /// Rows present in the fresh snapshot.
    pub snapshot_rows: usize,
    /// Rows inserted by the resync transaction (missed additions).
    pub inserts: usize,
    /// Rows deleted by the resync transaction (missed removals).
    pub deletes: usize,
    /// Tables diffed.
    pub tables: usize,
}

impl ResyncReport {
    /// Total operations in the resync transaction. The incrementality
    /// invariant: this is proportional to the changes missed while
    /// disconnected, not to `snapshot_rows`.
    pub fn delta_ops(&self) -> usize {
        self.inserts + self.deletes
    }
}

/// What a switch reconciliation pushed: the delta between the desired
/// table state (engine output relations) and the switch's actual state.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct ReconcileReport {
    /// Entries the switch was missing (re-pushed).
    pub inserted: usize,
    /// Entries the switch had but should not (retracted).
    pub deleted: usize,
    /// Entries already correct (left untouched).
    pub unchanged: usize,
    /// Multicast groups re-pushed.
    pub mcast_groups: usize,
}

impl ReconcileReport {
    /// Total updates written to the switch.
    pub fn delta_ops(&self) -> usize {
        self.inserted + self.deleted
    }
}

// ------------------------------------------------------- snapshot diff

/// Group a snapshot's engine ops into per-relation row multisets. An
/// initial snapshot only carries inserts; retractions are ignored.
pub fn group_inserts(ops: Vec<(String, Vec<Value>, bool)>) -> BTreeMap<String, Vec<Vec<Value>>> {
    let mut out: BTreeMap<String, Vec<Vec<Value>>> = BTreeMap::new();
    for (rel, row, is_insert) in ops {
        if is_insert {
            out.entry(rel).or_default().push(row);
        }
    }
    out
}

/// Multiset difference between the engine's current rows and the target
/// snapshot rows: `(inserts, deletes)` to turn `current` into `target`.
pub fn diff_rows(
    current: &[Vec<Value>],
    target: &[Vec<Value>],
) -> (Vec<Vec<Value>>, Vec<Vec<Value>>) {
    let mut counts: BTreeMap<&[Value], i64> = BTreeMap::new();
    for row in target {
        *counts.entry(row.as_slice()).or_default() += 1;
    }
    for row in current {
        *counts.entry(row.as_slice()).or_default() -= 1;
    }
    let mut inserts = Vec::new();
    let mut deletes = Vec::new();
    for (row, n) in counts {
        for _ in 0..n.max(0) {
            inserts.push(row.to_vec());
        }
        for _ in 0..(-n).max(0) {
            deletes.push(row.to_vec());
        }
    }
    (inserts, deletes)
}

// ------------------------------------------------------------- backoff

/// Exponential backoff with deterministic, seeded jitter.
///
/// Jitter is drawn from `StdRng::seed_from_u64(seed)`, so a chaos run
/// retries at exactly the same instants every time it is replayed.
#[derive(Debug, Clone)]
pub struct BackoffPolicy {
    /// Delay before the second attempt (the first is immediate).
    pub base: Duration,
    /// Ceiling on any single delay.
    pub max: Duration,
    /// Growth factor per attempt.
    pub multiplier: f64,
    /// Total connection attempts before giving up.
    pub max_attempts: u32,
    /// Jitter as a fraction of the delay (`0.2` = ±20%).
    pub jitter: f64,
    /// RNG seed for the jitter sequence.
    pub seed: u64,
}

impl Default for BackoffPolicy {
    fn default() -> BackoffPolicy {
        BackoffPolicy {
            base: Duration::from_millis(50),
            max: Duration::from_secs(5),
            multiplier: 2.0,
            max_attempts: 10,
            jitter: 0.2,
            seed: 0,
        }
    }
}

impl BackoffPolicy {
    /// The delay sequence: one entry per retry (the initial attempt is
    /// not delayed). Deterministic for a given policy, and lazy — a
    /// policy with a huge retry budget costs nothing up front.
    pub fn delays(&self) -> impl Iterator<Item = Duration> {
        let mut rng = StdRng::seed_from_u64(self.seed);
        let (max, multiplier, jitter) = (self.max.as_secs_f64(), self.multiplier, self.jitter);
        let mut delay = self.base.as_secs_f64();
        (1..self.max_attempts).map(move |_| {
            let capped = delay.min(max);
            let jittered = if jitter > 0.0 {
                let f: f64 = rng.random_range(-jitter..=jitter);
                (capped * (1.0 + f)).max(0.0)
            } else {
                capped
            };
            delay *= multiplier;
            Duration::from_secs_f64(jittered)
        })
    }
}

// ---------------------------------------------------------- supervisor

/// The monitor subscription a supervisor re-issues on every reconnect.
#[derive(Debug, Clone)]
pub struct MonitorConfig {
    /// Database name.
    pub db: String,
    /// Monitor id echoed in updates.
    pub mon_id: Json,
    /// The `monitor` requests object (table → columns spec).
    pub requests: Json,
}

impl MonitorConfig {
    /// Monitor all columns of `tables` in database `db`.
    pub fn all_columns(db: &str, tables: &[&str]) -> MonitorConfig {
        let mut requests = serde_json::Map::new();
        for t in tables {
            requests.insert((*t).to_string(), Json::Object(serde_json::Map::new()));
        }
        MonitorConfig {
            db: db.to_string(),
            mon_id: Json::String("nerpa-supervisor".to_string()),
            requests: Json::Object(requests),
        }
    }

    /// The monitored table names (the tables a resync must diff, even
    /// when absent from a snapshot because they became empty).
    pub fn tables(&self) -> Vec<String> {
        self.requests
            .as_object()
            .map(|o| o.keys().cloned().collect())
            .unwrap_or_default()
    }
}

/// Counters describing a supervisor's recovery history.
#[derive(Debug, Clone, Default)]
pub struct SupervisorStats {
    /// Successful (re)connections, including the first.
    pub connects: u64,
    /// Individual connection attempts, including failures.
    pub attempts: u64,
    /// Resyncs committed (one per successful connect).
    pub resyncs: u64,
    /// The most recent resync's delta report.
    pub last_resync: Option<ResyncReport>,
    /// Server epoch resets detected: reconnects where the server
    /// reported a *lower* commit index than the previous session — a
    /// restart that lost (some) state, so monitor continuity cannot be
    /// assumed and a full resync is mandatory.
    pub epoch_resets: u64,
    /// The server's commit index observed at the last successful
    /// connect.
    pub last_commit_index: Option<u64>,
}

/// Supervises the controller's OVSDB link: connects with exponential
/// backoff + seeded jitter, re-issues the monitor call, and resyncs the
/// engine against the fresh snapshot with a delta-only transaction.
pub struct OvsdbSupervisor {
    addr: SocketAddr,
    config: MonitorConfig,
    policy: BackoffPolicy,
    /// Recovery counters (readable between calls).
    pub stats: SupervisorStats,
    /// OVSDB connection attempts by every supervisor in the process.
    attempts_total: telemetry::Counter,
}

impl OvsdbSupervisor {
    /// A supervisor for the OVSDB server at `addr`.
    pub fn new(
        addr: impl ToSocketAddrs,
        config: MonitorConfig,
        policy: BackoffPolicy,
    ) -> std::io::Result<OvsdbSupervisor> {
        let addr = addr
            .to_socket_addrs()?
            .next()
            .ok_or_else(|| std::io::Error::new(std::io::ErrorKind::InvalidInput, "no address"))?;
        Ok(OvsdbSupervisor {
            addr,
            config,
            policy,
            stats: SupervisorStats::default(),
            attempts_total: telemetry::global().registry.counter(
                "resync_connect_attempts_total",
                "OVSDB connection attempts by supervisors (including failures)",
            ),
        })
    }

    /// The monitor configuration re-issued on every connect.
    pub fn config(&self) -> &MonitorConfig {
        &self.config
    }

    /// Connect (retrying per the backoff policy), issue the monitor
    /// call, and resync `controller` against the returned snapshot.
    ///
    /// Returns the live client, the update channel, and the resync
    /// delta. The resync preserves incrementality across the failure:
    /// only rows that changed while disconnected are committed, and the
    /// resulting engine delta flows to the switches like any other
    /// transaction.
    pub fn connect_and_sync(
        &mut self,
        controller: &mut Controller,
    ) -> Result<(ovsdb::Client, Receiver<Json>, ResyncReport), String> {
        let mut last_err = String::from("no attempts made");
        let mut delays = std::iter::once(Duration::ZERO).chain(self.policy.delays());
        let monitored = self.config.tables();
        loop {
            let Some(delay) = delays.next() else {
                return Err(format!(
                    "gave up after {} attempts: {last_err}",
                    self.policy.max_attempts
                ));
            };
            if !delay.is_zero() {
                telemetry::catalogue::RESYNC_BACKOFF.record(
                    0,
                    &[
                        ("attempt", self.stats.attempts),
                        ("delay_us", delay.as_micros() as u64),
                    ],
                );
                telemetry::global()
                    .health
                    .set("ovsdb", format!("reconnecting(backoff {delay:?})"));
                std::thread::sleep(delay);
            }
            self.stats.attempts += 1;
            self.attempts_total.inc();
            let client = match ovsdb::Client::connect(self.addr) {
                Ok(c) => c,
                Err(e) => {
                    last_err = e.to_string();
                    telemetry::catalogue::RESYNC_CONNECT_ERROR.record_note(
                        0,
                        &[("attempt", self.stats.attempts)],
                        format!("connect to {}: {last_err}", self.addr),
                    );
                    continue;
                }
            };
            // Epoch check: a restarted server that lost state reports a
            // *lower* commit index than its predecessor. Monitor streams
            // carry no cross-restart continuity, so a lower index means
            // the snapshot we are about to diff may silently rewind rows
            // — record the reset explicitly (once, when the reconnect
            // succeeds) and force the full-diff resync path (never a
            // continuity shortcut).
            let commit_index = match client.commit_index() {
                Ok(i) => i,
                Err(e) => {
                    last_err = e;
                    continue;
                }
            };
            let epoch_reset = self
                .stats
                .last_commit_index
                .is_some_and(|prev| commit_index < prev);
            let (initial, updates) = match client.monitor(
                &self.config.db,
                self.config.mon_id.clone(),
                self.config.requests.clone(),
            ) {
                Ok(r) => r,
                Err(e) => {
                    last_err = e;
                    continue;
                }
            };
            let report = controller.resync_from_snapshot(&initial, &monitored)?;
            self.stats.last_commit_index = Some(commit_index);
            self.stats.connects += 1;
            self.stats.resyncs += 1;
            self.stats.epoch_resets += epoch_reset as u64;
            self.stats.last_resync = Some(report.clone());
            telemetry::catalogue::RESYNC_RECONNECT.record(
                0,
                &[
                    ("attempts", self.stats.attempts),
                    ("delta_ops", report.delta_ops() as u64),
                    ("epoch_reset", epoch_reset as u64),
                ],
            );
            telemetry::global().health.set("ovsdb", "connected");
            return Ok((client, updates, report));
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn v(n: i128) -> Vec<Value> {
        vec![Value::Int(n)]
    }

    #[test]
    fn diff_is_delta_only() {
        let current = vec![v(1), v(2), v(3)];
        let target = vec![v(2), v(3), v(4), v(5)];
        let (ins, del) = diff_rows(&current, &target);
        assert_eq!(ins, vec![v(4), v(5)]);
        assert_eq!(del, vec![v(1)]);

        // Identical states diff to nothing.
        let (ins, del) = diff_rows(&target, &target);
        assert!(ins.is_empty() && del.is_empty());

        // Multiset semantics: duplicate rows count.
        let (ins, del) = diff_rows(&[v(7)], &[v(7), v(7)]);
        assert_eq!(ins, vec![v(7)]);
        assert!(del.is_empty());
    }

    #[test]
    fn backoff_is_deterministic_and_bounded() {
        let policy = BackoffPolicy {
            base: Duration::from_millis(100),
            max: Duration::from_millis(400),
            multiplier: 2.0,
            max_attempts: 6,
            jitter: 0.25,
            seed: 99,
        };
        let a: Vec<Duration> = policy.delays().collect();
        let b: Vec<Duration> = policy.delays().collect();
        assert_eq!(a, b, "same seed, same jitter sequence");
        assert_eq!(a.len(), 5);
        for (i, d) in a.iter().enumerate() {
            // Within jitter bounds of the capped exponential value.
            let ideal = (100.0 * 2f64.powi(i as i32)).min(400.0);
            let lo = ideal * 0.75;
            let hi = ideal * 1.25;
            let ms = d.as_secs_f64() * 1000.0;
            assert!(
                ms >= lo - 1e-6 && ms <= hi + 1e-6,
                "delay {i} = {ms}ms not in [{lo},{hi}]"
            );
        }

        // Zero jitter is exact.
        let exact: Vec<Duration> = BackoffPolicy {
            jitter: 0.0,
            ..policy
        }
        .delays()
        .collect();
        assert_eq!(exact[0], Duration::from_millis(100));
        assert_eq!(exact[1], Duration::from_millis(200));
        assert_eq!(exact[2], Duration::from_millis(400));
        assert_eq!(exact[3], Duration::from_millis(400), "capped at max");
    }

    #[test]
    fn monitor_config_tables() {
        let c = MonitorConfig::all_columns("snvs", &["Port", "Switch"]);
        let mut t = c.tables();
        t.sort();
        assert_eq!(t, vec!["Port".to_string(), "Switch".to_string()]);
    }
}
