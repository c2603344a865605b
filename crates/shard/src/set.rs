//! A synchronous set of shard controllers driven in lockstep.
//!
//! [`ShardSet`] is the deterministic core of the sharded control plane:
//! N independent [`Controller`]s (one DDlog engine each), a [`Router`]
//! deciding which shard sees which row, and nothing else — no queues,
//! no threads. The async runtime layers pipelining on top of this; the
//! differential oracle drives a `ShardSet` directly so that every step
//! is replayable and shrinkable.

use std::collections::{BTreeMap, BTreeSet};

use ddlog::Value;
use nerpa::controller::{Controller, DataPlane, NerpaProgram};
use ovsdb::db::RowChange;
use p4sim::runtime::Digest;
use serde_json::Value as Json;

use crate::partition::Router;

/// N shard controllers plus the router that feeds them.
pub struct ShardSet {
    router: Router,
    shards: Vec<Controller>,
}

impl ShardSet {
    /// Compile `program` once per shard. Every shard runs the same
    /// DDlog program; they differ only in which input rows (and thus
    /// which switches) they own.
    pub fn new(program: &NerpaProgram, router: Router) -> Result<ShardSet, String> {
        let shards = (0..router.shards())
            .map(|_| Controller::new(program))
            .collect::<Result<Vec<_>, String>>()?;
        Ok(ShardSet { router, shards })
    }

    /// The router.
    pub fn router(&self) -> &Router {
        &self.router
    }

    /// The shard controllers, in shard order.
    pub fn controllers(&self) -> &[Controller] {
        &self.shards
    }

    /// Mutable access to one shard's controller.
    pub fn controller_mut(&mut self, shard: usize) -> &mut Controller {
        &mut self.shards[shard]
    }

    /// The shard owning switch `switch_id`.
    pub fn shard_of_switch(&self, switch_id: usize) -> usize {
        self.router.route_switch(switch_id)
    }

    /// Register a data plane under its global switch id with the shard
    /// that owns it; returns that shard.
    pub fn add_switch(&mut self, switch_id: usize, dp: Box<dyn DataPlane>) -> usize {
        let shard = self.router.route_switch(switch_id);
        self.shards[shard].add_switch_with_id(switch_id, dp);
        shard
    }

    /// Feed committed row changes (the in-process path).
    pub fn handle_row_changes(&mut self, changes: &[RowChange]) -> Result<(), String> {
        for (shard, slice) in self
            .router
            .split_row_changes(changes)
            .into_iter()
            .enumerate()
        {
            if !slice.is_empty() {
                self.shards[shard].handle_row_changes(&slice)?;
            }
        }
        Ok(())
    }

    /// Route digests from switch `switch_id` to the owning shard.
    pub fn handle_digests(&mut self, switch_id: usize, digests: &[Digest]) -> Result<(), String> {
        let shard = self.router.route_switch(switch_id);
        self.shards[shard].handle_digests(switch_id, digests)?;
        Ok(())
    }

    /// Retract previously-learned digests (the aging half).
    pub fn retract_digests(&mut self, switch_id: usize, digests: &[Digest]) -> Result<(), String> {
        let shard = self.router.route_switch(switch_id);
        self.shards[shard].retract_digests(switch_id, digests)?;
        Ok(())
    }

    /// Resync every shard from a monitor snapshot: decoded once, split
    /// through the router, and each shard diffs its slice against its
    /// own engine inputs. Shards with an empty slice still resync
    /// (against the empty snapshot) so rows deleted while disconnected
    /// are retracted everywhere.
    pub fn resync_from_snapshot(
        &mut self,
        initial: &Json,
        monitored_tables: &[String],
    ) -> Result<(), String> {
        let rows = ovsdb::decode_table_updates(initial, self.shards[0].schema())?.changes;
        for (shard, slice) in self.router.split_row_changes(&rows).into_iter().enumerate() {
            self.shards[shard].resync_from_rows(&slice, monitored_tables)?;
        }
        Ok(())
    }

    /// The set-union of one relation's rows across every shard engine —
    /// the sharded side of the cross-shard equivalence invariant.
    /// Broadcast-derived rows appear in several shards; per-switch rows
    /// in exactly one; the union must equal the unsharded engine's view.
    pub fn union_dump(&self, relation: &str) -> Result<BTreeSet<Vec<Value>>, String> {
        let mut union = BTreeSet::new();
        for shard in &self.shards {
            for row in shard.engine().dump(relation).map_err(|e| e.to_string())? {
                union.insert(row);
            }
        }
        Ok(union)
    }

    /// Switch `switch_id`'s multicast groups, as tracked by its owning
    /// shard's replication state.
    pub fn mcast_snapshot(&self, switch_id: usize) -> BTreeMap<u16, BTreeSet<u16>> {
        let shard = self.router.route_switch(switch_id);
        self.shards[shard].mcast_snapshot(switch_id)
    }

    /// Total engine transactions committed across all shards.
    pub fn transactions(&self) -> u64 {
        self.shards.iter().map(|s| s.engine().commits()).sum()
    }
}
