//! End-to-end oracle acceptance tests: fault-free and chaos sweeps stay
//! green, faulty runs converge to the fault-free state, and a
//! deliberately-injected controller bug is caught and shrunk.

use oracle::{run_oracle, run_workload, InjectedBug, OracleConfig};

#[test]
fn fault_free_sweep_eight_seeds() {
    for seed in 1..=8 {
        let cfg = OracleConfig::new(seed, 500);
        let report = run_oracle(&cfg).unwrap_or_else(|f| {
            panic!(
                "seed {seed} failed at {} (shrunk: {:?})",
                f.failure, f.shrunk
            )
        });
        assert_eq!(report.steps, 500);
        assert_eq!(report.outages, 0);
        assert_eq!(report.switch_restarts, 0);
    }
}

#[test]
fn chaos_sweep_eight_seeds() {
    for seed in 1..=8 {
        let cfg = OracleConfig {
            chaos: Some(7),
            ..OracleConfig::new(seed, 500)
        };
        let report = run_oracle(&cfg).unwrap_or_else(|f| {
            panic!(
                "seed {seed} failed at {} (shrunk: {:?})",
                f.failure, f.shrunk
            )
        });
        assert_eq!(report.steps, 500);
        assert!(report.outages > 0, "chaos plan must inject outages");
        assert!(
            report.switch_restarts > 0,
            "chaos plan must restart the switch"
        );
    }
}

#[test]
fn crash_sweep_checks_crash_equivalence() {
    // Crash-enabled chaos: every scheduled crash kills the durable
    // OVSDB server (tearing the WAL tail) and the harness asserts the
    // recovered state equals the committed prefix before the regular
    // invariant battery runs.
    for seed in 1..=4 {
        let cfg = OracleConfig {
            chaos: Some(7),
            crashes: true,
            ..OracleConfig::new(seed, 400)
        };
        let report = run_oracle(&cfg).unwrap_or_else(|f| {
            panic!(
                "seed {seed} failed at {} (shrunk: {:?})",
                f.failure, f.shrunk
            )
        });
        assert_eq!(report.steps, 400);
        assert!(report.crashes > 0, "crash plan must crash the server");
        assert!(
            report.torn_tails > 0,
            "crash plan must tear at least one WAL tail"
        );
    }
}

#[test]
fn crash_run_converges_to_fault_free_state() {
    // Post-recovery convergence: a run with server crashes ends in
    // exactly the data-plane state of the fault-free run with the same
    // workload seed.
    for seed in [1u64, 5] {
        let fault_free = oracle::harness::final_state(&OracleConfig::new(seed, 300))
            .expect("fault-free run green");
        let crashed = oracle::harness::final_state(&OracleConfig {
            chaos: Some(13),
            crashes: true,
            ..OracleConfig::new(seed, 300)
        })
        .expect("crash run green");
        assert_eq!(fault_free, crashed, "seed {seed}: converged state differs");
    }
}

#[test]
fn sharded_crash_sweep_checks_crash_equivalence_and_converges() {
    // The same crash-enabled chaos at 4 shards: the durable server is
    // killed and its WAL torn under a ShardSet, every shard resyncs from
    // the recovered snapshot, and the run must still end — on every one
    // of the 4 switches — exactly where the fault-free sharded run ends.
    for seed in [1u64, 5] {
        let sharded = OracleConfig {
            shards: 4,
            ..OracleConfig::new(seed, 300)
        };
        let crashed = OracleConfig {
            chaos: Some(13),
            crashes: true,
            ..sharded
        };
        let report = run_oracle(&crashed).unwrap_or_else(|f| {
            panic!(
                "seed {seed} failed at {} (shrunk: {:?})",
                f.failure, f.shrunk
            )
        });
        assert!(report.crashes > 0, "crash plan must crash the server");
        assert!(report.torn_tails > 0, "crash plan must tear a WAL tail");
        let fault_free = oracle::harness::final_state(&sharded).expect("fault-free run green");
        let recovered = oracle::harness::final_state(&crashed).expect("crash run green");
        assert_eq!(fault_free.len(), 4, "one final state per switch");
        assert_eq!(
            fault_free, recovered,
            "seed {seed}: converged state differs"
        );
    }
}

#[test]
fn faulty_run_converges_to_fault_free_state() {
    for seed in [1u64, 5, 9] {
        let fault_free = oracle::harness::final_state(&OracleConfig::new(seed, 300))
            .expect("fault-free run green");
        let faulty = oracle::harness::final_state(&OracleConfig {
            chaos: Some(13),
            ..OracleConfig::new(seed, 300)
        })
        .expect("chaos run green");
        assert_eq!(fault_free, faulty, "seed {seed}: converged state differs");
    }
}

#[test]
fn injected_resync_bug_is_caught_and_shrunk() {
    let cfg = OracleConfig {
        chaos: Some(7),
        bug: Some(InjectedBug::SkipResyncDeletes),
        ..OracleConfig::new(1, 200)
    };
    let failure = run_oracle(&cfg).expect_err("the buggy resync must be caught");
    assert!(
        failure.shrunk.len() < failure.original_len,
        "ddmin must shrink {} ops (got {})",
        failure.original_len,
        failure.shrunk.len()
    );
    // The shrunk sequence still reproduces the failure on a fresh run.
    assert!(
        run_workload(&failure.shrunk, &cfg).is_err(),
        "shrunk sequence must still fail"
    );
}

#[test]
fn injected_stale_arrangement_bug_is_caught_and_shrunk() {
    // The engine-level fault: retractions skip arrangement maintenance,
    // so joins probe ghost rows out of the shared indexes while the
    // relations themselves stay correct. The differential check against
    // the full-recompute baseline must see the stale derivation, and
    // ddmin must reduce the workload to a handful of ops.
    let cfg = OracleConfig {
        bug: Some(InjectedBug::StaleArrangement),
        ..OracleConfig::new(1, 200)
    };
    let failure = run_oracle(&cfg).expect_err("stale arrangements must be caught");
    assert!(
        failure.shrunk.len() < failure.original_len,
        "ddmin must shrink {} ops (got {})",
        failure.original_len,
        failure.shrunk.len()
    );
    assert!(
        run_workload(&failure.shrunk, &cfg).is_err(),
        "shrunk sequence must still fail"
    );
}

#[test]
fn sharded_stale_arrangement_bug_is_caught_shrunk_and_explained() {
    // The same engine-level fault armed in all 4 shard engines: the one
    // harness gives the sharded run everything the unsharded run has —
    // ddmin, the shard engines' work profiles, and the why-dump of the
    // first diverging tuple from the shard that owns its switch.
    let cfg = OracleConfig {
        bug: Some(InjectedBug::StaleArrangement),
        shards: 4,
        ..OracleConfig::new(1, 200)
    };
    let failure = run_oracle(&cfg).expect_err("stale arrangements must be caught at 4 shards");
    assert!(
        failure.shrunk.len() < failure.original_len,
        "ddmin must shrink {} ops (got {})",
        failure.original_len,
        failure.shrunk.len()
    );
    assert!(
        run_workload(&failure.shrunk, &cfg).is_err(),
        "shrunk sequence must still fail"
    );
    let profile = failure.failure.work_profile.as_deref().unwrap_or("");
    assert!(profile.contains("tuples processed"), "profile:\n{profile}");
    let why = failure.failure.why_dump.as_deref().unwrap_or("");
    assert!(why.contains("first diverging tuple"), "why dump:\n{why}");
}

#[test]
fn failure_carries_metrics_snapshot_and_failing_trace() {
    let cfg = OracleConfig {
        bug: Some(InjectedBug::DropConfigDeletes),
        ..OracleConfig::new(2, 100)
    };
    let failure = run_oracle(&cfg).expect_err("dropped deletes must be caught");
    // The snapshot is well-formed Prometheus exposition covering all
    // three planes, captured before ddmin perturbed the registry.
    telemetry::validate_exposition(&failure.metrics_snapshot)
        .expect("metrics snapshot must be valid exposition text");
    for series in [
        "ddlog_commits_total",
        "controller_transactions_total",
        "p4_write_batches_total",
    ] {
        assert!(
            failure.metrics_snapshot.contains(series),
            "snapshot missing {series}:\n{}",
            failure.metrics_snapshot
        );
    }
    // The last change that flowed through the stack before the
    // invariant broke is attached as a rendered span tree.
    let trace = failure
        .failing_trace
        .as_deref()
        .expect("a failing run must carry its last trace");
    assert!(trace.contains("stack.change"), "trace:\n{trace}");
    assert!(trace.contains("ddlog.apply"), "trace:\n{trace}");
    // The failing step carries the work profile of the engine commit
    // closest to the divergence: which operators did how much work.
    let profile = failure
        .failure
        .work_profile
        .as_deref()
        .expect("a failing run must carry the failing step's work profile");
    assert!(profile.contains("tuples processed"), "profile:\n{profile}");
    assert!(profile.contains("scan"), "profile:\n{profile}");
}

#[test]
fn injected_delete_drop_bug_shrinks_to_minimal_pair() {
    let cfg = OracleConfig {
        bug: Some(InjectedBug::DropConfigDeletes),
        ..OracleConfig::new(1, 100)
    };
    let failure = run_oracle(&cfg).expect_err("dropped deletes must be caught");
    // A dropped delete needs exactly: one op that installs state for a
    // port, and one that replaces it (the delete half goes missing).
    assert!(
        failure.shrunk.len() <= 3,
        "expected a near-minimal reproduction, got {:?}",
        failure.shrunk
    );
    assert!(run_workload(&failure.shrunk, &cfg).is_err());
}
