//! Monitor updates reach a subscriber in commit order, however many
//! clients commit at once. Four clients each increment one counter row
//! 500 times over TCP; a monitor on that row must see every value once,
//! in order: each update's `new.v` is the previous one's plus one, and
//! its `old.v` is the previous `new.v`.

use std::time::Duration;

use ovsdb::{Client, Database, Schema, Server};
use serde_json::json;

const CLIENTS: i64 = 4;
const INCREMENTS: i64 = 500;

#[test]
fn concurrent_commits_reach_a_monitor_in_commit_order() {
    let schema = Schema::from_json(&json!({
        "name": "order",
        "tables": {"Counter": {"columns": {"v": {"type": "integer"}}, "isRoot": true}}
    }))
    .unwrap();
    let server = Server::start(Database::new(schema), "127.0.0.1:0").unwrap();
    server.transact_local(&json!([{"op": "insert", "table": "Counter", "row": {"v": 0}}]));

    let watcher = Client::connect(server.local_addr()).unwrap();
    let (_, updates) = watcher
        .monitor("order", json!("m"), json!({"Counter": {}}))
        .unwrap();

    let writers: Vec<_> = (0..CLIENTS)
        .map(|_| {
            let client = Client::connect(server.local_addr()).unwrap();
            std::thread::spawn(move || {
                for _ in 0..INCREMENTS {
                    let res = client
                        .transact(
                            "order",
                            json!([{"op": "mutate", "table": "Counter", "where": [],
                                    "mutations": [["v", "+=", 1]]}]),
                        )
                        .unwrap();
                    assert_eq!(res[0]["count"], json!(1), "{res}");
                }
            })
        })
        .collect();

    let mut last = 0;
    while last < CLIENTS * INCREMENTS {
        let upd = updates
            .recv_timeout(Duration::from_secs(30))
            .unwrap_or_else(|e| panic!("no update after v = {last}: {e}"));
        let (_, row) = upd["Counter"].as_object().unwrap().iter().next().unwrap();
        let (old, new) = (row["old"]["v"].as_i64(), row["new"]["v"].as_i64());
        assert_eq!(
            (old, new),
            (Some(last), Some(last + 1)),
            "update out of commit order: {upd}"
        );
        last += 1;
    }
    for w in writers {
        w.join().unwrap();
    }
}
