//! Differential property test for recursive strata: after every commit
//! of random insert/delete batches, each relation of an incrementally
//! maintained engine equals a fresh engine fed the same net inputs, its
//! arrangements equal ones rebuilt from scratch, and the provenance
//! search finds a derivation for every derived row.
//!
//! The program covers what the fixpoint and delete–re-derive must get
//! right beyond two-atom reachability: a three-atom recursive rule whose
//! drive orders differ from its body order, a negated lower-stratum atom
//! inside a recursive rule, a filter, an assignment, a head with a
//! computed argument, and mutual recursion.

use std::collections::BTreeSet;

use ddlog::{Engine, Transaction, Value};
use proptest::prelude::*;

const PROGRAM: &str = "
input relation Seed(n: bigint, l: bigint)
input relation Edge(a: bigint, b: bigint)
input relation Open(n: bigint)
input relation Blocked(n: bigint)

output relation Reach(n: bigint, l: bigint)
output relation Hops(n: bigint, h: bigint)
output relation Dist(n: bigint, d: bigint)
output relation Even(n: bigint)
relation Odd(n: bigint)

Reach(n, l) :- Seed(n, l).
Reach(b, l) :- Edge(a, b), Reach(a, l), Open(b), not Blocked(b).

Hops(n, 0) :- Seed(n, _).
Hops(b, h + 1) :- Hops(a, h), Edge(a, b), h < 3.

Dist(n, 0) :- Seed(n, _), not Blocked(n).
Dist(b, d) :- Dist(a, d0), Edge(a, b), var d = d0 + 1, d <= 3.

Even(n) :- Seed(n, _).
Odd(b) :- Even(a), Edge(a, b).
Even(b) :- Odd(a), Edge(a, b).
";

const INPUTS: [&str; 4] = ["Seed", "Edge", "Open", "Blocked"];
const RELATIONS: [&str; 9] = [
    "Seed", "Edge", "Open", "Blocked", "Reach", "Hops", "Dist", "Even", "Odd",
];

/// One input change: (relation index, insert?, a, b).
type Op = (usize, bool, i128, i128);

fn input_row(rel: usize, a: i128, b: i128) -> Vec<Value> {
    match INPUTS[rel] {
        "Seed" => vec![Value::Int(a), Value::Int(b % 2)],
        "Edge" => vec![Value::Int(a), Value::Int(b)],
        _ => vec![Value::Int(a)],
    }
}

fn op_strategy() -> impl Strategy<Value = Op> {
    (0usize..4, any::<bool>(), 0i128..6, 0i128..6)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    #[test]
    fn recursive_strata_match_a_fresh_engine_after_every_commit(
        batches in proptest::collection::vec(proptest::collection::vec(op_strategy(), 1..5), 1..16)
    ) {
        let mut inc = Engine::from_source(PROGRAM).unwrap();
        let mut live: BTreeSet<(usize, Vec<Value>)> = BTreeSet::new();
        for batch in &batches {
            let mut t = Transaction::new();
            for &(rel, insert, a, b) in batch {
                let row = input_row(rel, a, b);
                if insert {
                    t.insert(INPUTS[rel], row.clone());
                    live.insert((rel, row));
                } else {
                    t.delete(INPUTS[rel], row.clone());
                    live.remove(&(rel, row));
                }
            }
            inc.commit(t).unwrap();

            let mut fresh = Engine::from_source(PROGRAM).unwrap();
            let mut t = Transaction::new();
            for (rel, row) in &live {
                t.insert(INPUTS[*rel], row.clone());
            }
            fresh.commit(t).unwrap();
            for rel in RELATIONS {
                prop_assert_eq!(inc.dump(rel).unwrap(), fresh.dump(rel).unwrap(), "{}", rel);
            }
            prop_assert!(inc.validate_arrangements().is_ok());
            if let Err(e) = inc.validate_provenance() {
                prop_assert!(false, "{}", e);
            }
        }
    }
}
