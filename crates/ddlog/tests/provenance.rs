//! Provenance tests: `why` derivation trees, `why_not` failure reports,
//! and the churn properties of the on-demand search — re-evaluating a
//! reported tree reproduces the tuple, no derivation ever references a
//! retracted fact, and the search counts exactly the derivations the
//! evaluator does.

use std::collections::{BTreeMap, BTreeSet};

use ddlog::provenance::{WhyNode, WhySupport, SEARCH_BUDGET};
use ddlog::value::Value;
use ddlog::{Engine, Transaction};
use proptest::prelude::*;

fn i(v: i128) -> Value {
    Value::Int(v)
}

fn prov(src: &str) -> Engine {
    Engine::from_source(src).unwrap()
}

const JOIN_NEG: &str = "
    input relation E(x: bigint, y: bigint)
    input relation Block(x: bigint)
    output relation Pair(x: bigint, y: bigint)
    Pair(x, y) :- E(x, y), not Block(x).
";

#[test]
fn why_join_with_negation_roots_in_base() {
    let mut e = prov(JOIN_NEG);
    let mut t = Transaction::new();
    t.insert("E", vec![i(1), i(2)]);
    t.insert("Block", vec![i(9)]);
    e.commit(t).unwrap();

    let node = e.why("Pair", vec![i(1), i(2)]).unwrap();
    assert_eq!(node.relation, "Pair");
    assert!(!node.base);
    assert!(node.rooted_in_base(), "tree:\n{}", node.render_text());
    assert_eq!(node.justs.len(), 1);
    let just = &node.justs[0];
    assert_eq!(just.rule_index, Some(0));
    // One positive support (the E row, a base fact) and one satisfied
    // negation.
    let mut saw_fact = false;
    let mut saw_absent = false;
    for s in &just.supports {
        match s {
            WhySupport::Fact(n) => {
                assert_eq!(n.relation, "E");
                assert!(n.base);
                saw_fact = true;
            }
            WhySupport::Absent { relation, pattern } => {
                assert_eq!(relation, "Block");
                assert!(pattern.contains("Block(1)"), "pattern: {pattern}");
                saw_absent = true;
            }
        }
    }
    assert!(saw_fact && saw_absent);
    let text = node.render_text();
    assert!(text.contains("Pair(1, 2)"), "{text}");
    assert!(text.contains("E(1, 2) — base"), "{text}");
    e.validate_provenance().unwrap();
}

#[test]
fn why_recursive_reaches_base_facts() {
    let src = "
        input relation GivenLabel(n: string, l: bigint)
        input relation Edge(a: string, b: string)
        output relation Label(n: string, l: bigint)
        Label(n1, label) :- GivenLabel(n1, label).
        Label(n2, label) :- Label(n1, label), Edge(n1, n2).
    ";
    let mut e = prov(src);
    let mut t = Transaction::new();
    t.insert("GivenLabel", vec![Value::str("a"), i(1)]);
    t.insert("Edge", vec![Value::str("a"), Value::str("b")]);
    t.insert("Edge", vec![Value::str("b"), Value::str("c")]);
    e.commit(t).unwrap();

    let node = e.why("Label", vec![Value::str("c"), i(1)]).unwrap();
    assert!(node.rooted_in_base(), "tree:\n{}", node.render_text());
    let text = node.render_text();
    // The chain c <- b <- a must appear, ending at the base label fact.
    assert!(text.contains("Label(\"b\", 1)"), "{text}");
    assert!(text.contains("GivenLabel(\"a\", 1) — base"), "{text}");
    assert!(text.contains("Edge(\"b\", \"c\") — base"), "{text}");
    e.validate_provenance().unwrap();
}

#[test]
fn why_aggregate_lists_contributors() {
    let src = "
        input relation P(p: bigint, sw: bigint)
        output relation N(sw: bigint, n: bigint)
        N(sw, n) :- P(p, sw), var n = count(p) group_by (sw).
    ";
    let mut e = prov(src);
    let mut t = Transaction::new();
    t.insert("P", vec![i(1), i(7)]);
    t.insert("P", vec![i(2), i(7)]);
    t.insert("P", vec![i(3), i(8)]);
    e.commit(t).unwrap();

    let node = e.why("N", vec![i(7), i(2)]).unwrap();
    assert!(node.rooted_in_base(), "tree:\n{}", node.render_text());
    let text = node.render_text();
    assert!(text.contains("P(1, 7) — base"), "{text}");
    assert!(text.contains("P(2, 7) — base"), "{text}");
    assert!(!text.contains("P(3, 8)"), "other group leaked in: {text}");
    e.validate_provenance().unwrap();
}

#[test]
fn why_declared_fact() {
    let src = "
        output relation C(x: bigint)
        C(42).
    ";
    let e = prov(src);
    let node = e.why("C", vec![i(42)]).unwrap();
    assert_eq!(node.justs.len(), 1);
    assert_eq!(node.justs[0].rule_index, None);
    assert!(node.render_text().contains("via declared fact"));
    e.validate_provenance().unwrap();
}

#[test]
fn why_not_reports_first_failing_literal() {
    let mut e = prov(JOIN_NEG);
    let mut t = Transaction::new();
    t.insert("E", vec![i(1), i(2)]);
    t.insert("E", vec![i(3), i(4)]);
    t.insert("Block", vec![i(3)]);
    e.commit(t).unwrap();

    // Missing join row: E(5, 6) does not exist.
    let r = e.why_not("Pair", vec![i(5), i(6)]).unwrap();
    assert!(!r.present && !r.input);
    assert_eq!(r.candidates.len(), 1);
    let c = &r.candidates[0];
    assert_eq!(c.stage, Some(0));
    assert!(c.failure.contains("E(5, 6)"), "failure: {}", c.failure);

    // Blocked by the negation: E(3, 4) exists but Block(3) does too.
    let r = e.why_not("Pair", vec![i(3), i(4)]).unwrap();
    let c = &r.candidates[0];
    assert!(
        c.failure.contains("negation violated") && c.failure.contains("Block(3)"),
        "failure: {}",
        c.failure
    );
    let text = r.render_text();
    assert!(text.contains("Pair(3, 4) is not derivable"), "{text}");
}

#[test]
fn why_not_aggregate_value_mismatch() {
    let src = "
        input relation P(p: bigint, sw: bigint)
        output relation N(sw: bigint, n: bigint)
        N(sw, n) :- P(p, sw), var n = count(p) group_by (sw).
    ";
    let mut e = prov(src);
    let mut t = Transaction::new();
    t.insert("P", vec![i(1), i(7)]);
    t.insert("P", vec![i(2), i(7)]);
    e.commit(t).unwrap();

    let r = e.why_not("N", vec![i(7), i(5)]).unwrap();
    let c = &r.candidates[0];
    assert!(
        c.failure.contains("aggregate to 2") && c.failure.contains('5'),
        "failure: {}",
        c.failure
    );

    // Empty group: nothing reaches the aggregate.
    let r = e.why_not("N", vec![i(9), i(0)]).unwrap();
    assert!(
        r.candidates[0].failure.contains("P("),
        "failure: {}",
        r.candidates[0].failure
    );
}

#[test]
fn why_and_why_not_direction_checks() {
    let mut e = prov(JOIN_NEG);
    let mut t = Transaction::new();
    t.insert("E", vec![i(1), i(2)]);
    e.commit(t).unwrap();

    // why on an absent row points at why_not.
    let err = e.why("Pair", vec![i(5), i(5)]).unwrap_err();
    assert!(err.to_string().contains("why_not"), "{err}");
    // why_not on a present row reports it as present.
    let r = e.why_not("Pair", vec![i(1), i(2)]).unwrap();
    assert!(r.present);
    // why_not on an input relation reports input semantics.
    let r = e.why_not("E", vec![i(9), i(9)]).unwrap();
    assert!(r.input);
    assert!(r.render_text().contains("never inserted"));
}

#[test]
fn why_needs_nothing_armed() {
    // The plain constructor is the only one: why, why_not, the
    // self-check and the summary all work on it.
    let mut e = Engine::from_source(JOIN_NEG).unwrap();
    let mut t = Transaction::new();
    t.insert("E", vec![i(1), i(2)]);
    e.commit(t).unwrap();

    let node = e.why("Pair", vec![i(1), i(2)]).unwrap();
    assert!(node.rooted_in_base() && !node.truncated);
    assert!(node.examined > 0, "the search reports what it cost");
    e.validate_provenance().unwrap();
    let r = e.why_not("Pair", vec![i(5), i(5)]).unwrap();
    assert_eq!(r.candidates.len(), 1);
    assert!(!r.truncated);
}

#[test]
fn retraction_prunes_derivations() {
    // Two rules derive the same row; retracting one support leaves
    // exactly the other derivation.
    let src = "
        input relation A(x: bigint)
        input relation B(x: bigint)
        output relation Out(x: bigint)
        Out(x) :- A(x).
        Out(x) :- B(x).
    ";
    let mut e = prov(src);
    let mut t = Transaction::new();
    t.insert("A", vec![i(1)]);
    t.insert("B", vec![i(1)]);
    e.commit(t).unwrap();
    let node = e.why("Out", vec![i(1)]).unwrap();
    assert_eq!(node.justs.len(), 2, "tree:\n{}", node.render_text());

    let mut t = Transaction::new();
    t.delete("A", vec![i(1)]);
    e.commit(t).unwrap();
    let node = e.why("Out", vec![i(1)]).unwrap();
    assert_eq!(node.justs.len(), 1);
    assert_eq!(node.justs[0].rule_index, Some(1));
    e.validate_provenance().unwrap();

    let mut t = Transaction::new();
    t.delete("B", vec![i(1)]);
    e.commit(t).unwrap();
    assert!(e.dump("Out").unwrap().is_empty());
    assert!(e.why("Out", vec![i(1)]).is_err());
    e.validate_provenance().unwrap();
}

#[test]
fn head_casts_are_inverted_and_wrapping_ones_still_found() {
    // `x as bit<4>` wraps: both E(3, _) and E(19, _) derive W(3, _).
    // The search first pins x to the unwrapped preimage (an indexed
    // probe) and falls back to the uninverted search when the store
    // counts more derivations than that found.
    let src = "
        input relation E(x: bigint, y: bigint)
        input relation K(x: bigint)
        output relation W(x: bit<4>, y: bigint)
        W(x as bit<4>, y) :- K(x), E(x, y).
    ";
    let mut e = prov(src);
    let mut t = Transaction::new();
    for x in [3, 19, 5] {
        t.insert("K", vec![i(x)]);
        t.insert("E", vec![i(x), i(7)]);
    }
    e.commit(t).unwrap();
    let w = |x: u128| vec![Value::bit(4, x), i(7)];

    let node = e.why("W", w(3)).unwrap();
    assert_eq!(node.justs.len(), 2, "tree:\n{}", node.render_text());
    let text = node.render_text();
    assert!(
        text.contains("E(3, 7)") && text.contains("E(19, 7)"),
        "{text}"
    );
    assert_eq!(e.why("W", w(5)).unwrap().justs.len(), 1);
    e.validate_provenance().unwrap();

    // Only the wrapping preimage left: still found.
    let mut t = Transaction::new();
    t.delete("K", vec![i(3)]);
    e.commit(t).unwrap();
    let node = e.why("W", w(3)).unwrap();
    assert!(node.render_text().contains("E(19, 7)"));
    e.validate_provenance().unwrap();

    // And an absent row is explained by the literal the inverted head
    // pins, not by an unrelated row the rule happens to derive.
    let r = e.why_not("W", w(6)).unwrap();
    assert!(
        r.candidates[0].failure.contains("no row matches K(6)"),
        "{}",
        r.render_text()
    );
}

#[test]
fn unindexed_scan_over_budget_reports_truncated_not_missing() {
    // `In` carries no arrangement (it is only ever a rule's first atom),
    // so a head-bound probe has to scan it — and it is bigger than the
    // search budget.
    let src = "
        input relation In(x: bigint, y: bigint)
        output relation Out(y: bigint)
        Out(y) :- In(x, y).
    ";
    let mut e = prov(src);
    let mut t = Transaction::new();
    for x in 0..=SEARCH_BUDGET as i128 {
        t.insert("In", vec![i(x), i(0)]);
    }
    e.commit(t).unwrap();

    let node = e.why("Out", vec![i(0)]).unwrap();
    assert!(node.truncated && node.justs.is_empty());
    assert!(!node.rooted_in_base());
    assert!(
        node.render_text().contains("truncated"),
        "{}",
        node.render_text()
    );
    let r = e.why_not("Out", vec![i(1)]).unwrap();
    assert!(r.truncated);
    assert!(
        r.candidates[0].failure.contains("truncated"),
        "{}",
        r.render_text()
    );
    // The self-check skips what it cannot decide rather than failing.
    e.validate_provenance().unwrap();
}

#[test]
fn touch_stamps_carry_trace_and_commit() {
    let mut e = prov(JOIN_NEG);
    e.set_commit_trace(777);
    let mut t = Transaction::new();
    t.insert("E", vec![i(1), i(2)]);
    e.commit(t).unwrap();

    let touch = e.last_touch("Pair", &[i(1), i(2)]).unwrap();
    assert_eq!(touch, Some((777, 1)));
    let node = e.why("Pair", vec![i(1), i(2)]).unwrap();
    assert_eq!(node.touch, Some((777, 1)));
    assert!(node.render_text().contains("[trace 777 @ commit 1]"));

    // Untraced commits stamp trace 0, rendered without a trace id.
    let mut t = Transaction::new();
    t.insert("E", vec![i(5), i(6)]);
    e.commit(t).unwrap();
    assert_eq!(e.last_touch("Pair", &[i(5), i(6)]).unwrap(), Some((0, 2)));

    // Retraction forgets the stamp.
    let mut t = Transaction::new();
    t.delete("E", vec![i(1), i(2)]);
    e.commit(t).unwrap();
    assert_eq!(e.last_touch("Pair", &[i(1), i(2)]).unwrap(), None);
}

#[test]
fn summary_json_reports_row_counts() {
    let mut e = prov(JOIN_NEG);
    let empty = e.provenance_summary_json();
    assert!(empty.contains("\"schema\":\"nerpa.why.v1\""), "{empty}");
    assert!(empty.contains("\"rows\":0,"), "{empty}");
    assert!(empty.contains("\"relations\":[]"), "{empty}");

    let mut t = Transaction::new();
    t.insert("E", vec![i(1), i(2)]);
    t.insert("E", vec![i(3), i(4)]);
    e.commit(t).unwrap();
    let json = e.provenance_summary_json();
    assert!(json.contains("\"enabled\":true"), "{json}");
    assert!(json.contains("\"commits\":1"), "{json}");
    assert!(
        json.contains("{\"relation\":\"Pair\",\"rows\":2}"),
        "{json}"
    );
    // Inputs are not listed: they are mirrored, not derived.
    assert!(!json.contains("\"relation\":\"E\""), "{json}");
}

// ---------------------------------------------------------------------------
// Churn properties (satellite: proptests)

/// The program the churn properties run against — one rule of every
/// shape the search has to walk: a join through a negation, an
/// aggregate keyed by the head, an aggregate whose head drops the key
/// (several groups derive one row), a FlatMap over a collection with
/// duplicates (one row, two derivations), a wrapping cast in the head,
/// and a recursive closure over a negated base.
const CHURN: &str = "
    input relation E(x: bigint, y: bigint)
    input relation Block(x: bigint)
    input relation Bag(x: bigint, items: Vec<bigint>)
    output relation Pair(x: bigint, y: bigint)
    output relation Deg(x: bigint, n: bigint)
    output relation Total(n: bigint)
    output relation Item(x: bigint, v: bigint)
    output relation Par(p: bit<1>, y: bigint)
    output relation Reach(x: bigint, y: bigint)
    Pair(x, y) :- E(x, y), not Block(x).
    Deg(x, n) :- E(x, y), var n = count(y) group_by (x).
    Total(n) :- E(x, y), var n = count(y) group_by (x).
    Item(x, v) :- Bag(x, vs), var v = FlatMap(vs).
    Par(x as bit<1>, y) :- E(x, y).
    Reach(x, y) :- Pair(x, y).
    Reach(x, z) :- Reach(x, y), E(y, z).
";

/// Derived relations of [`CHURN`] with their candidate universe (every
/// row the 0..4 input domain could possibly derive, and then some).
fn churn_universe() -> Vec<(&'static str, Vec<Vec<Value>>)> {
    let pairs = |f: &dyn Fn(i128, i128) -> Vec<Value>| -> Vec<Vec<Value>> {
        (0..5)
            .flat_map(|a| (0..5).map(move |b| (a, b)))
            .map(|(a, b)| f(a, b))
            .collect()
    };
    let int2 = |a, b| vec![i(a), i(b)];
    vec![
        ("Pair", pairs(&int2)),
        ("Deg", pairs(&int2)),
        ("Total", (0..6).map(|n| vec![i(n)]).collect()),
        ("Item", pairs(&int2)),
        (
            "Par",
            pairs(&|a, b| vec![Value::bit(1, (a % 2) as u128), i(b)]),
        ),
        ("Reach", pairs(&int2)),
    ]
}

/// The live input rows, maintained by the test independently of the
/// engine.
type Live = BTreeMap<&'static str, BTreeSet<Vec<Value>>>;

fn render(relation: &str, row: &[Value]) -> String {
    let vals: Vec<String> = row.iter().map(Value::to_string).collect();
    format!("{relation}({})", vals.join(", "))
}

/// Walk a reported derivation tree and check it *reproduces* the tuple:
/// every leaf is a base fact present in the live input sets, every
/// interior node is visible in the engine, and every satisfied negation
/// really has no live match.
fn check_tree(e: &Engine, node: &WhyNode, live: &Live) {
    if node.base {
        let rows = live
            .get(node.relation.as_str())
            .unwrap_or_else(|| panic!("unexpected base relation {}", node.relation));
        assert!(
            rows.contains(&node.row),
            "base leaf {} not in live inputs",
            render(&node.relation, &node.row)
        );
        return;
    }
    assert!(
        e.dump(&node.relation).unwrap().contains(&node.row),
        "interior node {:?} not visible in {}",
        node.row,
        node.relation
    );
    assert!(!node.justs.is_empty() || node.repeated);
    for j in &node.justs {
        for s in &j.supports {
            match s {
                WhySupport::Fact(n) => check_tree(e, n, live),
                WhySupport::Absent { relation, pattern } => {
                    let rows = &live[relation.as_str()];
                    assert!(
                        !rows.iter().any(|r| render(relation, r) == *pattern),
                        "negation {pattern} cited, but a live row matches it"
                    );
                }
            }
        }
    }
}

/// One churn op as `(relation, row, insert)`; kinds 0..=5 are
/// insert/delete of E, Block, Bag.
fn churn_op(kind: u8, x: i128, y: i128) -> (&'static str, Vec<Value>, bool) {
    match kind {
        0 | 1 => ("E", vec![i(x), i(y)], kind == 0),
        2 | 3 => ("Block", vec![i(x)], kind == 2),
        // `y` twice: one Bag row derives Item(x, y) two ways.
        _ => (
            "Bag",
            vec![i(x), Value::vec(vec![i(x), i(y), i(y)])],
            kind == 4,
        ),
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(32))]

    /// After every transaction of a random insert/retract history: each
    /// visible derived row — joined, negated, aggregated, flat-mapped,
    /// cast and recursive — has a derivation tree rooted in live base
    /// facts (re-evaluating the tree reproduces the tuple); for
    /// chain-maintained rows the search finds exactly the evaluator's
    /// derivation count; and `why` succeeds exactly where `why_not`
    /// says *present*.
    #[test]
    fn churn_trees_reproduce_and_never_dangle(
        ops in proptest::collection::vec((0u8..6, 0i128..4, 0i128..4), 1..30)
    ) {
        let mut e = prov(CHURN);
        let mut live: Live = ["E", "Block", "Bag"].into_iter().map(|r| (r, BTreeSet::new())).collect();
        for (step, (kind, x, y)) in ops.iter().enumerate() {
            let (rel, row, insert) = churn_op(*kind, *x, *y);
            let mut t = Transaction::new();
            if insert {
                t.insert(rel, row.clone());
                live.get_mut(rel).unwrap().insert(row);
            } else {
                t.delete(rel, row.clone());
                live.get_mut(rel).unwrap().remove(&row);
            }
            e.set_commit_trace(step as u64 + 1);
            e.commit(t).unwrap();

            // The search and the evaluator agree on every count.
            e.validate_provenance().unwrap();

            for (rel, universe) in churn_universe() {
                let visible = e.dump_weights(rel).unwrap();
                // Every visible row explains down to live base facts.
                for (row, count) in &visible {
                    prop_assert!(universe.contains(row), "universe misses {}", render(rel, row));
                    let node = e.why(rel, row.clone()).unwrap();
                    prop_assert!(node.rooted_in_base(), "tree:\n{}", node.render_text());
                    prop_assert!(!node.truncated && node.touch.is_some());
                    check_tree(&e, &node, &live);
                    if rel != "Reach" {
                        // An independent count through the public API:
                        // one justification per derivation, up to the
                        // display cap of 4.
                        prop_assert_eq!(
                            node.justs.len() as isize, (*count).min(4),
                            "tree:\n{}", node.render_text()
                        );
                        prop_assert_eq!(node.note.is_some(), *count > 4);
                    }
                }
                // why succeeds ⇔ why_not says present; an absent row
                // gets a concrete failure per candidate rule.
                for row in universe {
                    let r = e.why_not(rel, row.clone()).unwrap();
                    prop_assert_eq!(r.present, visible.iter().any(|(v, _)| *v == row));
                    prop_assert_eq!(e.why(rel, row.clone()).is_ok(), r.present);
                    if !r.present {
                        prop_assert!(!r.candidates.is_empty() && !r.truncated);
                        prop_assert!(r.candidates.iter().all(|c| !c.failure.is_empty()));
                        prop_assert_eq!(e.last_touch(rel, &row).unwrap(), None);
                    }
                }
            }
        }
    }

    /// Inverse histories drain everything: after committing ops and
    /// their exact inverses no derived row, no stamp and no byte of
    /// per-row state survives.
    #[test]
    fn inverse_history_drains_rows_and_stamps(
        ops in proptest::collection::vec((0u8..3, 0i128..5, 0i128..5), 1..12)
    ) {
        let mut e = prov(CHURN);
        let fresh_bytes = e.approx_bytes();
        let rows: Vec<_> = ops.iter().map(|(k, x, y)| churn_op(k * 2, *x, *y)).collect();
        let mut t = Transaction::new();
        for (rel, row, _) in &rows {
            t.insert(*rel, row.clone());
        }
        e.commit(t).unwrap();
        e.validate_provenance().unwrap();
        let seen: Vec<(&str, Vec<Value>)> = churn_universe()
            .into_iter()
            .flat_map(|(rel, _)| e.dump(rel).unwrap().into_iter().map(move |r| (rel, r)))
            .collect();
        for (rel, row) in &seen {
            prop_assert_eq!(e.last_touch(rel, row).unwrap(), Some((0, 1)));
        }

        let mut t = Transaction::new();
        for (rel, row, _) in &rows {
            t.delete(*rel, row.clone());
        }
        e.commit(t).unwrap();
        e.validate_provenance().unwrap();
        for (rel, row) in &seen {
            prop_assert!(e.dump(rel).unwrap().is_empty());
            prop_assert_eq!(e.last_touch(rel, row).unwrap(), None);
        }
        let json = e.provenance_summary_json();
        prop_assert!(json.contains("\"rows\":0,"), "{json}");
        prop_assert_eq!(e.approx_bytes(), fresh_bytes);
        prop_assert_eq!(e.approx_bytes(), e.approx_bytes_recompute());
    }
}
