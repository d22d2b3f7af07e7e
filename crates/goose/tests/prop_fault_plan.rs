//! A fault plan reads back from its compact text, and from nothing else:
//! `FaultPlan`'s `FromStr` is the exact inverse of `write_compact`, so a
//! counterexample's plan can be rebuilt from the stream record that
//! carries only that text.

use goose_rt::fault::{FaultPlan, NetFault, TornMode};
use proptest::prelude::*;

fn arb_plan() -> impl Strategy<Value = FaultPlan> {
    let torn = prop_oneof![
        Just(None),
        Just(Some(TornMode::KeepAll)),
        Just(Some(TornMode::KeepNone)),
        any::<u64>().prop_map(|tag| Some(TornMode::Subset(tag))),
    ];
    let fault = prop_oneof![
        Just(NetFault::Drop),
        Just(NetFault::Duplicate),
        Just(NetFault::Delay)
    ];
    let disk_fail = prop_oneof![Just(None), (any::<u8>(), any::<u64>()).prop_map(Some)];
    (
        proptest::collection::vec(0u64..1_000, 0..4),
        torn,
        disk_fail,
        proptest::collection::btree_map(0u64..1_000, fault, 0..4),
    )
        .prop_map(|(transient_io, torn, disk_fail, net)| FaultPlan {
            transient_io: transient_io.into_iter().collect(),
            torn,
            disk_fail,
            net,
        })
}

/// The compact text of `plan` with its `at`-th token changed by `how`:
/// each change leaves text `write_compact` never writes for any plan.
fn mutated(plan: &FaultPlan, at: usize, how: usize) -> String {
    let text = plan.compact();
    let mut tokens: Vec<String> = text.split('+').map(str::to_string).collect();
    let at = at % tokens.len();
    let token = tokens[at].clone();
    match (how % 4, token.find(|c: char| c.is_ascii_digit())) {
        // A leading zero on the token's first number.
        (0, Some(digit)) => tokens[at] = format!("{}0{}", &token[..digit], &token[digit..]),
        // The token twice (a token with no number, too).
        (0 | 1, _) => tokens.insert(at, token),
        // Trailing garbage.
        (2, _) => tokens[at] = format!("{token}x"),
        // An empty token before it.
        _ => tokens.insert(at, String::new()),
    }
    tokens.join("+")
}

proptest! {
    #[test]
    fn a_plan_reads_back_from_its_compact_text(plan in arb_plan()) {
        let text = plan.compact();
        prop_assert_eq!(text.parse::<FaultPlan>(), Ok(plan));
    }

    #[test]
    fn a_mutated_token_is_refused(plan in arb_plan(), at in 0usize..8, how in 0usize..4) {
        let text = mutated(&plan, at, how);
        prop_assert!(text.parse::<FaultPlan>().is_err(), "{} read back from {:?}", text, plan);
        prop_assert!(FaultPlan::check_compact(&text).is_err(), "{} passed the check", text);
        prop_assert!(FaultPlan::check_compact(&plan.compact()).is_ok());
    }
}

#[test]
fn texts_it_never_writes_are_refused() {
    for text in [
        "",
        "+",
        "io@1+",
        "+io@1",
        "io@01",
        "io@-1",
        "io@+1",
        "io@2+io@1",
        "io@1+io@1",
        "torn-all+io@1",
        "torn-all+torn-none",
        "torn-sub",
        "torn-sub01",
        "d1@5+torn-all",
        "d1@5+d2@6",
        "d1@",
        "d@5",
        "d1",
        "net-drop@2+net-dup@1",
        "net-drop@2+d1@5",
        "net-lose@1",
        "net-drop@1+net-drop@1",
        "-+io@1",
        "io@18446744073709551616",
        " io@1",
        "IO@1",
        "d256@1",
    ] {
        assert!(
            text.parse::<FaultPlan>().is_err(),
            "{text:?} read as a plan"
        );
        assert!(FaultPlan::check_compact(text).is_err(), "{text:?} passed");
    }
    let every = "io@0+io@7+torn-sub42+d2@9+net-drop@0+net-dup@3+net-delay@10";
    let plan: FaultPlan = every.parse().expect("a written plan");
    assert_eq!(plan.compact(), every);
    assert_eq!("-".parse::<FaultPlan>(), Ok(FaultPlan::default()));
}
