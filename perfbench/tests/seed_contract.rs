//! The benchmark's own contract on the seed code: every job checks out
//! against its reference, and chess decides 41 of its 42 searches.
//! One pass per workload; run with `--release` to keep it quick.

use patty_perfbench::{run, Outcome, Settings, Workload};

fn one_pass(workload: Workload, trace: bool) -> Outcome {
    run(&Settings {
        workload,
        seed: 1,
        seconds: 0.0,
        trace,
        patty: None,
    })
    .expect("the run completes")
}

fn value(outcome: &Outcome, name: &str) -> f64 {
    outcome
        .metrics
        .iter()
        .find(|m| m.name == name)
        .map(|m| m.value)
        .expect(name)
}

#[test]
fn analyze_jobs_match_the_references() {
    let o = one_pass(Workload::Analyze, false);
    assert_eq!((o.attempted, o.failed), (22, 0));
    assert_eq!(value(&o, "ok_share"), 1.0);
}

#[test]
fn validate_reaches_the_expected_verdicts() {
    let o = one_pass(Workload::Validate, false);
    assert_eq!(o.failed, 0);
    assert_eq!(value(&o, "ok_share"), 1.0);
    assert_eq!(value(&o, "decided_share"), 41.0 / 42.0);
}

#[test]
fn execute_matches_the_sequential_fold() {
    let o = one_pass(Workload::Execute, false);
    assert_eq!(o.failed, 0);
    assert_eq!(value(&o, "ok_share"), 1.0);
}

#[test]
fn traced_analyze_accounts_for_the_job_time() {
    // Two passes: one untraced, one traced.
    let o = one_pass(Workload::Analyze, true);
    assert_eq!(o.failed, 0);
    assert!(value(&o, "unattributed_share") < 0.05);
    assert_eq!(value(&o, "patterns.instances"), 42.0);
    assert_eq!(
        value(&o, "chess.schedules"),
        0.0,
        "analyze runs no chess search"
    );
}

#[test]
fn traced_validate_counts_the_capped_search() {
    let o = one_pass(Workload::Validate, true);
    assert_eq!(o.failed, 0);
    assert_eq!(value(&o, "chess.capped"), 1.0);
    assert!(value(&o, "unattributed_share") < 0.05);
}
