//! Tasks are polled futures: a granted step resumes a task where it
//! stopped, and a finished schedule releases everything its tasks held.

use patty_chess::{explore, explore_dpor, ChessOptions, ThreadCtx};
use std::cell::Cell;
use std::rc::Rc;

/// Two tasks racing on one cell; the spawned task holds `marker`.
async fn race_holding(ctx: ThreadCtx, marker: Rc<()>) {
    let x = ctx.shared("x", 0i64);
    let xc = x.clone();
    let t = ctx
        .spawn(move |ctx| async move {
            let _held = marker;
            let v = xc.read(&ctx).await;
            xc.write(&ctx, v + 1).await;
        })
        .await;
    let v = x.read(&ctx).await;
    x.write(&ctx, v + 1).await;
    ctx.join(t).await;
}

#[test]
fn schedules_release_their_tasks() {
    let marker = Rc::new(());
    let m = marker.clone();
    let report = explore(move |ctx| race_holding(ctx, m.clone()), ChessOptions::default());
    assert!(report.schedules > 1);
    assert_eq!(Rc::strong_count(&marker), 1, "explore leaked task state");

    let m = marker.clone();
    let report = explore_dpor(move |ctx| race_holding(ctx, m.clone()), ChessOptions::default());
    assert!(report.schedules > 1);
    assert_eq!(Rc::strong_count(&marker), 1, "explore_dpor leaked task state");
}

#[test]
fn a_task_body_runs_once_per_schedule() {
    let starts = Rc::new(Cell::new(0u32));
    let counter = starts.clone();
    let report = explore(
        move |ctx| {
            let counter = counter.clone();
            async move {
                counter.set(counter.get() + 1);
                let x = ctx.shared("x", 0i64);
                for _ in 0..1_000 {
                    let v = x.read(&ctx).await;
                    x.write(&ctx, v + 1).await;
                }
                ctx.check(x.read(&ctx).await == 1_000, "sequential increments").await;
            }
        },
        ChessOptions::default(),
    );
    assert_eq!(report.schedules, 1);
    assert!(!report.failed(), "{:?}", report.failures);
    assert_eq!(report.total_steps, 2_002);
    assert_eq!(starts.get(), 1, "the body was re-run from its start");
}
