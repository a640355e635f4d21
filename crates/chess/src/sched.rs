//! The deterministic cooperative virtual-time scheduler.
//!
//! Like CHESS \[24\], the tester owns every scheduling decision — but
//! unlike the first generation of this module there are **no OS threads**
//! anywhere: controlled "threads" are scheduler-owned *tasks* driven one
//! decision at a time on the caller's thread. Every [`Shared`] access,
//! [`CMutex`] lock/unlock, [`CChannel`] send/recv, [`ThreadCtx::step`] and
//! [`ThreadCtx::fault_point`] is a yield point; blocking waits are
//! virtual-time events, so deadlock and livelock detection are exact and a
//! `max_steps` abort is byte-reproducible — no wall-clock timeout can
//! smear a verdict.
//!
//! ## Resumption by polling
//!
//! A task is a future — the test body and every spawned task are `async`
//! blocks — and every yield point is an `.await` on a small scheduler
//! future. Granting a task one step polls its future once: the first
//! yield point it reaches spends the grant on its operation, and the next
//! one returns `Pending`, leaving the task suspended exactly where it
//! stands. An operation that cannot proceed (a held mutex, an empty
//! channel, an unfinished join) marks the task blocked and returns
//! `Pending`; the grant after it clears retries the operation. Code
//! between yield points runs exactly once. The futures are polled with a
//! no-op waker: the scheduler, not a wake-up, decides who runs next.
//!
//! ## Trace hashes
//!
//! Each run maintains a running FNV-1a hash over the fault scenario and
//! the decision sequence. Failures carry the hash of their decision
//! prefix (`sched_trace_hash`), so any reported failure can be replayed
//! byte-stably from the hash alone (see [`crate::explore::replay`] and
//! [`crate::joint`]).
//!
//! A vector-clock happens-before detector runs piggy-backed on the same
//! yield points and reports data races even on schedules where the race
//! does not corrupt the result; the same clocks drive the DPOR explorer's
//! happens-before pruning ([`crate::dpor`]).

use crate::clock::VectorClock;
use std::any::Any;
use std::cell::{Cell, RefCell, RefMut};
use std::collections::VecDeque;
use std::future::{poll_fn, Future};
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::pin::Pin;
use std::rc::Rc;
use std::task::{Context, Poll, Waker};

/// What went wrong on some schedule.
#[derive(Clone, Debug, PartialEq, Eq, PartialOrd, Ord)]
pub enum FailureKind {
    /// Two concurrent conflicting accesses to a shared cell.
    Race { cell: String },
    /// All live threads blocked.
    Deadlock,
    /// A controlled thread panicked.
    Panic(String),
    /// An explicit `check` failed.
    CheckFailed(String),
    /// The schedule exceeded the step limit (livelock guard).
    StepLimit,
}

impl std::fmt::Display for FailureKind {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            FailureKind::Race { cell } => write!(f, "data race on `{cell}`"),
            FailureKind::Deadlock => write!(f, "deadlock"),
            FailureKind::Panic(m) => write!(f, "panic: {m}"),
            FailureKind::CheckFailed(m) => write!(f, "check failed: {m}"),
            FailureKind::StepLimit => write!(f, "step limit exceeded"),
        }
    }
}

/// A failure together with the schedule (sequence of chosen thread ids)
/// that reproduces it, the stable trace hash of that decision prefix, and
/// whether an injected fault had already fired when it was observed.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct Failure {
    pub kind: FailureKind,
    pub schedule: Vec<usize>,
    /// FNV-1a hash of (fault scenario, decision prefix): the
    /// `sched_trace_hash` quoted in diagnostics and accepted by replay.
    pub trace_hash: u64,
    /// True when an injected fault fired before this failure was observed
    /// — joint exploration uses it to separate fault-induced outcomes
    /// (an injected panic, the deadlock it causes downstream) from real
    /// concurrency bugs.
    pub fault_induced: bool,
}

/// What an injected fault does when its call arrives (the chess-side
/// mirror of `patty_faultsim::FaultKind`, with virtual ticks instead of
/// wall-clock sleeps).
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum InjectKind {
    /// Panic inside the task at the fault point.
    Panic,
    /// Stall the task for `n` virtual ticks (models a slow stage).
    DelayTicks(u64),
    /// Tell the fault point's caller to drop the item
    /// ([`Inject::Drop`]).
    DropItem,
}

impl std::fmt::Display for InjectKind {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            InjectKind::Panic => write!(f, "panic"),
            InjectKind::DelayTicks(n) => write!(f, "delay({n})"),
            InjectKind::DropItem => write!(f, "drop"),
        }
    }
}

/// One armed fault: fires at the `nth` (0-based) call of the fault point
/// labelled `label`, once per run.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct FaultPoint {
    pub label: String,
    pub nth: u64,
    pub kind: InjectKind,
}

/// A set of armed faults driven jointly with the schedule; the empty
/// scenario is the plain (fault-free) exploration.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct FaultScenario {
    pub faults: Vec<FaultPoint>,
}

impl FaultScenario {
    /// The fault-free scenario.
    pub fn none() -> FaultScenario {
        FaultScenario::default()
    }

    /// A single-fault scenario.
    pub fn one(label: impl Into<String>, nth: u64, kind: InjectKind) -> FaultScenario {
        FaultScenario { faults: vec![FaultPoint { label: label.into(), nth, kind }] }
    }

    /// Stable textual encoding (seeds the trace hash, printed in reports).
    pub fn encode(&self) -> String {
        if self.faults.is_empty() {
            return "no-fault".to_string();
        }
        self.faults
            .iter()
            .map(|f| format!("{}@{}:{}", f.label, f.nth, f.kind))
            .collect::<Vec<_>>()
            .join(";")
    }
}

/// What a [`ThreadCtx::fault_point`] call tells its caller to do.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Inject {
    /// No fault (or a delay that already elapsed): run the item normally.
    Run,
    /// A `DropItem` fault fired: the caller should lose this item.
    Drop,
}

// ---------------------------------------------------------------------------
// Trace hashing (FNV-1a 64).

const FNV_OFFSET: u64 = 0xcbf2_9ce4_8422_2325;
const FNV_PRIME: u64 = 0x0000_0100_0000_01b3;

fn fnv_bytes(mut h: u64, bytes: &[u8]) -> u64 {
    for &b in bytes {
        h ^= b as u64;
        h = h.wrapping_mul(FNV_PRIME);
    }
    h
}

/// Hash seed for a fault scenario (the empty scenario included).
pub(crate) fn scenario_seed(scenario: &FaultScenario) -> u64 {
    fnv_bytes(FNV_OFFSET, scenario.encode().as_bytes())
}

/// Fold one scheduling decision into a running trace hash.
pub(crate) fn hash_step(h: u64, tid: usize) -> u64 {
    fnv_bytes(h, &(tid as u64).to_le_bytes())
}

// ---------------------------------------------------------------------------
// Internal scheduler state.

/// Why a task cannot currently run.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub(crate) enum BlockReason {
    Mutex(usize),
    Join(usize),
    /// Waiting to receive on an empty channel.
    Recv(usize),
    /// Sleeping until the virtual clock reaches the target.
    Until(u64),
}

#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub(crate) enum TState {
    Runnable,
    Blocked(BlockReason),
    Finished,
}

/// Identity of a decision operation — drives the DPOR dependence relation
/// and labels blocked attempts.
#[derive(Clone, Copy, Debug, PartialEq, Eq, PartialOrd, Ord)]
pub(crate) enum OpKey {
    Read(usize),
    /// Also covers `fetch_modify` (write-like for dependence purposes).
    Write(usize),
    Lock(usize),
    Unlock(usize),
    Send(usize),
    Recv(usize),
    Join(usize),
    Spawn,
    Fault(usize),
    Step,
    Check,
    Sleep,
}

/// What one scheduling decision did — one entry per decision, used by the
/// DPOR explorer to compute backtrack points.
#[derive(Clone, Debug)]
pub(crate) struct StepInfo {
    pub tid: usize,
    /// The decision op performed (or attempted, if the task blocked on
    /// it); `None` when the task finished without reaching a fresh
    /// operation.
    pub op: Option<OpKey>,
    /// The task's vector clock after the step.
    pub clock: VectorClock,
}

/// A controlled task's body, as the scheduler polls it.
pub type TaskFuture = Pin<Box<dyn Future<Output = ()>>>;

/// A test body as the explorers hold it: called once per schedule with
/// the main task's context.
pub(crate) type TestFn = Rc<dyn Fn(ThreadCtx) -> TaskFuture>;

/// Erase a test body's future type.
pub(crate) fn test_fn<F, Fut>(test: F) -> TestFn
where
    F: Fn(ThreadCtx) -> Fut + 'static,
    Fut: Future<Output = ()> + 'static,
{
    Rc::new(move |ctx| Box::pin(test(ctx)))
}

struct Task {
    /// `None` while the task is being polled and once it has finished.
    future: Option<TaskFuture>,
    state: TState,
    clock: VectorClock,
    finish_clock: Option<VectorClock>,
}

struct CellMeta {
    name: String,
    last_write: Option<(usize, VectorClock)>,
    reads: Vec<(usize, VectorClock)>,
}

struct MutexMeta {
    owner: Option<usize>,
    clock: VectorClock,
}

pub(crate) struct State {
    tasks: Vec<Task>,
    /// Whether the current step's single operation grant is unspent.
    granted: bool,
    cells: Vec<CellMeta>,
    mutexes: Vec<MutexMeta>,
    /// Sender clocks of each channel's queued messages (FIFO), joined at
    /// receive to establish the happens-before edge of the handoff.
    channels: Vec<VecDeque<VectorClock>>,
    failures: Vec<Failure>,
    /// Chosen tids, in order — the schedule of this run.
    decisions: Vec<usize>,
    steps: u64,
    aborted: bool,
    /// The virtual clock: +1 per decision, jumps to the earliest wake
    /// target when only sleepers remain.
    virtual_time: u64,
    /// Running FNV-1a trace hash (seeded by the fault scenario).
    cur_hash: u64,
    scenario: FaultScenario,
    fault_fired: Vec<bool>,
    /// Per-label fault point call counters (shared across tasks, like
    /// faultsim's per-stage counters span replicas).
    fault_calls: Vec<(String, u64)>,
    any_fault_fired: bool,
    step_infos: Vec<StepInfo>,
}

impl State {
    fn block_cleared(&self, r: &BlockReason) -> bool {
        match r {
            BlockReason::Mutex(m) => self.mutexes[*m].owner.is_none(),
            BlockReason::Join(t) => matches!(self.tasks[*t].state, TState::Finished),
            BlockReason::Recv(c) => !self.channels[*c].is_empty(),
            BlockReason::Until(t) => self.virtual_time >= *t,
        }
    }

    /// Record a failure (deduplicated by kind) with the current schedule
    /// prefix and trace hash; does not abort by itself.
    fn observe(&mut self, kind: FailureKind) {
        if self.failures.iter().any(|f| f.kind == kind) {
            return;
        }
        self.failures.push(Failure {
            kind,
            schedule: self.decisions.clone(),
            trace_hash: self.cur_hash,
            fault_induced: self.any_fault_fired,
        });
    }

    /// Add a task; a spawned task's clock starts after its parent's.
    fn register_task(&mut self, parent: Option<usize>, future: TaskFuture) {
        let tid = self.tasks.len();
        let mut clock = match parent {
            Some(p) => self.tasks[p].clock.clone(),
            None => VectorClock::new(),
        };
        clock.tick(tid);
        if let Some(p) = parent {
            self.tasks[p].clock.tick(p);
            clock.join(&self.tasks[p].clock);
        }
        self.tasks.push(Task {
            future: Some(future),
            state: TState::Runnable,
            clock,
            finish_clock: None,
        });
    }

    /// Record the step of a performed (or attempted) decision op.
    fn commit(&mut self, tid: usize, key: OpKey) {
        let clock = self.tasks[tid].clock.clone();
        self.step_infos.push(StepInfo { tid, op: Some(key), clock });
    }

    fn finish(&mut self, tid: usize) {
        let t = &mut self.tasks[tid];
        t.finish_clock = Some(t.clock.clone());
        t.state = TState::Finished;
    }

    fn race_check(&mut self, tid: usize, cell_id: usize, is_write: bool) {
        self.tasks[tid].clock.tick(tid);
        let clock = self.tasks[tid].clock.clone();
        let cell = &mut self.cells[cell_id];
        let mut race = cell
            .last_write
            .as_ref()
            .map(|(wt, wc)| *wt != tid && !wc.le(&clock))
            .unwrap_or(false);
        if is_write {
            race |= cell.reads.iter().any(|(rt, rc)| *rt != tid && !rc.le(&clock));
            cell.last_write = Some((tid, clock));
            cell.reads.clear();
        } else {
            cell.reads.push((tid, clock));
        }
        if race {
            let name = self.cells[cell_id].name.clone();
            self.observe(FailureKind::Race { cell: name });
        }
    }
}

thread_local! {
    /// True while a controlled task is being polled: the panic hook stays
    /// silent, since task panics are caught and recorded as failures.
    static IN_TASK: Cell<bool> = const { Cell::new(false) };
}

fn install_quiet_hook() {
    use std::sync::Once;
    static ONCE: Once = Once::new();
    ONCE.call_once(|| {
        let prev = std::panic::take_hook();
        std::panic::set_hook(Box::new(move |info| {
            if !IN_TASK.with(|f| f.get()) {
                prev(info);
            }
        }));
    });
}

fn payload_str(payload: &(dyn Any + Send)) -> String {
    payload
        .downcast_ref::<&str>()
        .map(|s| s.to_string())
        .or_else(|| payload.downcast_ref::<String>().cloned())
        .unwrap_or_else(|| "<non-string panic>".into())
}

/// Returns `Pending` once: the task stays parked (its state says until
/// when) and the grant that wakes it moves on without spending itself.
fn suspend() -> impl Future<Output = ()> {
    let mut parked = false;
    poll_fn(move |_| {
        if std::mem::replace(&mut parked, true) {
            Poll::Ready(())
        } else {
            Poll::Pending
        }
    })
}

pub(crate) struct Sched {
    state: RefCell<State>,
    max_steps: u64,
}

/// Everything one run produced.
pub(crate) struct RunResult {
    pub failures: Vec<Failure>,
    pub decisions: Vec<usize>,
    pub steps: u64,
    pub trace_hash: u64,
    pub step_infos: Vec<StepInfo>,
}

impl Sched {
    fn new(max_steps: u64, scenario: FaultScenario) -> Rc<Sched> {
        install_quiet_hook();
        let cur_hash = scenario_seed(&scenario);
        let fault_fired = vec![false; scenario.faults.len()];
        Rc::new(Sched {
            state: RefCell::new(State {
                tasks: Vec::new(),
                granted: false,
                cells: Vec::new(),
                mutexes: Vec::new(),
                channels: Vec::new(),
                failures: Vec::new(),
                decisions: Vec::new(),
                steps: 0,
                aborted: false,
                virtual_time: 0,
                cur_hash,
                scenario,
                fault_fired,
                fault_calls: Vec::new(),
                any_fault_fired: false,
                step_infos: Vec::new(),
            }),
            max_steps,
        })
    }

    /// The sorted set of tasks the driver may grant the next step to.
    fn runnable(&self) -> Vec<usize> {
        let st = self.state.borrow();
        st.tasks
            .iter()
            .enumerate()
            .filter_map(|(i, t)| match &t.state {
                TState::Runnable => Some(i),
                TState::Blocked(r) => st.block_cleared(r).then_some(i),
                TState::Finished => None,
            })
            .collect()
    }

    /// Jump the virtual clock to the earliest sleeper's wake target.
    /// Returns false when there is nothing to wake.
    fn advance_time(&self) -> bool {
        let mut st = self.state.borrow_mut();
        let target = st
            .tasks
            .iter()
            .filter_map(|t| match t.state {
                TState::Blocked(BlockReason::Until(x)) => Some(x),
                _ => None,
            })
            .min();
        match target {
            Some(x) if x > st.virtual_time => {
                st.virtual_time = x;
                true
            }
            _ => false,
        }
    }

    /// Count a decision into the schedule, hash and clocks. Returns false
    /// when the step limit was hit (the run aborts).
    fn record_decision(&self, tid: usize) -> bool {
        let mut st = self.state.borrow_mut();
        st.decisions.push(tid);
        st.cur_hash = hash_step(st.cur_hash, tid);
        st.steps += 1;
        st.virtual_time += 1;
        if st.steps > self.max_steps {
            st.observe(FailureKind::StepLimit);
            st.aborted = true;
            return false;
        }
        true
    }

    /// Give `tid` one step: poll its future once with a fresh grant.
    fn step_task(&self, tid: usize) {
        let mut future = {
            let mut st = self.state.borrow_mut();
            st.granted = true;
            let t = &mut st.tasks[tid];
            t.state = TState::Runnable;
            t.future.take().expect("a runnable task has a future")
        };
        let prev = IN_TASK.with(|f| f.replace(true));
        let mut cx = Context::from_waker(Waker::noop());
        let result = catch_unwind(AssertUnwindSafe(|| future.as_mut().poll(&mut cx)));
        IN_TASK.with(|f| f.set(prev));
        let mut st = self.state.borrow_mut();
        st.granted = false;
        match result {
            Ok(Poll::Pending) => st.tasks[tid].future = Some(future),
            Ok(Poll::Ready(())) => st.finish(tid),
            Err(payload) => {
                // A real panic: record it and declare the task dead
                // (joiners proceed, like joining a panicked thread;
                // starved channel peers deadlock — a separate,
                // correctly-attributed failure).
                st.observe(FailureKind::Panic(payload_str(payload.as_ref())));
                st.finish(tid);
            }
        }
        // Keep step records aligned 1:1 with decisions even when the task
        // finished (or died) without reaching a fresh operation.
        if st.step_infos.len() < st.decisions.len() {
            let clock = st.tasks[tid].clock.clone();
            st.step_infos.push(StepInfo { tid, op: None, clock });
        }
    }

    /// End-of-run bookkeeping: classify an empty runnable set.
    fn finish_run(&self) {
        let mut st = self.state.borrow_mut();
        if st.aborted {
            return;
        }
        let all_done = st.tasks.iter().all(|t| matches!(t.state, TState::Finished));
        if !all_done {
            st.observe(FailureKind::Deadlock);
        }
    }
}

/// Handle to a controlled task.
pub struct JoinHandle {
    tid: usize,
}

/// The per-task capability for writing controlled concurrency tests:
/// spawn controlled tasks, create shared cells / mutexes / channels,
/// sleep on the virtual clock, place fault points, assert.
#[derive(Clone)]
pub struct ThreadCtx {
    tid: usize,
    sched: Rc<Sched>,
}

impl ThreadCtx {
    /// This task's id (0 = the test's main task).
    pub fn tid(&self) -> usize {
        self.tid
    }

    /// Wait for this task's next grant and spend it; yields the state for
    /// the one operation the grant pays for.
    fn grant(&self) -> impl Future<Output = RefMut<'_, State>> {
        poll_fn(move |_| {
            let mut st = self.sched.state.borrow_mut();
            if std::mem::take(&mut st.granted) {
                Poll::Ready(st)
            } else {
                Poll::Pending
            }
        })
    }

    /// Spend grants until `reason` no longer blocks the operation `key`.
    /// A grant that finds it blocked marks the task blocked (the attempt
    /// is a scheduling decision too); the grant after it clears retries.
    async fn grant_unblocked(&self, reason: BlockReason, key: OpKey) -> RefMut<'_, State> {
        loop {
            let mut st = self.grant().await;
            if st.block_cleared(&reason) {
                return st;
            }
            st.tasks[self.tid].state = TState::Blocked(reason);
            st.commit(self.tid, key);
        }
    }

    /// Spawn a controlled task (a scheduling decision). `f` receives the
    /// new task's context and returns its body.
    pub async fn spawn<F, Fut>(&self, f: F) -> JoinHandle
    where
        F: FnOnce(ThreadCtx) -> Fut,
        Fut: Future<Output = ()> + 'static,
    {
        let tid = self.grant().await.tasks.len();
        let future = Box::pin(f(ThreadCtx { tid, sched: self.sched.clone() }));
        let mut st = self.sched.state.borrow_mut();
        st.register_task(Some(self.tid), future);
        st.commit(self.tid, OpKey::Spawn);
        JoinHandle { tid }
    }

    /// Join a controlled task (blocks this task in the model; joining a
    /// panicked task succeeds, as with real threads).
    pub async fn join(&self, handle: JoinHandle) {
        let key = OpKey::Join(handle.tid);
        let mut st = self.grant_unblocked(BlockReason::Join(handle.tid), key).await;
        let fc = st.tasks[handle.tid].finish_clock.clone().expect("finished");
        st.tasks[self.tid].clock.join(&fc);
        st.tasks[self.tid].clock.tick(self.tid);
        st.commit(self.tid, key);
    }

    /// Create a shared cell participating in scheduling and race
    /// detection (not itself a scheduling decision).
    pub fn shared<T>(&self, name: &str, init: T) -> Shared<T> {
        let mut st = self.sched.state.borrow_mut();
        let id = st.cells.len();
        st.cells.push(CellMeta { name: name.to_string(), last_write: None, reads: Vec::new() });
        Shared { id, data: Rc::new(RefCell::new(init)) }
    }

    /// Create a controlled mutex.
    pub fn mutex(&self, _name: &str) -> CMutex {
        let mut st = self.sched.state.borrow_mut();
        st.mutexes.push(MutexMeta { owner: None, clock: VectorClock::new() });
        CMutex { id: st.mutexes.len() - 1 }
    }

    /// Create a controlled FIFO channel (models a pipeline buffer: the
    /// send→receive handoff is a happens-before edge).
    pub fn channel<T>(&self, _name: &str) -> CChannel<T> {
        let mut st = self.sched.state.borrow_mut();
        st.channels.push(VecDeque::new());
        CChannel { id: st.channels.len() - 1, data: Rc::new(RefCell::new(VecDeque::new())) }
    }

    /// Assert a property of the current schedule; a failure is recorded
    /// with the reproducing schedule + trace hash and the run is aborted.
    pub async fn check(&self, cond: bool, msg: &str) {
        {
            let mut st = self.grant().await;
            st.commit(self.tid, OpKey::Check);
            if cond {
                return;
            }
            st.observe(FailureKind::CheckFailed(msg.to_string()));
            st.aborted = true;
        }
        // The run ends here; the driver drops this task unpolled.
        std::future::pending::<()>().await;
    }

    /// A scheduling point without a memory access (models local work).
    pub async fn step(&self) {
        self.grant().await.commit(self.tid, OpKey::Step);
    }

    /// Sleep `ticks` on the virtual clock: a deterministic stand-in for
    /// wall-clock sleeps. When only sleepers remain, the driver jumps the
    /// clock to the earliest wake target — no real time passes.
    pub async fn sleep(&self, ticks: u64) {
        {
            let mut st = self.grant().await;
            let target = st.virtual_time + ticks;
            st.commit(self.tid, OpKey::Sleep);
            st.tasks[self.tid].state = TState::Blocked(BlockReason::Until(target));
        }
        suspend().await;
    }

    /// A named fault point: under a [`FaultScenario`] the matching armed
    /// fault fires here (panic / virtual delay / drop), making fault
    /// injection a scheduler decision point. Call counts are shared
    /// across tasks per label, mirroring faultsim's per-stage counters.
    pub async fn fault_point(&self, label: &str) -> Inject {
        {
            let mut st = self.grant().await;
            let label_id = match st.fault_calls.iter().position(|(l, _)| l == label) {
                Some(i) => i,
                None => {
                    st.fault_calls.push((label.to_string(), 0));
                    st.fault_calls.len() - 1
                }
            };
            let call = st.fault_calls[label_id].1;
            st.fault_calls[label_id].1 += 1;
            st.commit(self.tid, OpKey::Fault(label_id));
            let armed = (0..st.scenario.faults.len()).find(|&i| {
                !st.fault_fired[i]
                    && st.scenario.faults[i].label == label
                    && st.scenario.faults[i].nth == call
            });
            let Some(i) = armed else { return Inject::Run };
            st.fault_fired[i] = true;
            st.any_fault_fired = true;
            let ticks = match st.scenario.faults[i].kind {
                InjectKind::Panic => panic!("chess-fault: injected panic at `{label}` call {call}"),
                InjectKind::DropItem => return Inject::Drop,
                InjectKind::DelayTicks(n) => n,
            };
            let target = st.virtual_time + ticks;
            st.tasks[self.tid].state = TState::Blocked(BlockReason::Until(target));
        }
        suspend().await;
        Inject::Run
    }
}

/// A shared memory cell; every access is a yield point and feeds the race
/// detector.
pub struct Shared<T> {
    id: usize,
    data: Rc<RefCell<T>>,
}

impl<T> Clone for Shared<T> {
    fn clone(&self) -> Shared<T> {
        Shared { id: self.id, data: self.data.clone() }
    }
}

impl<T: Clone> Shared<T> {
    /// Read the cell.
    pub async fn read(&self, ctx: &ThreadCtx) -> T {
        let mut st = ctx.grant().await;
        st.race_check(ctx.tid, self.id, false);
        st.commit(ctx.tid, OpKey::Read(self.id));
        self.data.borrow().clone()
    }

    /// Write the cell.
    pub async fn write(&self, ctx: &ThreadCtx, value: T) {
        let mut st = ctx.grant().await;
        st.race_check(ctx.tid, self.id, true);
        st.commit(ctx.tid, OpKey::Write(self.id));
        *self.data.borrow_mut() = value;
    }

    /// Atomic read-modify-write (a single yield point; models an atomic
    /// instruction — no race window inside). Returns the old value.
    pub async fn fetch_modify(&self, ctx: &ThreadCtx, f: impl FnOnce(T) -> T) -> T {
        let mut st = ctx.grant().await;
        st.race_check(ctx.tid, self.id, true);
        st.commit(ctx.tid, OpKey::Write(self.id));
        let old = self.data.borrow().clone();
        *self.data.borrow_mut() = f(old.clone());
        old
    }
}

/// A controlled mutex: lock/unlock are yield points and establish
/// happens-before edges (so properly locked accesses are race-free).
#[derive(Clone)]
pub struct CMutex {
    id: usize,
}

impl CMutex {
    /// Acquire the mutex (blocking in the model).
    pub async fn lock(&self, ctx: &ThreadCtx) {
        // Only this task could release it: the lock would never come.
        if ctx.sched.state.borrow().mutexes[self.id].owner == Some(ctx.tid) {
            panic!("recursive lock of a CMutex");
        }
        let key = OpKey::Lock(self.id);
        let mut st = ctx.grant_unblocked(BlockReason::Mutex(self.id), key).await;
        st.mutexes[self.id].owner = Some(ctx.tid);
        let mclock = st.mutexes[self.id].clock.clone();
        st.tasks[ctx.tid].clock.join(&mclock);
        st.tasks[ctx.tid].clock.tick(ctx.tid);
        st.commit(ctx.tid, key);
    }

    /// Release the mutex.
    pub async fn unlock(&self, ctx: &ThreadCtx) {
        let mut st = ctx.grant().await;
        assert_eq!(st.mutexes[self.id].owner, Some(ctx.tid), "unlock by non-owner");
        st.tasks[ctx.tid].clock.tick(ctx.tid);
        let thread_clock = st.tasks[ctx.tid].clock.clone();
        st.mutexes[self.id].clock = thread_clock;
        st.mutexes[self.id].owner = None;
        st.commit(ctx.tid, OpKey::Unlock(self.id));
    }
}

/// A controlled unbounded FIFO channel. `send`/`recv` are yield points; a
/// receive joins the sender's clock, so values handed through a channel
/// are race-free on the receiving side — exactly the guarantee pipeline
/// buffers give (rule PLDS).
pub struct CChannel<T> {
    id: usize,
    data: Rc<RefCell<VecDeque<T>>>,
}

impl<T> Clone for CChannel<T> {
    fn clone(&self) -> CChannel<T> {
        CChannel { id: self.id, data: self.data.clone() }
    }
}

impl<T> CChannel<T> {
    /// Send a value (never blocks; the model channel is unbounded).
    pub async fn send(&self, ctx: &ThreadCtx, value: T) {
        let mut st = ctx.grant().await;
        st.tasks[ctx.tid].clock.tick(ctx.tid);
        let clock = st.tasks[ctx.tid].clock.clone();
        st.channels[self.id].push_back(clock);
        st.commit(ctx.tid, OpKey::Send(self.id));
        self.data.borrow_mut().push_back(value);
    }

    /// Receive a value, blocking (in the model) while the channel is
    /// empty.
    pub async fn recv(&self, ctx: &ThreadCtx) -> T {
        let key = OpKey::Recv(self.id);
        let mut st = ctx.grant_unblocked(BlockReason::Recv(self.id), key).await;
        let sender_clock = st.channels[self.id].pop_front().expect("checked nonempty");
        st.tasks[ctx.tid].clock.join(&sender_clock);
        st.tasks[ctx.tid].clock.tick(ctx.tid);
        st.commit(ctx.tid, key);
        self.data.borrow_mut().pop_front().expect("data and clock queues stay in sync")
    }
}

/// The scheduling policy queried by the driver at each decision point.
pub(crate) trait Policy {
    /// Pick one of `runnable` (sorted ascending). `last` is the task
    /// scheduled at the previous step, if any.
    fn choose(&mut self, step: usize, runnable: &[usize], last: Option<usize>) -> usize;

    /// Observe what the chosen task actually did this step (DPOR's sleep
    /// sets need the executed op while the run is still in flight).
    fn observe_step(&mut self, _info: &StepInfo) {}
}

/// Run one schedule of `test` under `policy` and `scenario`; the whole
/// run executes cooperatively on the calling thread.
pub(crate) fn run_schedule(
    test: &TestFn,
    policy: &mut dyn Policy,
    max_steps: u64,
    scenario: &FaultScenario,
) -> RunResult {
    let sched = Sched::new(max_steps, scenario.clone());
    let main = test(ThreadCtx { tid: 0, sched: sched.clone() });
    sched.state.borrow_mut().register_task(None, main);
    let mut last: Option<usize> = None;
    let mut step = 0usize;
    loop {
        if sched.state.borrow().aborted {
            break;
        }
        let runnable = sched.runnable();
        if runnable.is_empty() {
            if sched.advance_time() {
                continue;
            }
            sched.finish_run();
            break;
        }
        let tid = policy.choose(step, &runnable, last);
        debug_assert!(runnable.contains(&tid));
        if !sched.record_decision(tid) {
            break;
        }
        sched.step_task(tid);
        if let Some(info) = sched.state.borrow().step_infos.last() {
            policy.observe_step(info);
        }
        last = Some(tid);
        step += 1;
    }
    // The task futures own `ThreadCtx`s, which own the scheduler: drop
    // them here, or every schedule leaks its whole state.
    let tasks = std::mem::take(&mut sched.state.borrow_mut().tasks);
    drop(tasks);
    let st = sched.state.borrow();
    RunResult {
        failures: st.failures.clone(),
        decisions: st.decisions.clone(),
        steps: st.steps,
        trace_hash: st.cur_hash,
        step_infos: st.step_infos.clone(),
    }
}
