//! End-to-end benchmark of the Patty tool.
//!
//! Four seeded workloads, each a closed loop of whole passes over the
//! 22 corpus programs:
//!
//! * `analyze` — `patty analyze` in-process (`Patty::run_automatic`
//!   plus the candidate and overlay rendering);
//! * `validate` — `patty validate` in-process (`run_automatic` plus the
//!   chess searches of `validate_correctness`);
//! * `execute` — every generated plan of a program run on patty-runtime
//!   through the checked entry points;
//! * `serve_mixed` — a `patty serve` daemon over TCP (see [`serve`]).
//!
//! `BENCHMARK.json` lists `execute` and `serve_mixed`. On the 2-core
//! reference host, single-threaded in-process jobs slow down by 1.4–1.7×
//! for minutes at a time, which put the run-to-run spread of `analyze`
//! and `validate` above the largest bound a metric may have; they stay
//! runnable by hand. The traced `serve_mixed` run measures the layers
//! they exercise with the traced in-process `validate` composition.
//!
//! With `--trace 0` a run reports the end-to-end metrics; with
//! `--trace 1` a separate run records a span around every layer call and
//! reports per-layer metrics. Every job's output is checked outside the
//! timed region against an independent reference: the tree-walker and
//! `expected.txt` for `analyze`, `expected.txt` for `validate`, the
//! sequential fold for `execute`, and the in-process artifacts for
//! `serve_mixed`.
//!
//! A run makes a fixed number of passes, sized from `--seconds` (see
//! [`Workload::nominal_pass_s`]). End-to-end metrics, all with tracing
//! off:
//!
//! * `setup_s` — median over [`SETUPS`] set-ups: executor start, corpus
//!   load and one warm-up pass (in-process), or daemon spawn to prefilled
//!   cache (`serve_mixed`);
//! * `jobs_per_s` — jobs over the time spent inside them (in-process,
//!   where the checks between jobs are excluded) or over the wall time of
//!   the timed phase (`serve_mixed`);
//! * `job_p50_ms`, `job_tail_ms` — median and the highest order
//!   statistic with ten samples beyond it; the detail line names the
//!   program (and op, hit or cold) owning each;
//! * `job_geomean_ms` — geometric mean over programs of each program's
//!   median job time;
//! * `ok_share` — jobs whose output matched the reference;
//! * `peak_rss_mb` — peak resident set of the process doing the work
//!   (the daemon for `serve_mixed`);
//! * `decided_share` — `validate` only: chess searches that completed
//!   rather than hit the schedule cap.

pub mod gen;
pub mod jobs;
pub mod serve;
pub mod spans;
pub mod stats;

use gen::pass_order;
use jobs::{PlanJob, Verdict};
use patty_corpus::CorpusProgram;
use patty_tool::{Patty, PattyRun};
use spans::{self_times, total_times, Recorder, Span};
use std::collections::BTreeMap;
use std::path::PathBuf;
use std::time::Instant;

/// Set-ups per run; `setup_s` is their median.
pub const SETUPS: usize = 3;
/// Where `serve_mixed` puts each daemon's fresh cache directory,
/// relative to the checkout; removed again at the end of the run.
pub const SCRATCH_DIR: &str = ".perfbench-run";
/// Items each plan runs over in the `execute` workload.
pub const EXECUTE_ITEMS: u64 = 16384;

/// The hand-reviewed architectures and chess verdicts of the corpus.
pub const EXPECTED: &str = include_str!("../expected.txt");

#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Workload {
    Analyze,
    Validate,
    Execute,
    ServeMixed,
}

impl Workload {
    /// Seconds one pass takes on the 2-core reference host when it is
    /// not contended. A run does a fixed number of whole passes sized
    /// from `--seconds` by this figure, so its sample counts (and with
    /// them its order statistics and memory growth) do not depend on how
    /// fast the host happens to be; the run takes about `--seconds`.
    pub fn nominal_pass_s(self) -> f64 {
        match self {
            Workload::Analyze => 0.18,
            Workload::Validate => 1.0,
            Workload::Execute => 0.8,
            Workload::ServeMixed => 4.3,
        }
    }

    /// Whole passes a run of `seconds` makes (at least one).
    pub fn passes(self, seconds: f64) -> u64 {
        ((seconds / self.nominal_pass_s()).ceil() as u64).max(1)
    }

    pub fn parse(name: &str) -> Option<Workload> {
        Some(match name {
            "analyze" => Workload::Analyze,
            "validate" => Workload::Validate,
            "execute" => Workload::Execute,
            "serve_mixed" => Workload::ServeMixed,
            _ => return None,
        })
    }
}

/// Command-line settings of one run.
#[derive(Clone, Debug)]
pub struct Settings {
    pub workload: Workload,
    pub seed: u64,
    pub seconds: f64,
    pub trace: bool,
    /// The `patty` binary `serve_mixed` starts.
    pub patty: Option<PathBuf>,
}

/// One metric of the final line.
#[derive(Clone, Debug)]
pub struct Metric {
    pub name: &'static str,
    pub value: f64,
    pub unit: &'static str,
}

/// What a run reports.
#[derive(Debug, Default)]
pub struct Outcome {
    pub attempted: u64,
    pub failed: u64,
    pub metrics: Vec<Metric>,
    /// Context printed on the line before the result.
    pub detail: BTreeMap<String, String>,
}

fn metric(name: &'static str, value: f64, unit: &'static str) -> Metric {
    Metric { name, value, unit }
}

/// Peak resident set (`VmHWM`) from a `/proc/<pid>/status` file, in MiB.
pub fn peak_rss_mb(status_path: &str) -> f64 {
    std::fs::read_to_string(status_path)
        .ok()
        .and_then(|s| {
            s.lines()
                .find(|l| l.starts_with("VmHWM:"))
                .and_then(|l| l.split_whitespace().nth(1))
                .and_then(|kb| kb.parse::<f64>().ok())
        })
        .map(|kb| kb / 1024.0)
        .unwrap_or(0.0)
}

/// Expected architectures and verdicts per program.
#[derive(Debug, Default)]
pub struct Expected {
    /// program → [(arch, verdict)] in report order; verdict is `untested`
    /// for an architecture without a generated unit test.
    pub archs: BTreeMap<String, Vec<(String, String)>>,
}

impl Expected {
    pub fn parse(text: &str) -> Result<Expected, String> {
        let mut out = Expected::default();
        for line in text
            .lines()
            .filter(|l| !l.trim().is_empty() && !l.starts_with('#'))
        {
            let mut cols = line.splitn(3, '\t');
            let (Some(program), Some(arch), Some(verdict)) =
                (cols.next(), cols.next(), cols.next())
            else {
                return Err(format!("malformed expected line `{line}`"));
            };
            let entry = out.archs.entry(program.to_string()).or_default();
            if arch != "-" {
                entry.push((arch.to_string(), verdict.to_string()));
            }
        }
        Ok(out)
    }

    pub fn arch_names(&self, program: &str) -> Option<Vec<String>> {
        self.archs
            .get(program)
            .map(|v| v.iter().map(|(a, _)| a.clone()).collect())
    }

    /// The verdicts `validate_correctness` must return.
    pub fn verdicts(&self, program: &str) -> Option<Vec<(String, String)>> {
        self.archs.get(program).map(|v| {
            v.iter()
                .filter(|(_, verdict)| verdict != "untested")
                .cloned()
                .collect()
        })
    }

    /// Does a `validate` job's outcome match: the same architectures and
    /// the same verdict on each?
    pub fn matches(&self, program: &str, run: &PattyRun, verdicts: &[Verdict]) -> bool {
        let got: Vec<(String, String)> = verdicts
            .iter()
            .map(|v| (v.arch.clone(), v.verdict.clone()))
            .collect();
        Some(jobs::arch_names(run)) == self.arch_names(program)
            && Some(got) == self.verdicts(program)
    }
}

/// A silent panic hook: a panic inside a job becomes a failed job, not
/// a backtrace on stderr.
pub fn install_silent_panic_hook() {
    std::panic::set_hook(Box::new(|_| {}));
}

/// Host facts recorded with every run; the benchmark overrides none.
pub fn environment(detail: &mut BTreeMap<String, String>) {
    let nproc = std::thread::available_parallelism()
        .map(|n| n.get())
        .unwrap_or(0);
    detail.insert("nproc".into(), nproc.to_string());
    for var in ["PATTY_THREADS", "RUST_BACKTRACE"] {
        detail.insert(
            var.into(),
            std::env::var(var).unwrap_or_else(|_| "unset".into()),
        );
    }
}

/// Run one workload.
pub fn run(settings: &Settings) -> Result<Outcome, String> {
    let mut outcome = match (settings.workload, settings.trace) {
        (Workload::ServeMixed, false) => serve_run(settings)?,
        (Workload::ServeMixed, true) => serve_traced(settings)?,
        (_, false) => inproc_run(settings)?,
        (_, true) => inproc_traced(settings)?,
    };
    environment(&mut outcome.detail);
    Ok(outcome)
}

// ---------------------------------------------------------------------
// In-process workloads
// ---------------------------------------------------------------------

/// References an in-process job is checked against, computed before the
/// set-up clock starts.
struct InprocRefs {
    programs: Vec<CorpusProgram>,
    expected: Expected,
    /// `analyze`: digest of each program's artifacts.
    analyze: Vec<u64>,
    /// `execute`: the plans with the digest of their sequential fold.
    plans: Vec<Vec<(PlanJob, u64)>>,
}

impl InprocRefs {
    fn build(workload: Workload) -> Result<InprocRefs, String> {
        let programs = patty_corpus::all_programs();
        let expected = Expected::parse(EXPECTED)?;
        let patty = Patty::new();
        let mut refs = InprocRefs {
            programs,
            expected,
            analyze: vec![],
            plans: vec![],
        };
        for p in &refs.programs {
            let want = refs
                .expected
                .arch_names(p.name)
                .ok_or_else(|| format!("{} is missing from expected.txt", p.name))?;
            match workload {
                Workload::Analyze => {
                    jobs::check_engines(&patty, p.source)
                        .map_err(|e| format!("{}: {e}", p.name))?;
                    let (run, rendered) =
                        jobs::analyze(&patty, p.source).map_err(|e| e.to_string())?;
                    if jobs::arch_names(&run) != want {
                        return Err(format!(
                            "{}: architectures differ from expected.txt",
                            p.name
                        ));
                    }
                    refs.analyze.push(jobs::analyze_digest(&run, &rendered));
                }
                Workload::Execute => {
                    let run = patty.run_automatic(p.source).map_err(|e| e.to_string())?;
                    if jobs::arch_names(&run) != want {
                        return Err(format!(
                            "{}: architectures differ from expected.txt",
                            p.name
                        ));
                    }
                    let plans = jobs::plans_of(&run)
                        .into_iter()
                        .map(|plan| {
                            let seq = jobs::sequential(&plan, EXECUTE_ITEMS);
                            (plan, seq)
                        })
                        .collect();
                    refs.plans.push(plans);
                }
                Workload::Validate | Workload::ServeMixed => {}
            }
        }
        Ok(refs)
    }
}

/// The state a set-up leaves for the timed jobs.
struct InprocState {
    patty: Patty,
    programs: Vec<CorpusProgram>,
    plans: Vec<Vec<PlanJob>>,
}

/// What one job returned, for the check.
/// Runs are returned, not dropped, so digests and deallocation happen
/// after the job's clock stops (the CLI exits without freeing them).
enum JobOut {
    Analyze(Box<PattyRun>, String),
    Validate(Box<PattyRun>, Vec<Verdict>),
    Execute(Vec<u64>),
}

fn run_job(workload: Workload, st: &InprocState, program: usize) -> Result<JobOut, String> {
    let source = st.programs[program].source;
    Ok(match workload {
        Workload::Analyze => {
            let (run, rendered) = jobs::analyze(&st.patty, source).map_err(|e| e.to_string())?;
            JobOut::Analyze(Box::new(run), rendered)
        }
        Workload::Validate => {
            let (run, verdicts) = jobs::validate(&st.patty, source).map_err(|e| e.to_string())?;
            JobOut::Validate(Box::new(run), verdicts)
        }
        Workload::Execute => JobOut::Execute(
            st.plans[program]
                .iter()
                .map(|plan| jobs::execute(plan, EXECUTE_ITEMS))
                .collect::<Result<_, _>>()?,
        ),
        Workload::ServeMixed => unreachable!("serve_mixed is not in-process"),
    })
}

/// Check a job's output against the references. Returns (ok, searches,
/// complete searches).
fn check(refs: &InprocRefs, program: usize, out: JobOut) -> (bool, u64, u64) {
    let name = refs.programs[program].name;
    match out {
        JobOut::Analyze(run, rendered) => (
            jobs::analyze_digest(&run, &rendered) == refs.analyze[program],
            0,
            0,
        ),
        JobOut::Validate(run, verdicts) => {
            let complete = verdicts.iter().filter(|v| v.complete).count() as u64;
            (
                refs.expected.matches(name, &run, &verdicts),
                verdicts.len() as u64,
                complete,
            )
        }
        JobOut::Execute(digests) => {
            let want: Vec<u64> = refs.plans[program].iter().map(|(_, d)| *d).collect();
            (digests == want, 0, 0)
        }
    }
}

/// Executor start, corpus load and one untimed warm-up pass over every
/// distinct job.
fn setup(workload: Workload, refs: &InprocRefs) -> Result<InprocState, String> {
    patty_runtime::Executor::global();
    let programs = patty_corpus::all_programs();
    for p in &programs {
        patty_minilang::parse(p.source).map_err(|e| format!("{}: {e}", p.name))?;
    }
    let patty = Patty::new();
    let plans = if workload == Workload::Execute {
        refs.plans
            .iter()
            .map(|ps| ps.iter().map(|(p, _)| p.clone()).collect())
            .collect()
    } else {
        Vec::new()
    };
    let st = InprocState {
        patty,
        programs,
        plans,
    };
    for program in 0..st.programs.len() {
        let out = run_job(workload, &st, program)?;
        if !check(refs, program, out).0 {
            return Err(format!(
                "warm-up job on {} gave a wrong result",
                st.programs[program].name
            ));
        }
    }
    Ok(st)
}

/// One timed job as the caller saw it.
#[derive(Clone, Debug)]
struct JobSample {
    program: usize,
    ms: f64,
    ok: bool,
}

fn timed_job(
    workload: Workload,
    st: &InprocState,
    refs: &InprocRefs,
    program: usize,
) -> (JobSample, u64, u64) {
    let t = Instant::now();
    let out = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
        run_job(workload, st, program)
    }));
    let ms = t.elapsed().as_secs_f64() * 1e3;
    let (ok, searches, complete) = match out {
        Ok(Ok(out)) => check(refs, program, out),
        _ => (false, 0, 0),
    };
    (JobSample { program, ms, ok }, searches, complete)
}

fn inproc_run(settings: &Settings) -> Result<Outcome, String> {
    install_silent_panic_hook();
    let workload = settings.workload;
    let refs = InprocRefs::build(workload)?;
    let mut setup_s = Vec::new();
    let mut state = None;
    for _ in 0..SETUPS {
        drop(state.take());
        let t = Instant::now();
        let st = setup(workload, &refs)?;
        setup_s.push(t.elapsed().as_secs_f64());
        state = Some(st);
    }
    let st = state.expect("at least one set-up");
    let multiset: Vec<usize> = (0..st.programs.len()).collect();
    let mut samples = Vec::new();
    let (mut searches, mut complete) = (0u64, 0u64);
    let passes = workload.passes(settings.seconds);
    for pass in 0..passes {
        for program in pass_order(&multiset, settings.seed, pass) {
            let (s, n, c) = timed_job(workload, &st, &refs, program);
            samples.push(s);
            searches += n;
            complete += c;
        }
    }
    let names: Vec<&str> = st.programs.iter().map(|p| p.name).collect();
    let owners: Vec<String> = samples
        .iter()
        .map(|s| names[s.program].to_string())
        .collect();
    let times: Vec<f64> = samples.iter().map(|s| s.ms).collect();
    let oks = samples.iter().filter(|s| s.ok).count() as u64;
    let mut out = Outcome {
        attempted: samples.len() as u64,
        failed: samples.len() as u64 - oks,
        ..Outcome::default()
    };
    let busy_s: f64 = times.iter().sum::<f64>() / 1e3;
    let per_program: Vec<f64> = (0..names.len())
        .map(|p| {
            stats::median(
                &samples
                    .iter()
                    .filter(|s| s.program == p)
                    .map(|s| s.ms)
                    .collect::<Vec<_>>(),
            )
        })
        .collect();
    let decided =
        (workload == Workload::Validate).then(|| complete as f64 / searches.max(1) as f64);
    out.metrics = end_to_end(
        &setup_s,
        samples.len() as f64 / busy_s,
        &times,
        stats::geomean(&per_program),
        oks as f64 / samples.len() as f64,
        decided,
        peak_rss_mb("/proc/self/status"),
    );
    percentile_owners(&mut out.detail, &times, &owners);
    out.detail.insert("passes".into(), passes.to_string());
    out.detail
        .insert("setup_samples_s".into(), format!("{setup_s:?}"));
    if workload == Workload::Validate {
        out.detail.insert(
            "chess_searches".into(),
            format!("{complete}/{searches} complete"),
        );
    }
    if workload == Workload::Execute {
        out.detail
            .insert("items_per_plan".into(), EXECUTE_ITEMS.to_string());
    }
    Ok(out)
}

/// The end-to-end metrics, in `BENCHMARK.json` order; `validate` adds
/// `decided_share`.
fn end_to_end(
    setup_s: &[f64],
    jobs_per_s: f64,
    times_ms: &[f64],
    geomean_ms: f64,
    ok_share: f64,
    decided_share: Option<f64>,
    rss_mb: f64,
) -> Vec<Metric> {
    let mut sorted = times_ms.to_vec();
    sorted.sort_by(f64::total_cmp);
    let tail = stats::tail_index(sorted.len())
        .map(|(i, _)| sorted[i])
        .unwrap_or(f64::NAN);
    let mut metrics = vec![
        metric("setup_s", stats::median(setup_s), "s"),
        metric("jobs_per_s", jobs_per_s, "1/s"),
        metric("job_p50_ms", stats::median(times_ms), "ms"),
        metric("job_tail_ms", tail, "ms"),
        metric("job_geomean_ms", geomean_ms, "ms"),
        metric("ok_share", ok_share, "share"),
        metric("peak_rss_mb", rss_mb, "MiB"),
    ];
    if let Some(share) = decided_share {
        metrics.push(metric("decided_share", share, "share"));
    }
    metrics
}

/// Record which sample class owns the median and the tail.
fn percentile_owners(detail: &mut BTreeMap<String, String>, times: &[f64], owners: &[String]) {
    let order = stats::argsort(times);
    let n = order.len();
    let p50 = order[stats::median_index(n)];
    detail.insert("samples".into(), n.to_string());
    detail.insert("p50_owner".into(), owners[p50].clone());
    if let Some((idx, pct)) = stats::tail_index(n) {
        detail.insert("tail_percentile".into(), format!("{pct:.2}"));
        detail.insert("tail_samples_beyond".into(), (n - idx - 1).to_string());
        detail.insert("tail_owner".into(), owners[order[idx]].clone());
    }
}

// ---------------------------------------------------------------------
// Traced in-process run
// ---------------------------------------------------------------------

/// Every per-layer metric, in `BENCHMARK.json` order, with its unit.
pub const PER_LAYER: &[(&str, &str)] = &[
    ("minilang.parse_ms", "ms"),
    ("minilang.traced_run_ms", "ms"),
    ("minilang.vm_cost", "count"),
    ("analysis.static_ms", "ms"),
    ("patterns.detect_ms", "ms"),
    ("patterns.instances", "count"),
    ("transform.annotate_ms", "ms"),
    ("transform.plan_ms", "ms"),
    ("testgen.coverage_ms", "ms"),
    ("testgen.unit_test_ms", "ms"),
    ("chess.validate_ms", "ms"),
    ("chess.schedules", "count"),
    ("chess.steps", "count"),
    ("chess.capped", "count"),
    ("chess.us_per_step", "us"),
    ("tuning.tune_ms", "ms"),
    ("tuning.evaluations", "count"),
    ("runtime.pipeline_ms", "ms"),
    ("runtime.parfor_ms", "ms"),
    ("runtime.masterworker_ms", "ms"),
    ("runtime.seq_ms", "ms"),
    ("runtime.speedup_vs_seq", "x"),
    ("runtime.tasks_executed", "count"),
    ("runtime.tasks_helped", "count"),
    ("runtime.ephemeral_spawns", "count"),
    ("serve.server_hit_ms", "ms"),
    ("serve.server_cold_ms", "ms"),
    ("serve.wire_ms", "ms"),
    ("serve.hit_share", "share"),
    ("serve.shed", "count"),
    ("serve.errors", "count"),
    ("serve.coalesced", "count"),
    ("serve.ready_ms", "ms"),
    ("obs.scrape_ms", "ms"),
    ("patty.render_ms", "ms"),
    ("unattributed_share", "share"),
    ("trace_overhead_share", "share"),
];

/// Per-layer values keyed by name; layers a workload does not pass
/// through read 0.
fn per_layer_metrics(values: &BTreeMap<&'static str, f64>) -> Vec<Metric> {
    PER_LAYER
        .iter()
        .map(|&(name, unit)| metric(name, values.get(name).copied().unwrap_or(0.0), unit))
        .collect()
}

/// Span name → per-layer metric name for times reported per pass.
const LAYER_SPANS: &[(&str, &str)] = &[
    ("minilang.parse", "minilang.parse_ms"),
    ("minilang.traced_run", "minilang.traced_run_ms"),
    ("analysis.static", "analysis.static_ms"),
    ("patterns.detect", "patterns.detect_ms"),
    ("transform.annotate", "transform.annotate_ms"),
    ("transform.plan", "transform.plan_ms"),
    ("testgen.coverage", "testgen.coverage_ms"),
    ("testgen.unit_test", "testgen.unit_test_ms"),
    ("chess.validate", "chess.validate_ms"),
    ("runtime.pipeline", "runtime.pipeline_ms"),
    ("runtime.parfor", "runtime.parfor_ms"),
    ("runtime.masterworker", "runtime.masterworker_ms"),
    ("runtime.seq", "runtime.seq_ms"),
    ("patty.render", "patty.render_ms"),
];

/// Per-pass self time of each layer span, plus the job residue.
fn layer_times(spans: &[Span], passes: f64, values: &mut BTreeMap<&'static str, f64>) {
    let selfs = self_times(spans);
    let totals = total_times(spans);
    for (span, name) in LAYER_SPANS {
        if let Some(ns) = selfs.get(span) {
            values.insert(name, *ns as f64 / 1e6 / passes);
        }
    }
    let job_total = totals.get("job").copied().unwrap_or(0) as f64;
    let job_self = selfs.get("job").copied().unwrap_or(0) as f64;
    values.insert(
        "unattributed_share",
        if job_total > 0.0 {
            job_self / job_total
        } else {
            0.0
        },
    );
}

/// Per-program medians of the traced job spans.
fn per_program_medians(spans: &[Span], names: &[&str]) -> String {
    let mut by: BTreeMap<usize, Vec<f64>> = BTreeMap::new();
    for s in spans.iter().filter(|s| s.name == "job") {
        by.entry((s.job % 1000) as usize)
            .or_default()
            .push(s.dur_ns() as f64 / 1e6);
    }
    by.iter()
        .map(|(p, v)| format!("{}={:.3}", names[*p], stats::median(v)))
        .collect::<Vec<_>>()
        .join(" ")
}

fn inproc_traced(settings: &Settings) -> Result<Outcome, String> {
    install_silent_panic_hook();
    let workload = settings.workload;
    let refs = InprocRefs::build(workload)?;
    let st = setup(workload, &refs)?;
    let names: Vec<&str> = st.programs.iter().map(|p| p.name).collect();
    if workload != Workload::Execute {
        check_traced_fidelity(&st)?;
    }
    let multiset: Vec<usize> = (0..st.programs.len()).collect();
    let rec = Recorder::new(Instant::now());
    let mut values: BTreeMap<&'static str, f64> = BTreeMap::new();
    let (mut plain_ms, mut traced_passes, mut plain_passes) = (0.0, 0u64, 0u64);
    let (mut attempted, mut failed) = (0u64, 0u64);
    let mut counts: BTreeMap<&'static str, f64> = BTreeMap::new();
    let mut exec_traced = [0u64; 3];
    // Even passes untraced, odd passes traced; at least one of each.
    for pass in 0..workload.passes(settings.seconds).max(2) {
        let order = pass_order(&multiset, settings.seed, pass);
        if pass % 2 == 0 {
            for program in order {
                let (s, _, _) = timed_job(workload, &st, &refs, program);
                plain_ms += s.ms;
                attempted += 1;
                failed += u64::from(!s.ok);
            }
            plain_passes += 1;
        } else {
            let before = patty_runtime::Executor::global().stats();
            for program in order {
                // The job id carries the pass and the program.
                rec.set_job(pass * 1000 + program as u64);
                let ok =
                    traced_job(workload, &st, &refs, program, &rec, &mut counts).unwrap_or(false);
                attempted += 1;
                failed += u64::from(!ok);
            }
            let after = patty_runtime::Executor::global().stats();
            exec_traced[0] += after.tasks_executed - before.tasks_executed;
            exec_traced[1] += after.tasks_helped - before.tasks_helped;
            exec_traced[2] += after.ephemeral_spawns - before.ephemeral_spawns;
            traced_passes += 1;
        }
    }
    let spans = rec.into_spans();
    let tp = traced_passes as f64;
    layer_times(&spans, tp, &mut values);
    count_values(&counts, tp, &mut values);
    if workload == Workload::Execute {
        let parallel: f64 = [
            "runtime.pipeline_ms",
            "runtime.parfor_ms",
            "runtime.masterworker_ms",
        ]
        .iter()
        .map(|k| values.get(k).copied().unwrap_or(0.0))
        .sum();
        let seq = values.get("runtime.seq_ms").copied().unwrap_or(0.0);
        values.insert(
            "runtime.speedup_vs_seq",
            if parallel > 0.0 { seq / parallel } else { 0.0 },
        );
        values.insert("runtime.tasks_executed", exec_traced[0] as f64 / tp);
        values.insert("runtime.tasks_helped", exec_traced[1] as f64 / tp);
        values.insert("runtime.ephemeral_spawns", exec_traced[2] as f64 / tp);
    }
    let traced_ms = total_times(&spans).get("job").copied().unwrap_or(0) as f64 / 1e6;
    let plain_per_pass = plain_ms / plain_passes as f64;
    values.insert(
        "trace_overhead_share",
        traced_ms / tp / plain_per_pass - 1.0,
    );
    let mut out = Outcome {
        attempted,
        failed,
        metrics: per_layer_metrics(&values),
        ..Outcome::default()
    };
    out.detail
        .insert("traced_passes".into(), traced_passes.to_string());
    out.detail
        .insert("untraced_passes".into(), plain_passes.to_string());
    out.detail.insert(
        "per_program_median_ms".into(),
        per_program_medians(&spans, &names),
    );
    Ok(out)
}

/// The traced composition must reproduce the untraced artifacts for
/// every program, or its split of the job time is not the job's.
fn check_traced_fidelity(st: &InprocState) -> Result<(), String> {
    let scratch = Recorder::new(Instant::now());
    for p in &st.programs {
        let traced =
            jobs::analyze_traced(&scratch, &st.patty, p.source).map_err(|e| e.to_string())?;
        let plain = st
            .patty
            .run_automatic(p.source)
            .map_err(|e| e.to_string())?;
        jobs::check_fidelity(&traced.run, &plain)
            .map_err(|e| format!("{}: traced split diverges: {e}", p.name))?;
    }
    Ok(())
}

/// Per-pass values of the counts traced jobs gathered, and the chess
/// cost per step they imply.
fn count_values(
    counts: &BTreeMap<&'static str, f64>,
    passes: f64,
    values: &mut BTreeMap<&'static str, f64>,
) {
    for (k, v) in counts {
        values.insert(k, v / passes);
    }
    let steps = counts.get("chess.steps").copied().unwrap_or(0.0);
    if steps > 0.0 {
        values.insert(
            "chess.us_per_step",
            values["chess.validate_ms"] * passes * 1e3 / steps,
        );
    }
}

/// One traced job; returns whether its output checked out.
fn traced_job(
    workload: Workload,
    st: &InprocState,
    refs: &InprocRefs,
    program: usize,
    rec: &Recorder,
    counts: &mut BTreeMap<&'static str, f64>,
) -> Result<bool, String> {
    let source = st.programs[program].source;
    let name = st.programs[program].name;
    match workload {
        Workload::Analyze => {
            let a = rec
                .span("job", || jobs::analyze_traced(rec, &st.patty, source))
                .map_err(|e| e.to_string())?;
            *counts.entry("minilang.vm_cost").or_default() += a.vm_cost as f64;
            *counts.entry("patterns.instances").or_default() += a.instances as f64;
            Ok(jobs::analyze_digest(&a.run, &a.rendered) == refs.analyze[program])
        }
        Workload::Validate => {
            let (a, verdicts) = rec
                .span("job", || jobs::validate_traced(rec, &st.patty, source))
                .map_err(|e| e.to_string())?;
            *counts.entry("minilang.vm_cost").or_default() += a.vm_cost as f64;
            *counts.entry("patterns.instances").or_default() += a.instances as f64;
            for v in &verdicts {
                *counts.entry("chess.schedules").or_default() += v.schedules as f64;
                *counts.entry("chess.steps").or_default() += v.steps as f64;
                *counts.entry("chess.capped").or_default() += f64::from(u8::from(!v.complete));
            }
            Ok(refs.expected.matches(name, &a.run, &verdicts))
        }
        Workload::Execute => {
            let plans = &st.plans[program];
            let digests = rec.span("job", || {
                plans
                    .iter()
                    .map(|plan| {
                        rec.span(jobs::entry_name(plan.kind), || {
                            jobs::execute(plan, EXECUTE_ITEMS)
                        })
                    })
                    .collect::<Result<Vec<u64>, String>>()
            })?;
            let seq: Vec<u64> = plans
                .iter()
                .map(|plan| rec.span("runtime.seq", || jobs::sequential(plan, EXECUTE_ITEMS)))
                .collect();
            let want: Vec<u64> = refs.plans[program].iter().map(|(_, d)| *d).collect();
            Ok(digests == want && seq == want)
        }
        Workload::ServeMixed => unreachable!("serve_mixed is not in-process"),
    }
}

// ---------------------------------------------------------------------
// serve_mixed
// ---------------------------------------------------------------------

struct ServeSetup {
    daemon: serve::Daemon,
    conns: [serve::Conn; 2],
    /// Spawn to the first timed job, in seconds.
    setup_s: f64,
}

fn serve_setup(
    settings: &Settings,
    refs: &serve::References,
    sources: &[&str],
    n: usize,
) -> Result<ServeSetup, String> {
    let bin = settings
        .patty
        .as_ref()
        .ok_or("serve_mixed needs --patty <binary>")?;
    let dir = std::path::Path::new(SCRATCH_DIR).join(format!("cache-{}-{n}", std::process::id()));
    let t = Instant::now();
    let daemon = serve::Daemon::spawn(bin, dir)?;
    let mut conns = [daemon.connect()?, daemon.connect()?];
    serve::prefill(&mut conns, sources, refs)?;
    Ok(ServeSetup {
        setup_s: t.elapsed().as_secs_f64(),
        daemon,
        conns,
    })
}

/// Spawn and prefill `SETUPS` daemons (each on a fresh cache), keep the
/// last for the timed phase.
fn serve_setups(
    settings: &Settings,
    refs: &serve::References,
    sources: &[&str],
) -> Result<(ServeSetup, Vec<f64>, Vec<f64>), String> {
    let (mut setup_s, mut ready_s) = (Vec::new(), Vec::new());
    let mut last = None;
    for n in 0..SETUPS {
        if let Some(prev) = last.take() {
            let ServeSetup { daemon, conns, .. } = prev;
            drop(conns);
            daemon.shutdown()?;
        }
        let s = serve_setup(settings, refs, sources, n)?;
        setup_s.push(s.setup_s);
        ready_s.push(s.daemon.ready_s);
        last = Some(s);
    }
    Ok((last.expect("at least one set-up"), setup_s, ready_s))
}

fn serve_timed(
    settings: &Settings,
    setup: &mut ServeSetup,
    refs: &serve::References,
    sources: &[&str],
    alternate_tracing: bool,
) -> Result<(Vec<serve::ClientLog>, f64, u64), String> {
    let start = Instant::now();
    let passes = Workload::ServeMixed
        .passes(settings.seconds)
        .max(if alternate_tracing { 2 } else { 1 });
    let source = serve::JobSource::new(settings.seed, sources.len(), passes);
    let [a, b] = &mut setup.conns;
    let run = |conn: &mut serve::Conn| {
        serve::client(
            conn,
            &source,
            sources,
            refs,
            settings.seed,
            alternate_tracing,
            start,
        )
    };
    let logs = std::thread::scope(|s| {
        let ha = s.spawn(|| run(a));
        let lb = run(b);
        let la = ha.join().expect("client thread panicked");
        Ok::<_, String>(vec![la?, lb?])
    })?;
    Ok((logs, start.elapsed().as_secs_f64(), source.passes()))
}

fn serve_owner(s: &serve::Sample, names: &[&str]) -> String {
    format!(
        "{}/{}/{}",
        names[s.job.program],
        s.job.op.name(),
        if s.job.cold { "cold" } else { "hit" }
    )
}

fn serve_run(settings: &Settings) -> Result<Outcome, String> {
    let programs = patty_corpus::all_programs();
    let sources: Vec<&str> = programs.iter().map(|p| p.source).collect();
    let names: Vec<&str> = programs.iter().map(|p| p.name).collect();
    let refs = serve::references(&sources)?;
    let (mut setup, setup_s, ready_s) = serve_setups(settings, &refs, &sources)?;
    let (logs, wall_s, passes) = serve_timed(settings, &mut setup, &refs, &sources, false)?;
    let rss = setup.daemon.peak_rss_mb();
    let ServeSetup { daemon, conns, .. } = setup;
    drop(conns);
    daemon.shutdown()?;
    let _ = std::fs::remove_dir(SCRATCH_DIR);
    let samples: Vec<&serve::Sample> = logs.iter().flat_map(|l| &l.samples).collect();
    let times: Vec<f64> = samples.iter().map(|s| s.latency_ms).collect();
    let owners: Vec<String> = samples.iter().map(|s| serve_owner(s, &names)).collect();
    let oks = samples.iter().filter(|s| s.ok).count() as u64;
    let per_program: Vec<f64> = (0..names.len())
        .map(|p| {
            stats::median(
                &samples
                    .iter()
                    .filter(|s| s.job.program == p)
                    .map(|s| s.latency_ms)
                    .collect::<Vec<_>>(),
            )
        })
        .collect();
    let mut out = Outcome {
        attempted: samples.len() as u64,
        failed: samples.len() as u64 - oks,
        ..Outcome::default()
    };
    out.metrics = end_to_end(
        &setup_s,
        samples.len() as f64 / wall_s,
        &times,
        stats::geomean(&per_program),
        oks as f64 / samples.len() as f64,
        None,
        rss,
    );
    percentile_owners(&mut out.detail, &times, &owners);
    out.detail.insert("passes".into(), passes.to_string());
    out.detail.insert("clients".into(), "2".into());
    out.detail
        .insert("setup_samples_s".into(), format!("{setup_s:?}"));
    out.detail
        .insert("ready_samples_s".into(), format!("{ready_s:?}"));
    let scrapes: Vec<f64> = logs
        .iter()
        .flat_map(|l| l.scrapes.iter().copied())
        .collect();
    out.detail
        .insert("stats_scrapes".into(), scrapes.len().to_string());
    Ok(out)
}

/// Corpus passes of the traced in-process `validate` composition a
/// traced `serve_mixed` run makes.
const INPROC_TRACED_PASSES: u64 = 2;

fn serve_traced(settings: &Settings) -> Result<Outcome, String> {
    let programs = patty_corpus::all_programs();
    let sources: Vec<&str> = programs.iter().map(|p| p.source).collect();
    let names: Vec<&str> = programs.iter().map(|p| p.name).collect();
    let refs = serve::references(&sources)?;
    // The analysis layers and chess run inside the daemon, out of the
    // client's sight. Split them with the traced in-process `validate`
    // composition over the same corpus, before any daemon starts.
    let inproc_refs = InprocRefs::build(Workload::Validate)?;
    let st = setup(Workload::Validate, &inproc_refs)?;
    check_traced_fidelity(&st)?;
    let rec = Recorder::new(Instant::now());
    let mut counts: BTreeMap<&'static str, f64> = BTreeMap::new();
    let mut inproc_failed = 0u64;
    let multiset: Vec<usize> = (0..st.programs.len()).collect();
    for pass in 0..INPROC_TRACED_PASSES {
        for program in pass_order(&multiset, settings.seed, pass) {
            rec.set_job(pass * 1000 + program as u64);
            let ok = traced_job(
                Workload::Validate,
                &st,
                &inproc_refs,
                program,
                &rec,
                &mut counts,
            )
            .unwrap_or(false);
            inproc_failed += u64::from(!ok);
        }
    }
    drop(st);
    let (mut setup, _, ready_s) = serve_setups(settings, &refs, &sources)?;
    // Alternate passes: even passes untraced, odd passes traced.
    let (logs, _, passes) = serve_timed(settings, &mut setup, &refs, &sources, true)?;
    let ServeSetup { daemon, conns, .. } = setup;
    drop(conns);
    daemon.shutdown()?;
    let _ = std::fs::remove_dir(SCRATCH_DIR);
    // Each log's spans index their parents within that log.
    let mut spans: Vec<Span> = rec.into_spans();
    for log in &logs {
        let base = spans.len();
        spans.extend(log.spans.iter().cloned().map(|mut s| {
            s.parent = s.parent.map(|p| p + base);
            s
        }));
    }
    let samples: Vec<&serve::Sample> = logs.iter().flat_map(|l| &l.samples).collect();
    let ms = |f: &dyn Fn(&serve::Sample) -> bool, g: &dyn Fn(&serve::Sample) -> f64| {
        stats::median(
            &samples
                .iter()
                .filter(|s| f(s))
                .map(|s| g(s))
                .collect::<Vec<_>>(),
        )
    };
    let mut values: BTreeMap<&'static str, f64> = BTreeMap::new();
    let hit = |s: &serve::Sample| s.reply.cached == "memory" || s.reply.cached == "disk";
    values.insert(
        "serve.server_hit_ms",
        ms(&|s| hit(s), &|s| s.reply.micros as f64 / 1e3),
    );
    values.insert(
        "serve.server_cold_ms",
        ms(&|s| s.job.cold, &|s| s.reply.micros as f64 / 1e3),
    );
    values.insert(
        "serve.wire_ms",
        ms(&|_| true, &|s| s.latency_ms - s.reply.micros as f64 / 1e3),
    );
    let n = samples.len() as f64;
    values.insert(
        "serve.hit_share",
        samples.iter().filter(|s| hit(s)).count() as f64 / n,
    );
    values.insert(
        "serve.shed",
        samples.iter().filter(|s| s.reply.status == "shed").count() as f64,
    );
    values.insert(
        "serve.errors",
        samples
            .iter()
            .filter(|s| s.reply.status == "error" || s.reply.status == "deadline")
            .count() as f64,
    );
    values.insert(
        "serve.coalesced",
        samples
            .iter()
            .filter(|s| s.reply.cached == "coalesced")
            .count() as f64,
    );
    values.insert("serve.ready_ms", stats::median(&ready_s) * 1e3);
    let scrapes: Vec<f64> = logs
        .iter()
        .flat_map(|l| l.scrapes.iter().copied())
        .collect();
    values.insert("obs.scrape_ms", stats::median(&scrapes));
    values.insert("tuning.tune_ms", refs.tune_ms);
    values.insert("tuning.evaluations", refs.evaluations as f64);
    layer_times(&spans, INPROC_TRACED_PASSES as f64, &mut values);
    count_values(&counts, INPROC_TRACED_PASSES as f64, &mut values);
    let mean = |traced: bool| {
        let v: Vec<f64> = samples
            .iter()
            .filter(|s| s.traced == traced)
            .map(|s| s.job_ms)
            .collect();
        v.iter().sum::<f64>() / v.len().max(1) as f64
    };
    values.insert("trace_overhead_share", mean(true) / mean(false) - 1.0);
    let inproc_jobs = INPROC_TRACED_PASSES * names.len() as u64;
    let mut out = Outcome {
        attempted: samples.len() as u64 + inproc_jobs,
        failed: samples.iter().filter(|s| !s.ok).count() as u64 + inproc_failed,
        metrics: per_layer_metrics(&values),
        ..Outcome::default()
    };
    out.detail.insert("passes".into(), passes.to_string());
    out.detail.insert(
        "inproc_traced_passes".into(),
        INPROC_TRACED_PASSES.to_string(),
    );
    let mut per: BTreeMap<String, Vec<f64>> = BTreeMap::new();
    for s in &samples {
        per.entry(serve_owner(s, &names))
            .or_default()
            .push(s.latency_ms);
    }
    out.detail.insert(
        "per_class_median_ms".into(),
        per.iter()
            .map(|(k, v)| format!("{k}={:.3}", stats::median(v)))
            .collect::<Vec<_>>()
            .join(" "),
    );
    Ok(out)
}
