//! The in-process jobs: `patty analyze`, `patty validate` and the
//! execution of generated plans on patty-runtime, each untraced (as the
//! CLI runs it) and traced (the same calls, one span per layer call).

use crate::spans::Recorder;
use patty_analysis::SemanticModel;
use patty_minilang::{parse, run, Engine, Program};
use patty_patterns::{detect_patterns, PatternInstance};
use patty_runtime::{FailurePolicy, LoopTuning, MasterWorker, PipelineTuning, RunOptions, Stage};
use patty_tadl::PatternKind;
use patty_testgen::{generate_unit_test, path_coverage_inputs, run_unit_test};
use patty_tool::{
    render_candidates, render_overlay, render_process_chart, InstanceArtifacts, Patty, PattyError,
    PattyRun, Phase,
};
use patty_transform::{annotate_source, generate_plan};
use std::sync::atomic::{AtomicU64, Ordering};
use std::time::Duration;

/// FNV-1a over a sequence of byte strings, with a separator between them.
pub fn fnv(parts: &[&[u8]]) -> u64 {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for p in parts {
        for &b in p.iter().chain(&[0xff]) {
            h ^= u64::from(b);
            h = h.wrapping_mul(0x0100_0000_01b3);
        }
    }
    h
}

/// The text `patty analyze` prints for a run.
pub fn render_analysis(run: &PattyRun) -> String {
    let mut out = String::from("— process (Fig. 4a) —\n");
    out.push_str(&render_process_chart(Phase::PatternAnalysis));
    let instances: Vec<_> = run.artifacts.iter().map(|a| a.instance.clone()).collect();
    out.push_str("\n— detected candidates —\n");
    out.push_str(&render_candidates(&instances));
    for a in &run.artifacts {
        out.push_str(&format!("\n— overlay: {} —\n", a.arch.name));
        out.push_str(&render_overlay(&run.model.program, &a.instance));
    }
    out
}

/// Architecture names of a run, in report order.
pub fn arch_names(run: &PattyRun) -> Vec<String> {
    run.artifacts.iter().map(|a| a.arch.name.clone()).collect()
}

/// Digest of everything an `analyze` job produces: the phase-3/4
/// artifacts, the profile of the traced VM run, the coverage inputs and
/// the rendered report.
pub fn analyze_digest(run: &PattyRun, rendered: &str) -> u64 {
    let profile = run
        .model
        .profile
        .as_ref()
        .map(|p| p.to_json())
        .unwrap_or_default();
    let mut parts: Vec<Vec<u8>> = vec![profile.into_bytes(), rendered.as_bytes().to_vec()];
    for a in &run.artifacts {
        parts.push(a.arch.name.clone().into_bytes());
        parts.push(a.annotated_source.clone().into_bytes());
        parts.push(a.tuning_json.clone().into_bytes());
        parts.push(a.plan.code.clone().into_bytes());
    }
    for (func, report) in &run.test_inputs {
        parts.push(
            format!(
                "{func}:{}:{}:{}",
                report.inputs.len(),
                report.covered,
                report.total
            )
            .into_bytes(),
        );
    }
    let refs: Vec<&[u8]> = parts.iter().map(Vec::as_slice).collect();
    fnv(&refs)
}

/// One chess search of a `validate` job.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct Verdict {
    pub arch: String,
    /// `pass`, or the failure kinds joined by `; `.
    pub verdict: String,
    pub complete: bool,
    pub schedules: u64,
    pub steps: u64,
}

pub fn verdict_of(arch: &str, report: &patty_chess::Report) -> Verdict {
    let verdict = if report.failures.is_empty() {
        "pass".to_string()
    } else {
        report
            .failures
            .iter()
            .map(|f| f.kind.to_string())
            .collect::<Vec<_>>()
            .join("; ")
    };
    Verdict {
        arch: arch.to_string(),
        verdict,
        complete: report.complete,
        schedules: report.schedules,
        steps: report.total_steps,
    }
}

/// `patty analyze`: the automatic process plus the rendered report.
pub fn analyze(patty: &Patty, source: &str) -> Result<(PattyRun, String), PattyError> {
    let run = patty.run_automatic(source)?;
    let rendered = render_analysis(&run);
    Ok((run, rendered))
}

/// `patty validate`: the automatic process plus the chess searches.
pub fn validate(patty: &Patty, source: &str) -> Result<(PattyRun, Vec<Verdict>), PattyError> {
    let run = patty.run_automatic(source)?;
    let verdicts = patty
        .validate_correctness(&run)
        .iter()
        .map(|(arch, report)| verdict_of(arch, report))
        .collect();
    Ok((run, verdicts))
}

/// Per-element virtual cost of an instance's loop body, as the process
/// model computes it for plan generation.
fn loop_body_cost(model: &SemanticModel, instance: &PatternInstance) -> u64 {
    let Some(profile) = &model.profile else {
        return 1;
    };
    let Some(trace) = profile.loop_traces.get(&instance.loop_id) else {
        return 1;
    };
    let total: u64 = trace.stmt_cost.values().sum();
    (total / trace.iterations.max(1)).max(1)
}

/// What a traced `analyze` job produced besides the run itself.
pub struct TracedAnalysis {
    pub run: PattyRun,
    pub rendered: String,
    /// `Profile.total_cost` of the traced VM run.
    pub vm_cost: u64,
    pub instances: usize,
}

/// `Patty::run_automatic` call for call, with a span around each layer
/// call, followed by the rendering `patty analyze` does.
pub fn analyze_traced(
    rec: &Recorder,
    patty: &Patty,
    source: &str,
) -> Result<TracedAnalysis, PattyError> {
    let program: Program = rec.span("minilang.parse", || parse(source))?;
    let model = rec.span("analysis.static", || SemanticModel::build_static(&program));
    let outcome = rec.span("minilang.traced_run", || {
        run(&program, patty.options.interp.clone())
    })?;
    let vm_cost = outcome.profile.total_cost;
    let model = rec.span("analysis.with_profile", || {
        model.with_profile(outcome.profile)
    });
    let instances = rec.span("patterns.detect", || {
        detect_patterns(&model, &patty.options.detect)
    });
    let n_instances = instances.len();
    let mut artifacts = Vec::with_capacity(n_instances);
    for instance in instances {
        let annotated_source = rec.span("transform.annotate", || {
            annotate_source(&model.program, &instance)
        })?;
        let (plan, tuning_json) = rec.span("transform.plan", || {
            let plan = generate_plan(&instance, loop_body_cost(&model, &instance));
            (plan, instance.tuning.to_json())
        });
        let unit_test = rec.span("testgen.unit_test", || {
            generate_unit_test(&model, &instance, patty.options.unit_test_elements)
        });
        artifacts.push(InstanceArtifacts {
            arch: instance.arch.clone(),
            annotated_source,
            plan,
            tuning_json,
            unit_test,
            instance,
        });
    }
    let mut test_inputs = Vec::new();
    for f in model
        .program
        .funcs
        .iter()
        .filter(|f| !f.params.is_empty() && f.name != "main")
    {
        let report = rec.span("testgen.coverage", || {
            path_coverage_inputs(&model.program, &f.name, &[-3, -1, 0, 1, 2, 7], 4, 512)
        });
        test_inputs.push((f.name.clone(), report));
    }
    let run = PattyRun {
        model,
        artifacts,
        test_inputs,
    };
    let rendered = rec.span("patty.render", || render_analysis(&run));
    Ok(TracedAnalysis {
        run,
        rendered,
        vm_cost,
        instances: n_instances,
    })
}

/// The traced `validate` job: the traced analysis plus one span per
/// chess search.
pub fn validate_traced(
    rec: &Recorder,
    patty: &Patty,
    source: &str,
) -> Result<(TracedAnalysis, Vec<Verdict>), PattyError> {
    let analysis = analyze_traced(rec, patty, source)?;
    let mut verdicts = Vec::new();
    for a in &analysis.run.artifacts {
        if let Some(t) = &a.unit_test {
            let report = rec.span("chess.validate", || {
                run_unit_test(t, patty.options.chess.clone())
            });
            verdicts.push(verdict_of(&a.arch.name, &report));
        }
    }
    Ok((analysis, verdicts))
}

/// The traced composition must yield the same artifacts as the untraced
/// `run_automatic`; otherwise its split of the job time is not the
/// job's. Returns a description of the first difference.
pub fn check_fidelity(traced: &PattyRun, plain: &PattyRun) -> Result<(), String> {
    if arch_names(traced) != arch_names(plain) {
        return Err(format!(
            "arch names {:?} != {:?}",
            arch_names(traced),
            arch_names(plain)
        ));
    }
    for (t, p) in traced.artifacts.iter().zip(&plain.artifacts) {
        if t.annotated_source != p.annotated_source {
            return Err(format!("annotated source of {} differs", t.arch.name));
        }
        if t.tuning_json != p.tuning_json {
            return Err(format!("tuning json of {} differs", t.arch.name));
        }
    }
    Ok(())
}

/// The VM outcome of `source` must equal the tree-walker oracle's:
/// printed output, result and profile.
pub fn check_engines(patty: &Patty, source: &str) -> Result<(), String> {
    let program = parse(source).map_err(|e| e.to_string())?;
    let outcome = |engine| {
        let mut opts = patty.options.interp.clone();
        opts.engine = engine;
        run(&program, opts).map_err(|e| e.to_string())
    };
    let vm = outcome(Engine::Vm)?;
    let tree = outcome(Engine::Ast)?;
    if vm.output != tree.output {
        return Err("printed output differs from the tree-walker".into());
    }
    if format!("{:?}", vm.result) != format!("{:?}", tree.result) {
        return Err("result differs from the tree-walker".into());
    }
    if vm.profile.to_json() != tree.profile.to_json() {
        return Err("profile differs from the tree-walker".into());
    }
    Ok(())
}

/// A generated plan ready to run on patty-runtime.
#[derive(Clone, Debug)]
pub struct PlanJob {
    pub arch: String,
    pub kind: PatternKind,
    pub tuning: patty_tuning::TuningConfig,
    /// Per-stage `(name, per-element cost)` for pipelines; one entry
    /// holding the element cost otherwise.
    pub stages: Vec<(String, u64)>,
}

pub fn plans_of(run: &PattyRun) -> Vec<PlanJob> {
    run.artifacts
        .iter()
        .map(|a| PlanJob {
            arch: a.arch.name.clone(),
            kind: a.plan.kind,
            tuning: a.instance.tuning.clone(),
            stages: match a.plan.kind {
                PatternKind::Pipeline => a
                    .plan
                    .stages
                    .iter()
                    .map(|s| (s.name.clone(), s.cost_per_element))
                    .collect(),
                _ => vec![(a.arch.name.clone(), a.plan.element_cost)],
            },
        })
        .collect()
}

/// The busy work a stage body replays, as `patty profile` does.
pub fn busy(cost: u64, x: u64) -> u64 {
    let mut acc = x;
    for i in 0..cost.min(512) {
        acc = std::hint::black_box(acc.wrapping_mul(31).wrapping_add(i));
    }
    acc
}

/// Order-independent digest of a plan's outputs.
fn mix(x: u64) -> u64 {
    let mut z = x.wrapping_add(0x9E37_79B9_7F4A_7C15);
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

fn digest(outputs: impl Iterator<Item = u64>) -> u64 {
    outputs.fold(0u64, |acc, v| acc.wrapping_add(mix(v)))
}

/// The sequential fold: the output every parallel run must reproduce.
pub fn sequential(plan: &PlanJob, n: u64) -> u64 {
    digest((0..n).map(|x| plan.stages.iter().fold(x, |acc, (_, c)| busy(*c, acc))))
}

/// Which runtime entry point a plan runs through.
pub fn entry_name(kind: PatternKind) -> &'static str {
    match kind {
        PatternKind::Pipeline => "runtime.pipeline",
        PatternKind::DataParallelLoop => "runtime.parfor",
        PatternKind::MasterWorker => "runtime.masterworker",
    }
}

/// Run one plan over `n` items on the checked entry point with the
/// artifact's tuning; returns the digest of its outputs.
pub fn execute(plan: &PlanJob, n: u64) -> Result<u64, String> {
    let opts = RunOptions::new()
        .on_failure(FailurePolicy::FallbackSequential)
        .with_deadline(Duration::from_secs(30));
    match plan.kind {
        PatternKind::DataParallelLoop => {
            let cost = plan.stages[0].1;
            let tuning = LoopTuning::from_config(&plan.tuning)?;
            let out: Vec<AtomicU64> = (0..n).map(|_| AtomicU64::new(0)).collect();
            tuning
                .build()
                .for_each_checked(
                    n as usize,
                    |i| out[i].store(busy(cost, i as u64), Ordering::Relaxed),
                    &opts,
                )
                .map_err(|e| e.to_string())?;
            Ok(digest(out.iter().map(|v| v.load(Ordering::Relaxed))))
        }
        PatternKind::MasterWorker => {
            let cost = plan.stages[0].1;
            let tuning = LoopTuning::from_config(&plan.tuning)?;
            let out = MasterWorker::new(tuning.workers)
                .sequential(tuning.sequential)
                .run_checked((0..n).collect(), |x| busy(cost, x), &opts)
                .map_err(|e| e.to_string())?;
            Ok(digest(out.into_iter()))
        }
        PatternKind::Pipeline => {
            let stages: Vec<Stage<u64>> = plan
                .stages
                .iter()
                .map(|(name, cost)| {
                    let cost = *cost;
                    Stage::new(name.clone(), move |x: u64| busy(cost, x))
                })
                .collect();
            let out = PipelineTuning::from_config(&plan.tuning)?
                .build_pipeline(stages)
                .run_checked((0..n).collect(), &opts)
                .map_err(|e| e.to_string())?;
            Ok(digest(out.into_iter()))
        }
    }
}
