//! `perfbench --workload <name> --seed <n> --seconds <s> --trace <0|1>
//! [--patty <binary>]`
//!
//! Prints context lines, then one JSON result line:
//! `{"correct":…,"attempted":…,"failed":…,"metrics":{name:{value,unit}}}`.
//! Exits 1 without a result line when the run cannot be measured.

use patty_json::Json;
use patty_perfbench::{run, Settings, Workload};
use std::path::PathBuf;

fn parse_args(args: &[String]) -> Result<Settings, String> {
    let mut settings = Settings {
        workload: Workload::Analyze,
        seed: 0,
        seconds: 10.0,
        trace: false,
        patty: None,
    };
    let mut workload = None;
    let mut i = 0;
    while i < args.len() {
        let flag = args[i].as_str();
        let value = args
            .get(i + 1)
            .ok_or_else(|| format!("`{flag}` needs a value"))?;
        match flag {
            "--workload" => {
                workload = Some(
                    Workload::parse(value).ok_or_else(|| format!("unknown workload `{value}`"))?,
                )
            }
            "--seed" => settings.seed = value.parse().map_err(|_| format!("bad seed `{value}`"))?,
            "--seconds" => {
                settings.seconds = value
                    .parse()
                    .map_err(|_| format!("bad seconds `{value}`"))?
            }
            "--trace" => {
                settings.trace = match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(format!("--trace takes 0 or 1, got `{value}`")),
                }
            }
            "--patty" => settings.patty = Some(PathBuf::from(value)),
            _ => return Err(format!("unknown flag `{flag}`")),
        }
        i += 2;
    }
    settings.workload = workload.ok_or("--workload is required")?;
    Ok(settings)
}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let settings = match parse_args(&args) {
        Ok(s) => s,
        Err(e) => {
            eprintln!("perfbench: {e}");
            std::process::exit(2);
        }
    };
    let outcome = match run(&settings) {
        Ok(o) => o,
        Err(e) => {
            eprintln!("perfbench: {e}");
            std::process::exit(1);
        }
    };
    let detail = outcome.detail.iter().fold(Json::obj(), |j, (k, v)| {
        j.with(k.as_str(), Json::Str(v.clone()))
    });
    println!("{detail}");
    let metrics = outcome.metrics.iter().fold(Json::obj(), |j, m| {
        j.with(
            m.name,
            Json::obj()
                .with("value", Json::Float(m.value))
                .with("unit", Json::Str(m.unit.into())),
        )
    });
    let result = Json::obj()
        .with(
            "correct",
            Json::Bool(outcome.failed == 0 && outcome.attempted > 0),
        )
        .with("attempted", Json::Int(outcome.attempted as i64))
        .with("failed", Json::Int(outcome.failed as i64))
        .with("metrics", metrics);
    println!("{result}");
}
