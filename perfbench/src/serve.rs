//! The `serve_mixed` workload: a `patty serve` daemon driven over TCP by
//! two persistent client connections in a closed loop.
//!
//! Every pass holds, per corpus program, three cache hits and one cold
//! job of each op (`analyze`, `tune`): 75% hits, 25% cold. A hit repeats
//! a job the set-up prefilled; a cold job is made unique by a trailing
//! comment, so its program hash misses the cache. Each client writes a
//! request line in one write and sets no socket option, so the reply
//! path is measured as a client sees it.

use crate::gen::pass_order;
use crate::spans::Recorder;
use patty_json::Json;
use patty_tool::{analyze_artifact, tune_artifact, Patty};
use std::io::{BufRead, BufReader, Write};
use std::net::TcpStream;
use std::path::{Path, PathBuf};
use std::process::{Child, Command, Stdio};
use std::sync::Mutex;
use std::time::{Duration, Instant};

/// A `stats` scrape goes out before every `SCRAPE_EVERY`-th job of a
/// connection.
pub const SCRAPE_EVERY: usize = 16;
/// Hits of each op per program per pass (one cold job of each op rides
/// along).
const HITS_PER_OP: usize = 3;

#[derive(Clone, Copy, Debug, PartialEq, Eq, PartialOrd, Ord)]
pub enum Op {
    Analyze,
    Tune,
}

impl Op {
    pub fn name(self) -> &'static str {
        match self {
            Op::Analyze => "analyze",
            Op::Tune => "tune",
        }
    }
}

#[derive(Clone, Copy, Debug, PartialEq, Eq, PartialOrd, Ord)]
pub struct ServeJob {
    pub program: usize,
    pub op: Op,
    pub cold: bool,
}

/// The per-pass multiset of jobs.
pub fn pass_multiset(programs: usize) -> Vec<ServeJob> {
    let mut jobs = Vec::new();
    for program in 0..programs {
        for op in [Op::Analyze, Op::Tune] {
            for _ in 0..HITS_PER_OP {
                jobs.push(ServeJob {
                    program,
                    op,
                    cold: false,
                });
            }
            jobs.push(ServeJob {
                program,
                op,
                cold: true,
            });
        }
    }
    jobs
}

/// The in-process artifacts every reply is checked against, rendered as
/// the compact JSON the wire carries.
pub struct References {
    pub analyze: Vec<String>,
    pub tune: Vec<String>,
    /// Wall time of the in-process `tune_artifact` calls, per corpus pass.
    pub tune_ms: f64,
    /// Tuner evaluations over the corpus.
    pub evaluations: u64,
}

impl References {
    pub fn of(&self, job: &ServeJob) -> &str {
        match job.op {
            Op::Analyze => &self.analyze[job.program],
            Op::Tune => &self.tune[job.program],
        }
    }
}

/// A cold variant of `source`: same program, unique text.
pub fn cold_source(source: &str, seed: u64, serial: u64) -> String {
    format!("{source}\n// perfbench cold job: seed {seed}, serial {serial}\n")
}

fn artifacts(patty: &Patty, source: &str) -> Result<(String, String, f64, u64), String> {
    let analyze = analyze_artifact(patty, source).map_err(|e| e.to_string())?;
    let run = patty.run_automatic(source).map_err(|e| e.to_string())?;
    let t = Instant::now();
    let tune = tune_artifact(patty, &run);
    let tune_ms = t.elapsed().as_secs_f64() * 1e3;
    let evaluations = tune
        .get("archs")
        .and_then(Json::as_arr)
        .unwrap_or(&[])
        .iter()
        .filter_map(|a| a.get("evaluations").and_then(Json::as_i64))
        .sum::<i64>();
    Ok((
        analyze.to_string(),
        tune.to_string(),
        tune_ms,
        evaluations as u64,
    ))
}

/// Compute the references in-process. A cold variant of each program
/// must give the same artifacts as the program itself, or the cold
/// replies could not be checked against them.
pub fn references(sources: &[&str]) -> Result<References, String> {
    let patty = Patty::new();
    let mut refs = References {
        analyze: vec![],
        tune: vec![],
        tune_ms: 0.0,
        evaluations: 0,
    };
    for source in sources {
        let (analyze, tune, tune_ms, evaluations) = artifacts(&patty, source)?;
        let (cold_analyze, cold_tune, _, _) = artifacts(&patty, &cold_source(source, 0, 0))?;
        if cold_analyze != analyze || cold_tune != tune {
            return Err("a cold variant changes the artifacts".into());
        }
        refs.analyze.push(analyze);
        refs.tune.push(tune);
        refs.tune_ms += tune_ms;
        refs.evaluations += evaluations;
    }
    Ok(refs)
}

/// A running `patty serve` daemon with its own cache directory.
pub struct Daemon {
    child: Child,
    pub addr: String,
    cache_dir: PathBuf,
    stderr: Option<std::thread::JoinHandle<()>>,
    /// Spawn until the "listening on" line, in seconds.
    pub ready_s: f64,
}

impl Daemon {
    pub fn spawn(bin: &Path, cache_dir: PathBuf) -> Result<Daemon, String> {
        let _ = std::fs::remove_dir_all(&cache_dir);
        std::fs::create_dir_all(&cache_dir)
            .map_err(|e| format!("cannot create {}: {e}", cache_dir.display()))?;
        let t = Instant::now();
        let mut child = Command::new(bin)
            .args(["serve", "--addr", "127.0.0.1:0", "--cache-dir"])
            .arg(&cache_dir)
            .stdin(Stdio::null())
            .stdout(Stdio::null())
            .stderr(Stdio::piped())
            .spawn()
            .map_err(|e| format!("cannot start {}: {e}", bin.display()))?;
        let mut stderr = BufReader::new(child.stderr.take().expect("stderr is piped"));
        let mut line = String::new();
        let addr = loop {
            line.clear();
            match stderr.read_line(&mut line) {
                Ok(0) | Err(_) => {
                    let _ = child.kill();
                    let _ = child.wait();
                    let _ = std::fs::remove_dir_all(&cache_dir);
                    return Err("patty serve exited before listening".into());
                }
                Ok(_) => {
                    if let Some(rest) = line.trim().strip_prefix("patty serve: listening on ") {
                        break rest.to_string();
                    }
                }
            }
        };
        let ready_s = t.elapsed().as_secs_f64();
        // Drain the rest of stderr so the daemon never blocks on a full pipe.
        let drain = std::thread::spawn(move || {
            let mut sink = String::new();
            while stderr.read_line(&mut sink).map(|n| n > 0).unwrap_or(false) {
                sink.clear();
            }
        });
        Ok(Daemon {
            child,
            addr,
            cache_dir,
            stderr: Some(drain),
            ready_s,
        })
    }

    pub fn connect(&self) -> Result<Conn, String> {
        let stream = TcpStream::connect(&self.addr).map_err(|e| format!("connect: {e}"))?;
        stream
            .set_read_timeout(Some(Duration::from_secs(60)))
            .map_err(|e| e.to_string())?;
        let reader = BufReader::new(stream.try_clone().map_err(|e| e.to_string())?);
        Ok(Conn {
            reader,
            writer: stream,
        })
    }

    /// Peak resident set of the daemon, in MiB.
    pub fn peak_rss_mb(&self) -> f64 {
        crate::peak_rss_mb(&format!("/proc/{}/status", self.child.id()))
    }

    /// Ask the daemon to stop, wait for it and remove its cache.
    pub fn shutdown(mut self) -> Result<(), String> {
        let asked = self.connect().and_then(|mut c| {
            c.call(
                &Json::obj()
                    .with("op", Json::Str("shutdown".into()))
                    .to_string(),
            )
        });
        let deadline = Instant::now() + Duration::from_secs(10);
        loop {
            match self.child.try_wait() {
                Ok(Some(status)) => {
                    asked?;
                    return if status.success() {
                        Ok(())
                    } else {
                        Err(format!("patty serve exited with {status}"))
                    };
                }
                Ok(None) if Instant::now() < deadline => {
                    std::thread::sleep(Duration::from_millis(5))
                }
                _ => return Err("patty serve did not stop after shutdown".into()),
            }
        }
    }
}

impl Drop for Daemon {
    fn drop(&mut self) {
        if !matches!(self.child.try_wait(), Ok(Some(_))) {
            let _ = self.child.kill();
            let _ = self.child.wait();
        }
        if let Some(h) = self.stderr.take() {
            let _ = h.join();
        }
        let _ = std::fs::remove_dir_all(&self.cache_dir);
    }
}

/// One persistent client connection.
pub struct Conn {
    reader: BufReader<TcpStream>,
    writer: TcpStream,
}

impl Conn {
    /// Send one request line (in one write) and wait for its reply line.
    pub fn call(&mut self, request: &str) -> Result<String, String> {
        let mut line = String::with_capacity(request.len() + 1);
        line.push_str(request);
        line.push('\n');
        self.writer
            .write_all(line.as_bytes())
            .map_err(|e| format!("write: {e}"))?;
        let mut reply = String::new();
        match self.reader.read_line(&mut reply) {
            Ok(0) => Err("connection closed".into()),
            Ok(_) => Ok(reply),
            Err(e) => Err(format!("read: {e}")),
        }
    }
}

/// A job request line.
pub fn request(id: u64, op: Op, source: &str) -> String {
    Json::obj()
        .with("id", Json::Int(id as i64))
        .with("op", Json::Str(op.name().into()))
        .with("source", Json::Str(source.into()))
        .to_string()
}

/// What one reply said.
#[derive(Clone, Debug)]
pub struct Reply {
    pub status: String,
    pub cached: String,
    pub micros: u64,
    pub result: Option<String>,
}

pub fn parse_reply(line: &str) -> Result<Reply, String> {
    let v = patty_json::parse(line.trim()).map_err(|e| format!("bad reply: {e}"))?;
    let field = |k: &str| v.get(k).and_then(Json::as_str).unwrap_or("").to_string();
    Ok(Reply {
        status: field("status"),
        cached: field("cached"),
        micros: v.get("micros").and_then(Json::as_i64).unwrap_or(0).max(0) as u64,
        result: v.get("result").map(Json::to_string),
    })
}

/// One timed job as the client saw it.
#[derive(Clone, Debug)]
pub struct Sample {
    pub job: ServeJob,
    pub latency_ms: f64,
    /// Request encoding, round trip and reply decoding, in ms.
    pub job_ms: f64,
    pub traced: bool,
    pub reply: Reply,
    pub ok: bool,
}

/// The shared closed-loop job source: a fixed number of whole passes,
/// each in seeded order.
pub struct JobSource {
    seed: u64,
    multiset: Vec<ServeJob>,
    passes: u64,
    /// (pass, its order, position in it)
    state: Mutex<(u64, Vec<ServeJob>, usize)>,
}

impl JobSource {
    pub fn new(seed: u64, programs: usize, passes: u64) -> JobSource {
        let multiset = pass_multiset(programs);
        let first = pass_order(&multiset, seed, 0);
        JobSource {
            seed,
            multiset,
            passes,
            state: Mutex::new((0, first, 0)),
        }
    }

    /// The next job with its pass number and a run-unique serial.
    pub fn next(&self) -> Option<(ServeJob, u64, u64)> {
        let mut st = self.state.lock().expect("job source lock poisoned");
        let (pass, order, pos) = &mut *st;
        if *pos == order.len() {
            if *pass + 1 >= self.passes {
                return None;
            }
            *pass += 1;
            *order = pass_order(&self.multiset, self.seed, *pass);
            *pos = 0;
        }
        let job = order[*pos];
        *pos += 1;
        let serial = *pass * self.multiset.len() as u64 + *pos as u64;
        Some((job, *pass, serial))
    }

    pub fn passes(&self) -> u64 {
        self.passes
    }
}

/// Per-client results of a timed phase.
#[derive(Default)]
pub struct ClientLog {
    pub samples: Vec<Sample>,
    /// Client latency of each `stats` scrape, in ms.
    pub scrapes: Vec<f64>,
    pub spans: Vec<crate::spans::Span>,
}

/// Drive one connection until the job source runs dry. With
/// `alternate_tracing`, odd passes record spans.
pub fn client(
    conn: &mut Conn,
    source: &JobSource,
    sources: &[&str],
    refs: &References,
    seed: u64,
    alternate_tracing: bool,
    epoch: Instant,
) -> Result<ClientLog, String> {
    let rec = Recorder::new(epoch);
    let mut log = ClientLog::default();
    let mut sent = 0usize;
    let stats_req = Json::obj()
        .with("op", Json::Str("stats".into()))
        .to_string();
    while let Some((job, pass, serial)) = source.next() {
        let traced = alternate_tracing && pass % 2 == 1;
        if sent.is_multiple_of(SCRAPE_EVERY) {
            let t = Instant::now();
            let start_ns = rec.now_ns();
            let reply = conn.call(&stats_req)?;
            let ms = t.elapsed().as_secs_f64() * 1e3;
            if traced {
                rec.record("obs.scrape", start_ns, rec.now_ns());
            }
            if parse_reply(&reply)?.status != "ok" {
                return Err("stats scrape failed".into());
            }
            log.scrapes.push(ms);
        }
        sent += 1;
        let text = if job.cold {
            cold_source(sources[job.program], seed, serial)
        } else {
            sources[job.program].to_string()
        };
        let job_start = Instant::now();
        let (latency_ms, reply) = if traced {
            rec.set_job(serial);
            rec.span("job", || -> Result<(f64, Reply), String> {
                let line = rec.span("serve.encode", || request(serial, job.op, &text));
                let (ms, raw) = rec.span("serve.round_trip", || {
                    let t = Instant::now();
                    let start_ns = rec.now_ns();
                    let raw = conn.call(&line);
                    let ms = t.elapsed().as_secs_f64() * 1e3;
                    if let Ok(r) = raw.as_deref().map(parse_micros) {
                        rec.record("serve.server", start_ns, start_ns + r * 1000);
                    }
                    (ms, raw)
                });
                let reply = rec.span("serve.decode", || parse_reply(&raw?))?;
                Ok((ms, reply))
            })?
        } else {
            let line = request(serial, job.op, &text);
            let t = Instant::now();
            let raw = conn.call(&line)?;
            let ms = t.elapsed().as_secs_f64() * 1e3;
            (ms, parse_reply(&raw)?)
        };
        let job_ms = job_start.elapsed().as_secs_f64() * 1e3;
        let ok = reply.status == "ok" && reply.result.as_deref() == Some(refs.of(&job));
        log.samples.push(Sample {
            job,
            latency_ms,
            job_ms,
            traced,
            reply,
            ok,
        });
    }
    log.spans = rec.into_spans();
    Ok(log)
}

/// The `micros` field of a raw reply line, without a full parse (the
/// server's share is recorded inside the round-trip span).
fn parse_micros(line: &str) -> u64 {
    line.split("\"micros\":")
        .nth(1)
        .map(|rest| {
            rest.chars()
                .take_while(char::is_ascii_digit)
                .collect::<String>()
        })
        .and_then(|d| d.parse().ok())
        .unwrap_or(0)
}

/// Prefill the cache with the repeat set (every program, both ops) over
/// two connections.
pub fn prefill(conns: &mut [Conn; 2], sources: &[&str], refs: &References) -> Result<(), String> {
    let jobs: Vec<ServeJob> = (0..sources.len())
        .flat_map(|program| {
            [Op::Analyze, Op::Tune].map(|op| ServeJob {
                program,
                op,
                cold: false,
            })
        })
        .collect();
    let next = Mutex::new(0usize);
    let [a, b] = conns;
    let run = |conn: &mut Conn| -> Result<(), String> {
        loop {
            let i = {
                let mut n = next.lock().expect("prefill lock poisoned");
                *n += 1;
                *n - 1
            };
            let Some(job) = jobs.get(i) else {
                return Ok(());
            };
            let reply =
                parse_reply(&conn.call(&request(i as u64, job.op, sources[job.program]))?)?;
            if reply.status != "ok" || reply.result.as_deref() != Some(refs.of(job)) {
                return Err(format!("prefill reply for program {} differs", job.program));
            }
        }
    };
    std::thread::scope(|s| {
        let ha = s.spawn(|| run(a));
        let rb = run(b);
        ha.join().expect("prefill client panicked").and(rb)
    })
}
