//! `perfbench` — the repository's repeatable benchmark.
//!
//! ```text
//! perfbench --workload <paper|serve-read|serve-write> --seed <n>
//!           --seconds <s> --trace <0|1>
//! ```
//!
//! With `--trace 0` the run measures the end-to-end metrics; with
//! `--trace 1` it measures the per-layer metrics by timing, from this
//! package, the calls into each crate's public functions. Either way the
//! last line on stdout is one JSON object with the keys `correct`,
//! `attempted`, `failed` and `metrics`; the full record (seed, git sha,
//! nproc, build profile, every extra figure) goes to
//! `.bench_build/perfbench-out/` and a summary goes to stderr. See
//! `README.md` beside this file for what each workload and metric means.

mod paper;
mod serve;
mod span;
mod stats;

use repf_metrics::json::Json;

/// Command-line arguments.
pub struct Args {
    pub workload: String,
    pub seed: u64,
    pub seconds: f64,
    pub trace: bool,
}

/// One reported metric.
pub struct Metric {
    pub name: String,
    pub value: f64,
    pub unit: &'static str,
}

/// What one run measured.
#[derive(Default)]
pub struct Outcome {
    /// Operations or output checks attempted.
    pub attempted: u64,
    /// Attempted operations or checks that failed.
    pub failed: u64,
    /// `false` when a measurement is unusable (e.g. the load generator
    /// could not keep its schedule); such runs report no latency.
    pub valid: bool,
    /// The metrics printed on the result line.
    pub metrics: Vec<Metric>,
    /// Extra figures kept in the result file only.
    pub info: Vec<(String, Json)>,
}

impl Outcome {
    pub fn metric(&mut self, name: &str, value: f64, unit: &'static str) {
        self.metrics.push(Metric {
            name: name.to_string(),
            value,
            unit,
        });
    }

    pub fn info(&mut self, name: &str, value: Json) {
        self.info.push((name.to_string(), value));
    }

    /// Count one output check.
    pub fn check(&mut self, ok: bool, what: impl FnOnce() -> String) {
        self.attempted += 1;
        if !ok {
            self.failed += 1;
            eprintln!("perfbench: check failed: {}", what());
        }
    }
}

/// The end-to-end metrics every workload reports with `--trace 0`.
const END_TO_END: [&str; 7] = [
    "setup_s",
    "wall_s",
    "latency_p50_us",
    "plan_p50_us",
    "place_p50_us",
    "success_ratio",
    "peak_rss_mb",
];

/// The per-layer metrics every workload reports with `--trace 1`, with
/// their units; a layer a workload does not exercise reports 0.
const PER_LAYER: [(&str, &str); 46] = [
    ("trace.busy_s", "s"),
    ("sampling.busy_s", "s"),
    ("statstack.fit.calls", "count"),
    ("statstack.fit.busy_s", "s"),
    ("statstack.eval.busy_s", "s"),
    ("core.analyze.calls", "count"),
    ("core.analyze.busy_s", "s"),
    ("sim.solo.busy_s", "s"),
    ("sim.mix.busy_s", "s"),
    ("sim.solo.ns_per_ref", "ns"),
    ("sim.mix.ns_per_ref", "ns"),
    ("statstack.placement.busy_s", "s"),
    ("statstack.corun.busy_s", "s"),
    ("placement.nodes_explored", "count"),
    ("placement.pruned", "count"),
    ("cache.llc_misses", "count"),
    ("cache.dram_read_bytes", "bytes"),
    ("cache.demand_stall_cycles", "cycles"),
    ("hwpf.prefetches_issued", "count"),
    ("hwpf.useful_ratio", "ratio"),
    ("core.sw_prefetches", "count"),
    ("core.mddli.kept_ratio", "ratio"),
    ("sim.speedup_sw_nt", "ratio"),
    ("sim.traffic_sw_nt_vs_hw", "ratio"),
    ("sim.mix_ws_sw_nt_vs_hw", "ratio"),
    ("proto.decode.busy_s", "s"),
    ("proto.encode.busy_s", "s"),
    ("session.submit.busy_s", "s"),
    ("session.model.busy_s", "s"),
    ("session.model_cache.hit_ratio", "ratio"),
    ("session.evictions", "count"),
    ("session.admission_rejected", "count"),
    ("serve.io.frames_per_flush", "ratio"),
    ("serve.busy", "count"),
    ("serve.model_cache.hit_ratio", "ratio"),
    ("serve.handler.mrc.p50_us", "us"),
    ("serve.handler.plan.p50_us", "us"),
    ("serve.handler.corun.p50_us", "us"),
    ("serve.handler.placement.p50_us", "us"),
    ("serve.handler.submit.p50_us", "us"),
    ("serve.unattributed_frac", "ratio"),
    ("gen.send_lag_p99_us", "us"),
    ("gen.achieved_ops_per_s", "1/s"),
    ("traced.wall_s", "s"),
    ("traced.overhead_s", "s"),
    ("unattributed_frac", "ratio"),
];

fn usage() -> ! {
    eprintln!(
        "usage: perfbench --workload <paper|serve-read|serve-write> --seed <n> \
         --seconds <s> --trace <0|1>"
    );
    std::process::exit(2);
}

fn parse_args() -> Args {
    let mut workload = None;
    let mut seed = None;
    let mut seconds = None;
    let mut trace = None;
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let Some(value) = it.next() else { usage() };
        match flag.as_str() {
            "--workload" => workload = Some(value),
            "--seed" => seed = value.parse::<u64>().ok(),
            "--seconds" => seconds = value.parse::<f64>().ok().filter(|s| *s > 0.0),
            "--trace" => {
                trace = match value.as_str() {
                    "0" => Some(false),
                    "1" => Some(true),
                    _ => None,
                }
            }
            _ => usage(),
        }
    }
    match (workload, seed, seconds, trace) {
        (Some(workload), Some(seed), Some(seconds), Some(trace)) => Args {
            workload,
            seed,
            seconds,
            trace,
        },
        _ => usage(),
    }
}

/// The commit the checkout was made from, when it is a git checkout
/// (read straight from `.git`, no `git` process); `unknown` otherwise.
fn git_sha() -> String {
    let head = match std::fs::read_to_string(".git/HEAD") {
        Ok(h) => h.trim().to_string(),
        Err(_) => return "unknown".into(),
    };
    match head.strip_prefix("ref: ") {
        Some(r) => std::fs::read_to_string(format!(".git/{r}"))
            .map(|s| s.trim().to_string())
            .unwrap_or_else(|_| "unknown".into()),
        None => head,
    }
}

pub fn nproc() -> usize {
    std::thread::available_parallelism().map_or(1, |n| n.get())
}

fn main() {
    let args = parse_args();
    if args.workload.starts_with("serve") {
        // The daemon's placement search runs on one thread, so a Place
        // occupies one worker like every other op (see README.md).
        std::env::set_var("REPF_THREADS", "1");
    }
    let started = std::time::Instant::now();
    let mut out = match args.workload.as_str() {
        "paper" => paper::run(&args),
        "serve-read" => serve::run(&args, &serve::READ),
        "serve-write" => serve::run(&args, &serve::WRITE),
        _ => usage(),
    };
    let correct = out.valid && out.failed == 0;
    if args.trace {
        // Every per-layer metric, in table order; idle layers report 0.
        let mut have: Vec<Metric> = std::mem::take(&mut out.metrics);
        for (name, unit) in PER_LAYER {
            let value = have
                .iter()
                .position(|m| m.name == name)
                .map_or(0.0, |i| have.swap_remove(i).value);
            out.metric(name, value, unit);
        }
        for m in have {
            eprintln!("perfbench: metric {} is not in the per-layer table", m.name);
        }
    } else {
        for name in END_TO_END {
            if !out.metrics.iter().any(|m| m.name == name) {
                eprintln!("perfbench: end-to-end metric {name} not measured");
            }
        }
    }

    let meta = Json::obj([
        ("workload", Json::str(&args.workload)),
        ("seed", Json::Num(args.seed as f64)),
        ("seconds", Json::Num(args.seconds)),
        ("trace", Json::Bool(args.trace)),
        ("git_sha", Json::str(git_sha())),
        ("nproc", Json::Num(nproc() as f64)),
        (
            "profile",
            Json::str(if cfg!(debug_assertions) {
                "debug"
            } else {
                "release"
            }),
        ),
        ("run_s", Json::Num(started.elapsed().as_secs_f64())),
    ]);
    let metrics = || {
        Json::Obj(
            out.metrics
                .iter()
                .map(|m| {
                    (
                        m.name.clone(),
                        Json::obj([("value", Json::Num(m.value)), ("unit", Json::str(m.unit))]),
                    )
                })
                .collect(),
        )
    };
    let result = || {
        vec![
            ("correct".to_string(), Json::Bool(correct)),
            ("attempted".to_string(), Json::Num(out.attempted as f64)),
            ("failed".to_string(), Json::Num(out.failed as f64)),
            ("metrics".to_string(), metrics()),
        ]
    };
    let line = Json::Obj(result()).render();
    let mut record = vec![("meta".to_string(), meta)];
    record.extend(result());
    record.push(("info".to_string(), Json::Obj(std::mem::take(&mut out.info))));
    let record = Json::Obj(record);
    let path = span::out_dir().join(format!(
        "{}-seed{}-trace{}.json",
        args.workload,
        args.seed,
        u8::from(args.trace)
    ));
    match std::fs::write(&path, record.render() + "\n") {
        Ok(()) => eprintln!("perfbench: wrote {}", path.display()),
        Err(e) => eprintln!("perfbench: cannot write {}: {e}", path.display()),
    }
    for m in &out.metrics {
        eprintln!("perfbench: {:<40} {:>16.6} {}", m.name, m.value, m.unit);
    }
    println!("{line}");
}
