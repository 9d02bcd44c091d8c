//! `perfbench --workload <name|all> --seed <n> --seconds <s> --trace <0|1>`
//!
//! Prints every metric by name with its unit, writes the results to
//! `benchmark/out/`, and ends standard output with one JSON object holding
//! `correct`, `attempted`, `failed` and `metrics`: the end-to-end metrics
//! with `--trace 0`, the per-layer metrics with `--trace 1`. Exits nonzero
//! when an output check failed.
//!
//! `perfbench compare <a.json> <b.json>` sets two `--workload all` results
//! side by side against the bounds in `./BENCHMARK.json`.

use perfbench::json::Json;
use perfbench::layers::{self, PER_LAYER};
use perfbench::stats::Summary;
use perfbench::trace;
use perfbench::workloads::{self, Measured, WORKLOADS};
use std::path::{Path, PathBuf};
use std::process::ExitCode;

/// Spans written in full to a trace file; totals always cover every span.
const TRACE_FILE_SPANS: usize = 20_000;

struct Args {
    workload: String,
    seed: u64,
    seconds: f64,
    trace: bool,
}

fn parse_args(argv: &[String]) -> Result<Args, String> {
    let mut a = Args {
        workload: "all".into(),
        seed: 1,
        seconds: 10.0,
        trace: false,
    };
    let mut it = argv.iter();
    while let Some(flag) = it.next() {
        let mut value = || it.next().ok_or(format!("{flag} needs a value"));
        match flag.as_str() {
            "--workload" => a.workload = value()?.clone(),
            "--seed" => a.seed = value()?.parse().map_err(|e| format!("--seed: {e}"))?,
            "--seconds" => {
                a.seconds = value()?.parse().map_err(|e| format!("--seconds: {e}"))?;
            }
            "--trace" => {
                a.trace = match value()?.as_str() {
                    "0" => false,
                    "1" => true,
                    other => return Err(format!("--trace takes 0 or 1, not {other}")),
                }
            }
            other => return Err(format!("unknown argument {other}")),
        }
    }
    if !(a.seconds > 0.0 && a.seconds <= 600.0) {
        return Err("--seconds must be in (0, 600]".into());
    }
    if a.workload != "all" && !WORKLOADS.iter().any(|w| w.name == a.workload) {
        let names: Vec<_> = WORKLOADS.iter().map(|w| w.name).collect();
        return Err(format!(
            "--workload must be all or one of {}",
            names.join(", ")
        ));
    }
    Ok(a)
}

/// `benchmark/out/`, relative to the working directory when it lies under
/// it: Unix-socket paths are capped at 108 bytes, and a checkout can sit
/// deep.
fn out_dir() -> PathBuf {
    let abs = Path::new(env!("CARGO_MANIFEST_DIR")).join("out");
    std::env::current_dir()
        .ok()
        .and_then(|cwd| abs.strip_prefix(cwd).map(Path::to_path_buf).ok())
        .unwrap_or(abs)
}

/// The driver gives a run 180 s. A deadlock in the program under test must
/// end this process with a failure before then, not hang it: SIGALRM's
/// default action does that. Re-armed for every workload.
fn arm_watchdog() {
    #[cfg(unix)]
    {
        extern "C" {
            fn alarm(seconds: u32) -> u32;
        }
        // SAFETY: `alarm` only schedules a signal for this process; no
        // handler is installed, so nothing of ours runs in signal context.
        unsafe {
            alarm(170);
        }
    }
}

/// One workload's outcome: counts, and metrics as `(name, value, unit)`.
struct Outcome {
    attempted: u64,
    failed: u64,
    metrics: Vec<(String, f64, &'static str)>,
}

fn report_end_to_end(name: &str, m: &Measured) {
    println!("{name:<12} op_time_us     {:>14.3} us", m.op_time_us);
    println!("{name:<12} setup_s        {:>14.6} s", m.setup_s);
    if let Some((derived, value, unit)) = m.derived {
        println!("{name:<12} {derived:<14} {value:>14.4} {unit}");
    }
    if !m.rounds.is_empty() {
        let rounds: Vec<String> = m
            .rounds
            .iter()
            .map(|&(ops, secs)| format!("{:.1}", secs / ops as f64 * 1e6))
            .collect();
        println!("{name:<12} rounds (us/op)  {}", rounds.join(" "));
    }
    if !m.samples_us.is_empty() {
        let s = Summary::of(&m.samples_us);
        let tail = s
            .high
            .map_or(String::new(), |(q, v)| format!(" p{q} {v:.3}"));
        println!(
            "{name:<12} single ops     p50 {:.3}{tail} us, n={}",
            s.median, s.n
        );
    }
    println!(
        "{name:<12} transport      {} msgs, {} retransmits, {} suspicions",
        m.stats.messages, m.stats.retransmits, m.stats.suspicions
    );
    let share = m.failed as f64 / m.attempted.max(1) as f64;
    println!(
        "{name:<12} failed_share   {share:>14.6} ({} of {})",
        m.failed, m.attempted
    );
    if let Some(fp) = m.fingerprint {
        println!("{name:<12} fingerprint    {fp:>#14x}");
    }
}

fn end_to_end(name: &str, args: &Args) -> Outcome {
    let m = workloads::run(name, args.seed, args.seconds, false).expect("name was checked");
    report_end_to_end(name, &m);
    Outcome {
        attempted: m.attempted,
        failed: m.failed,
        metrics: vec![
            ("op_time_us".into(), m.op_time_us, "us"),
            ("setup_s".into(), m.setup_s, "s"),
        ],
    }
}

/// The traced pass: the workload at quarter length untraced and again
/// traced (their difference is the tracing overhead), then the `layers`
/// microbenchmarks.
fn per_layer(name: &str, args: &Args, out: &Path) -> Outcome {
    let quarter = args.seconds / 4.0;
    let plain = workloads::run(name, args.seed, quarter, false).expect("name was checked");
    let traced = workloads::run(name, args.seed, quarter, true).expect("name was checked");
    let shares = trace::layer_shares(&traced.spans);
    let file = out.join(format!("trace-{name}.json"));
    let doc = trace::to_json(name, &traced.spans, TRACE_FILE_SPANS);
    if let Err(e) = std::fs::write(&file, doc.render()) {
        eprintln!("perfbench: cannot write {}: {e}", file.display());
    }

    let mut l = layers::run(args.seed);
    l.value("trace.transport_send_share", shares.transport_send);
    l.value(
        "trace.transport_recv_wait_share",
        shares.transport_recv_wait,
    );
    l.value("trace.above_transport_share", shares.above_transport);
    l.value("trace.reconciled_share", shares.reconciled);
    l.value(
        "trace.overhead_share",
        (traced.op_time_us - plain.op_time_us) / plain.op_time_us,
    );
    for m in &l.metrics {
        print!("{name:<12} {:<42} {:>14.4} {:<6}", m.name, m.value, m.unit);
        match &m.summary {
            Some(s) => match s.high {
                Some((q, v)) => println!(" n={} p{q}={v:.4}", s.n),
                None => println!(" n={}", s.n),
            },
            None => println!(),
        }
    }
    println!(
        "{name:<12} op_time_us untraced {:.3}, traced {:.3}; {} spans (self time by name, ns)",
        plain.op_time_us,
        traced.op_time_us,
        traced.spans.len()
    );
    for (span, ns) in &shares.by_name {
        println!("{name:<12}   {span:<40} {ns:>14}");
    }
    let missing: Vec<_> = PER_LAYER
        .iter()
        .filter(|d| l.metrics.iter().filter(|m| m.name == d.0).count() != 1)
        .map(|d| d.0)
        .collect();
    assert!(
        missing.is_empty(),
        "per-layer metrics not emitted exactly once: {missing:?}"
    );
    Outcome {
        attempted: plain.attempted + traced.attempted,
        failed: plain.failed + traced.failed,
        metrics: l
            .metrics
            .iter()
            .map(|m| (m.name.to_string(), m.value, m.unit))
            .collect(),
    }
}

fn result_json(o: &Outcome) -> Json {
    Json::obj([
        ("correct", Json::Bool(o.failed == 0)),
        ("attempted", Json::Num(o.attempted as f64)),
        ("failed", Json::Num(o.failed as f64)),
        (
            "metrics",
            Json::obj(o.metrics.iter().map(|(name, value, unit)| {
                (
                    name.clone(),
                    Json::obj([
                        ("value", Json::Num(*value)),
                        ("unit", Json::Str((*unit).into())),
                    ]),
                )
            })),
        ),
    ])
}

fn run(args: &Args) -> ExitCode {
    let out = out_dir();
    if let Err(e) = std::fs::create_dir_all(&out) {
        eprintln!("perfbench: cannot create {}: {e}", out.display());
        return ExitCode::from(2);
    }
    // The socket backend puts its Unix sockets under the temp dir; keep
    // them inside the checkout. Set before any thread exists.
    std::env::set_var("TMPDIR", &out);
    println!(
        "perfbench: seed {} seconds {} trace {} cores {}",
        args.seed,
        args.seconds,
        u8::from(args.trace),
        perfbench::world::cores()
    );

    let one = |name: &str| {
        arm_watchdog();
        if args.trace {
            per_layer(name, args, &out)
        } else {
            end_to_end(name, args)
        }
    };
    let total = if args.workload == "all" {
        // Every workload in turn; metric names gain the workload as prefix.
        let mut total = Outcome {
            attempted: 0,
            failed: 0,
            metrics: Vec::new(),
        };
        for w in &WORKLOADS {
            let o = one(w.name);
            total.attempted += o.attempted;
            total.failed += o.failed;
            total.metrics.extend(
                o.metrics
                    .into_iter()
                    .map(|(n, v, u)| (format!("{}.{n}", w.name), v, u)),
            );
        }
        total
    } else {
        one(&args.workload)
    };
    let doc = result_json(&total).render();
    let file = out.join(format!(
        "results-{}-trace{}.json",
        args.workload,
        u8::from(args.trace)
    ));
    if let Err(e) = std::fs::write(&file, &doc) {
        eprintln!("perfbench: cannot write {}: {e}", file.display());
    }
    println!("{doc}");
    if total.failed == 0 {
        ExitCode::SUCCESS
    } else {
        eprintln!(
            "perfbench: {} of {} ops failed their checks",
            total.failed, total.attempted
        );
        ExitCode::FAILURE
    }
}

/// Set-up times this close are taken as equal whatever their ratio: the
/// in-process set-ups are a few hundred microseconds of thread spawning.
const SETUP_FLOOR_S: f64 = 0.05;

fn compare(a_path: &str, b_path: &str) -> Result<bool, String> {
    let load = |p: &str| {
        std::fs::read_to_string(p)
            .map_err(|e| format!("{p}: {e}"))
            .and_then(|t| Json::parse(&t).map_err(|e| format!("{p}: {e}")))
    };
    let (a, b, manifest) = (load(a_path)?, load(b_path)?, load("BENCHMARK.json")?);
    let bounds: Vec<(String, f64)> = manifest
        .get("end_to_end")
        .and_then(Json::as_arr)
        .ok_or("BENCHMARK.json has no end_to_end list")?
        .iter()
        .filter_map(|m| {
            Some((
                m.get("name")?.as_str()?.to_string(),
                m.get("bound")?.as_f64()?,
            ))
        })
        .collect();
    let Some(Json::Obj(metrics)) = a.get("metrics") else {
        return Err(format!("{a_path} has no metrics"));
    };
    let mut agree = true;
    println!(
        "{:<28} {:>16} {:>16} {:>9} {:>7}",
        "metric", "first", "second", "change", "bound"
    );
    for (key, first) in metrics {
        let metric = key.rsplit('.').next().unwrap_or(key);
        let Some(&(_, bound)) = bounds.iter().find(|(n, _)| n == metric) else {
            continue;
        };
        let value = |v: &Json| v.get("value").and_then(Json::as_f64);
        let (Some(x), Some(y)) = (
            value(first),
            b.get("metrics").and_then(|m| m.get(key)).and_then(value),
        ) else {
            return Err(format!("{key} is missing a value"));
        };
        let change = (y - x) / x;
        let ok = change.abs() <= bound || (metric == "setup_s" && (y - x).abs() <= SETUP_FLOOR_S);
        agree &= ok;
        println!(
            "{key:<28} {x:>16.6} {y:>16.6} {:>8.2}% {:>6.0}%{}",
            change * 100.0,
            bound * 100.0,
            if ok { "" } else { "  DIFFERS" }
        );
    }
    Ok(agree)
}

fn main() -> ExitCode {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    if argv.first().is_some_and(|a| a == "compare") {
        return match argv.as_slice() {
            [_, a, b] => match compare(a, b) {
                Ok(true) => ExitCode::SUCCESS,
                Ok(false) => ExitCode::FAILURE,
                Err(e) => {
                    eprintln!("perfbench compare: {e}");
                    ExitCode::from(2)
                }
            },
            _ => {
                eprintln!("usage: perfbench compare <a.json> <b.json>");
                ExitCode::from(2)
            }
        };
    }
    match parse_args(&argv) {
        Ok(args) => run(&args),
        Err(e) => {
            eprintln!("perfbench: {e}");
            ExitCode::from(2)
        }
    }
}
