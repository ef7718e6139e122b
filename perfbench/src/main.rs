//! `perfbench`: one pass of one part of a benchmark workload per process,
//! so that each pass starts from a fresh heap and reports its own peak
//! memory.
//!
//! ```text
//! perfbench pass --workload <name> --seed <n> [--trace]
//! perfbench digest --workload <name> [--seed <n>] [--kernel reference|auto]
//! perfbench table1
//! ```
//!
//! `pass` prints one JSON line; `run.py` aggregates the passes of a run.
//! `digest` and `table1` print the values `pinned.rs` holds, for
//! re-pinning.

mod noc;
mod pinned;
mod table1;
mod trace;
mod workload;

use lnoc_bench::json::{escape, Obj};
use lnoc_core::config::CrossbarConfig;
use lnoc_netsim::SimKernel;
use std::any::Any;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::Mutex;
use trace::Tracer;
use workload::{noc_spec, NocSpec, Workload, DEFAULT_SEED};

/// The first panic message of the process, with its location.
static FIRST_PANIC: Mutex<Option<String>> = Mutex::new(None);

/// Text of a panic payload.
pub fn panic_text(payload: &(dyn Any + Send)) -> String {
    payload
        .downcast_ref::<&str>()
        .map(|s| s.to_string())
        .or_else(|| payload.downcast_ref::<String>().cloned())
        .unwrap_or_else(|| "panic with a non-text payload".to_string())
}

/// A JSON number: `{:?}` prints the shortest string that round-trips;
/// non-finite values become `null` (JSON has no NaN).
pub fn num(value: f64) -> String {
    if value.is_finite() {
        format!("{value:?}")
    } else {
        "null".to_string()
    }
}

/// The median of a non-empty sample (the upper one of an even count).
pub fn median(v: &mut [f64]) -> f64 {
    v.sort_by(f64::total_cmp);
    v[v.len() / 2]
}

fn arg<'a>(args: &'a [String], flag: &str) -> Option<&'a str> {
    args.iter()
        .position(|a| a == flag)
        .and_then(|i| args.get(i + 1))
        .map(String::as_str)
}

fn usage() -> ! {
    eprintln!(
        "usage: perfbench pass --workload <name> --seed <n> [--trace]\n\
         \x20      perfbench digest --workload <name> [--seed <n>] [--kernel reference|auto]\n\
         \x20      perfbench table1\n\
         workloads: {}",
        Workload::ALL.map(Workload::name).join(", ")
    );
    std::process::exit(2)
}

fn workload_arg(args: &[String]) -> Workload {
    arg(args, "--workload")
        .and_then(Workload::parse)
        .unwrap_or_else(|| usage())
}

fn seed_arg(args: &[String]) -> u64 {
    arg(args, "--seed")
        .map(|s| s.parse().unwrap_or_else(|_| usage()))
        .unwrap_or(DEFAULT_SEED)
}

/// Peak resident set of this process, in MiB (`VmHWM`).
fn peak_rss_mb() -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|s| {
            s.lines()
                .find_map(|l| l.strip_prefix("VmHWM:"))
                .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        })
        .map_or(f64::NAN, |kb| kb / 1024.0)
}

/// What one pass produced. A pass that panicked or aborted has no
/// metrics, only its `error`.
#[derive(Debug, Default)]
struct Outcome {
    metrics: Vec<(String, f64)>,
    /// Resolved shards and worker threads of a NoC pass.
    geometry: Option<(usize, usize)>,
    digest: Option<String>,
    error: Option<String>,
}

/// Runs one pass — the NoC workload `spec`, or `table1_paper` when there
/// is none — and turns a panic or abort into a failed pass carrying the
/// panic message (with its location, when the pass's panic hook saw it).
fn run_workload(spec: Option<NocSpec>, want_digest: Option<&str>, tr: &mut Tracer) -> Outcome {
    let outcome = catch_unwind(AssertUnwindSafe(|| match spec {
        Some(spec) => {
            let p = noc::run_pass(&spec, want_digest, tr);
            Outcome {
                metrics: p.metrics.iter().map(|&(k, v)| (k.to_string(), v)).collect(),
                geometry: Some((p.shards, p.threads)),
                digest: Some(p.digest),
                error: p.error,
            }
        }
        None => {
            let p = table1::run_pass(tr);
            Outcome {
                metrics: p.metrics,
                error: p.error,
                ..Outcome::default()
            }
        }
    }));
    outcome.unwrap_or_else(|payload| {
        let first = FIRST_PANIC.lock().unwrap_or_else(|e| e.into_inner()).take();
        let msg = first.unwrap_or_else(|| panic_text(payload.as_ref()));
        Outcome {
            error: Some(format!("panic: {msg}")),
            ..Outcome::default()
        }
    })
}

fn pass(args: &[String]) {
    let w = workload_arg(args);
    let seed = seed_arg(args);
    let traced = args.iter().any(|a| a == "--trace");
    let default_hook = std::panic::take_hook();
    std::panic::set_hook(Box::new(move |info| {
        let mut first = FIRST_PANIC.lock().unwrap_or_else(|e| e.into_inner());
        first.get_or_insert_with(|| info.to_string());
        drop(first);
        default_hook(info);
    }));

    let mut tr = Tracer::new(traced);
    let spec = noc_spec(w, seed);
    // Known before the run, so a pass that panics still reports it.
    let kernel = spec.as_ref().map_or("none", |s| {
        let routers = s.cfg.width * s.cfg.height;
        s.cfg
            .kernel
            .resolve_for(routers, s.cfg.injection_rate)
            .name()
    });
    let want = (seed == DEFAULT_SEED)
        .then(|| pinned::noc_digest(w))
        .flatten();
    let out = run_workload(spec, want, &mut tr);

    let mut m = Obj::new();
    for (name, value) in &out.metrics {
        m = m.raw(name, num(*value));
    }
    m = m.raw("peak_rss_mb", num(peak_rss_mb()));
    let cores = std::thread::available_parallelism().map_or(1, |n| n.get());
    let mut info = Obj::new();
    if let Some((shards, threads)) = out.geometry {
        info = info.raw("shards", shards).raw("threads", threads);
    }
    if let Some(digest) = &out.digest {
        info = info.str("digest", digest);
    }
    let error = out
        .error
        .as_deref()
        .map_or("null".to_string(), |e| format!("\"{}\"", escape(e)));
    let record = Obj::new()
        .str("workload", w.name())
        .raw("seed", seed)
        .raw("ok", out.error.is_none())
        .raw("error", error)
        .raw("metrics", m.build())
        .raw(
            "info",
            info.str("kernel", kernel)
                .raw("available_parallelism", cores)
                .build(),
        )
        .raw("spans", tr.to_json())
        .build();
    println!("{record}");
}

fn digest(args: &[String]) {
    let w = workload_arg(args);
    let seed = seed_arg(args);
    let kernel = match arg(args, "--kernel").unwrap_or("auto") {
        "auto" => SimKernel::Auto,
        "reference" => SimKernel::Reference,
        _ => usage(),
    };
    let spec = noc_spec(w, seed).unwrap_or_else(|| usage());
    println!("{}", noc::digest_only(&spec, kernel));
}

fn print_table1() {
    let table = lnoc_core::table1::Table1::generate(&CrossbarConfig::paper())
        .expect("Table 1 characterization");
    for row in &table.rows {
        let v = pinned::row_values(row).map(|x| format!("{x:?}"));
        println!("(Scheme::{:?}, [{}]),", row.scheme, v.join(", "));
    }
    println!("paper_err_pp = {:?}", table1::paper_err_pp(&table));
}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    match args.first().map(String::as_str) {
        Some("pass") => pass(&args),
        Some("digest") => digest(&args),
        Some("table1") => print_table1(),
        _ => usage(),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// A panic inside the simulator fails the pass with its message. At
    /// wake latency 2, transient link faults reach the
    /// `unreachable!("waking ports are never quiescent")` in the sleep
    /// FSM's bulk settlement on the `noc_faulted_16` inputs (seed 1).
    #[test]
    fn simulator_panic_fails_the_pass_with_its_message() {
        let mut spec = noc_spec(Workload::NocFaulted16, 1).expect("a NoC workload");
        spec.set_wake_latency(2);
        let out = run_workload(Some(spec), None, &mut Tracer::new(false));
        let err = out.error.expect("the pass fails");
        assert!(err.starts_with("panic: "), "{err}");
        assert!(err.contains("waking ports are never quiescent"), "{err}");
        assert!(out.metrics.is_empty());
    }
}
